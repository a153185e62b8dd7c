//! Page build pinned to its observable behaviour: the token stream of a seeded
//! token soup, the parse reports of the eight Figure-4 pages, and tree building
//! that stays linear in nesting depth.
//!
//! The two digests were computed with the char-by-char tokenizer the byte-offset
//! tokenizer replaced; a tokenizer change that alters any token, attribute,
//! decoded entity or raw-text boundary changes them.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use escudo::html::{parse_document, ParseOptions, Tokenizer};
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

/// xorshift64*: a small seeded generator, so the soup is the same on every run.
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
}

/// The soup's alphabet: markup delimiters, non-ASCII whitespace (NBSP, U+3000),
/// multibyte letters, mixed-case raw-text end tags, entities, and the pieces of
/// unterminated quotes and comments.
const ALPHABET: [&str; 56] = [
    "<",
    ">",
    "/",
    "</",
    "/>",
    "=",
    "\"",
    "'",
    " ",
    "\t",
    "\n",
    "\u{a0}",
    "\u{3000}",
    "\u{2028}",
    "é",
    "Ж",
    "日本",
    "😀",
    "a",
    "Z",
    "9",
    "-",
    "_",
    ":",
    "div",
    "DiV",
    "<div",
    "<p>",
    "</p>",
    "<script>",
    "</ScRiPt",
    "</script>",
    "<style>",
    "</STYLE>",
    "<title>",
    "</title",
    "<textarea>",
    "<!--",
    "-->",
    "--",
    "<!DOCTYPE html>",
    "<!doctype",
    "<!",
    "&amp;",
    "&lt;",
    "&#65;",
    "&#x1F600;",
    "&nbsp;",
    "&",
    ";",
    "#",
    " nonce=42",
    " ring=3",
    " R=",
    "x=\"1",
    " id='q",
];

fn soup(rng: &mut Rng, out: &mut String) {
    out.clear();
    for _ in 0..rng.below(24) {
        out.push_str(ALPHABET[rng.below(ALPHABET.len())]);
    }
}

#[test]
fn tokenizer_output_is_pinned_over_a_seeded_token_soup() {
    const INPUTS: usize = 50_000;
    let mut rng = Rng(0x5eed_0000_e5c0_d015);
    let mut input = String::new();
    let mut rendered = String::new();
    let mut digest = Fnv::new();
    for _ in 0..INPUTS {
        soup(&mut rng, &mut input);
        rendered.clear();
        for token in Tokenizer::new(&input) {
            write!(rendered, "{token:?}|").unwrap();
        }
        digest.write(rendered.as_bytes());
        digest.write(&[0xff]);
    }
    assert_eq!(
        digest.0, 0x0566_eaad_e16e_fcdd,
        "token-stream digest changed"
    );
}

#[test]
fn figure4_parse_reports_are_pinned() {
    let mut digest = Fnv::new();
    for scenario in figure4_scenarios() {
        let html = generate_page(&scenario);
        for options in [ParseOptions::default(), ParseOptions::legacy()] {
            let report = parse_document(&html, &options).report;
            let counts = [
                report.tokens,
                report.elements,
                report.text_nodes,
                report.rejected_end_tags,
                report.unmatched_end_tags,
            ];
            digest.write(format!("{}:{counts:?};", scenario.id).as_bytes());
        }
    }
    assert_eq!(
        digest.0, 0x95fe_ed06_1a4e_ce99,
        "Figure-4 parse-report digest changed"
    );
}

fn nested_divs(depth: usize) -> String {
    let mut html = String::with_capacity(depth * 11 + 32);
    html.push_str("<html><body>");
    for _ in 0..depth {
        html.push_str("<div>");
    }
    html.push('x');
    for _ in 0..depth {
        html.push_str("</div>");
    }
    html.push_str("</body></html>");
    html
}

fn best_parse_time(html: &str) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let result = parse_document(html, &ParseOptions::default());
            let elapsed = start.elapsed();
            assert_eq!(result.report.unmatched_end_tags, 0);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn tree_building_is_linear_in_nesting_depth() {
    let small = best_parse_time(&nested_divs(4 * 1024));
    let large = best_parse_time(&nested_divs(16 * 1024));
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    // Four times the depth: linear building takes about 4x, quadratic about 16x.
    assert!(
        ratio < 8.0,
        "16K/4K nesting parse ratio {ratio:.1} ({large:?} / {small:?})"
    );
}
