//! `forum_sessions`: scripted §6.4 sessions on `ForumApp` and `CalendarApp`
//! with their vulnerable configurations (input validation and CSRF tokens
//! off). One client thread logs in (a `Set-Cookie` write into the jar),
//! posts a topic or event, posts N replies through `submit_form` (POST,
//! redirect, GET), browses the index and follows a link.
//!
//! A seeded share of replies carries an `escudo_apps::attacks` XSS payload,
//! whose goal is probed after the page that first carries it loads (and
//! whose trigger event is fired on every page that carries it); each
//! observed verdict must match the declared expectation — ESCUDO
//! neutralises, SOP admits. Replies also carry quote chains of seeded
//! nesting depth, up to a few hundred levels, so tree-building cost that
//! grows with depth shows.
//!
//! ESCUDO and SOP sessions alternate on the same script, and each session
//! starts a fresh app, so page size stays bounded. This exercises the
//! mediation layer unlike `multi_origin_site`: jar writes beside reads, the
//! deny path, script-initiated requests and redirects. The response cache
//! never engages.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use escudo_apps::attacker::AttackerSite;
use escudo_apps::attacks::{calendar_xss_attacks, forum_xss_attacks, XssAttack, XssGoal};
use escudo_apps::{CalendarApp, CalendarConfig, Expectation, ForumApp, ForumConfig};
use escudo_browser::{Browser, BrowserError, PageId, PolicyMode};
use escudo_dom::EventType;
use escudo_net::{Method, Request, Url};

use crate::check::{check_page, check_verdict, Problems};
use crate::measure::{
    timed_setups, Client, FabricDelta, FabricSnap, Outcome, RunCfg, TracedServer, SETUPS,
};
use crate::stats::Rng;

const FORUM: &str = "http://forum.example";
const CALENDAR: &str = "http://calendar.example";
const ATTACKER: &str = "http://evil.example";

/// Which application a session drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// The phpBB-like forum.
    Forum,
    /// The PHP-Calendar-like calendar.
    Calendar,
}

/// One reply (forum) or extra event (calendar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Index into the app's XSS corpus, when the reply carries an attack.
    pub attack: Option<usize>,
    /// `<blockquote>` nesting depth of the quoted text.
    pub depth: usize,
    /// Words of quoted text.
    pub words: usize,
}

/// One scripted session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// The application.
    pub app: App,
    /// The replies, in posting order.
    pub replies: Vec<Reply>,
}

/// Generates the next session script from `rng`: 3–6 replies, 35% carrying
/// an attack, quote depth mostly shallow. At most one reply per session
/// (in 40% of sessions) quotes 128–320 levels deep, so the largest page a
/// session builds, and with it peak memory, does not hinge on how many deep
/// replies one unlucky session happened to draw.
pub fn script(rng: &mut Rng) -> Script {
    let app = if rng.chance(0.5) {
        App::Forum
    } else {
        App::Calendar
    };
    let count = rng.range(3, 6);
    let deep = rng.chance(0.4).then(|| rng.below(count));
    let replies = (0..count)
        .map(|k| {
            let attack = rng.chance(0.35).then(|| rng.below(4));
            let depth = if deep == Some(k) {
                rng.range(128, 320)
            } else {
                match rng.below(10) {
                    0..=5 => 0,
                    6..=8 => rng.range(1, 8),
                    _ => rng.range(16, 64),
                }
            };
            Reply {
                attack,
                depth,
                words: rng.range(5, 40),
            }
        })
        .collect();
    Script { app, replies }
}

/// The first `count` scripts of `seed` (what a run with that seed drives).
#[must_use]
pub fn scripts(seed: u64, count: usize) -> Vec<Script> {
    let mut rng = Rng::new(seed, 11);
    (0..count).map(|_| script(&mut rng)).collect()
}

fn reply_body(reply: &Reply, attack: Option<&XssAttack>) -> String {
    const WORDS: [&str; 8] = [
        "quote", "ring", "reply", "forum", "event", "thanks", "agree", "see",
    ];
    let text: Vec<&str> = (0..reply.words)
        .map(|i| WORDS[(i * 5 + reply.depth) % WORDS.len()])
        .collect();
    let mut body = format!(
        "{}{}{}",
        "<blockquote>".repeat(reply.depth),
        text.join(" "),
        "</blockquote>".repeat(reply.depth)
    );
    if let Some(attack) = attack {
        body.push_str(&attack.payload);
    }
    body
}

/// XSS attacks: the same-origin policy admits them, ESCUDO neutralises them.
pub const XSS_EXPECTATION: Expectation = Expectation {
    sop: escudo_apps::Verdict::Succeeds,
    escudo: escudo_apps::Verdict::Neutralized,
};

/// What a session needs to probe attack goals from outside the browser.
struct Probes {
    origin: &'static str,
    cookie: &'static str,
    deface_target: String,
    stolen: Arc<Mutex<Vec<String>>>,
    acted: Box<dyn Fn() -> usize>,
    events: Box<dyn Fn() -> usize>,
}

impl Probes {
    fn stolen(&self) -> usize {
        self.stolen
            .lock()
            .expect("attacker log lock")
            .iter()
            .filter(|query| query.contains(self.cookie))
            .count()
    }
}

/// Runs one scripted session in a fresh browser under `mode`, checking every
/// call against `expectation` for attacks.
pub fn run_session(
    client: &mut Client,
    mode: PolicyMode,
    script: &Script,
    expectation: Expectation,
    cfg: &RunCfg,
) -> Browser {
    let mut browser = Browser::new(mode);
    let attacker = AttackerSite::new();
    let stolen = attacker.stolen();
    browser.network_mut().register(
        ATTACKER,
        TracedServer::new(attacker, Arc::clone(&cfg.tracer), true, 0),
    );
    let probes = match script.app {
        App::Forum => {
            let app = ForumApp::new(ForumConfig::vulnerable());
            let state = app.state();
            browser.network_mut().register(
                FORUM,
                TracedServer::new(app, Arc::clone(&cfg.tracer), false, 0),
            );
            Probes {
                origin: FORUM,
                cookie: escudo_apps::forum::SID_COOKIE,
                deface_target: "topic-1".to_string(),
                stolen,
                acted: Box::new(move || {
                    let state = state.lock().expect("forum state lock");
                    state
                        .topics
                        .iter()
                        .filter(|t| t.title == "xss-spam" && t.author == "victim")
                        .count()
                }),
                events: Box::new(|| 0),
            }
        }
        App::Calendar => {
            let app = CalendarApp::new(CalendarConfig::vulnerable());
            let state = app.state();
            browser.network_mut().register(
                CALENDAR,
                TracedServer::new(app, Arc::clone(&cfg.tracer), false, 0),
            );
            Probes {
                origin: CALENDAR,
                cookie: escudo_apps::calendar::SESSION_COOKIE,
                deface_target: "event-1".to_string(),
                stolen,
                acted: {
                    let state = Arc::clone(&state);
                    Box::new(move || {
                        let state = state.lock().expect("calendar state lock");
                        state
                            .events
                            .iter()
                            .filter(|e| e.title == "xss-event" && e.author == "victim")
                            .count()
                    })
                },
                events: Box::new(move || state.lock().expect("calendar state lock").events.len()),
            }
        }
    };
    let corpus = match script.app {
        App::Forum => forum_xss_attacks(),
        App::Calendar => calendar_xss_attacks(),
    };
    let (form, marker_after_post) = match script.app {
        App::Forum => ("new-topic", "topic-1"),
        App::Calendar => ("add-event", "event-1"),
    };
    let index_marker = match script.app {
        App::Forum => "new-topic",
        App::Calendar => "add-event",
    };

    let login = format!("{}/login.php?user=victim", probes.origin);
    let Some(index) = step(
        client,
        &mut browser,
        (script.app, Step::Login),
        index_marker,
        |b| b.navigate(&login),
    ) else {
        return browser;
    };
    let fields: Vec<(&str, &str)> = match script.app {
        App::Forum => vec![("subject", "Welcome"), ("message", "original message")],
        App::Calendar => vec![
            ("title", "Welcome party"),
            ("day", "10"),
            ("description", "original description"),
        ],
    };
    let Some(mut page) = step(
        client,
        &mut browser,
        (script.app, Step::Post),
        marker_after_post,
        |b| b.submit_form(index, form, &fields),
    ) else {
        return browser;
    };
    for (k, reply) in script.replies.iter().enumerate() {
        let attack = reply.attack.map(|i| &corpus[i]);
        let body = reply_body(reply, attack);
        let acted_before = (probes.acted)();
        let stolen_before = probes.stolen();
        let title = format!("Potluck {k}");
        let (reply_form, fields): (&str, Vec<(&str, &str)>) = match script.app {
            App::Forum => ("reply-form", vec![("message", &body)]),
            App::Calendar => (
                "add-event",
                vec![("title", &title), ("day", "11"), ("description", &body)],
            ),
        };
        let marker = match script.app {
            App::Forum => format!("reply-{}", k + 1),
            App::Calendar => format!("event-{}", (probes.events)() + 1),
        };
        let current = page;
        let Some(next) = step(
            client,
            &mut browser,
            (script.app, Step::Reply),
            &marker,
            |b| b.submit_form(current, reply_form, &fields),
        ) else {
            return browser;
        };
        page = next;
        if let Some(attack) = attack {
            let succeeded = match attack.goal {
                XssGoal::ActOnBehalfOfVictim => (probes.acted)() > acted_before,
                XssGoal::ModifyExistingContent => browser
                    .page(page)
                    .text_of(&probes.deface_target)
                    .is_some_and(|text| text.contains("defaced by xss")),
                XssGoal::StealSessionCookie => probes.stolen() > stolen_before,
                // Probed by the trigger event below, on every page carrying it.
                XssGoal::HandlerDefacement => true,
            };
            if attack.goal != XssGoal::HandlerDefacement {
                let mut problems = Problems::default();
                check_verdict(&mut problems, expectation, mode, succeeded, attack.id);
                client.tally.record(problems.into_problem(attack.id));
            }
        }
        fire_handler_attack(client, &mut browser, page, expectation);
    }
    let index_url = format!("{}/index.php", probes.origin);
    let listing_marker = match script.app {
        App::Forum => "topic-row-1",
        App::Calendar => "event-1",
    };
    let Some(index) = step(
        client,
        &mut browser,
        (script.app, Step::Index),
        listing_marker,
        |b| b.navigate(&index_url),
    ) else {
        return browser;
    };
    fire_handler_attack(client, &mut browser, index, expectation);
    if script.app == App::Forum {
        if let Some(topic) = step(
            client,
            &mut browser,
            (script.app, Step::Link),
            "topic-1",
            |b| b.click_link(index, "topic-link-1"),
        ) {
            fire_handler_attack(client, &mut browser, topic, expectation);
        }
    }
    browser
}

/// The kinds of navigating call a session makes; with the app they form
/// the input classes the overhead is taken over.
#[derive(Debug, Clone, Copy)]
enum Step {
    Login = 0,
    Post = 1,
    Reply = 2,
    Index = 3,
    Link = 4,
}

/// One navigating call, timed and checked: it must succeed and land on a
/// page carrying `marker` whose app scripts and subresources all succeeded.
fn step(
    client: &mut Client,
    browser: &mut Browser,
    (app, kind): (App, Step),
    marker: &str,
    call: impl FnOnce(&mut Browser) -> Result<PageId, BrowserError>,
) -> Option<PageId> {
    let what = format!("{app:?} {kind:?}");
    let result = client.nav(browser, app as u32 * 8 + kind as u32, call);
    let mut problems = Problems::default();
    let page = match result {
        Ok(page) => {
            check_page(&mut problems, browser.page(page), marker);
            Some(page)
        }
        Err(error) => {
            problems.require(false, || format!("call failed: {error}"));
            None
        }
    };
    client.tally.record(problems.into_problem(&what));
    page
}

/// Fires the injected `onerror` handler when the page carries one; the
/// defacement it attempts must land under SOP and be denied under ESCUDO.
fn fire_handler_attack(
    client: &mut Client,
    browser: &mut Browser,
    page: PageId,
    expectation: Expectation,
) {
    if browser
        .page(page)
        .document
        .get_element_by_id("xss-img")
        .is_none()
    {
        return;
    }
    let mode = browser.mode();
    let mut problems = Problems::default();
    match client.event(browser, page, "xss-img", EventType::Error) {
        Ok(Some(_)) => {
            let defaced = browser
                .page(page)
                .text_of("app-status")
                .is_some_and(|text| text.contains("xss-by-handler"));
            check_verdict(
                &mut problems,
                expectation,
                mode,
                defaced,
                "injected onerror handler",
            );
        }
        Ok(None) => problems.require(false, || "#xss-img has no handler".to_string()),
        Err(error) => problems.require(false, || format!("fire_event failed: {error}")),
    }
    client
        .tally
        .record(problems.into_problem("xss-img onerror"));
}

/// Per-session counters folded into the outcome.
fn fold_session(out: &mut Outcome, browser: &Browser, rng: &mut Rng, jars: &mut u64) {
    if browser.mode() != PolicyMode::Escudo {
        return;
    }
    out.replay.sample_audit(browser, rng);
    let stats = browser.erm().engine_stats();
    out.engine_decisions.0 += stats.decisions;
    out.engine_decisions.1 += stats.cache_hits;
    out.jar_cookies += browser.cookie_jar().stats().resident as f64;
    *jars += 1;
}

/// Session scripts each set-up warms both modes with.
const WARM_SESSIONS: usize = 16;

/// Warms the code paths with [`WARM_SESSIONS`] seeded scripts in each mode.
fn setup(cfg: &RunCfg) -> Vec<Script> {
    let mut rng = Rng::new(cfg.seed, 12);
    let mut warm = Client::new(0, Arc::clone(&cfg.tracer), Instant::now());
    let warmups: Vec<Script> = (0..WARM_SESSIONS).map(|_| script(&mut rng)).collect();
    for script in &warmups {
        for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
            let _ = run_session(&mut warm, mode, script, XSS_EXPECTATION, cfg);
        }
    }
    warmups
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (_, setups) = timed_setups(SETUPS, || setup(cfg));
    out.setup_s = setups;
    let mut scripts = Rng::new(cfg.seed, 11);
    let mut sampler = Rng::new(cfg.seed, 13);
    let mut fabric = FabricDelta::default();
    let mut jars = 0u64;
    let mut sessions = 0u64;
    cfg.tracer.arm(true);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let mut client = Client::new(0, Arc::clone(&cfg.tracer), start);
    while start.elapsed() < deadline {
        let script = script(&mut scripts);
        for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
            let browser = run_session(&mut client, mode, &script, XSS_EXPECTATION, cfg);
            let empty = FabricSnap::take(&escudo_net::SharedNetwork::new());
            let mut session = FabricDelta::default();
            FabricSnap::take(browser.fabric()).accrue_since(&empty, &mut session);
            out.requests_all += session.requests;
            if mode == PolicyMode::Escudo {
                FabricSnap::take(browser.fabric()).accrue_since(&empty, &mut fabric);
            }
            fold_session(&mut out, &browser, &mut sampler, &mut jars);
        }
        sessions += 1;
    }
    out.window_s = start.elapsed().as_secs_f64();
    cfg.tracer.arm(false);
    out.fabric = fabric;
    out.jar_cookies /= jars.max(1) as f64;
    let login = Url::parse(&format!("{FORUM}/login.php?user=victim")).expect("login URL parses");
    let mut app = ForumApp::new(ForumConfig::vulnerable());
    let response = escudo_net::Server::handle(&mut app, &Request::new(Method::Get, login.clone()));
    out.replay.set_cookies.extend(
        response
            .set_cookies()
            .into_iter()
            .map(|d| (login.clone(), d)),
    );
    out.replay.header_urls.push(login);
    out.absorb(client);
    out.notes.push(format!(
        "inputs: {sessions} scripted session pairs (forum/calendar, 3-6 replies, 35% attacks, quote depth to 320) from seed {}",
        cfg.seed
    ));
    out
}
