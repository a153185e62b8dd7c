//! The concurrent multi-session workload: N OS threads against one shared engine.
//!
//! The ROADMAP's north star is a deployment serving many users at once, which means
//! one [`EscudoEngine`] backing many *independent* browsing sessions concurrently.
//! This module provides the two drivers the `policy_concurrent` bench and the CI
//! gate are built on:
//!
//! * [`run_concurrent_sessions`] — the end-to-end workload: every thread owns a full
//!   browser stack (network, DOM, script interpreter) and drives a real
//!   forum/blog/calendar session — login, page loads, policy-mediated cookie
//!   attachment, script execution — while *sharing* the policy engine with every
//!   other thread,
//! * [`measure_concurrent_throughput`] — the decision-path microbenchmark: T threads
//!   hammer the shared engine with the standard decision workload and the
//!   aggregate decisions/second over the timed window is reported.
//!
//! The **shared cookie jar** ([`SharedCookieJar`]) gets the same treatment for the
//! `jar_concurrent` bench and its CI gate:
//!
//! * [`run_shared_jar_sessions`] — N full browser sessions (disjoint hosts, one
//!   forum instance each) concurrently storing into and attaching from one shared
//!   jar, with cross-session isolation counted afterwards,
//! * [`run_jar_oracle_sessions`] — a deterministic store/header script per session,
//!   every concurrent result compared byte-for-byte against a single-threaded
//!   [`CookieJar`] replay,
//! * [`measure_jar_throughput`] — T threads building `Cookie` headers against one
//!   pre-populated shared jar; aggregate headers/second over the timed window.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use escudo_apps::{BlogApp, CalendarApp, CalendarConfig, ForumApp, ForumConfig};
use escudo_browser::Browser;
use escudo_core::{EngineStats, EscudoEngine, PolicyEngine};
use escudo_net::{CookieJar, JarStats, SetCookie, SharedCookieJar, Url};

use crate::workload::DecisionCheck;

/// What one session thread did to the shared engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTally {
    /// Pages successfully loaded (parse + label extraction + scripts + render).
    pub page_loads: u64,
    /// Reference-monitor checks the thread's browser performed.
    pub checks: u64,
    /// Denials among those checks.
    pub denials: u64,
}

/// The aggregate outcome of a concurrent multi-session run.
#[derive(Debug, Clone)]
pub struct SessionWorkloadReport {
    /// Number of OS threads (= concurrent sessions).
    pub threads: usize,
    /// Rounds of page loads each session performed after login.
    pub rounds: usize,
    /// Per-thread tallies, in thread order.
    pub tallies: Vec<SessionTally>,
    /// Engine statistics after all sessions finished.
    pub stats: EngineStats,
    /// Wall-clock nanoseconds for the whole run (spawn to join).
    pub elapsed_ns: u128,
}

impl SessionWorkloadReport {
    /// Total pages loaded across all sessions.
    #[must_use]
    pub fn page_loads(&self) -> u64 {
        self.tallies.iter().map(|t| t.page_loads).sum()
    }

    /// Total reference-monitor checks across all sessions.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.tallies.iter().map(|t| t.checks).sum()
    }

    /// Total denials across all sessions.
    #[must_use]
    pub fn denials(&self) -> u64 {
        self.tallies.iter().map(|t| t.denials).sum()
    }
}

/// Drives one forum session: login, then `rounds` × (topic view + index).
fn drive_forum(engine: Arc<EscudoEngine>, user: &str, rounds: usize) -> SessionTally {
    let forum = ForumApp::new(ForumConfig::default());
    let state = forum.state();
    let mut browser = Browser::with_engine(engine);
    browser
        .network_mut()
        .register("http://forum.example", forum);
    let mut tally = SessionTally::default();
    browser
        .navigate(&format!("http://forum.example/login.php?user={user}"))
        .expect("forum login");
    tally.page_loads += 1;
    {
        let mut forum_state = state.lock().expect("app state lock");
        forum_state.topics.push(escudo_apps::forum::Topic {
            id: 1,
            title: format!("{user}'s topic"),
            author: user.to_string(),
            body: "concurrent workload seed post".to_string(),
        });
    }
    for _ in 0..rounds {
        browser
            .navigate("http://forum.example/viewtopic.php?t=1")
            .expect("topic view");
        browser
            .navigate("http://forum.example/index.php")
            .expect("forum index");
        tally.page_loads += 2;
    }
    tally.checks = browser.erm().checks();
    tally.denials = browser.erm().denials();
    tally
}

/// Drives one blog session: `rounds + 1` front-page loads (comments, ad slot,
/// inline scripts — the Figure 3 page).
fn drive_blog(engine: Arc<EscudoEngine>, rounds: usize) -> SessionTally {
    let mut browser = Browser::with_engine(engine);
    browser
        .network_mut()
        .register("http://blog.example", BlogApp::new());
    let mut tally = SessionTally::default();
    for _ in 0..=rounds {
        browser
            .navigate("http://blog.example/")
            .expect("blog front page");
        tally.page_loads += 1;
    }
    tally.checks = browser.erm().checks();
    tally.denials = browser.erm().denials();
    tally
}

/// Drives one calendar session: login, then `rounds` month views.
fn drive_calendar(engine: Arc<EscudoEngine>, user: &str, rounds: usize) -> SessionTally {
    let calendar = CalendarApp::new(CalendarConfig::default());
    let state = calendar.state();
    let mut browser = Browser::with_engine(engine);
    browser
        .network_mut()
        .register("http://calendar.example", calendar);
    let mut tally = SessionTally::default();
    browser
        .navigate(&format!("http://calendar.example/login.php?user={user}"))
        .expect("calendar login");
    tally.page_loads += 1;
    {
        let mut calendar_state = state.lock().expect("app state lock");
        calendar_state.events.push(escudo_apps::calendar::Event {
            id: 1,
            day: 12,
            title: format!("{user}'s standup"),
            description: "concurrent workload seed event".to_string(),
            author: user.to_string(),
        });
    }
    for _ in 0..rounds {
        browser
            .navigate("http://calendar.example/index.php")
            .expect("calendar month view");
        tally.page_loads += 1;
    }
    tally.checks = browser.erm().checks();
    tally.denials = browser.erm().denials();
    tally
}

/// Runs `threads` independent application sessions concurrently against one shared
/// engine, `rounds` page-load rounds each.
///
/// Thread `t` drives the forum, the blog or the calendar (rotating by `t % 3`) with
/// its own user name, its own in-memory server and its own browser — only the policy
/// engine (and therefore its decision counter) is shared, exactly as in a
/// multi-tenant enforcement deployment.
///
/// # Panics
///
/// Panics if any session thread fails a page load — the workload is deterministic, so
/// a failure is a real regression, not noise.
#[must_use]
pub fn run_concurrent_sessions(
    engine: &Arc<EscudoEngine>,
    threads: usize,
    rounds: usize,
) -> SessionWorkloadReport {
    let start = Instant::now();
    let tallies: Vec<SessionTally> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = Arc::clone(engine);
                scope.spawn(move || {
                    let user = format!("user{t}");
                    match t % 3 {
                        0 => drive_forum(engine, &user, rounds),
                        1 => drive_blog(engine, rounds),
                        _ => drive_calendar(engine, &user, rounds),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("session thread panicked"))
            .collect()
    });
    SessionWorkloadReport {
        threads,
        rounds,
        tallies,
        stats: engine.stats(),
        elapsed_ns: start.elapsed().as_nanos(),
    }
}

/// One measurement of aggregate decision throughput at a given thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThroughputSample {
    /// Number of threads hammering the shared engine.
    pub threads: usize,
    /// Decisions completed inside the timed window (across all threads).
    pub decisions: u64,
    /// Wall-clock nanoseconds for the timed window.
    pub elapsed_ns: u128,
}

impl ThroughputSample {
    /// Aggregate decisions per second across all threads.
    #[must_use]
    pub fn decisions_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.decisions as f64 * 1.0e9 / self.elapsed_ns as f64
        }
    }

    /// Mean nanoseconds per decision (aggregate wall time / decisions).
    #[must_use]
    pub fn ns_per_decision(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.decisions as f64
        }
    }
}

/// Measures steady-state aggregate decision throughput: a fresh engine is warmed with
/// one full pass over `workload`, then `threads` OS threads each re-run the workload
/// `passes_per_thread` times concurrently.
///
/// The timed window runs from the *earliest* per-thread start timestamp (taken by
/// each thread right after it clears the start barrier) to the *latest* per-thread
/// finish timestamp — thread spawn and join overhead are excluded, every decision
/// counted falls inside the window, and no thread's head start can inflate the
/// reported throughput.
#[must_use]
pub fn measure_concurrent_throughput(
    workload: &[DecisionCheck],
    threads: usize,
    passes_per_thread: usize,
) -> ThroughputSample {
    let engine = EscudoEngine::new();
    for (principal, object, op) in workload {
        std::hint::black_box(engine.decide(principal, object, *op));
    }
    let warm = engine.stats();

    let barrier = std::sync::Barrier::new(threads);
    let elapsed_ns = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..passes_per_thread {
                        for (principal, object, op) in workload {
                            std::hint::black_box(engine.decide(principal, object, *op));
                        }
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        let mut first_start: Option<Instant> = None;
        let mut last_finish: Option<Instant> = None;
        for handle in handles {
            let (start, finish) = handle.join().expect("throughput thread panicked");
            if first_start.is_none_or(|earliest| start < earliest) {
                first_start = Some(start);
            }
            if last_finish.is_none_or(|latest| finish > latest) {
                last_finish = Some(finish);
            }
        }
        last_finish
            .expect("at least one thread")
            .duration_since(first_start.expect("at least one thread"))
    })
    .as_nanos();

    ThroughputSample {
        threads,
        decisions: engine.stats().decisions - warm.decisions,
        elapsed_ns,
    }
}

/// Best-of-`samples` throughput measurement (scheduler noise only ever slows a run
/// down, so the best sample is the least-noisy estimate of the engine's capacity).
#[must_use]
pub fn best_throughput(
    workload: &[DecisionCheck],
    threads: usize,
    passes_per_thread: usize,
    samples: usize,
) -> ThroughputSample {
    (0..samples.max(1))
        .map(|_| measure_concurrent_throughput(workload, threads, passes_per_thread))
        .max_by(|a, b| a.decisions_per_sec().total_cmp(&b.decisions_per_sec()))
        .expect("at least one sample")
}

// --------------------------------------------------------------- shared cookie jar

/// The outcome of the shared-jar multi-session workload.
#[derive(Debug, Clone)]
pub struct JarWorkloadReport {
    /// Number of OS threads (= concurrent sessions, each against its own host).
    pub threads: usize,
    /// Rounds of page loads each session performed after login.
    pub rounds: usize,
    /// Per-thread tallies, in thread order.
    pub tallies: Vec<SessionTally>,
    /// Shared-jar statistics after all sessions finished.
    pub jar_stats: JarStats,
    /// Sessions whose own session cookie was present in the shared jar at the end.
    pub sessions_with_cookies: usize,
    /// Cookies that leaked across session hosts: candidates for session `t`'s host
    /// whose stored host is a *different* session's host. Must be 0.
    pub isolation_violations: usize,
    /// Wall-clock nanoseconds for the whole run (spawn to join).
    pub elapsed_ns: u128,
}

/// The host session `t` of the shared-jar workload drives.
#[must_use]
pub fn jar_session_host(t: usize) -> String {
    format!("forum{t}.example")
}

/// Runs `threads` full browser sessions concurrently, all storing into **one**
/// shared cookie jar (and deciding through one shared engine). Session `t` drives
/// its own forum instance at [`jar_session_host`]`(t)` — login plus `rounds` ×
/// (topic view + index) — so the jar sees concurrent stores and policy-mediated
/// attachments from every thread while each session's cookies stay scoped to its
/// own host.
///
/// # Panics
///
/// Panics if any session thread fails a page load — the workload is deterministic,
/// so a failure is a real regression, not noise.
#[must_use]
pub fn run_shared_jar_sessions(
    engine: &Arc<EscudoEngine>,
    jar: &Arc<SharedCookieJar>,
    threads: usize,
    rounds: usize,
) -> JarWorkloadReport {
    let start = Instant::now();
    let tallies: Vec<SessionTally> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = Arc::clone(engine);
                let jar = Arc::clone(jar);
                scope.spawn(move || {
                    let host = jar_session_host(t);
                    let forum = ForumApp::new(ForumConfig::default());
                    let state = forum.state();
                    let mut browser = Browser::with_jar(engine, jar);
                    browser
                        .network_mut()
                        .register(&format!("http://{host}"), forum);
                    let mut tally = SessionTally::default();
                    browser
                        .navigate(&format!("http://{host}/login.php?user=user{t}"))
                        .expect("forum login");
                    tally.page_loads += 1;
                    {
                        let mut forum_state = state.lock().expect("app state lock");
                        forum_state.topics.push(escudo_apps::forum::Topic {
                            id: 1,
                            title: format!("user{t}'s topic"),
                            author: format!("user{t}"),
                            body: "shared-jar workload seed post".to_string(),
                        });
                    }
                    for _ in 0..rounds {
                        browser
                            .navigate(&format!("http://{host}/viewtopic.php?t=1"))
                            .expect("topic view");
                        browser
                            .navigate(&format!("http://{host}/index.php"))
                            .expect("forum index");
                        tally.page_loads += 2;
                    }
                    tally.checks = browser.erm().checks();
                    tally.denials = browser.erm().denials();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("jar session thread panicked"))
            .collect()
    });
    let elapsed_ns = start.elapsed().as_nanos();

    // Cross-session isolation: every candidate for session t's host must have been
    // stored under exactly that host (forum cookies are host-only).
    let mut sessions_with_cookies = 0;
    let mut isolation_violations = 0;
    for t in 0..threads {
        let host = jar_session_host(t);
        let url = Url::parse(&format!("http://{host}/index.php")).expect("session url");
        let candidates = jar.candidates_for(&url);
        if candidates
            .iter()
            .any(|c| c.name == escudo_apps::forum::SID_COOKIE)
        {
            sessions_with_cookies += 1;
        }
        isolation_violations += candidates
            .iter()
            .filter(|c| !c.host.eq_ignore_ascii_case(&host))
            .count();
    }

    JarWorkloadReport {
        threads,
        rounds,
        tallies,
        jar_stats: jar.stats(),
        sessions_with_cookies,
        isolation_violations,
        elapsed_ns,
    }
}

/// One deterministic jar operation of the oracle script.
#[derive(Debug, Clone)]
enum JarOp {
    /// Store `directive` as if delivered by a response from `url`.
    Store(Url, SetCookie),
    /// Build the permissive-filter `Cookie` header for a request to `url`.
    Header(Url),
}

/// The deterministic per-session operation script the oracle replay is checked
/// against: stores under several path scopes (default-path, explicit, replacement)
/// interleaved with header builds that exercise §5.4 ordering and path scoping.
fn jar_oracle_script(host: &str, rounds: usize) -> Vec<JarOp> {
    let url = |suffix: &str| Url::parse(&format!("http://{host}{suffix}")).expect("script url");
    let mut ops = Vec::new();
    for round in 0..rounds {
        // Default-path store: set from /forum/login.php → scope /forum.
        ops.push(JarOp::Store(
            url("/forum/login.php"),
            SetCookie::new("sid", format!("s{round}")),
        ));
        // Host-wide store plus a deeper explicit scope.
        ops.push(JarOp::Store(
            url("/forum/login.php"),
            SetCookie::new("data", format!("d{round}")).with_path("/"),
        ));
        ops.push(JarOp::Store(
            url("/forum/admin/tool.php"),
            SetCookie::new("admin", format!("a{round}")),
        ));
        ops.push(JarOp::Header(url("/forum/viewtopic.php?t=1")));
        ops.push(JarOp::Header(url("/forum/admin/index.php")));
        // Out of the default-path scope: only the host-wide cookie may attach.
        ops.push(JarOp::Header(url("/blog/index.php")));
        ops.push(JarOp::Header(url("/")));
    }
    ops
}

/// The outcome of the shared-jar oracle run.
#[derive(Debug, Clone, Copy, Default)]
pub struct JarOracleReport {
    /// Number of OS threads (= concurrent sessions, disjoint hosts).
    pub threads: usize,
    /// `Cookie` headers built across all threads.
    pub headers: u64,
    /// Headers that differed from the single-threaded [`CookieJar`] oracle replay.
    pub mismatches: u64,
}

/// Runs the deterministic jar script on `threads` concurrent sessions over **one**
/// shared jar (disjoint hosts, so each session's answers are deterministic), then
/// replays every session's script on a fresh single-threaded [`CookieJar`] and
/// counts headers that are not byte-identical.
///
/// # Panics
///
/// Panics if a session thread panics.
#[must_use]
pub fn run_jar_oracle_sessions(threads: usize, rounds: usize) -> JarOracleReport {
    let jar = SharedCookieJar::new();
    let observed: Vec<Vec<Option<String>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let jar = &jar;
                scope.spawn(move || {
                    let script = jar_oracle_script(&format!("oracle{t}.example"), rounds);
                    let mut headers = Vec::new();
                    for op in &script {
                        match op {
                            JarOp::Store(url, directive) => jar.store(url, directive),
                            JarOp::Header(url) => {
                                headers.push(jar.cookie_header_for(url, |_| true));
                            }
                        }
                    }
                    headers
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("oracle session thread panicked"))
            .collect()
    });

    let mut report = JarOracleReport {
        threads,
        ..JarOracleReport::default()
    };
    for (t, observed_headers) in observed.iter().enumerate() {
        let mut oracle = CookieJar::new();
        let mut expected = Vec::new();
        for op in jar_oracle_script(&format!("oracle{t}.example"), rounds) {
            match op {
                JarOp::Store(url, directive) => oracle.store(&url, &directive),
                JarOp::Header(url) => expected.push(oracle.cookie_header_for(&url, |_| true)),
            }
        }
        report.headers += observed_headers.len() as u64;
        report.mismatches += observed_headers
            .iter()
            .zip(&expected)
            .filter(|(observed, expected)| observed != expected)
            .count() as u64;
    }
    report
}

/// One measurement of aggregate `Cookie`-header build throughput at a given thread
/// count.
#[derive(Debug, Clone, Copy, Default)]
pub struct JarThroughputSample {
    /// Number of threads hammering the shared jar.
    pub threads: usize,
    /// Headers built inside the timed window (across all threads).
    pub headers: u64,
    /// Wall-clock nanoseconds for the timed window.
    pub elapsed_ns: u128,
}

impl JarThroughputSample {
    /// Aggregate headers per second across all threads.
    #[must_use]
    pub fn headers_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.headers as f64 * 1.0e9 / self.elapsed_ns as f64
        }
    }

    /// Mean nanoseconds per header build.
    #[must_use]
    pub fn ns_per_header(&self) -> f64 {
        if self.headers == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.headers as f64
        }
    }
}

/// Measures steady-state header-build throughput: a jar is pre-populated with
/// `hosts` × `cookies_per_host` cookies under mixed path scopes, then `threads` OS
/// threads each build the `Cookie` header for every host's request URLs
/// `passes_per_thread` times. The timed window runs from the earliest per-thread
/// start to the latest per-thread finish, exactly like
/// [`measure_concurrent_throughput`].
#[must_use]
pub fn measure_jar_throughput(
    hosts: usize,
    cookies_per_host: usize,
    threads: usize,
    passes_per_thread: usize,
) -> JarThroughputSample {
    let jar = SharedCookieJar::new();
    let mut request_urls = Vec::with_capacity(hosts * 2);
    for h in 0..hosts {
        let host = format!("bench{h}.example");
        for c in 0..cookies_per_host {
            let setting =
                Url::parse(&format!("http://{host}/app{}/login.php", c % 3)).expect("setting url");
            jar.store(
                &setting,
                &SetCookie::new(format!("cookie{c}"), format!("v{c}")),
            );
        }
        request_urls
            .push(Url::parse(&format!("http://{host}/app0/index.php")).expect("request url"));
        request_urls.push(Url::parse(&format!("http://{host}/")).expect("request url"));
    }

    let barrier = std::sync::Barrier::new(threads);
    let elapsed_ns = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let jar = &jar;
                let request_urls = &request_urls;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..passes_per_thread {
                        for url in request_urls {
                            std::hint::black_box(jar.cookie_header_for(url, |_| true));
                        }
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        let mut first_start: Option<Instant> = None;
        let mut last_finish: Option<Instant> = None;
        for handle in handles {
            let (start, finish) = handle.join().expect("jar throughput thread panicked");
            if first_start.is_none_or(|earliest| start < earliest) {
                first_start = Some(start);
            }
            if last_finish.is_none_or(|latest| finish > latest) {
                last_finish = Some(finish);
            }
        }
        last_finish
            .expect("at least one thread")
            .duration_since(first_start.expect("at least one thread"))
    })
    .as_nanos();

    JarThroughputSample {
        threads,
        headers: (request_urls.len() * passes_per_thread * threads) as u64,
        elapsed_ns,
    }
}

/// Best-of-`samples` jar throughput (scheduler noise only ever slows a run down, so
/// the best sample is the least-noisy estimate of the jar's capacity).
#[must_use]
pub fn best_jar_throughput(
    hosts: usize,
    cookies_per_host: usize,
    threads: usize,
    passes_per_thread: usize,
    samples: usize,
) -> JarThroughputSample {
    (0..samples.max(1))
        .map(|_| measure_jar_throughput(hosts, cookies_per_host, threads, passes_per_thread))
        .max_by(|a, b| a.headers_per_sec().total_cmp(&b.headers_per_sec()))
        .expect("at least one sample")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::decision_workload;

    #[test]
    fn concurrent_sessions_share_one_engine_and_all_load() {
        let engine = Arc::new(EscudoEngine::new());
        let report = run_concurrent_sessions(&engine, 3, 2);
        assert_eq!(report.threads, 3);
        assert_eq!(report.tallies.len(), 3);
        // Every session (forum, blog, calendar) loaded its pages.
        for tally in &report.tallies {
            assert!(tally.page_loads >= 3, "tally: {tally:?}");
            assert!(tally.checks > 0, "tally: {tally:?}");
        }
        // The shared engine saw every session's checks.
        assert!(report.stats.decisions > 0);
        assert!(
            report.stats.decisions >= report.checks(),
            "stats: {:?}",
            report.stats
        );
    }

    #[test]
    fn throughput_window_is_steady_state() {
        let workload = decision_workload(8, 8);
        let sample = measure_concurrent_throughput(&workload, 2, 3);
        assert_eq!(sample.threads, 2);
        assert_eq!(sample.decisions, (workload.len() * 2 * 3) as u64);
        assert!(sample.elapsed_ns > 0);
        assert!(sample.decisions_per_sec() > 0.0);
        assert!(sample.ns_per_decision() > 0.0);
    }

    #[test]
    fn best_throughput_takes_the_fastest_sample() {
        let workload = decision_workload(4, 4);
        let best = best_throughput(&workload, 1, 2, 3);
        assert_eq!(best.decisions, (workload.len() * 2) as u64);
    }

    #[test]
    fn shared_jar_sessions_stay_isolated_per_host() {
        let engine = Arc::new(EscudoEngine::new());
        let jar = Arc::new(SharedCookieJar::new());
        let report = run_shared_jar_sessions(&engine, &jar, 3, 2);
        assert_eq!(report.threads, 3);
        assert_eq!(report.tallies.len(), 3);
        for tally in &report.tallies {
            assert!(tally.page_loads >= 5, "tally: {tally:?}");
            assert!(tally.checks > 0, "tally: {tally:?}");
        }
        // Every session's login cookie reached the shared jar; none leaked across
        // session hosts.
        assert_eq!(report.sessions_with_cookies, 3);
        assert_eq!(report.isolation_violations, 0);
        assert!(
            report.jar_stats.stored >= 3,
            "stats: {:?}",
            report.jar_stats
        );
        assert_eq!(report.jar_stats.evicted, 0);
    }

    #[test]
    fn jar_oracle_run_is_byte_identical_single_threaded_and_concurrent() {
        // Single session: trivially deterministic, must match the oracle.
        let report = run_jar_oracle_sessions(1, 2);
        assert_eq!(report.headers, 8);
        assert_eq!(report.mismatches, 0);
        // Concurrent sessions over disjoint hosts share the jar's shards but not
        // any host entry — still byte-identical to the per-session replay.
        let report = run_jar_oracle_sessions(4, 2);
        assert_eq!(report.headers, 32);
        assert_eq!(report.mismatches, 0);
    }

    #[test]
    fn jar_throughput_counts_every_header_in_the_window() {
        let sample = measure_jar_throughput(4, 3, 2, 5);
        assert_eq!(sample.threads, 2);
        assert_eq!(sample.headers, (4 * 2) as u64 * 5 * 2);
        assert!(sample.elapsed_ns > 0);
        assert!(sample.headers_per_sec() > 0.0);
        assert!(sample.ns_per_header() > 0.0);
        let best = best_jar_throughput(2, 2, 1, 2, 3);
        assert_eq!(best.headers, (2 * 2) as u64 * 2);
    }
}
