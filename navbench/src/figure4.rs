//! `figure4_pages`: the paper's own measurement. One client thread loads the
//! eight Figure-4 pages (`escudo_bench::workload`) at zero origin latency and
//! clicks every handler-carrying element after each load. ESCUDO and SOP
//! sessions alternate per navigation on identical inputs.
//!
//! Nearly all the work is html, labelling, script, render and ERM; the fetch
//! pool, response cache, jar and fault layers sit idle, so a net-layer change
//! should not move this workload.

use std::sync::Arc;
use std::time::{Duration, Instant};

use escudo_apps::Expectation;
use escudo_bench::{figure4_scenarios, generate_page};
use escudo_browser::{Browser, PageId, PolicyMode};
use escudo_core::{engine_for_mode, PolicyEngine};
use escudo_dom::EventType;
use escudo_net::{Request, Response, SharedCookieJar, SharedNetwork};

use crate::check::{check_page, check_verdict, Problems};
use crate::measure::{
    timed_setups, Client, FabricDelta, FabricSnap, Outcome, RunCfg, TracedServer, SETUPS,
};
use crate::stats::Rng;
use crate::trace::Tracer;

/// The origin serving the eight pages.
const ORIGIN: &str = "http://fig4.example";

/// Navigations per browser before it is replaced (`Browser` keeps every
/// page). A whole number of passes, so every session holds the same pages
/// whatever the seeded order, and peak memory does not depend on it.
const SESSION_NAVS: u64 = 36;

/// Shuffled passes over the eight pages in one input cycle.
const PASSES: usize = 16;

/// Passes over the eight pages each set-up warms both modes with.
const WARM_PASSES: usize = 8;

/// The heading every generated page carries; the seed salts it.
const HEADING: &str = "<h1>Generated workload page</h1>";

/// The seeded inputs: eight salted pages and the order they are loaded in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// `(html, handler element ids)` per Figure-4 scenario.
    pub pages: Vec<(String, Vec<String>)>,
    /// Page indices, cycled through for the whole run.
    pub order: Vec<usize>,
}

/// The page loaded twice per pass (scenario 4, "forum thread, medium"). With
/// nine loads per pass no cumulative share of page classes falls on one
/// half, so the median navigation lies inside one page's cluster of
/// latencies instead of on the edge between two clusters, where it would
/// jump between them from run to run.
const REPEATED_PAGE: usize = 3;

/// Generates the inputs for `seed`: each page's heading carries a
/// fixed-width seeded salt (same byte length for every seed), and the load
/// order is [`PASSES`] seeded shuffles of the eight pages plus
/// [`REPEATED_PAGE`] once more.
#[must_use]
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 4);
    let pages = figure4_scenarios()
        .iter()
        .map(|scenario| {
            let salted = format!("<h1>Generated workload page {:016x}</h1>", rng.next_u64());
            let html = generate_page(scenario).replacen(HEADING, &salted, 1);
            let handlers = (0..scenario.handlers)
                .map(|i| format!("action-{i}"))
                .collect();
            (html, handlers)
        })
        .collect::<Vec<_>>();
    let mut order = Vec::with_capacity(PASSES * pages.len());
    for _ in 0..PASSES {
        let mut pass: Vec<usize> = (0..pages.len()).chain([REPEATED_PAGE]).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    Inputs { pages, order }
}

/// A user-content handler (ring 3) writing its own region, whose ACL admits
/// writes from ring 2 inward: ESCUDO denies it, the same-origin policy
/// admits it.
pub const HANDLER_EXPECTATION: Expectation = Expectation {
    sop: escudo_apps::Verdict::Succeeds,
    escudo: escudo_apps::Verdict::Neutralized,
};

/// One mode's world: the engine that outlives sessions, the pages, and the
/// current session with its own fabric. A session gets a fresh fabric so
/// the fabric's bounded request log does not grow with the number of
/// navigations the host managed, which would make peak memory follow host
/// speed.
struct Side {
    engine: Arc<dyn PolicyEngine>,
    pages: Arc<Vec<String>>,
    tracer: Arc<Tracer>,
    fabric: Arc<SharedNetwork>,
    browser: Browser,
    navs: u64,
}

impl Side {
    fn new(mode: PolicyMode, inputs: &Inputs, cfg: &RunCfg) -> Self {
        let engine = engine_for_mode(mode);
        let pages: Arc<Vec<String>> =
            Arc::new(inputs.pages.iter().map(|(h, _)| h.clone()).collect());
        let (fabric, browser) = session(&engine, &pages, &cfg.tracer);
        Side {
            engine,
            pages,
            tracer: Arc::clone(&cfg.tracer),
            fabric,
            browser,
            navs: 0,
        }
    }

    /// Replaces the session, folding the finished one into `out`.
    fn renew(&mut self, out: &mut Outcome, rng: &mut Rng) {
        let empty = FabricSnap::take(&SharedNetwork::new());
        let mut finished = FabricDelta::default();
        FabricSnap::take(&self.fabric).accrue_since(&empty, &mut finished);
        out.requests_all += finished.requests;
        if self.browser.mode() == PolicyMode::Escudo {
            out.replay.sample_audit(&self.browser, rng);
            FabricSnap::take(&self.fabric).accrue_since(&empty, &mut out.fabric);
        }
        (self.fabric, self.browser) = session(&self.engine, &self.pages, &self.tracer);
        self.navs = 0;
    }
}

/// A fresh fabric serving the pages and a browser on it.
fn session(
    engine: &Arc<dyn PolicyEngine>,
    pages: &Arc<Vec<String>>,
    tracer: &Arc<Tracer>,
) -> (Arc<SharedNetwork>, Browser) {
    let fabric = Arc::new(SharedNetwork::new());
    let pages = Arc::clone(pages);
    let server = move |req: &Request| {
        let index: usize = req
            .url
            .path()
            .trim_start_matches("/s")
            .parse()
            .unwrap_or(usize::MAX);
        match pages.get(index) {
            Some(html) => Response::ok_html(html.clone()),
            None => Response::error(escudo_net::StatusCode::NOT_FOUND, "no such page"),
        }
    };
    fabric.register(
        ORIGIN,
        TracedServer::new(server, Arc::clone(tracer), false, 0),
    );
    let browser = Browser::with_network(
        Arc::clone(engine),
        Arc::new(SharedCookieJar::new()),
        Arc::clone(&fabric),
    );
    (fabric, browser)
}

/// Loads page `index` in `side` and clicks each of its handlers, checking
/// every call.
fn visit(client: &mut Client, side: &mut Side, inputs: &Inputs, index: usize) {
    let mode = side.browser.mode();
    let url = format!("{ORIGIN}/s{index}");
    let loaded = client.nav(&mut side.browser, index as u32, |b| b.navigate(&url));
    side.navs += 1;
    let mut problems = Problems::default();
    let page: Option<PageId> = match loaded {
        Ok(page) => {
            check_page(&mut problems, side.browser.page(page), "app-status");
            Some(page)
        }
        Err(error) => {
            problems.require(false, || format!("navigate failed: {error}"));
            None
        }
    };
    client.tally.record(problems.into_problem(&url));
    let Some(page) = page else { return };
    for element in &inputs.pages[index].1 {
        let mut problems = Problems::default();
        match client.event(&mut side.browser, page, element, EventType::Click) {
            Ok(Some(outcome)) => check_verdict(
                &mut problems,
                HANDLER_EXPECTATION,
                mode,
                outcome.succeeded(),
                &format!("onclick of #{element}"),
            ),
            Ok(None) => problems.require(false, || format!("#{element} has no handler")),
            Err(error) => problems.require(false, || format!("fire_event failed: {error}")),
        }
        client
            .tally
            .record(problems.into_problem(&format!("{url} click #{element}")));
    }
}

/// Builds both worlds and warms them: [`WARM_PASSES`] passes over every page
/// per mode.
fn setup(cfg: &RunCfg) -> (Inputs, Side, Side) {
    let inputs = inputs(cfg.seed);
    let mut escudo = Side::new(PolicyMode::Escudo, &inputs, cfg);
    let mut sop = Side::new(PolicyMode::SameOriginOnly, &inputs, cfg);
    let mut warm = Client::new(0, Arc::clone(&cfg.tracer), Instant::now());
    let (mut scrap, mut rng) = (Outcome::default(), Rng::new(cfg.seed, 41));
    let pass = inputs.order.len() / PASSES;
    for (step, index) in inputs.order.iter().take(WARM_PASSES * pass).enumerate() {
        if (step as u64).is_multiple_of(SESSION_NAVS) {
            escudo.renew(&mut scrap, &mut rng);
            sop.renew(&mut scrap, &mut rng);
        }
        visit(&mut warm, &mut escudo, &inputs, *index);
        visit(&mut warm, &mut sop, &inputs, *index);
    }
    escudo.renew(&mut scrap, &mut rng);
    sop.renew(&mut scrap, &mut rng);
    (inputs, escudo, sop)
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ((inputs, mut escudo, mut sop), setups) = timed_setups(SETUPS, || setup(cfg));
    out.setup_s = setups;
    let mut rng = Rng::new(cfg.seed, 40);
    cfg.tracer.arm(true);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let mut client = Client::new(0, Arc::clone(&cfg.tracer), start);
    let mut step = 0usize;
    while start.elapsed() < deadline {
        let index = inputs.order[step % inputs.order.len()];
        visit(&mut client, &mut escudo, &inputs, index);
        visit(&mut client, &mut sop, &inputs, index);
        step += 1;
        if escudo.navs >= SESSION_NAVS {
            escudo.renew(&mut out, &mut rng);
            sop.renew(&mut out, &mut rng);
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    cfg.tracer.arm(false);
    escudo.renew(&mut out, &mut rng);
    sop.renew(&mut out, &mut rng);
    let stats = escudo.engine.stats();
    out.engine_decisions = (stats.decisions, stats.cache_hits);
    out.absorb(client);
    out.notes.push(format!(
        "inputs: 8 Figure-4 pages (page {REPEATED_PAGE} twice per pass), {} loads per input cycle, order and salts from seed {}",
        inputs.order.len(),
        cfg.seed
    ));
    out
}
