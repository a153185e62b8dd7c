//! The client-side measurement loop shared by every workload: timed
//! `Browser` calls, the interleaved reference kernel, per-layer accumulation
//! from the public `PageLoadStats`, and the inputs the layer replays reuse.

use std::sync::Arc;
use std::time::Instant;

use escudo_browser::snapshot::FabricCounters;
use escudo_browser::{Browser, BrowserError, Page, PageId, PolicyMode, ScriptOutcome};
use escudo_core::context::{ObjectContext, PrincipalContext};
use escudo_core::Operation;
use escudo_dom::EventType;
use escudo_net::{Request, Response, Server, SetCookie, SharedCookieJar, SharedNetwork, Url};

use crate::check::Tally;
use crate::host::ref_kernel_ns;
use crate::stats::{Rng, Sample};
use crate::trace::{Span, Tracer};

/// The reference kernel runs once per this many navigations of a client.
pub const REF_EVERY_NAVS: u64 = 8;

/// Width of the sub-windows a run is cut into. Each latency sample is
/// normalised by the reference-kernel median of its own sub-window, so host
/// speed drift longer than a sub-window cancels; the within-run overhead
/// spread is also taken over these sub-windows.
pub const WINDOW_MS: u128 = 250;

/// Audit records kept for the decision replays.
const MAX_PAIRS: usize = 4096;

/// Subresource plans kept for the mediation replay.
const MAX_PLANS: usize = 64;

/// Settings of one measured run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Span recorder (recording only when the run is traced).
    pub tracer: Arc<Tracer>,
}

/// Samples one client keeps per kind. Past this many, each new sample
/// replaces a uniformly chosen kept one (reservoir sampling), so percentiles
/// stay unbiased while the benchmark's own memory stops growing with the
/// number of calls the host speed allowed — peak memory would otherwise
/// follow host speed.
pub const KEPT_SAMPLES: usize = 1 << 15;

/// A uniform sample of at most [`KEPT_SAMPLES`] of the values pushed.
#[derive(Debug, Clone)]
pub struct Reservoir {
    kept: Vec<Sample>,
    seen: u64,
    rng: Rng,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            kept: Vec::with_capacity(KEPT_SAMPLES),
            seen: 0,
            rng: Rng::new(0x5EED, 0),
        }
    }
}

impl Reservoir {
    /// Offers one sample.
    pub fn push(&mut self, sample: Sample) {
        self.seen += 1;
        if self.kept.len() < KEPT_SAMPLES {
            self.kept.push(sample);
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if let Ok(slot) = usize::try_from(slot) {
                if slot < KEPT_SAMPLES {
                    self.kept[slot] = sample;
                }
            }
        }
    }

    /// The kept samples.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.kept
    }

    /// Samples offered, kept or not.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Adds another client's samples.
    pub fn merge(&mut self, other: Reservoir) {
        let unkept = other.seen - other.kept.len() as u64;
        for sample in other.kept {
            self.push(sample);
        }
        self.seen += unkept;
    }
}

/// The timed samples of a run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// ESCUDO navigations in untraced blocks.
    pub nav_escudo: Reservoir,
    /// ESCUDO navigations in traced blocks.
    pub nav_traced: Reservoir,
    /// SOP navigations (the overhead baseline).
    pub nav_sop: Reservoir,
    /// ESCUDO `fire_event` calls on handler-carrying elements.
    pub event_escudo: Reservoir,
    /// Reference-kernel runs.
    pub refs: Reservoir,
    /// Navigations of either mode.
    pub navs_total: u64,
    /// Navigations of either mode completed in each sub-window.
    pub navs_per_window: Vec<u64>,
}

impl Samples {
    /// Adds another client's samples.
    pub fn merge(&mut self, other: Samples) {
        self.nav_escudo.merge(other.nav_escudo);
        self.nav_traced.merge(other.nav_traced);
        self.nav_sop.merge(other.nav_sop);
        self.event_escudo.merge(other.event_escudo);
        self.refs.merge(other.refs);
        self.navs_total += other.navs_total;
        if self.navs_per_window.len() < other.navs_per_window.len() {
            self.navs_per_window.resize(other.navs_per_window.len(), 0);
        }
        for (mine, theirs) in self.navs_per_window.iter_mut().zip(other.navs_per_window) {
            *mine += theirs;
        }
    }
}

/// Per-layer sums over ESCUDO navigations, from the public `PageLoadStats`
/// and the monitor's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// ESCUDO navigations summed.
    pub navs: u64,
    /// Their wall time.
    pub nav_ns: u128,
    /// `parse_document` time.
    pub parse_ns: u128,
    /// Security-context labelling time.
    pub label_ns: u128,
    /// Script execution time.
    pub script_ns: u128,
    /// Layout time.
    pub render_ns: u128,
    /// Subresource fan-out wall time.
    pub fetch_ns: u128,
    /// Reference-monitor checks made during the navigations.
    pub erm_checks: u64,
    /// Of which denied.
    pub erm_denials: u64,
    /// ESCUDO events fired.
    pub events: u64,
    /// Monitor checks made during those events.
    pub event_checks: u64,
}

impl Layers {
    /// Adds another client's sums.
    pub fn merge(&mut self, o: &Layers) {
        self.navs += o.navs;
        self.nav_ns += o.nav_ns;
        self.parse_ns += o.parse_ns;
        self.label_ns += o.label_ns;
        self.script_ns += o.script_ns;
        self.render_ns += o.render_ns;
        self.fetch_ns += o.fetch_ns;
        self.erm_checks += o.erm_checks;
        self.erm_denials += o.erm_denials;
        self.events += o.events;
        self.event_checks += o.event_checks;
    }
}

/// Fabric counters over the measured window (ESCUDO fabrics only).
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricDelta {
    /// Logged fetches (wire dispatches and cache hits alike).
    pub requests: u64,
    /// Jobs the fetch pool's parked workers ran.
    pub pool_jobs: u64,
    /// Bulk-lane jobs preempted by navigation-lane arrivals.
    pub preemptions: u64,
    /// Persistent response-cache hits.
    pub cache_hits: u64,
    /// Cache LRU evictions.
    pub cache_evictions: u64,
    /// Cache entries dropped for an expired TTL.
    pub cache_expired: u64,
    /// Duplicate plan slots served by single-flight coalescing.
    pub cache_coalesced: u64,
    /// Injected transient faults.
    pub faults: u64,
    /// Retry attempts granted.
    pub retries: u64,
}

/// A point-in-time reading of one fabric.
#[derive(Debug, Clone)]
pub struct FabricSnap {
    requests: u64,
    counters: FabricCounters,
}

impl FabricSnap {
    /// Reads `fabric`. The fetch sequence counter advances once per logged
    /// fetch, so reserving zero sequences reads the request count.
    #[must_use]
    pub fn take(fabric: &SharedNetwork) -> Self {
        FabricSnap {
            requests: fabric.reserve_sequences(0),
            counters: FabricCounters::gather(fabric),
        }
    }

    /// Counters accrued since `earlier`, added into `into`.
    pub fn accrue_since(&self, earlier: &FabricSnap, into: &mut FabricDelta) {
        let (a, b) = (&earlier.counters, &self.counters);
        into.requests += self.requests - earlier.requests;
        into.pool_jobs += b.pool_jobs_executed - a.pool_jobs_executed;
        into.preemptions += b.pool_preemptions - a.pool_preemptions;
        into.cache_hits += b.cache_hits - a.cache_hits;
        into.cache_evictions += b.cache_evictions - a.cache_evictions;
        into.cache_expired += b.cache_expired - a.cache_expired;
        into.cache_coalesced += b.cache_coalesced - a.cache_coalesced;
        into.faults += b.fault_injected - a.fault_injected;
        into.retries += b.retry_attempts - a.retry_attempts;
    }
}

/// One page's subresource plan, kept for the mediation replay.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The page (its context table answers the cookie-object lookups).
    pub page: Page,
    /// `(url, request-issuing principal)` per planned subresource.
    pub requests: Vec<(Url, PrincipalContext)>,
}

/// Inputs the post-run layer replays call the public layer functions on —
/// all taken from the workload's own traffic.
#[derive(Debug, Default)]
pub struct ReplayInputs {
    /// `(principal, object, operation)` triples from ESCUDO audit logs.
    pub pairs: Vec<(PrincipalContext, ObjectContext, Operation)>,
    pairs_seen: u64,
    /// Subresource plans of ESCUDO pages.
    pub plans: Vec<Plan>,
    plans_seen: u64,
    /// The jar those plans were mediated against.
    pub jar: Option<Arc<SharedCookieJar>>,
    /// URLs whose `Cookie` header the jar replay builds.
    pub header_urls: Vec<Url>,
    /// `Set-Cookie` directives the workload's servers issue, with the URL
    /// that set them.
    pub set_cookies: Vec<(Url, SetCookie)>,
}

impl ReplayInputs {
    /// Reservoir-samples the audit trail of an ESCUDO session.
    pub fn sample_audit(&mut self, browser: &Browser, rng: &mut Rng) {
        for record in browser.erm().audit() {
            self.pairs_seen += 1;
            let triple = (
                record.principal.clone(),
                record.object.clone(),
                record.operation,
            );
            if self.pairs.len() < MAX_PAIRS {
                self.pairs.push(triple);
            } else {
                let slot = (rng.next_u64() % self.pairs_seen) as usize;
                if slot < MAX_PAIRS {
                    self.pairs[slot] = triple;
                }
            }
        }
    }

    /// Adds another client's samples, keeping the caps.
    pub fn merge(&mut self, other: ReplayInputs) {
        self.pairs_seen += other.pairs_seen;
        self.plans_seen += other.plans_seen;
        self.pairs.extend(other.pairs);
        self.pairs.truncate(MAX_PAIRS);
        self.plans.extend(other.plans);
        self.plans.truncate(MAX_PLANS);
        self.header_urls.extend(other.header_urls);
        self.set_cookies.extend(other.set_cookies);
        if self.jar.is_none() {
            self.jar = other.jar;
        }
    }

    /// Reservoir-samples the subresource plan of an ESCUDO page.
    pub fn sample_plan(&mut self, page: &Page, rng: &mut Rng) {
        if page.subresources.is_empty() {
            return;
        }
        self.plans_seen += 1;
        let slot = if self.plans.len() < MAX_PLANS {
            None
        } else {
            let slot = (rng.next_u64() % self.plans_seen) as usize;
            if slot >= MAX_PLANS {
                return;
            }
            Some(slot)
        };
        let requests = page
            .subresources
            .iter()
            .map(|sub| {
                let label = format!("subresource src={}", sub.url);
                (
                    sub.url.clone(),
                    page.contexts.request_issuer_principal(sub.node, &label),
                )
            })
            .collect();
        let plan = Plan {
            page: page.clone(),
            requests,
        };
        match slot {
            None => self.plans.push(plan),
            Some(slot) => self.plans[slot] = plan,
        }
    }
}

/// The benchmark-owned origin handler wrapper: counts every dispatch and,
/// in traced blocks, records an `origin.doc` or `origin.sub` span tagged
/// with the requesting client (the `c` query parameter, 0 when absent).
pub struct TracedServer<S> {
    inner: S,
    tracer: Arc<Tracer>,
    name: &'static str,
    latency_ns: u64,
}

impl<S: Server> TracedServer<S> {
    /// Wraps a document server (`subresource == false`) or an asset server
    /// with configured latency `latency_ns`.
    pub fn new(inner: S, tracer: Arc<Tracer>, subresource: bool, latency_ns: u64) -> Self {
        TracedServer {
            inner,
            tracer,
            name: if subresource {
                "origin.sub"
            } else {
                "origin.doc"
            },
            latency_ns,
        }
    }
}

impl<S: Server> Server for TracedServer<S> {
    fn handle(&mut self, request: &Request) -> Response {
        self.tracer.count_dispatch();
        if !self.tracer.active() {
            return self.inner.handle(request);
        }
        let start = self.tracer.now_ns();
        let response = self.inner.handle(request);
        let client = request
            .url
            .query_param("c")
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        self.tracer
            .record(self.name, start, client, self.latency_ns);
        response
    }
}

/// One client thread's measurement state.
#[derive(Debug)]
pub struct Client {
    /// Client index (tags spans).
    pub id: u32,
    tracer: Arc<Tracer>,
    start: Instant,
    /// Latency samples.
    pub samples: Samples,
    /// Per-layer sums.
    pub layers: Layers,
    /// Operation checks.
    pub tally: Tally,
    /// Runs the reference kernel after every [`REF_EVERY_NAVS`]th
    /// navigation. A workload with several client threads turns this off
    /// and runs the kernel itself where no other client is busy.
    pub auto_reference: bool,
    navs_since_ref: u64,
}

impl Client {
    /// A client whose sub-windows count from `start`.
    #[must_use]
    pub fn new(id: u32, tracer: Arc<Tracer>, start: Instant) -> Self {
        Client {
            id,
            tracer,
            start,
            samples: Samples::default(),
            layers: Layers::default(),
            tally: Tally::default(),
            auto_reference: true,
            navs_since_ref: 0,
        }
    }

    fn window(&self) -> u32 {
        u32::try_from(self.start.elapsed().as_millis() / WINDOW_MS).unwrap_or(u32::MAX)
    }

    /// Times one navigating `Browser` call (`navigate`, `click_link` or
    /// `submit_form`) on input class `class`, files its latency by mode and
    /// block, and adds the page's layer timings for ESCUDO. Runs the
    /// reference kernel after every [`REF_EVERY_NAVS`]th navigation unless
    /// [`Client::auto_reference`] is off.
    pub fn nav(
        &mut self,
        browser: &mut Browser,
        class: u32,
        call: impl FnOnce(&mut Browser) -> Result<PageId, BrowserError>,
    ) -> Result<PageId, BrowserError> {
        let mode = browser.mode();
        let traced = self.tracer.active();
        let (checks, denials) = (browser.erm().checks(), browser.erm().denials());
        let span_start = self.tracer.now_ns();
        let start = Instant::now();
        let result = call(browser);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let sample = Sample {
            window: self.window(),
            class,
            ns,
        };
        let mut fetch_ns = 0;
        match mode {
            PolicyMode::Escudo if traced => self.samples.nav_traced.push(sample),
            PolicyMode::Escudo => self.samples.nav_escudo.push(sample),
            PolicyMode::SameOriginOnly => self.samples.nav_sop.push(sample),
        }
        self.samples.navs_total += 1;
        let slot = sample.window as usize;
        if self.samples.navs_per_window.len() <= slot {
            self.samples.navs_per_window.resize(slot + 1, 0);
        }
        self.samples.navs_per_window[slot] += 1;
        if let (Ok(id), PolicyMode::Escudo) = (&result, mode) {
            let stats = browser.page(*id).stats;
            let layers = &mut self.layers;
            layers.navs += 1;
            layers.nav_ns += u128::from(ns);
            layers.parse_ns += stats.parse_ns;
            layers.label_ns += stats.label_ns;
            layers.script_ns += stats.script_ns;
            layers.render_ns += stats.render_ns;
            layers.fetch_ns += stats.subresource_fetch_ns;
            layers.erm_checks += browser.erm().checks() - checks;
            layers.erm_denials += browser.erm().denials() - denials;
            fetch_ns = u64::try_from(stats.subresource_fetch_ns).unwrap_or(u64::MAX);
        }
        if traced && mode == PolicyMode::Escudo {
            let id = self.tracer.reserve_id();
            self.tracer.push(Span {
                id,
                name: "nav",
                start_ns: span_start,
                end_ns: span_start + ns,
                parent: 0,
                nav: id,
                client: self.id,
                aux_ns: fetch_ns,
            });
        }
        self.navs_since_ref += 1;
        if self.auto_reference && self.navs_since_ref >= REF_EVERY_NAVS {
            self.navs_since_ref = 0;
            self.reference();
        }
        result
    }

    /// Times one `fire_event` call; ESCUDO calls become event samples.
    pub fn event(
        &mut self,
        browser: &mut Browser,
        page: PageId,
        element: &str,
        event: EventType,
    ) -> Result<Option<ScriptOutcome>, BrowserError> {
        let checks = browser.erm().checks();
        let span_start = self.tracer.now_ns();
        let start = Instant::now();
        let result = browser.fire_event(page, element, event);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if browser.mode() == PolicyMode::Escudo {
            let window = self.window();
            self.samples.event_escudo.push(Sample {
                window,
                class: 0,
                ns,
            });
            self.layers.events += 1;
            self.layers.event_checks += browser.erm().checks() - checks;
            if self.tracer.active() {
                self.tracer.record("event", span_start, self.id, 0);
            }
        }
        result
    }

    /// Runs the reference kernel once and files its time.
    pub fn reference(&mut self) {
        let span_start = self.tracer.now_ns();
        let ns = ref_kernel_ns();
        let window = self.window();
        self.samples.refs.push(Sample {
            window,
            class: 0,
            ns,
        });
        if self.tracer.active() {
            self.tracer.record("ref", span_start, self.id, 0);
        }
    }
}

/// Everything a workload run hands the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency samples of every client.
    pub samples: Samples,
    /// Per-layer sums of every client.
    pub layers: Layers,
    /// Operation checks of every client, the oracle included.
    pub tally: Tally,
    /// Fabric counters over the window (ESCUDO fabrics).
    pub fabric: FabricDelta,
    /// Logged fetches over the window on every fabric, SOP ones included
    /// (the base of the origin dispatch ratio).
    pub requests_all: u64,
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// Each set-up's timing.
    pub setup_s: Vec<SetupTime>,
    /// Inputs for the layer replays.
    pub replay: ReplayInputs,
    /// Decisions and memo hits of the ESCUDO engines the run used.
    pub engine_decisions: (u64, u64),
    /// Cookies resident in the ESCUDO jar(s) at the end (mean per jar).
    pub jar_cookies: f64,
    /// Free-form report lines (the oracle verdict, input summary).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Folds a finished client into the outcome.
    pub fn absorb(&mut self, client: Client) {
        self.samples.merge(client.samples);
        self.layers.merge(&client.layers);
        self.tally.merge(client.tally);
    }
}

/// Set-ups each run times; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Reference-kernel runs before and after each timed set-up.
const SETUP_REF_RUNS: usize = 3;

/// The kernel time set-up durations are scaled to: `setup_s` reads as
/// seconds on a host whose reference kernel takes this long.
pub const NOMINAL_REF_NS: f64 = 100_000.0;

/// One timed set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTime {
    /// Wall time, seconds.
    pub raw_s: f64,
    /// Median reference-kernel time around it, nanoseconds.
    pub ref_ns: f64,
}

impl SetupTime {
    /// The wall time scaled to [`NOMINAL_REF_NS`]: set-up is short, raw
    /// seconds follow the host's core speed, and the scaled figure cancels
    /// that drift the way the `*_ref` latencies do.
    #[must_use]
    pub fn reference_s(&self) -> f64 {
        self.raw_s * NOMINAL_REF_NS / self.ref_ns
    }
}

/// Runs `setup` `times` times, each between two short bursts of the
/// reference kernel, returning the last world and every set-up's time.
/// Set-up is timed several times so its median is steady.
pub fn timed_setups<W>(times: usize, mut setup: impl FnMut() -> W) -> (W, Vec<SetupTime>) {
    let mut timings = Vec::with_capacity(times);
    let mut world = None;
    for _ in 0..times {
        let mut refs: Vec<u64> = (0..SETUP_REF_RUNS).map(|_| ref_kernel_ns()).collect();
        let start = Instant::now();
        let built = setup();
        let raw_s = start.elapsed().as_secs_f64();
        refs.extend((0..SETUP_REF_RUNS).map(|_| ref_kernel_ns()));
        refs.sort_unstable();
        timings.push(SetupTime {
            raw_s,
            ref_ns: refs[refs.len() / 2] as f64,
        });
        world = Some(built);
    }
    (world.expect("at least one set-up"), timings)
}
