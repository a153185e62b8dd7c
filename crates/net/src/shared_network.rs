//! The thread-safe, `Arc`-shareable network fabric for concurrent sessions and
//! pipelined loaders.
//!
//! [`SharedNetwork`] is taken by `&self` everywhere, so one fabric serves every
//! session and every worker of the pipelined loader at once:
//!
//! * **Per-origin handlers.** Each registered [`Server`] sits behind its own
//!   `Mutex`, held only for the duration of one `handle` call — requests to
//!   *distinct* origins never contend, and requests to the same origin serialize
//!   exactly as a single-threaded server would. The origin→handler map itself is a
//!   read-mostly `RwLock` (writes only at registration time).
//! * **Lock-striped, sequence-ordered request log.** Every dispatch carries a
//!   sequence number from one atomic counter; the log entry lands in the stripe
//!   selected by the sequence's low bits (round-robin, so concurrent fetches hit
//!   different stripes). Reading the log gathers the stripes and sorts by sequence,
//!   reconstructing one global order. Callers that need *deterministic* order —
//!   the pipelined subresource loader — reserve a contiguous block of sequence
//!   numbers up front ([`SharedNetwork::reserve_sequences`]) and dispatch each
//!   pre-planned request under its pre-assigned number: the sorted log then shows
//!   document order regardless of completion order.
//! * **Bounded log.** Like the reference monitor's audit ring, the log keeps a
//!   bounded number of entries ([`SharedNetwork::with_log_capacity`]);
//!   overflow drops the oldest (lowest-sequence) entries in amortized batches
//!   and counts them, so long multi-session runs stop growing memory without
//!   bound.
//! * **Simulated per-origin latency.** [`SharedNetwork::set_latency`] attaches a
//!   synthetic service time to an origin, slept *outside* every lock — so the
//!   pipelining win of overlapping slow fetches is measurable in-process, without
//!   sockets.
//! * **One request path.** [`SharedNetwork::send`] sends one request and
//!   [`SharedNetwork::send_plan`] a whole page plan, each as a
//!   [`Dispatch`](crate::Dispatch) describes: log sequence, retry policy and
//!   cache layers ([`crate::dispatch`]). A plan fans out over parked worker
//!   threads the fabric owns and reuses across page loads
//!   ([`crate::fetch_pool`]) — submission costs a queue push and a notify, not
//!   a thread spawn per page — with navigation-critical slots claimed ahead
//!   of bulk and background ones ([`crate::fetch_pool::Priority`]).
//! * **Mediation-keyed response cache.** The fabric owns one shared
//!   response cache ([`crate::response_cache`]): sharded,
//!   capacity-bounded, holding `Arc<Response>` entries keyed by
//!   `(method, url)` and validated against the **mediated cookie header** the
//!   consuming request just computed for itself. The mediation plan is the
//!   key, so a stale plan (cookies or policy changed since the entry was
//!   stored) discards the entry and the request fetches live — a hit can
//!   never change a security decision, only skip a wire round trip whose
//!   request bytes it already proved identical. Speculative prefetch is the
//!   cache's *one-shot* layer: entries parked by background speculation are
//!   consumed at most once.
//! * **One read of every counter.** [`FabricCounters::gather`] reads the log,
//!   pool, chaos and cache counters straight from their atomics in one call.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use escudo_core::{Clock, MonotonicClock, Origin};

use crate::error::NetError;
use crate::fault::FaultOutcome;
use crate::message::{Request, Response};
use crate::network::{LoggedRequest, Server};
use crate::response_cache::{ResponseCache, RESPONSE_CACHE_CAPACITY, RESPONSE_CACHE_SHARDS};

/// Default number of log stripes (a power of two so stripe selection is a mask).
pub const DEFAULT_LOG_STRIPE_COUNT: usize = 8;

/// Default bound on retained log entries (divided across the stripes).
pub const DEFAULT_LOG_CAPACITY: usize = 64 * 1024;

/// One registered origin: the handler behind its own short-held mutex, the
/// synthetic service latency dispatches to this origin pay, and an EWMA of the
/// observed end-to-end service time (latency sleep + handler call) that lets
/// planners estimate whether fanning fetches out is worth the thread overhead.
/// Handlers live behind an `Arc` so a dispatch can clone its handle out of the
/// origin map and **drop the map's read guard before sleeping or calling the
/// handler** — a concurrent `register` write therefore only ever waits for the
/// map lookup itself, never for a slow handler, and (on writer-preferring
/// rwlocks) cannot convoy dispatches to unrelated origins behind that writer.
struct OriginHandler {
    server: Mutex<Box<dyn Server + Send>>,
    /// Configured simulated latency in nanoseconds (atomic so `set_latency` can
    /// update it through the map's *read* guard).
    latency_ns: AtomicU64,
    /// EWMA of observed dispatch service time in nanoseconds (0 = no samples yet);
    /// relaxed updates — an estimate, not an accounting invariant.
    observed_ns: AtomicU64,
}

impl OriginHandler {
    fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns.load(Ordering::Relaxed))
    }
}

/// A log entry tagged with its global sequence number. Entries within a stripe are
/// *not* kept sorted (a pre-reserved sequence may be dispatched late); readers sort
/// globally when they gather the stripes.
#[derive(Debug, Clone)]
struct SequencedEntry {
    sequence: u64,
    entry: LoggedRequest,
}

/// The `Arc`-shareable network fabric: per-origin mutexed handlers, a lock-striped
/// sequence-ordered request log, and per-origin simulated latency.
///
/// Taken by `&self` everywhere; hand sessions an `Arc<SharedNetwork>` (that is what
/// `Browser::with_network` threads through browser- and script-initiated requests).
pub struct SharedNetwork {
    servers: RwLock<HashMap<Origin, Arc<OriginHandler>>>,
    stripes: Vec<Mutex<Vec<SequencedEntry>>>,
    /// Bound on retained entries per stripe; 0 means unbounded.
    stripe_capacity: usize,
    dropped: AtomicU64,
    sequence: AtomicU64,
    /// The persistent fetch worker pool behind
    /// [`send_plan`](SharedNetwork::send_plan): lazily-spawned parked threads
    /// reused across every page load on this fabric.
    pool: crate::fetch_pool::FetchPool,
    /// The shared mediation-keyed response cache (persistent `max-age` layer
    /// plus the one-shot speculative-prefetch layer).
    pub(crate) cache: ResponseCache,
    /// Installed per-origin fault plans (independent of server registration —
    /// a plan may precede the origin it targets). See [`crate::fault`].
    pub(crate) faults: RwLock<HashMap<Origin, Arc<crate::fault::FaultState>>>,
    /// Lazily-created per-origin circuit breakers (only policies with a
    /// breaker threshold ever populate this).
    pub(crate) breakers: RwLock<HashMap<Origin, Arc<crate::fault::Breaker>>>,
    /// The injectable clock that meters retry backoff, batch deadlines and
    /// breaker cooldowns; a `ManualClock` makes all three exactly countable.
    pub(crate) clock: RwLock<Arc<dyn Clock>>,
    /// Monotonic chaos observability counters (faults, retries, breakers).
    chaos: crate::fault::ChaosCounters,
}

impl Default for SharedNetwork {
    fn default() -> Self {
        SharedNetwork::new()
    }
}

impl SharedNetwork {
    /// Creates an empty fabric with the default log bound.
    #[must_use]
    pub fn new() -> Self {
        SharedNetwork::with_log_capacity(DEFAULT_LOG_CAPACITY)
    }

    /// Creates an empty fabric whose request log retains at most `capacity`
    /// entries (0 disables the bound). The capacity is divided across
    /// [`DEFAULT_LOG_STRIPE_COUNT`] stripes rounding up, so the total bound can
    /// exceed `capacity` by up to `stripes - 1`.
    #[must_use]
    pub fn with_log_capacity(capacity: usize) -> Self {
        SharedNetwork::with_log_config(DEFAULT_LOG_STRIPE_COUNT, capacity)
    }

    /// Creates an empty fabric with an explicit stripe count (rounded up to a
    /// power of two, at least 1) and total log capacity (0 = unbounded).
    #[must_use]
    pub fn with_log_config(stripes: usize, capacity: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let stripe_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(stripes)
        };
        SharedNetwork {
            servers: RwLock::new(HashMap::new()),
            stripes: (0..stripes).map(|_| Mutex::new(Vec::new())).collect(),
            stripe_capacity,
            dropped: AtomicU64::new(0),
            sequence: AtomicU64::new(0),
            pool: crate::fetch_pool::FetchPool::new(),
            cache: ResponseCache::new(RESPONSE_CACHE_CAPACITY, RESPONSE_CACHE_SHARDS),
            faults: RwLock::new(HashMap::new()),
            breakers: RwLock::new(HashMap::new()),
            clock: RwLock::new(Arc::new(MonotonicClock::new())),
            chaos: crate::fault::ChaosCounters::default(),
        }
    }

    /// The fabric's chaos counters (crate-internal; read through
    /// [`FabricCounters::gather`]).
    pub(crate) fn chaos(&self) -> &crate::fault::ChaosCounters {
        &self.chaos
    }

    /// The persistent fetch worker pool (crate-internal; plans go through
    /// [`SharedNetwork::send_plan`]).
    pub(crate) fn pool(&self) -> &crate::fetch_pool::FetchPool {
        &self.pool
    }

    /// Registers a server for an origin given as a URL string (the path is
    /// ignored). Re-registering an origin replaces the handler but keeps any
    /// configured latency.
    ///
    /// # Panics
    ///
    /// Panics if `origin_url` cannot be parsed — registration happens at setup
    /// time with literal URLs, so a parse failure is a programming error.
    pub fn register<S: Server + Send + 'static>(&self, origin_url: &str, server: S) {
        let origin = Origin::parse_url(origin_url)
            .expect("network registration requires a valid origin URL");
        self.register_origin(origin, server);
    }

    /// Registers a server for an already-parsed origin.
    pub fn register_origin<S: Server + Send + 'static>(&self, origin: Origin, server: S) {
        let mut servers = self.servers.write().expect("network server map lock");
        let (latency_ns, observed) = servers.get(&origin).map_or((0, 0), |h| {
            (
                h.latency_ns.load(Ordering::Relaxed),
                h.observed_ns.load(Ordering::Relaxed),
            )
        });
        servers.insert(
            origin,
            Arc::new(OriginHandler {
                server: Mutex::new(Box::new(server)),
                latency_ns: AtomicU64::new(latency_ns),
                observed_ns: AtomicU64::new(observed),
            }),
        );
    }

    /// Clones the handler handle for an origin out of the map, holding the map's
    /// read guard only for the lookup — never across a latency sleep or a
    /// handler call.
    fn handler(&self, origin: &Origin) -> Result<Arc<OriginHandler>, NetError> {
        self.servers
            .read()
            .expect("network server map lock")
            .get(origin)
            .cloned()
            .ok_or_else(|| NetError::HostUnreachable(origin.to_string()))
    }

    /// Configures the synthetic service latency every dispatch to this origin
    /// pays (slept outside all locks, so concurrent fetches overlap their waits).
    ///
    /// # Panics
    ///
    /// Panics if `origin_url` cannot be parsed or names an unregistered origin —
    /// latency is benchmark configuration, so a dangling origin is a setup bug.
    pub fn set_latency(&self, origin_url: &str, latency: Duration) {
        let origin = Origin::parse_url(origin_url)
            .expect("latency configuration requires a valid origin URL");
        self.handler(&origin)
            .expect("latency configuration requires a registered origin")
            .latency_ns
            .store(
                u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
    }

    /// The configured latency for an origin (zero when unset or unregistered).
    #[must_use]
    pub fn latency(&self, origin: &Origin) -> Duration {
        self.handler(origin).map_or(Duration::ZERO, |h| h.latency())
    }

    /// Estimated service time of one dispatch to `origin`, in nanoseconds: the
    /// larger of the configured latency and the EWMA of observed dispatch times
    /// (so a freshly configured latency counts before any sample exists, and
    /// expensive handlers count even with no configured latency). Zero when the
    /// origin is unregistered or nothing is known yet. The plan path uses
    /// this to decide whether fanning a lane out across threads can pay for
    /// the fan-out overhead.
    pub(crate) fn estimated_service_ns(&self, origin: &Origin) -> u64 {
        self.handler(origin).map_or(0, |h| {
            h.latency_ns
                .load(Ordering::Relaxed)
                .max(h.observed_ns.load(Ordering::Relaxed))
        })
    }

    /// `true` when a server is registered for the origin of `url`.
    #[must_use]
    pub fn knows(&self, url: &crate::url::Url) -> bool {
        self.servers
            .read()
            .expect("network server map lock")
            .contains_key(&url.origin())
    }

    /// Reserves a contiguous block of `count` sequence numbers and returns the
    /// first. A planner that fixes its request order up front sends request
    /// *i* of its plan under `start + i`
    /// ([`Sequence::Reserved`](crate::Sequence::Reserved)): the
    /// sequence-sorted log then reads in plan order no matter which worker
    /// finished first. `reserve_sequences(0)` reads the counter.
    pub fn reserve_sequences(&self, count: u64) -> u64 {
        self.sequence.fetch_add(count, Ordering::Relaxed)
    }

    /// One wire attempt: [`service`](SharedNetwork::service) the request and,
    /// when it is logged, record it under `sequence`. Unreachable and faulted
    /// attempts are not logged — there is no response to record.
    pub(crate) fn transmit(
        &self,
        sequence: Option<u64>,
        request: &Request,
    ) -> Result<Response, NetError> {
        let response = self.service(request)?;
        if let Some(sequence) = sequence {
            self.record(sequence, request, response.status.0);
        }
        Ok(response)
    }

    /// The shared dispatch machinery: consult the origin's fault plan, sleep
    /// the origin's simulated latency plus any injected slowdown (outside all
    /// locks), take the origin's handler mutex for exactly one `handle` call,
    /// and fold the observed service time into the planner EWMA — but **only
    /// for clean dispatches**: faulted or slowed dispatches never feed the
    /// EWMA, so injected chaos cannot poison the adaptive fan-out cutover.
    fn service(&self, request: &Request) -> Result<Response, NetError> {
        let origin = request.url.origin();
        // The map's read guard is dropped inside `handler()`: the sleep and the
        // handler call below hold only this origin's own mutex, so registration
        // writes and dispatches to other origins proceed unimpeded.
        let handler = self.handler(&origin)?;
        let fault = self.fault_decision(&origin);
        let latency = handler.latency();
        let service_start = std::time::Instant::now();
        let sleep_for = latency.saturating_add(Duration::from_nanos(fault.slow_ns));
        if !sleep_for.is_zero() {
            std::thread::sleep(sleep_for);
        }
        if fault.slow_ns > 0 {
            self.chaos.fault_slowdowns.fetch_add(1, Ordering::Relaxed);
        }
        match fault.outcome {
            FaultOutcome::Panic => {
                self.chaos.faults_injected.fetch_add(1, Ordering::Relaxed);
                // Deliberately *before* the handler lock: an injected panic
                // must not poison the origin's mutex, so the origin heals the
                // moment its schedule (or a retry) lets a dispatch through.
                panic!("injected fault: origin `{origin}` panicked by plan");
            }
            FaultOutcome::Timeout => {
                self.chaos.faults_injected.fetch_add(1, Ordering::Relaxed);
                let elapsed_ns =
                    u64::try_from(service_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                return Err(NetError::Timeout {
                    origin: origin.to_string(),
                    elapsed_ns,
                });
            }
            FaultOutcome::Proceed => {}
        }
        let response = {
            let mut server = handler.server.lock().expect("origin handler lock");
            server.handle(request)
        };
        // Fold the observed service time (sleep + handler) into the EWMA a
        // planner reads through `estimated_service_ns`: new = 7/8·old + 1/8·sample.
        if fault.is_clean() {
            let sample = u64::try_from(service_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let old = handler.observed_ns.load(Ordering::Relaxed);
            let next = if old == 0 {
                sample
            } else {
                old - old / 8 + sample / 8
            };
            handler.observed_ns.store(next, Ordering::Relaxed);
        }
        Ok(response)
    }

    /// Logs `request` (answered with `status`) under `sequence`: a wire
    /// dispatch and a cache hit standing in for one write the same entry.
    /// The entry lands in the stripe its sequence selects, evicting the
    /// oldest (lowest-sequence) entries in an amortized batch when the stripe is
    /// full — one `select_nth` scan pays for ~capacity/8 subsequent appends, the
    /// same scheme as the shared jar's eviction.
    pub(crate) fn record(&self, sequence: u64, request: &Request, status: u16) {
        let entry = LoggedRequest {
            method: request.method,
            url: request.url.clone(),
            cookie_names: request.cookie_names(),
            status,
        };
        let stripe = &self.stripes[(sequence as usize) & (self.stripes.len() - 1)];
        let mut entries = stripe.lock().expect("network log stripe lock");
        if self.stripe_capacity > 0 && entries.len() >= self.stripe_capacity {
            let batch = (self.stripe_capacity / 8).max(1).min(entries.len());
            let mut sequences: Vec<u64> = entries.iter().map(|e| e.sequence).collect();
            let (_, threshold, _) = sequences.select_nth_unstable(batch - 1);
            let threshold = *threshold;
            // Sequences are unique, so exactly `batch` entries are at or below the
            // threshold.
            entries.retain(|e| e.sequence > threshold);
            self.dropped.fetch_add(batch as u64, Ordering::Relaxed);
        }
        entries.push(SequencedEntry { sequence, entry });
    }

    /// The request log in global sequence order (the order dispatches were
    /// *planned*, which for un-reserved sequences is the order they started).
    /// Gathers one short-held lock per stripe, then sorts by sequence.
    #[must_use]
    pub fn log(&self) -> Vec<LoggedRequest> {
        let mut all: Vec<SequencedEntry> = Vec::with_capacity(self.log_len());
        for stripe in &self.stripes {
            all.extend(
                stripe
                    .lock()
                    .expect("network log stripe lock")
                    .iter()
                    .cloned(),
            );
        }
        all.sort_unstable_by_key(|e| e.sequence);
        all.into_iter().map(|e| e.entry).collect()
    }

    /// Number of retained log entries (each stripe lock held only to read a
    /// length).
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("network log stripe lock").len())
            .sum()
    }

    /// Clears the request log (e.g. between experiment trials). The drop counter
    /// is *not* reset — like the audit ring's, it is cumulative.
    pub fn clear_log(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("network log stripe lock").clear();
        }
    }

    /// The log entries for requests sent to `host`, in sequence order.
    #[must_use]
    pub fn requests_to(&self, host: &str) -> Vec<LoggedRequest> {
        let mut matched: Vec<SequencedEntry> = Vec::new();
        for stripe in &self.stripes {
            matched.extend(
                stripe
                    .lock()
                    .expect("network log stripe lock")
                    .iter()
                    .filter(|e| e.entry.url.host().eq_ignore_ascii_case(host))
                    .cloned(),
            );
        }
        matched.sort_unstable_by_key(|e| e.sequence);
        matched.into_iter().map(|e| e.entry).collect()
    }

    /// Counts the log entries for requests sent to `host` without materializing
    /// them — the common count-only query of the defense experiments.
    #[must_use]
    pub fn count_requests_to(&self, host: &str) -> usize {
        self.stripes
            .iter()
            .map(|stripe| {
                stripe
                    .lock()
                    .expect("network log stripe lock")
                    .iter()
                    .filter(|e| e.entry.url.host().eq_ignore_ascii_case(host))
                    .count()
            })
            .sum()
    }
}

impl fmt::Debug for SharedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedNetwork")
            .field(
                "origins",
                &self
                    .servers
                    .read()
                    .expect("network server map lock")
                    .keys()
                    .collect::<Vec<_>>(),
            )
            .field("logged_requests", &self.log_len())
            .field("dropped_log_entries", &self.dropped.load(Ordering::Relaxed))
            .field("fetch_pool_workers", &self.pool.workers())
            .field("cache_one_shot_entries", &self.cache.one_shot_len())
            .field(
                "cache_one_shot_hits",
                &self.cache.one_shot_hits.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// Every counter of one [`SharedNetwork`] fabric: request log, fetch pool,
/// chaos and both response-cache layers, read in one call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Requests currently resident in the bounded log.
    pub log_len: u64,
    /// Bound on retained log entries (0 when unbounded).
    pub log_capacity: u64,
    /// Log entries dropped because the log was full (cumulative: clearing
    /// the log does not reset it).
    pub dropped_log_entries: u64,
    /// Workers in the persistent fetch pool (0 until the first plan fans
    /// out — the pool spawns lazily).
    pub pool_workers: u64,
    /// Jobs the pool's parked workers have executed (a submitter helping with
    /// its own plan is not counted — its jobs never crossed a thread).
    pub pool_jobs_executed: u64,
    /// Always 0: a pool worker never abandons the batch it is draining. Kept
    /// only because the navigation benchmark (`navbench`) reads it.
    pub pool_preemptions: u64,
    /// Failing faults injected by installed fault plans (timeouts + panics).
    pub fault_injected: u64,
    /// Dispatches slowed by an injected `SlowBy` schedule.
    pub fault_slowdowns: u64,
    /// Retry attempts granted across all resilient dispatches.
    pub retry_attempts: u64,
    /// Resilient dispatches that succeeded only after retrying.
    pub retry_successes: u64,
    /// Retries refused because a batch deadline budget ran dry.
    pub retry_deadline_exhausted: u64,
    /// Circuit-breaker trips (including half-open re-trips).
    pub breaker_trips: u64,
    /// Half-open probes admitted after a breaker cooldown.
    pub breaker_probes: u64,
    /// Breakers closed by a successful half-open probe.
    pub breaker_recoveries: u64,
    /// Dispatches refused outright by an open breaker.
    pub breaker_fast_fails: u64,
    /// Fetches served from persistent response-cache entries (zero-copy hits).
    pub cache_hits: u64,
    /// Fetches served from one-shot (speculative prefetch) entries.
    pub cache_one_shot_hits: u64,
    /// Entries of either layer discarded because the consuming request's
    /// mediation plan no longer matched.
    pub cache_stale_discards: u64,
    /// Cache entries discarded because their freshness TTL had lapsed.
    pub cache_expired: u64,
    /// Cache entries evicted by the per-shard LRU capacity bound.
    pub cache_evictions: u64,
    /// Responses inserted into the cache (both layers, overwrites included).
    pub cache_stored: u64,
    /// Duplicate plan slots served by batch-level single-flight coalescing.
    pub cache_coalesced: u64,
    /// Entries currently resident in the response cache (both layers).
    pub cache_entries: u64,
    /// One-shot (speculative prefetch) entries currently resident.
    pub cache_one_shot_entries: u64,
}

impl FabricCounters {
    /// Reads the counters of `fabric`.
    #[must_use]
    pub fn gather(fabric: &SharedNetwork) -> Self {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let chaos = &fabric.chaos;
        let cache = &fabric.cache;
        FabricCounters {
            log_len: fabric.log_len() as u64,
            log_capacity: (fabric.stripe_capacity * fabric.stripes.len()) as u64,
            dropped_log_entries: read(&fabric.dropped),
            pool_workers: fabric.pool.workers() as u64,
            pool_jobs_executed: fabric.pool.jobs_executed(),
            pool_preemptions: 0,
            fault_injected: read(&chaos.faults_injected),
            fault_slowdowns: read(&chaos.fault_slowdowns),
            retry_attempts: read(&chaos.retry_attempts),
            retry_successes: read(&chaos.retry_successes),
            retry_deadline_exhausted: read(&chaos.retry_deadline_exhausted),
            breaker_trips: read(&chaos.breaker_trips),
            breaker_probes: read(&chaos.breaker_probes),
            breaker_recoveries: read(&chaos.breaker_recoveries),
            breaker_fast_fails: read(&chaos.breaker_fast_fails),
            cache_hits: read(&cache.hits),
            cache_one_shot_hits: read(&cache.one_shot_hits),
            cache_stale_discards: read(&cache.stale),
            cache_expired: read(&cache.expired),
            cache_evictions: read(&cache.evicted),
            cache_stored: read(&cache.stored),
            cache_coalesced: read(&cache.coalesced),
            cache_entries: cache.len() as u64,
            cache_one_shot_entries: cache.one_shot_len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatch, Sequence, Served};
    use crate::message::StatusCode;
    use crate::response_cache::CacheLayers;
    use crate::url::Url;
    use std::sync::Arc;

    fn echo_server(req: &Request) -> Response {
        Response::ok_text(format!("{} {}", req.method, req.url.path()))
    }

    /// A bare logged `GET` under a fresh sequence.
    fn get(net: &SharedNetwork, url: &str) -> Result<Arc<Response>, NetError> {
        net.send(Request::get(url).unwrap(), Dispatch::default())
            .result
    }

    /// A `GET` of `url` carrying the mediated `Cookie` header `cookie`.
    fn mediated(url: &str, cookie: &str) -> Request {
        let request = Request::get(url).unwrap();
        if cookie.is_empty() {
            request
        } else {
            request.with_header("Cookie", cookie)
        }
    }

    /// Speculation: unlogged, parking its response as a one-shot entry.
    fn speculate() -> Dispatch {
        Dispatch {
            sequence: Sequence::Unlogged,
            cache: CacheLayers::ONE_SHOT,
            ..Dispatch::default()
        }
    }

    #[test]
    fn dispatch_routes_by_origin_and_logs_in_sequence_order() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        net.register("http://b.example", |_req: &Request| {
            Response::error(StatusCode::FORBIDDEN, "nope")
        });
        let ra = get(&net, "http://a.example/x").unwrap();
        assert_eq!(ra.body, "GET /x");
        let rb = get(&net, "http://b.example/y").unwrap();
        assert_eq!(rb.status, StatusCode::FORBIDDEN);
        let log = net.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].url.host(), "a.example");
        assert_eq!(log[1].url.host(), "b.example");
        assert_eq!(net.count_requests_to("a.example"), 1);
        assert!(get(&net, "http://nowhere.example/").is_err());
        assert_eq!(net.log_len(), 2, "unreachable dispatches are not logged");
    }

    #[test]
    fn reserved_sequences_fix_log_order_regardless_of_dispatch_order() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        // Reserve a block, then dispatch in *reverse* plan order — the log still
        // reads in plan order.
        let base = net.reserve_sequences(4);
        for i in (0..4u64).rev() {
            let reserved = Dispatch {
                sequence: Sequence::Reserved(base + i),
                ..Dispatch::default()
            };
            let request = Request::get(&format!("http://a.example/plan{i}")).unwrap();
            net.send(request, reserved).result.unwrap();
        }
        let paths: Vec<String> = net.log().iter().map(|e| e.url.path().to_string()).collect();
        assert_eq!(paths, vec!["/plan0", "/plan1", "/plan2", "/plan3"]);
        // A later un-reserved dispatch sorts after the block.
        get(&net, "http://a.example/after").unwrap();
        assert_eq!(net.log().last().unwrap().url.path(), "/after");
    }

    #[test]
    fn concurrent_dispatches_to_distinct_origins_all_complete() {
        let net = Arc::new(SharedNetwork::new());
        for t in 0..4 {
            net.register(&format!("http://h{t}.example"), echo_server);
        }
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let net = Arc::clone(&net);
                scope.spawn(move || {
                    for i in 0..25 {
                        get(&net, &format!("http://h{t}.example/{i}")).unwrap();
                    }
                });
            }
        });
        assert_eq!(net.log_len(), 100);
        for t in 0..4 {
            assert_eq!(net.count_requests_to(&format!("h{t}.example")), 25);
        }
        // Sequence numbers are unique and the sorted log is strictly ordered per
        // origin (each thread dispatched its own origin sequentially).
        for t in 0..4 {
            let paths: Vec<String> = net
                .requests_to(&format!("h{t}.example"))
                .iter()
                .map(|e| e.url.path().to_string())
                .collect();
            let expected: Vec<String> = (0..25).map(|i| format!("/{i}")).collect();
            assert_eq!(paths, expected);
        }
    }

    #[test]
    fn log_capacity_drops_oldest_first_and_counts() {
        // One stripe, capacity 8, batch 1: the ninth entry evicts the oldest.
        let net = SharedNetwork::with_log_config(1, 8);
        assert_eq!(FabricCounters::gather(&net).log_capacity, 8);
        net.register("http://a.example", echo_server);
        for i in 0..12 {
            get(&net, &format!("http://a.example/{i}")).unwrap();
        }
        assert_eq!(net.log_len(), 8);
        assert_eq!(FabricCounters::gather(&net).dropped_log_entries, 4);
        let first = net.log()[0].url.path().to_string();
        assert_eq!(first, "/4", "oldest entries dropped first");
        net.clear_log();
        assert_eq!(net.log_len(), 0);
        assert_eq!(
            FabricCounters::gather(&net).dropped_log_entries,
            4,
            "drop counter is cumulative"
        );
    }

    #[test]
    fn latency_is_paid_per_dispatch_and_survives_reregistration() {
        let net = SharedNetwork::new();
        net.register("http://slow.example", echo_server);
        net.set_latency("http://slow.example", Duration::from_millis(5));
        assert_eq!(
            net.latency(&Origin::parse_url("http://slow.example").unwrap()),
            Duration::from_millis(5)
        );
        let start = std::time::Instant::now();
        get(&net, "http://slow.example/").unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
        // Replacing the handler keeps the configured latency.
        net.register("http://slow.example", echo_server);
        assert_eq!(
            net.latency(&Origin::parse_url("http://slow.example").unwrap()),
            Duration::from_millis(5)
        );
        // Unregistered origins report zero latency.
        assert_eq!(
            net.latency(&Origin::parse_url("http://other.example").unwrap()),
            Duration::ZERO
        );
    }

    #[test]
    fn knows_reports_registration() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        assert!(net.knows(&Url::parse("http://a.example/x").unwrap()));
        assert!(!net.knows(&Url::parse("http://other.example/").unwrap()));
    }

    #[test]
    fn prefetch_cache_hits_only_on_a_matching_mediation_plan() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let page = |cookie: &str| mediated("http://a.example/page", cookie);
        let consume = Dispatch {
            cache: CacheLayers::ONE_SHOT,
            ..Dispatch::default()
        };
        assert!(net.send(page("sid=abc"), speculate()).stored);
        assert_eq!(net.log_len(), 0, "speculative dispatches are unlogged");
        assert_eq!(FabricCounters::gather(&net).cache_one_shot_entries, 1);

        // A different plan (the jar changed since the speculation) discards
        // the entry instead of serving it.
        assert_eq!(net.send(page("sid=zzz"), consume).served, Served::Wire);
        assert_eq!(FabricCounters::gather(&net).cache_stale_discards, 1);
        assert_eq!(
            FabricCounters::gather(&net).cache_one_shot_entries,
            0,
            "stale entries are discarded"
        );

        // A matching plan consumes the entry exactly once.
        net.send(page("sid=abc"), speculate());
        let hit = net.send(page("sid=abc"), consume);
        assert_eq!(hit.served, Served::OneShot);
        assert_eq!(hit.result.unwrap().body, "GET /page");
        assert_eq!(FabricCounters::gather(&net).cache_one_shot_hits, 1);
        assert_eq!(net.send(page("sid=abc"), consume).served, Served::Wire);
        assert_eq!(
            FabricCounters::gather(&net).cache_stale_discards,
            1,
            "a plain miss is not a stale discard"
        );
    }

    #[test]
    fn prefetch_cache_is_bounded_and_overwrites_per_url() {
        use crate::response_cache::RESPONSE_CACHE_CAPACITY;
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let stored = 4 * RESPONSE_CACHE_CAPACITY;
        for i in 0..stored {
            net.send(mediated(&format!("http://a.example/{i}"), ""), speculate());
        }
        assert!(
            FabricCounters::gather(&net).cache_one_shot_entries <= RESPONSE_CACHE_CAPACITY as u64,
            "the cache stays within its capacity bound"
        );
        assert_eq!(
            FabricCounters::gather(&net).cache_evictions
                + FabricCounters::gather(&net).cache_one_shot_entries,
            stored as u64,
            "every overflow store evicted exactly one entry"
        );
        // Re-storing a URL overwrites in place rather than duplicating or evicting.
        let url = format!("http://a.example/{}", stored - 1);
        let evictions_before = FabricCounters::gather(&net).cache_evictions;
        net.send(mediated(&url, "a=1"), speculate());
        net.send(mediated(&url, "a=2"), speculate());
        assert_eq!(
            FabricCounters::gather(&net).cache_evictions,
            evictions_before
        );
        let consume = Dispatch {
            cache: CacheLayers::ONE_SHOT,
            ..Dispatch::default()
        };
        assert_eq!(
            net.send(mediated(&url, "a=2"), consume).served,
            Served::OneShot
        );
        assert_eq!(
            net.send(mediated(&url, "a=2"), consume).served,
            Served::Wire
        );
    }

    #[test]
    fn prefetch_hits_log_under_their_reserved_sequence() {
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        net.send(mediated("http://a.example/hit", "sid=abc"), speculate());
        let sequence = net.reserve_sequences(1);
        let consume = Dispatch {
            sequence: Sequence::Reserved(sequence),
            cache: CacheLayers::ONE_SHOT,
            ..Dispatch::default()
        };
        let hit = net.send(mediated("http://a.example/hit", "sid=abc"), consume);
        assert_eq!(hit.served, Served::OneShot);
        let log = net.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].url.path(), "/hit");
        assert_eq!(log[0].cookie_names, vec!["sid".to_string()]);
        assert_eq!(log[0].status, 200);
    }

    #[test]
    fn stateful_handlers_serialize_behind_their_origin_mutex() {
        let net = Arc::new(SharedNetwork::new());
        let mut hits = 0usize;
        net.register("http://count.example", move |_req: &Request| {
            hits += 1;
            Response::ok_text(hits.to_string())
        });
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let net = Arc::clone(&net);
                scope.spawn(move || {
                    for _ in 0..10 {
                        get(&net, "http://count.example/").unwrap();
                    }
                });
            }
        });
        // 40 concurrent hits, each seeing a consistent counter: the final dispatch
        // observes 41.
        let last = get(&net, "http://count.example/").unwrap();
        assert_eq!(last.body, "41");
    }

    #[test]
    fn fault_storms_leave_the_service_time_ewma_untouched() {
        use crate::fault::FaultPlan;
        let net = SharedNetwork::new();
        net.register("http://a.example", echo_server);
        let origin = Origin::parse_url("http://a.example").unwrap();
        // Establish a clean baseline estimate.
        for i in 0..5 {
            get(&net, &format!("http://a.example/warm{i}")).unwrap();
        }
        let baseline = net.estimated_service_ns(&origin);
        assert!(baseline > 0, "warm dispatches seeded the EWMA");
        // A storm of 5ms slowdowns and timeouts: every dispatch is faulted,
        // so *no* sample reaches the EWMA and the estimate stays exactly at
        // its pre-storm value — injected chaos cannot poison the planner's
        // fan-out cutover.
        net.inject_fault(
            "http://a.example",
            FaultPlan::new().slow_by(5_000_000).every_nth(2),
        );
        for i in 0..10 {
            let _ = get(&net, &format!("http://a.example/storm{i}"));
        }
        assert_eq!(
            net.estimated_service_ns(&origin),
            baseline,
            "faulted dispatches must be excluded from the EWMA"
        );
        assert_eq!(FabricCounters::gather(&net).fault_slowdowns, 10);
        assert_eq!(FabricCounters::gather(&net).fault_injected, 5);
        // Healing the origin resumes EWMA updates.
        net.clear_fault("http://a.example");
        get(&net, "http://a.example/healed").unwrap();
        assert!(net.estimated_service_ns(&origin) > 0);
    }

    /// Drives one fabric through every counted event, then checks each
    /// [`FabricCounters`] field against its expected value. The expected
    /// values form one full struct literal, so a field wired to the wrong
    /// atomic shows up as a mismatch, and a new field cannot be left out.
    #[test]
    fn gather_reads_every_counter_from_its_own_source() {
        use crate::fault::{FaultPlan, FetchPolicy};
        use crate::fetch_pool::{Priority, MAX_POOL_WORKERS};
        use escudo_core::ManualClock;
        use std::sync::Barrier;

        const COOLDOWN_NS: u64 = 1_000_000_000;
        let net = Arc::new(SharedNetwork::with_log_capacity(128));
        let clock = Arc::new(ManualClock::new());
        net.set_clock(Arc::<ManualClock>::clone(&clock));
        for origin in [
            "http://flaky.example",
            "http://slow.example",
            "http://down.example",
            "http://sick.example",
            "http://log.example",
        ] {
            net.register(origin, echo_server);
        }
        net.register("http://cdn.example", |req: &Request| {
            Response::ok_text(req.url.path().to_string()).with_max_age(60)
        });
        let send = |url: &str, how: Dispatch| net.send(Request::get(url).unwrap(), how);
        let with_policy = |policy: FetchPolicy| Dispatch {
            policy,
            ..Dispatch::default()
        };

        // Faults and retries: 4 + 1 retried timeouts, both sends succeed;
        // three slowed dispatches; one deadline-refused retry (1ms backoff
        // against a 2ms deadline, after one granted retry).
        let retrying = with_policy(FetchPolicy::default().with_max_retries(5));
        net.inject_fault("http://flaky.example", FaultPlan::new().fail_first(4));
        assert!(send("http://flaky.example/1", retrying).result.is_ok());
        net.inject_fault("http://flaky.example", FaultPlan::new().fail_first(1));
        assert!(send("http://flaky.example/2", retrying).result.is_ok());
        net.inject_fault("http://slow.example", FaultPlan::new().slow_by(1_000));
        for i in 0..3 {
            assert!(
                send(&format!("http://slow.example/{i}"), Dispatch::default())
                    .result
                    .is_ok()
            );
        }
        net.inject_fault("http://down.example", FaultPlan::new().timeout());
        let bounded = FetchPolicy::default()
            .with_max_retries(10)
            .with_backoff_base_ns(1_000_000)
            .with_deadline_ns(2_000_000);
        assert!(send("http://down.example/", with_policy(bounded))
            .result
            .is_err());

        // Breaker walk: trip, fast fail, failed probe (re-trip), fast fail,
        // successful probe (recovery), then trip again and fast fail twice.
        let breaking = with_policy(FetchPolicy::default().with_breaker(3, COOLDOWN_NS));
        let sick = "http://sick.example/";
        net.inject_fault("http://sick.example", FaultPlan::new().timeout());
        for _ in 0..4 {
            assert!(send(sick, breaking).result.is_err());
        }
        clock.advance_ns(COOLDOWN_NS);
        for _ in 0..2 {
            assert!(send(sick, breaking).result.is_err());
        }
        clock.advance_ns(COOLDOWN_NS);
        net.clear_fault("http://sick.example");
        assert!(send(sick, breaking).result.is_ok());
        net.inject_fault("http://sick.example", FaultPlan::new().timeout());
        for _ in 0..5 {
            assert!(send(sick, breaking).result.is_err());
        }
        let origin = Origin::parse_url("http://sick.example").unwrap();
        assert_eq!(net.breaker_phase(&origin), Some(crate::BreakerPhase::Open));

        // Evictions: 130 one-shot entries overflow the 128-entry cache. The
        // exact split follows the cache's FNV shard selection; the entries
        // stored below are younger, so they stay resident.
        for i in 0..130 {
            net.send(
                mediated(&format!("http://cdn.example/fill{i}"), ""),
                speculate(),
            );
        }

        // Persistent cache: a store, three hits, a stale discard under a
        // different mediated header, then two expiries once `max-age` lapses.
        let cached = Dispatch {
            cache: CacheLayers::PERSISTENT,
            ..Dispatch::default()
        };
        let with_sid = || mediated("http://cdn.example/a", "sid=x");
        assert_eq!(send("http://cdn.example/a", cached).served, Served::Wire);
        for _ in 0..3 {
            assert_eq!(send("http://cdn.example/a", cached).served, Served::Cache);
        }
        assert_eq!(net.send(with_sid(), cached).served, Served::Wire);
        assert_eq!(send("http://cdn.example/b", cached).served, Served::Wire);
        clock.advance_ns(61_000_000_000);
        assert_eq!(send("http://cdn.example/b", cached).served, Served::Wire);
        assert_eq!(net.send(with_sid(), cached).served, Served::Wire);

        // One-shot layer: three speculations, two consumed.
        let consume = Dispatch {
            cache: CacheLayers::ONE_SHOT,
            ..Dispatch::default()
        };
        for page in ["p1", "p2", "p3"] {
            assert!(
                net.send(
                    mediated(&format!("http://cdn.example/{page}"), ""),
                    speculate()
                )
                .stored
            );
        }
        for page in ["p1", "p2"] {
            assert_eq!(
                send(&format!("http://cdn.example/{page}"), consume).served,
                Served::OneShot
            );
        }

        // Single-flight: four identical slots, one dispatch, three coalesced.
        let plan = (0..4)
            .map(|_| {
                (
                    Request::get("http://cdn.example/c").unwrap(),
                    Priority::Bulk,
                )
            })
            .collect();
        let outcomes = net.send_plan(plan, cached, 1).join();
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| o.served == Served::Coalesced)
                .count(),
            3
        );

        // Pool fan-out: two slow origins whose handlers meet at a barrier, so
        // the plan's one pool ticket and the joining thread each send one.
        let barrier = Arc::new(Barrier::new(2));
        for origin in ["http://fan0.example", "http://fan1.example"] {
            let barrier = Arc::clone(&barrier);
            net.register(origin, move |req: &Request| {
                barrier.wait();
                echo_server(req)
            });
            net.set_latency(origin, Duration::from_micros(100));
        }
        let plan = ["http://fan0.example/", "http://fan1.example/"]
            .iter()
            .map(|url| (Request::get(url).unwrap(), Priority::Navigation))
            .collect();
        let outcomes = net.send_plan(plan, Dispatch::default(), 2).join();
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        // The worker adds its tally just after completing its slot.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while FabricCounters::gather(&net).pool_jobs_executed == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }

        // Log overflow: 136 consecutive sequences put 17 entries in each of
        // the 8 stripes of 16; the 17th drops the stripe's oldest 2.
        net.clear_log();
        for i in 0..136 {
            assert!(
                send(&format!("http://log.example/{i}"), Dispatch::default())
                    .result
                    .is_ok()
            );
        }

        // The first fan-out grows the pool to the machine's parallelism.
        let pool_workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(MAX_POOL_WORKERS) as u64;
        assert_eq!(
            FabricCounters::gather(&net),
            FabricCounters {
                log_len: 120,
                log_capacity: 128,
                dropped_log_entries: 16,
                pool_workers,
                pool_jobs_executed: 1,
                pool_preemptions: 0,
                fault_injected: 14,
                fault_slowdowns: 3,
                retry_attempts: 6,
                retry_successes: 2,
                retry_deadline_exhausted: 1,
                breaker_trips: 3,
                breaker_probes: 2,
                breaker_recoveries: 1,
                breaker_fast_fails: 4,
                cache_hits: 3,
                cache_one_shot_hits: 2,
                cache_stale_discards: 1,
                cache_expired: 2,
                cache_evictions: 9,
                cache_stored: 139,
                cache_coalesced: 3,
                cache_entries: 125,
                cache_one_shot_entries: 122,
            }
        );
    }
}
