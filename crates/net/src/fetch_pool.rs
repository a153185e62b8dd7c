//! The persistent fetch worker pool: parked OS threads the fabric reuses across
//! page loads, scheduled over a **three-lane priority queue**.
//!
//! Spawning a thread costs tens of microseconds, too much to pay on every page
//! load, so the fabric owns a **pool of parked workers** that
//! [`SharedNetwork::send_plan`] submits to:
//!
//! * a lane-split job queue plus a `Condvar` the idle workers park on —
//!   submission is a short lock hold and one notify per woken worker,
//!   microseconds instead of thread spawns;
//! * workers are spawned **lazily** the first time a batch actually needs them
//!   (fabrics that never fan out — most unit tests — never start a thread) and
//!   then persist, parked, for the fabric's lifetime;
//! * the pool grows on demand up to [`MAX_POOL_WORKERS`], sized by each batch's
//!   requested parallelism with [`std::thread::available_parallelism`] as the
//!   floor for the first growth step;
//! * the **joining thread is always worker 0**: it drains its own batch
//!   alongside the pool, so a batch never deadlocks waiting for pool capacity
//!   and the sequential semantics of a one-worker batch are exactly the inline
//!   dispatch path;
//! * dropping the pool (i.e. the fabric) shuts the workers down and joins them.
//!
//! # Priority lanes
//!
//! The queue is not strict FIFO. Every ticket carries a [`Priority`] lane tag
//! and a free worker claims tickets lane by lane — [`Priority::Navigation`]
//! first, then [`Priority::Bulk`], then [`Priority::Background`] — so a
//! navigation-critical batch submitted behind a sibling session's deep
//! bulk-image storm does not wait its full FIFO turn. Lanes decide which
//! ticket a free worker claims next; a worker never abandons the batch it is
//! draining. The **anti-starvation credit** keeps the lanes honest the other
//! way: after [`NAVIGATION_CREDIT`] consecutive navigation tickets handed out
//! while lower-lane work waited, the queue serves one bulk/background ticket
//! regardless, so a navigation storm can slow the bulk lanes but never halt
//! them.
//!
//! # Tickets, not jobs
//!
//! The shared queue holds **claim tickets**, not individual fetches. A batch of
//! `n` requests submitted at parallelism `w` enqueues `w - 1` tickets; whichever
//! worker pops a ticket *drains that batch's own pending list* until it is
//! empty. Concurrency on one batch is therefore **exactly bounded** by its
//! ticket count plus the submitting thread — a fully grown pool cannot gang up
//! on a narrow batch — and submission wakes only as many workers as there are
//! tickets (no thundering herd on small batches).
//!
//! A panicking origin handler is contained per request: the unwind is caught,
//! the request's result slot is completed with [`NetError::FetchPanicked`], and
//! both the ticket and the worker keep going — one poisoned handler fails its
//! own fetch, never hangs the navigating thread or kills the pool.
//!
//! Because submission is cheap and the workers are already warm, "overlap the
//! next navigation with the current fan-out" is just another plan:
//! [`SharedNetwork::send_plan`] with `Background` slots enqueues speculative
//! prefetch work and returns immediately, so the navigating thread fans the
//! current page out while the pool fills the prefetch cache behind it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

use crate::dispatch::{Outcome, Served};
use crate::error::NetError;
use crate::fault::BatchBudget;
use crate::message::Request;
use crate::response_cache::CacheLayers;
use crate::shared_network::SharedNetwork;

/// Hard bound on pool threads, far above any realistic fan-out parallelism — a
/// backstop against a caller requesting absurd batch widths, not a tuning knob.
pub const MAX_POOL_WORKERS: usize = 64;

/// Anti-starvation credit: after this many consecutive navigation tickets
/// served while bulk/background work waited, one lower-lane ticket is served
/// even though navigation work remains queued.
pub const NAVIGATION_CREDIT: u32 = 4;

/// The scheduling lane a fetch batch rides through the pool's priority queue.
///
/// Free workers claim tickets strictly in lane order — `Navigation`, then
/// `Bulk`, then `Background` — subject to the [`NAVIGATION_CREDIT`]
/// anti-starvation valve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Navigation-critical work: the document fetch's render-blocking
    /// companions (stylesheets, scripts). Claimed ahead of the lower lanes.
    Navigation,
    /// Ordinary page fan-out — images and other non-blocking subresources.
    #[default]
    Bulk,
    /// Speculative work (prefetch). Claimed only when nothing better is
    /// queued.
    Background,
}

/// One submitted batch: the pending requests any ticket holder may claim, the
/// per-request outcome slots, and the rendezvous the submitter waits on.
///
/// The batch holds the fabric **weakly**: the pool lives *inside* the fabric,
/// so a worker must never be the one to drop the fabric's last strong
/// reference — that would run the pool's own `Drop` (which joins the workers)
/// on a worker thread. The submitter holds a strong reference until it joins,
/// so the upgrade only fails for work orphaned by a vanished submitter, which
/// completes with an error.
pub(crate) struct BatchWork {
    fabric: Weak<SharedNetwork>,
    /// Requests not yet claimed, as `(slot, sequence, request)`: the slot
    /// indexes the outcome array, the sequence (`None` when unlogged) is the
    /// one the request logs under. One short lock hold per claim; ticket
    /// holders loop until this is empty.
    pending: Mutex<VecDeque<(usize, Option<u64>, Request)>>,
    slots: Vec<Mutex<Option<Outcome>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    finished: Condvar,
    /// The batch's shared retry budget; `None` runs the bare single-attempt
    /// dispatch.
    budget: Option<BatchBudget>,
    /// The cache layers wire responses may be admitted into.
    cache: CacheLayers,
}

impl BatchWork {
    pub(crate) fn new(
        fabric: &Arc<SharedNetwork>,
        entries: Vec<(Option<u64>, Request)>,
        budget: Option<BatchBudget>,
        cache: CacheLayers,
    ) -> Arc<Self> {
        let count = entries.len();
        Arc::new(BatchWork {
            fabric: Arc::downgrade(fabric),
            pending: Mutex::new(
                entries
                    .into_iter()
                    .enumerate()
                    .map(|(slot, (sequence, request))| (slot, sequence, request))
                    .collect(),
            ),
            slots: (0..count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(count),
            // An empty batch is born finished; `wait` must not park on it.
            done: Mutex::new(count == 0),
            finished: Condvar::new(),
            budget,
            cache,
        })
    }

    /// Claims and sends **one** pending request. Returns `false` when no
    /// claim remained — the batch's pending list is empty (though ticket
    /// holders may still be finishing claims made earlier). A panicking
    /// handler fails its own slot (see
    /// [`dispatch_containing_panics`](crate::dispatch::dispatch_containing_panics)).
    fn drain_one(&self) -> bool {
        let claimed = self.pending.lock().expect("batch pending list").pop_front();
        let Some((index, sequence, request)) = claimed else {
            return false;
        };
        let outcome = match self.fabric.upgrade() {
            Some(fabric) => {
                let outcome = fabric.wire(sequence, &request, self.budget.as_ref(), self.cache);
                // The strong reference must die *before* the completion
                // signal: once `complete` wakes the submitter, the
                // fabric's owner may drop it at any moment, and this
                // thread must not be holding the last count when it does.
                drop(fabric);
                outcome
            }
            None => Outcome {
                result: Err(NetError::HostUnreachable(format!(
                    "network fabric dropped before dispatching {}",
                    request.url
                ))),
                served: Served::Wire,
                retries: 0,
                stored: false,
            },
        };
        self.complete(index, outcome);
        true
    }

    /// Drains the batch's pending list to empty. Run by ticket holders and by
    /// the joining thread, so the batch's concurrency is exactly its ticket
    /// count plus the joiner. Returns how many requests this call sent.
    pub(crate) fn drain(&self) -> u64 {
        let mut ran = 0;
        while self.drain_one() {
            ran += 1;
        }
        ran
    }

    fn complete(&self, index: usize, outcome: Outcome) {
        *self.slots[index].lock().expect("batch result slot") = Some(outcome);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().expect("batch done flag") = true;
            self.finished.notify_all();
        }
    }

    pub(crate) fn wait(&self) {
        let mut done = self.done.lock().expect("batch done flag");
        while !*done {
            done = self.finished.wait(done).expect("batch done flag");
        }
    }

    pub(crate) fn take_results(&self) -> Vec<Outcome> {
        self.slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("batch result slot")
                    .take()
                    .expect("every request of a finished batch has a result")
            })
            .collect()
    }
}

/// The state workers share: the lane-split ticket queue and the park/wake
/// machinery. Workers hold an `Arc` of *this* (never of the fabric), and
/// batches hold the fabric only weakly, so the fabric → pool → worker
/// ownership chain stays acyclic and the fabric's last strong reference can
/// never die on a worker thread.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Parked workers wait here; submission notifies one worker per ticket.
    available: Condvar,
    /// Requests dispatched by pool workers (not the helping submitter) —
    /// observability.
    executed: AtomicU64,
}

struct PoolQueue {
    /// Claim tickets per lane: popping one commits the worker to draining that
    /// batch to empty.
    navigation: VecDeque<Arc<BatchWork>>,
    bulk: VecDeque<Arc<BatchWork>>,
    background: VecDeque<Arc<BatchWork>>,
    /// Consecutive navigation tickets handed out while lower-lane work waited;
    /// at [`NAVIGATION_CREDIT`] the next pop serves a lower lane instead.
    navigation_streak: u32,
    shutdown: bool,
}

impl PoolQueue {
    fn lane_mut(&mut self, lane: Priority) -> &mut VecDeque<Arc<BatchWork>> {
        match lane {
            Priority::Navigation => &mut self.navigation,
            Priority::Bulk => &mut self.bulk,
            Priority::Background => &mut self.background,
        }
    }

    /// Pops the next ticket by lane priority — navigation first, bulk, then
    /// background — with the anti-starvation credit letting one lower-lane
    /// ticket through after every [`NAVIGATION_CREDIT`] navigation pops made
    /// while lower-lane work sat waiting.
    fn pop_ticket(&mut self) -> Option<Arc<BatchWork>> {
        let lower_waiting = !self.bulk.is_empty() || !self.background.is_empty();
        if !self.navigation.is_empty()
            && (!lower_waiting || self.navigation_streak < NAVIGATION_CREDIT)
        {
            self.navigation_streak += 1;
            return self.navigation.pop_front();
        }
        self.navigation_streak = 0;
        self.bulk
            .pop_front()
            .or_else(|| self.background.pop_front())
            .or_else(|| self.navigation.pop_front())
    }
}

/// The persistent, lazily-grown worker pool one [`SharedNetwork`] owns.
pub(crate) struct FetchPool {
    shared: Arc<PoolShared>,
    /// Spawned worker handles; joined on drop. The `Mutex` also serializes
    /// growth, so two racing `ensure_workers` calls cannot over-spawn.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Lock-free mirror of `handles.len()` for the stats path.
    workers: AtomicUsize,
}

impl FetchPool {
    pub(crate) fn new() -> Self {
        FetchPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    navigation: VecDeque::new(),
                    bulk: VecDeque::new(),
                    background: VecDeque::new(),
                    navigation_streak: 0,
                    shutdown: false,
                }),
                available: Condvar::new(),
                executed: AtomicU64::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            workers: AtomicUsize::new(0),
        }
    }

    /// Parked worker threads currently alive.
    pub(crate) fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// Requests dispatched by pool workers (the helping submitter's share is
    /// not counted here — it never crossed a thread).
    pub(crate) fn jobs_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Grows the pool to at least `wanted` workers (capped at
    /// [`MAX_POOL_WORKERS`]). Existing parked workers are reused; only the
    /// shortfall is spawned. First growth also covers the machine's available
    /// parallelism so a warm pool serves later, wider batches without a second
    /// growth stop.
    pub(crate) fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_POOL_WORKERS);
        if self.workers() >= wanted {
            return;
        }
        let mut handles = self.handles.lock().expect("pool handle list");
        let target = wanted
            .max(
                std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    .min(MAX_POOL_WORKERS),
            )
            .max(handles.len());
        while handles.len() < target {
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name("escudo-fetch".into())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn fetch worker"),
            );
        }
        self.workers.store(handles.len(), Ordering::Relaxed);
    }

    /// Enqueues `tickets` claim tickets for `work` on `priority`'s lane under
    /// one lock hold and wakes exactly that many parked workers — a small
    /// batch on a fully grown pool does not stampede every thread.
    pub(crate) fn submit(&self, work: &Arc<BatchWork>, tickets: usize, priority: Priority) {
        {
            let mut queue = self.shared.queue.lock().expect("fetch pool queue");
            queue
                .lane_mut(priority)
                .extend((0..tickets).map(|_| Arc::clone(work)));
        }
        for _ in 0..tickets {
            self.shared.available.notify_one();
        }
    }
}

impl Drop for FetchPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("fetch pool queue");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.lock().expect("pool handle list").drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for FetchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchPool")
            .field("workers", &self.workers())
            .field("jobs_executed", &self.jobs_executed())
            .finish()
    }
}

/// A worker: park on the condvar, drain a batch per claimed ticket, exit on
/// shutdown. Pending tickets are drained even after shutdown is flagged, so a
/// fabric dropped mid-batch still completes the batch before the join.
fn worker_loop(shared: &PoolShared) {
    loop {
        let work = {
            let mut queue = shared.queue.lock().expect("fetch pool queue");
            loop {
                if let Some(work) = queue.pop_ticket() {
                    break work;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("fetch pool queue");
            }
        };
        let ran = work.drain();
        shared.executed.fetch_add(ran, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{Dispatch, Sequence};
    use crate::fault::FetchPolicy;
    use crate::message::{Response, StatusCode};
    use crate::shared_network::FabricCounters;
    use std::time::Duration;

    fn echo(req: &Request) -> Response {
        Response::ok_text(req.url.path().to_string())
    }

    fn fabric_with_origins(n: usize, latency: Duration) -> Arc<SharedNetwork> {
        let fabric = Arc::new(SharedNetwork::new());
        for k in 0..n {
            let origin = format!("http://h{k}.example");
            fabric.register(&origin, echo);
            fabric.set_latency(&origin, latency);
        }
        fabric
    }

    fn plan(fabric: &Arc<SharedNetwork>, count: usize, origins: usize) -> (u64, Vec<Request>) {
        let requests: Vec<Request> = (0..count)
            .map(|i| Request::get(&format!("http://h{}.example/r{i}", i % origins)).unwrap())
            .collect();
        (fabric.reserve_sequences(count as u64), requests)
    }

    /// Sends `requests` as one lane of a plan logged from `base`.
    fn send_lane(
        fabric: &Arc<SharedNetwork>,
        base: u64,
        requests: Vec<Request>,
        parallelism: usize,
        lane: Priority,
        policy: FetchPolicy,
    ) -> Vec<Outcome> {
        let how = Dispatch {
            sequence: Sequence::Reserved(base),
            policy,
            ..Dispatch::default()
        };
        let plan = requests
            .into_iter()
            .map(|request| (request, lane))
            .collect();
        fabric.send_plan(plan, how, parallelism).join()
    }

    fn send_batch(
        fabric: &Arc<SharedNetwork>,
        base: u64,
        requests: Vec<Request>,
        parallelism: usize,
        lane: Priority,
    ) -> Vec<Result<Arc<Response>, NetError>> {
        send_lane(
            fabric,
            base,
            requests,
            parallelism,
            lane,
            FetchPolicy::disabled(),
        )
        .into_iter()
        .map(|outcome| outcome.result)
        .collect()
    }

    #[test]
    fn batch_results_and_log_read_in_plan_order() {
        let fabric = fabric_with_origins(4, Duration::from_micros(50));
        let (base, requests) = plan(&fabric, 8, 4);
        let results = send_batch(&fabric, base, requests, 4, Priority::Bulk);
        assert_eq!(results.len(), 8);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.as_ref().unwrap().body, format!("/r{i}"));
        }
        let paths: Vec<String> = fabric.log().iter().map(|e| e.url.path().into()).collect();
        let expected: Vec<String> = (0..8).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, expected);
    }

    #[test]
    fn parallelism_one_never_touches_the_pool() {
        let fabric = fabric_with_origins(2, Duration::ZERO);
        let (base, requests) = plan(&fabric, 4, 2);
        let results = send_batch(&fabric, base, requests, 1, Priority::Navigation);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(
            FabricCounters::gather(&fabric).pool_workers,
            0,
            "inline path spawns nothing"
        );
    }

    #[test]
    fn lanes_below_the_fanout_cutover_run_inline() {
        // Zero-latency origins estimate far below the cutover: even a wide
        // plan runs on the calling thread and never grows the pool.
        let fabric = fabric_with_origins(2, Duration::ZERO);
        let (base, requests) = plan(&fabric, 8, 2);
        let results = send_batch(&fabric, base, requests, 4, Priority::Bulk);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(
            FabricCounters::gather(&fabric).pool_workers,
            0,
            "inline path spawns nothing"
        );
    }

    #[test]
    fn workers_persist_across_batches() {
        let fabric = fabric_with_origins(4, Duration::from_micros(50));
        for _ in 0..3 {
            let (base, requests) = plan(&fabric, 8, 4);
            let results = send_batch(&fabric, base, requests, 4, Priority::Bulk);
            assert!(results.iter().all(Result::is_ok));
        }
        let after_first = FabricCounters::gather(&fabric).pool_workers;
        assert!(after_first >= 3, "pool retains its parked workers");
        let (base, requests) = plan(&fabric, 8, 4);
        let _ = send_batch(&fabric, base, requests, 4, Priority::Bulk);
        assert_eq!(
            FabricCounters::gather(&fabric).pool_workers,
            after_first,
            "a later batch reuses the parked workers instead of spawning"
        );
        assert_eq!(fabric.log_len(), 32);
    }

    #[test]
    fn unreachable_origins_fail_their_slot_not_the_batch() {
        let fabric = fabric_with_origins(2, Duration::from_micros(100));
        let base = fabric.reserve_sequences(3);
        let requests = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://nowhere.example/b").unwrap(),
            Request::get("http://h1.example/c").unwrap(),
        ];
        let results = send_batch(&fabric, base, requests, 2, Priority::Bulk);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::HostUnreachable(_))));
        assert!(results[2].is_ok());
        // The unreachable dispatch is not logged: there is no response.
        assert_eq!(fabric.log_len(), 2);
    }

    #[test]
    fn panicking_handlers_fail_their_slot_and_spare_the_pool() {
        let fabric = fabric_with_origins(1, Duration::from_micros(100));
        fabric.register("http://boom.example", |req: &Request| -> Response {
            panic!("handler exploded on {}", req.url.path())
        });
        let base = fabric.reserve_sequences(4);
        let requests = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://boom.example/b").unwrap(),
            Request::get("http://h0.example/c").unwrap(),
            Request::get("http://boom.example/d").unwrap(),
        ];
        // The batch completes — no hang — with the panicking slots failed.
        let results = send_batch(&fabric, base, requests, 3, Priority::Bulk);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::FetchPanicked(_))));
        assert!(results[2].is_ok());
        assert!(matches!(results[3], Err(NetError::FetchPanicked(_))));
        // The pool survived: a later healthy batch over the same workers runs
        // to completion. (The panicked origin's handler mutex is poisoned, but
        // the pool and every other origin are unaffected.)
        let (base, requests) = plan(&fabric, 4, 1);
        let results = send_batch(&fabric, base, requests, 3, Priority::Bulk);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn inline_batches_contain_panics_like_pooled_ones() {
        // Parallelism 1 takes the inline path; a panicking handler must fail
        // its own slot there too — which side of the fan-out cutover a batch
        // lands on must not decide between a soft error and a crashed
        // navigating thread.
        let fabric = fabric_with_origins(1, Duration::ZERO);
        fabric.register("http://boom.example", |_req: &Request| -> Response {
            panic!("inline handler exploded")
        });
        let base = fabric.reserve_sequences(3);
        let requests = vec![
            Request::get("http://h0.example/a").unwrap(),
            Request::get("http://boom.example/b").unwrap(),
            Request::get("http://h0.example/c").unwrap(),
        ];
        let results = send_batch(&fabric, base, requests, 1, Priority::Bulk);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(NetError::FetchPanicked(_))));
        assert!(results[2].is_ok());
        assert_eq!(
            FabricCounters::gather(&fabric).pool_workers,
            0,
            "inline path spawns nothing"
        );
    }

    #[test]
    fn parallelism_strictly_bounds_batch_concurrency() {
        // A grown pool (4 workers) must not gang up on a width-2 batch: with
        // a handler counting concurrent entries, the high-water mark stays
        // ≤ 2 even though more workers are parked and hungry.
        let fabric = Arc::new(SharedNetwork::new());
        let in_flight = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        for k in 0..4 {
            let in_flight = Arc::clone(&in_flight);
            let high_water = Arc::clone(&high_water);
            let origin = format!("http://h{k}.example");
            fabric.register(&origin, move |req: &Request| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                Response::ok_text(req.url.path().to_string())
            });
            // Known-slow origins: every batch clears the fan-out cutover.
            fabric.set_latency(&origin, Duration::from_micros(50));
        }
        // Grow the pool to 4 with a wide batch first.
        let (base, requests) = plan(&fabric, 8, 4);
        let _ = send_batch(&fabric, base, requests, 5, Priority::Bulk);
        assert!(FabricCounters::gather(&fabric).pool_workers >= 4);
        // Now a narrow batch: the bound must hold despite the grown pool.
        high_water.store(0, Ordering::SeqCst);
        let (base, requests) = plan(&fabric, 12, 4);
        let results = send_batch(&fabric, base, requests, 2, Priority::Bulk);
        assert!(results.iter().all(Result::is_ok));
        assert!(
            high_water.load(Ordering::SeqCst) <= 2,
            "width-2 batch ran {} fetches concurrently",
            high_water.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let fabric = fabric_with_origins(4, Duration::from_micros(100));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let fabric = Arc::clone(&fabric);
                scope.spawn(move || {
                    let (base, requests) = plan(&fabric, 8, 4);
                    let results = send_batch(&fabric, base, requests, 4, Priority::Bulk);
                    assert!(results.iter().all(Result::is_ok));
                });
            }
        });
        assert_eq!(fabric.log_len(), 24);
        assert!(FabricCounters::gather(&fabric).pool_workers <= MAX_POOL_WORKERS as u64);
    }

    #[test]
    fn status_codes_travel_through_the_pool() {
        let fabric = Arc::new(SharedNetwork::new());
        fabric.register("http://deny.example", |_req: &Request| {
            Response::error(StatusCode::FORBIDDEN, "no")
        });
        fabric.set_latency("http://deny.example", Duration::from_micros(100));
        let base = fabric.reserve_sequences(2);
        let requests = vec![
            Request::get("http://deny.example/x").unwrap(),
            Request::get("http://deny.example/y").unwrap(),
        ];
        let results = send_batch(&fabric, base, requests, 2, Priority::Bulk);
        for result in results {
            assert_eq!(result.unwrap().status, StatusCode::FORBIDDEN);
        }
    }

    #[test]
    fn navigation_tickets_pop_before_queued_bulk_with_anti_starvation_credit() {
        // Pure queue-policy test: queue 6 navigation tickets behind 2 bulk and
        // 1 background ticket. Pops must serve navigation first, let exactly
        // one bulk ticket through after NAVIGATION_CREDIT consecutive
        // navigation pops, and drain background last.
        let fabric = fabric_with_origins(1, Duration::ZERO);
        let batch = || BatchWork::new(&fabric, Vec::new(), None, CacheLayers::default());
        let (nav, bulk, background) = (batch(), batch(), batch());
        let mut queue = PoolQueue {
            navigation: (0..6).map(|_| Arc::clone(&nav)).collect(),
            bulk: (0..2).map(|_| Arc::clone(&bulk)).collect(),
            background: VecDeque::from([Arc::clone(&background)]),
            navigation_streak: 0,
            shutdown: false,
        };
        let mut order = Vec::new();
        use Priority::{Background, Bulk, Navigation};
        while let Some(work) = queue.pop_ticket() {
            order.push(if Arc::ptr_eq(&work, &nav) {
                Navigation
            } else if Arc::ptr_eq(&work, &bulk) {
                Bulk
            } else {
                Background
            });
        }
        assert_eq!(
            order,
            vec![
                Navigation, Navigation, Navigation, Navigation, // credit exhausted
                Bulk,       // anti-starvation valve fires
                Navigation, Navigation, // remaining navigation work
                Bulk, Background, // lanes drain in priority order
            ]
        );
    }

    #[test]
    fn background_batches_dispatch_unlogged_and_join_in_plan_order() {
        let fabric = fabric_with_origins(2, Duration::from_micros(50));
        let plan: Vec<(Request, Priority)> = (0..4)
            .map(|i| {
                let url = format!("http://h{}.example/bg{i}", i % 2);
                (Request::get(&url).unwrap(), Priority::Background)
            })
            .collect();
        let unlogged = Dispatch {
            sequence: Sequence::Unlogged,
            ..Dispatch::default()
        };
        let results = fabric.send_plan(plan, unlogged, 2).join();
        assert_eq!(results.len(), 4);
        for (i, outcome) in results.iter().enumerate() {
            assert_eq!(outcome.result.as_ref().unwrap().body, format!("/bg{i}"));
        }
        // Speculative dispatches never touch the sequence-ordered log.
        assert_eq!(fabric.log_len(), 0);
        // An empty batch joins immediately instead of parking forever.
        assert!(fabric.send_plan(Vec::new(), unlogged, 4).join().is_empty());
    }

    #[test]
    fn resilient_batches_retry_faulted_slots_and_keep_the_log_in_plan_order() {
        use crate::fault::FaultPlan;
        let fabric = fabric_with_origins(2, Duration::from_micros(50));
        // The first dispatch to h0 times out once; a single retry heals it.
        fabric.inject_fault("http://h0.example", FaultPlan::new().fail_first(1));
        let (base, requests) = plan(&fabric, 6, 2);
        let policy = FetchPolicy::default().with_max_retries(2);
        let results = send_lane(&fabric, base, requests, 3, Priority::Bulk, policy);
        assert!(results.iter().all(|outcome| outcome.result.is_ok()));
        let total_retries: u32 = results.iter().map(|outcome| outcome.retries).sum();
        assert_eq!(total_retries, 1, "exactly the one faulted slot retried");
        assert_eq!(FabricCounters::gather(&fabric).fault_injected, 1);
        assert_eq!(FabricCounters::gather(&fabric).retry_attempts, 1);
        assert_eq!(FabricCounters::gather(&fabric).retry_successes, 1);
        // The healed retry logged under its originally reserved sequence, so
        // the sequence-sorted log still reads in exact plan order.
        let paths: Vec<String> = fabric.log().iter().map(|e| e.url.path().into()).collect();
        let expected: Vec<String> = (0..6).map(|i| format!("/r{i}")).collect();
        assert_eq!(paths, expected);
    }
}
