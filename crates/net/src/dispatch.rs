//! The fabric's one request path.
//!
//! Every request reaches an origin through [`SharedNetwork::send`] (one
//! request) or [`SharedNetwork::send_plan`] (a whole page plan, each slot on
//! its own [`Priority`] lane). A [`Dispatch`] descriptor says how: the log
//! [`Sequence`] the request takes, the [`FetchPolicy`] its retries and breaker
//! follow, and the [`CacheLayers`] it may be served from.
//!
//! In ESCUDO only the reference monitor decides which cookies a request
//! carries. Everything here happens *after* that decision, and none of it may
//! change it — a cache hit, a retry or a coalesced slot may skip transport,
//! never a mediation step:
//!
//! * a lookup keys on the request's own mediated `Cookie` header, so an entry
//!   fetched under any other plan is discarded, never served;
//! * a hit is logged under the slot's own sequence, byte-identical to the
//!   entry the wire dispatch would have written;
//! * duplicate (URL, `Cookie`) slots of one plan — across lanes — single-flight
//!   onto one dispatch; when that dispatch fails, each duplicate goes to the
//!   wire itself under the plan's policy, exactly as an uncoalesced slot would;
//! * a retry re-sends the mediated request verbatim ([`crate::fault`]);
//! * only wire responses are admitted, and the cache's `store` refuses
//!   anything per-recipient or uncacheable.
//!
//! Each [`Outcome`] reports how its slot was served, so a caller can count
//! hits and apply `Set-Cookie` from wire responses only.
//!
//! # Scheduling
//!
//! A plan's `Navigation` and `Bulk` slots run when the caller joins, lane by
//! lane. Each lane fans out over the fabric's worker pool
//! ([`crate::fetch_pool`]) only when the origins' estimated service time
//! (configured latency or the observed EWMA, whichever is larger) reaches
//! [`FANOUT_THRESHOLD_NS`]; below it, or at parallelism 1, the lane runs
//! inline on the calling thread in plan order — the sequential oracle, with
//! no pool worker ever spawned. A fanned-out lane takes `parallelism - 1`
//! claim tickets and the caller drains alongside them. `Background` slots are
//! submitted to the pool at once with `parallelism` tickets, so speculation
//! overlaps whatever the caller does before joining.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::error::NetError;
use crate::fault::{dispatch_slot_resilient, BatchBudget, FetchPolicy};
use crate::fetch_pool::{BatchWork, Priority};
use crate::message::{Method, Request, Response};
use crate::response_cache::CacheLayers;
use crate::shared_network::SharedNetwork;

/// Estimated total fetch cost of one foreground lane, in nanoseconds, below
/// which the lane runs inline instead of fanning out. Fanning out is a queue
/// push and a condvar notify to the fabric's parked workers, so only pages
/// whose origins are slow enough to overlap pay for it.
const FANOUT_THRESHOLD_NS: u64 = 150_000;

/// Which log sequence a dispatch is recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sequence {
    /// Reserve fresh numbers when the request is sent, one per plan slot.
    #[default]
    Fresh,
    /// Slot `i` logs under `base + i`, a block reserved earlier with
    /// [`SharedNetwork::reserve_sequences`], so the sorted log reads in plan
    /// order no matter which slot finished first.
    Reserved(u64),
    /// Record nothing: speculation. An unlogged dispatch is never served from
    /// the cache (its response is what fills the one-shot layer), so it
    /// cannot perturb the log the oracle-equivalence harnesses compare.
    Unlogged,
}

impl Sequence {
    /// The first sequence of a `count`-slot dispatch (`None` when unlogged).
    fn base(self, fabric: &SharedNetwork, count: usize) -> Option<u64> {
        match self {
            Sequence::Fresh => Some(fabric.reserve_sequences(count as u64)),
            Sequence::Reserved(base) => Some(base),
            Sequence::Unlogged => None,
        }
    }
}

/// How a request travels through the fabric. The default — a fresh logged
/// sequence, the disabled policy, no cache — is the bare dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dispatch {
    /// Where the request is logged.
    pub sequence: Sequence,
    /// Retries, deadline and breaker; [`FetchPolicy::disabled`] by default.
    pub policy: FetchPolicy,
    /// The cache layers a `GET` without a body may use; none by default. A
    /// logged request is looked up in these layers, single-flights with its
    /// plan's duplicates, and with `persistent` has its cacheable wire
    /// response admitted. An unlogged request with `one_shot` parks its
    /// response as a one-shot entry for the navigation it predicts.
    pub cache: CacheLayers,
}

/// How one slot was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Dispatched to the origin (also the answer for a failed dispatch).
    Wire,
    /// A persistent cache entry.
    Cache,
    /// A one-shot (speculative prefetch) entry, consumed by this hit.
    OneShot,
    /// An earlier slot of the same plan with the same URL and `Cookie` header.
    Coalesced,
}

/// One slot's result, how it was served, and what it cost.
#[derive(Debug)]
pub struct Outcome {
    /// The response (shared with the cache on a hit or an admission), or the
    /// final attempt's error.
    pub result: Result<Arc<Response>, NetError>,
    /// Where the response came from.
    pub served: Served,
    /// Retries this slot spent (always 0 off the wire).
    pub retries: u32,
    /// `true` when this slot's wire response entered the cache.
    pub stored: bool,
}

/// `true` for the requests the cache may serve and store: a `GET` with no
/// body.
fn cacheable(request: &Request) -> bool {
    request.method == Method::Get && request.body.is_empty()
}

/// The mediated `Cookie` header the monitor attached (empty for none) — the
/// plan a cache entry is validated against.
fn cookie_header(request: &Request) -> &str {
    request.headers.get("Cookie").unwrap_or("")
}

/// Dispatches one request — under `sequence` when logged — catching a
/// panicking origin handler and converting it into
/// [`NetError::FetchPanicked`], so no request path can take the calling
/// thread or a pool worker down with it.
pub(crate) fn dispatch_containing_panics(
    fabric: &SharedNetwork,
    sequence: Option<u64>,
    request: &Request,
) -> Result<Response, NetError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fabric.transmit(sequence, request)
    }))
    .unwrap_or_else(|_| {
        Err(NetError::FetchPanicked(format!(
            "origin handler panicked on {}",
            request.url
        )))
    })
}

/// A plan slot still to send: `(slot, sequence, request)`.
type PendingSlot = (usize, Option<u64>, Request);

/// A plan on its way through the fabric, created by
/// [`SharedNetwork::send_plan`]. Cache hits and `Background` slots are already
/// under way; [`PlanHandle::join`] runs the foreground lanes and collects
/// every slot.
pub struct PlanHandle {
    fabric: Arc<SharedNetwork>,
    how: Dispatch,
    parallelism: usize,
    /// Per-slot outcomes; cache hits are filled in at submission.
    outcomes: Vec<Option<Outcome>>,
    /// The slots still to send on the `Navigation` and `Bulk` lanes, in that
    /// order, as `(slot, sequence, request)`.
    foreground: [(Priority, Vec<PendingSlot>); 2],
    /// The submitted `Background` batch and the plan slots of its entries.
    background: Option<(Vec<usize>, Arc<BatchWork>)>,
    /// Duplicate slots as `(slot, primary slot, sequence, request)`.
    duplicates: Vec<(usize, usize, Option<u64>, Request)>,
}

impl PlanHandle {
    /// Blocks until every slot has an outcome and returns them in plan order.
    /// The joining thread drains each foreground lane alongside its ticketed
    /// workers, then helps drain whatever the pool has not claimed of the
    /// background batch, then resolves the coalesced duplicates.
    #[must_use]
    pub fn join(self) -> Vec<Outcome> {
        let PlanHandle {
            fabric,
            how,
            parallelism,
            mut outcomes,
            foreground,
            background,
            duplicates,
        } = self;
        for (lane, entries) in foreground {
            if entries.is_empty() {
                continue;
            }
            let (slots, entries): (Vec<usize>, Vec<_>) = entries
                .into_iter()
                .map(|(slot, sequence, request)| (slot, (sequence, request)))
                .unzip();
            let results = fabric.run_lane(lane, entries, parallelism, &how);
            for (slot, outcome) in slots.into_iter().zip(results) {
                outcomes[slot] = Some(outcome);
            }
        }
        if let Some((slots, work)) = background {
            work.drain();
            work.wait();
            for (slot, outcome) in slots.into_iter().zip(work.take_results()) {
                outcomes[slot] = Some(outcome);
            }
        }
        for (slot, primary, sequence, request) in duplicates {
            let outcome = match &outcomes[primary] {
                Some(Outcome {
                    result: Ok(response),
                    ..
                }) => {
                    if let Some(sequence) = sequence {
                        fabric.record(sequence, &request, response.status.0);
                    }
                    fabric.cache.coalesced.fetch_add(1, Ordering::Relaxed);
                    Outcome {
                        result: Ok(Arc::clone(response)),
                        served: Served::Coalesced,
                        retries: 0,
                        stored: false,
                    }
                }
                _ => {
                    let budget = BatchBudget::for_policy(&fabric, how.policy);
                    fabric.wire(sequence, &request, budget.as_ref(), how.cache)
                }
            };
            outcomes[slot] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every plan slot resolved"))
            .collect()
    }
}

impl std::fmt::Debug for PlanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanHandle")
            .field("slots", &self.outcomes.len())
            .field("how", &self.how)
            .finish()
    }
}

impl SharedNetwork {
    /// Sends one request the way `how` describes and reports how it was
    /// served. A `Fresh` sequence advances the counter exactly once, cache hit
    /// or not.
    ///
    /// # Errors
    ///
    /// The outcome's `result` carries the final attempt's error:
    /// [`NetError::HostUnreachable`] (never retried), [`NetError::Timeout`] or
    /// [`NetError::FetchPanicked`] once retries are exhausted, or
    /// [`NetError::CircuitOpen`] when the origin's breaker refused admission.
    pub fn send(&self, request: Request, how: Dispatch) -> Outcome {
        let sequence = how.sequence.base(self, 1);
        if let Some(hit) = self.cached(sequence, &request, how.cache) {
            return hit;
        }
        let budget = BatchBudget::for_policy(self, how.policy);
        self.wire(sequence, &request, budget.as_ref(), how.cache)
    }

    /// Sends a request unlogged, with no policy and no cache: the bare
    /// speculative dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::HostUnreachable`] when no server is registered for
    /// the request's origin.
    pub fn dispatch_unlogged(&self, request: Request) -> Result<Response, NetError> {
        let how = Dispatch {
            sequence: Sequence::Unlogged,
            ..Dispatch::default()
        };
        self.send(request, how).result.map(Arc::unwrap_or_clone)
    }

    /// Sends a page plan — each slot on its own lane — the way `how`
    /// describes. Slot `i` logs under the `i`-th sequence of the plan's
    /// block, cache hits included, so the sorted log reads in plan order.
    /// `parallelism` bounds how many of one lane's fetches run at once,
    /// exactly (see the module's scheduling notes). Collect the outcomes, in
    /// plan order, with [`PlanHandle::join`].
    pub fn send_plan(
        self: &Arc<Self>,
        plan: Vec<(Request, Priority)>,
        how: Dispatch,
        parallelism: usize,
    ) -> PlanHandle {
        let base = how.sequence.base(self, plan.len());
        let mut outcomes = Vec::with_capacity(plan.len());
        let mut navigation = Vec::new();
        let mut bulk = Vec::new();
        let mut background = Vec::new();
        let mut duplicates = Vec::new();
        let mut first_slot: HashMap<(String, String), usize> = HashMap::new();
        for (slot, (request, lane)) in plan.into_iter().enumerate() {
            let sequence = base.map(|base| base + slot as u64);
            let hit = self.cached(sequence, &request, how.cache);
            let served = hit.is_some();
            outcomes.push(hit);
            if served {
                continue;
            }
            if !how.cache.is_empty() && cacheable(&request) {
                let key = (request.url.to_string(), cookie_header(&request).to_string());
                match first_slot.entry(key) {
                    Entry::Occupied(primary) => {
                        duplicates.push((slot, *primary.get(), sequence, request));
                        continue;
                    }
                    Entry::Vacant(vacant) => {
                        vacant.insert(slot);
                    }
                }
            }
            let entry = (slot, sequence, request);
            match lane {
                Priority::Navigation => navigation.push(entry),
                Priority::Bulk => bulk.push(entry),
                Priority::Background => background.push(entry),
            }
        }
        let background = (!background.is_empty()).then(|| {
            let (slots, entries): (Vec<usize>, Vec<_>) = background
                .into_iter()
                .map(|(slot, sequence, request)| (slot, (sequence, request)))
                .unzip();
            let tickets = parallelism.clamp(1, slots.len());
            let budget = BatchBudget::for_policy(self, how.policy);
            let work = BatchWork::new(self, entries, budget, how.cache);
            self.pool().ensure_workers(tickets);
            self.pool().submit(&work, tickets, Priority::Background);
            (slots, work)
        });
        PlanHandle {
            fabric: Arc::clone(self),
            how,
            parallelism,
            outcomes,
            foreground: [(Priority::Navigation, navigation), (Priority::Bulk, bulk)],
            background,
            duplicates,
        }
    }

    /// Serves `request` from the cache when `layers` allow it: only a logged
    /// `GET` without a body, and only under the request's own mediated
    /// `Cookie` header. The hit is logged under `sequence` exactly as the wire
    /// dispatch would have been.
    fn cached(
        &self,
        sequence: Option<u64>,
        request: &Request,
        layers: CacheLayers,
    ) -> Option<Outcome> {
        let sequence = sequence?;
        if layers.is_empty() || !cacheable(request) {
            return None;
        }
        let hit = self.cache.lookup(
            request.method,
            &request.url.to_string(),
            cookie_header(request),
            self.clock_now_ns(),
            layers,
        )?;
        self.record(sequence, request, hit.response.status.0);
        Some(Outcome {
            served: if hit.one_shot {
                Served::OneShot
            } else {
                Served::Cache
            },
            result: Ok(hit.response),
            retries: 0,
            stored: false,
        })
    }

    /// Sends one slot over the wire — through the resilient loop when it has
    /// a retry `budget` — then admits a cacheable response: a logged dispatch
    /// into the persistent layer, an unlogged (speculative) one into the
    /// one-shot layer, each only when `layers` opted in.
    pub(crate) fn wire(
        &self,
        sequence: Option<u64>,
        request: &Request,
        budget: Option<&BatchBudget>,
        layers: CacheLayers,
    ) -> Outcome {
        let (result, retries) = match budget {
            Some(budget) => dispatch_slot_resilient(self, sequence, request, budget),
            None => (dispatch_containing_panics(self, sequence, request), 0),
        };
        let result = result.map(Arc::new);
        let one_shot = sequence.is_none();
        let admit = cacheable(request)
            && if one_shot {
                layers.one_shot
            } else {
                layers.persistent
            };
        let stored = match &result {
            Ok(response) if admit => self.cache.store(
                request.method,
                &request.url.to_string(),
                cookie_header(request),
                Arc::clone(response),
                self.clock_now_ns(),
                one_shot,
            ),
            _ => false,
        };
        Outcome {
            result,
            served: Served::Wire,
            retries,
            stored,
        }
    }

    /// Runs one foreground lane: inline below the fan-out cutover (or at
    /// parallelism 1), otherwise over `parallelism - 1` pool tickets with the
    /// calling thread draining alongside them. The lane shares one retry
    /// budget.
    fn run_lane(
        self: &Arc<Self>,
        lane: Priority,
        entries: Vec<(Option<u64>, Request)>,
        parallelism: usize,
        how: &Dispatch,
    ) -> Vec<Outcome> {
        let budget = BatchBudget::for_policy(self, how.policy);
        let estimated_ns = entries
            .iter()
            .map(|(_, request)| self.estimated_service_ns(&request.url.origin()))
            .fold(0, u64::saturating_add);
        let width = if estimated_ns < FANOUT_THRESHOLD_NS {
            1
        } else {
            parallelism.min(entries.len())
        };
        if width <= 1 {
            return entries
                .into_iter()
                .map(|(sequence, request)| {
                    self.wire(sequence, &request, budget.as_ref(), how.cache)
                })
                .collect();
        }
        let work = BatchWork::new(self, entries, budget, how.cache);
        self.pool().ensure_workers(width - 1);
        self.pool().submit(&work, width - 1, lane);
        work.drain();
        work.wait();
        work.take_results()
    }
}
