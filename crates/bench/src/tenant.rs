//! Control-plane workloads: noisy-neighbor isolation, admission control and
//! hot reload under storm.
//!
//! ISSUE 7's control plane makes three promises that only hold — or fail —
//! under concurrency, so each gets a driver the `tenant_concurrent` bench and
//! the CI gate are built on:
//!
//! * [`run_noisy_neighbor`] — tenant A hammers its own engine with a storm of
//!   distinct decisions while tenant B replays a fixed grid. Tenants share no
//!   mutable decision state, so B's p99 batch latency is measured alone
//!   (baseline) and under the storm (contended), best-of-N with the spread
//!   recorded so the trajectory comparator can derive a noise floor.
//! * [`run_admission_burst`] — a token bucket with no refill is exactly
//!   countable: firing `fired` single-check plans against `burst` tokens must
//!   admit precisely `burst` and shed the rest fail-closed
//!   ([`DenyReason::Throttled`]).
//! * [`run_admission_refill`] — refill is exactly countable too, now that the
//!   bucket meters against an injectable clock: a [`ManualClock`] is stepped
//!   window-by-window and every window must mint precisely
//!   `step_ns × refill_per_sec / 1e9` tokens, no more, no fewer.
//! * [`run_hot_reload_storm`] — reader threads stream `check_many` plans
//!   through a shared [`Tenant`] while the control plane swaps the engine
//!   between the ESCUDO and same-origin generations. Every observed plan must
//!   be byte-identical to exactly **one** generation's [`policy::decide`]
//!   oracle (a torn plan matches neither), no decision may be dropped or
//!   throttled, and every retired generation must actually drop (a [`Weak`]
//!   witness per swap).
//!
//! [`policy::decide`]: escudo_core::policy::decide

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use escudo_core::policy::decide;
use escudo_core::tenant::{Clock, ManualClock, Tenant, TenantConfig, TenantRegistry};
use escudo_core::{Decision, DenyReason, PolicyMode};

use escudo_browser::Erm;

use crate::workload::{decision_workload, DecisionCheck};

/// Outcome of the noisy-neighbor isolation run.
#[derive(Debug, Clone)]
pub struct NoisyNeighborReport {
    /// Storm threads tenant A ran.
    pub storm_threads: usize,
    /// Grid batches tenant B measured per repeat.
    pub batches: usize,
    /// Best-of-N p99 of B's batch latency with A idle, in nanoseconds.
    pub baseline_p99_ns: u64,
    /// Spread (max − min) of the baseline p99 across repeats.
    pub baseline_p99_spread_ns: u64,
    /// Best-of-N p99 of B's batch latency under A's storm, in nanoseconds.
    pub contended_p99_ns: u64,
    /// Spread (max − min) of the contended p99 across repeats.
    pub contended_p99_spread_ns: u64,
    /// Decisions B's engine served.
    pub victim_decisions: u64,
    /// Decisions A's storm pushed through its own engine.
    pub storm_decisions: u64,
}

/// Sorted-sample p99 (the smallest value ≥ 99% of samples).
fn p99_ns(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "p99 of an empty sample set");
    samples.sort_unstable();
    let index = (samples.len() * 99).div_ceil(100).saturating_sub(1);
    samples[index]
}

/// One measured repeat: `batches` × `check_many` over the grid, p99 of
/// the per-batch latencies.
fn measure_victim_p99(erm: &mut Erm, grid: &[DecisionCheck], batches: usize) -> u64 {
    let checks: Vec<(
        &escudo_core::PrincipalContext,
        &escudo_core::ObjectContext,
        escudo_core::Operation,
    )> = grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        let decisions = erm.check_many(&checks);
        assert_eq!(decisions.len(), checks.len());
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    p99_ns(&mut samples)
}

/// Runs tenant B's fixed grid against tenant A's storm.
///
/// `repeats` is the best-of-N bound for both the baseline and the contended
/// p99 (minimum reported, spread recorded).
#[must_use]
pub fn run_noisy_neighbor(
    storm_threads: usize,
    batches: usize,
    repeats: usize,
) -> NoisyNeighborReport {
    let storm_threads = storm_threads.max(1);
    let batches = batches.max(1);
    let repeats = repeats.max(1);

    let registry = TenantRegistry::new();
    // Tenant B: the victim, a small grid it never leaves.
    let victim = registry.register("victim", TenantConfig::default());
    // Tenant A: the noisy neighbor with a large distinct workload.
    let noisy = registry.register("noisy", TenantConfig::default());

    let victim_grid = decision_workload(8, 8); // 64 pairs
    let churn_grid = decision_workload(40, 40); // 1600 distinct pairs
    let mut victim_erm = Erm::with_tenant(Arc::clone(&victim)).without_audit();

    // Warm B's code paths, then measure it alone.
    let warm: Vec<_> = victim_grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
    victim_erm.check_many(&warm);
    let mut baseline: Vec<u64> = (0..repeats)
        .map(|_| measure_victim_p99(&mut victim_erm, &victim_grid, batches))
        .collect();
    baseline.sort_unstable();
    let (baseline_p99_ns, baseline_spread) =
        (baseline[0], baseline[baseline.len() - 1] - baseline[0]);

    // Contended phase: A's storm threads run flat out — each pass is 25 victim
    // grids' worth of distinct decisions — while B re-measures the identical
    // workload.
    let stop = AtomicBool::new(false);
    let start_line = Barrier::new(storm_threads + 1);
    let mut contended: Vec<u64> = Vec::with_capacity(repeats);
    thread::scope(|scope| {
        for _ in 0..storm_threads {
            scope.spawn(|| {
                let mut erm = Erm::with_tenant(Arc::clone(&noisy)).without_audit();
                let churn: Vec<_> = churn_grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
                start_line.wait();
                // Do-while: even on a starved single-core host every storm
                // thread pushes at least one full churn pass, so the report's
                // storm counters are never silently zero.
                loop {
                    erm.check_many(&churn);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        start_line.wait();
        for _ in 0..repeats {
            contended.push(measure_victim_p99(&mut victim_erm, &victim_grid, batches));
        }
        stop.store(true, Ordering::Relaxed);
    });
    contended.sort_unstable();
    let (contended_p99_ns, contended_spread) =
        (contended[0], contended[contended.len() - 1] - contended[0]);

    NoisyNeighborReport {
        storm_threads,
        batches,
        baseline_p99_ns,
        baseline_p99_spread_ns: baseline_spread,
        contended_p99_ns,
        contended_p99_spread_ns: contended_spread,
        victim_decisions: victim.engine_stats().decisions,
        storm_decisions: noisy.engine_stats().decisions,
    }
}

/// Outcome of the deterministic admission-control run.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionReport {
    /// Token-bucket burst capacity (refill is zero — the bucket never refills).
    pub burst: u64,
    /// Single-check plans fired.
    pub fired: u64,
    /// Checks the bucket admitted (must equal `burst`).
    pub admitted: u64,
    /// Checks the bucket shed (must equal `fired - burst`).
    pub rejected: u64,
    /// Denials attributed to [`DenyReason::Throttled`] (must equal `rejected`).
    pub throttled_denials: u64,
}

/// Fires `fired` single-check mediation plans at a tenant whose bucket holds
/// exactly `burst` tokens and never refills, then tallies the outcome.
#[must_use]
pub fn run_admission_burst(burst: u64, fired: u64) -> AdmissionReport {
    let tenant = Arc::new(Tenant::new(
        "metered",
        TenantConfig::default().with_admission(burst, 0),
    ));
    let mut erm = Erm::with_tenant(Arc::clone(&tenant)).without_audit();
    let grid = decision_workload(2, 2);
    let (principal, object, operation) = &grid[0];
    let mut throttled_denials = 0;
    for _ in 0..fired {
        let decision = erm.check(principal, object, *operation);
        if decision.deny_reason() == Some(&DenyReason::Throttled) {
            throttled_denials += 1;
        }
    }
    let stats = tenant.admission().stats();
    AdmissionReport {
        burst,
        fired,
        admitted: stats.admitted,
        rejected: stats.rejected,
        throttled_denials,
    }
}

/// Outcome of the deterministic virtual-clock refill run.
#[derive(Debug, Clone, Copy)]
pub struct RefillReport {
    /// Token-bucket burst capacity.
    pub burst: u64,
    /// Refill rate in tokens per second.
    pub refill_per_sec: u64,
    /// Refill windows the manual clock stepped through.
    pub steps: u64,
    /// Nanoseconds the clock advanced per step.
    pub step_ns: u64,
    /// Checks admitted across the run (the initial burst plus every refilled
    /// token — exactly `burst + steps * step_ns * refill_per_sec / 1e9` when
    /// each window's mint is drained in full).
    pub admitted: u64,
    /// Checks shed by the probe that closes each drained window.
    pub rejected: u64,
    /// Denials attributed to [`DenyReason::Throttled`] (must equal `rejected`).
    pub throttled_denials: u64,
}

/// Drains a refilling bucket window-by-window against a [`ManualClock`]:
/// drain the initial burst, then `steps` times advance the clock by `step_ns`
/// and drain exactly the tokens that window minted, probing once past empty
/// each window so the shed count is exact too. Wall-clock speed never changes
/// the outcome — the clock only moves when the driver says so.
#[must_use]
pub fn run_admission_refill(
    burst: u64,
    refill_per_sec: u64,
    steps: u64,
    step_ns: u64,
) -> RefillReport {
    let clock = Arc::new(ManualClock::new());
    let tenant = Arc::new(Tenant::with_clock(
        "refilled",
        TenantConfig::default().with_admission(burst, refill_per_sec),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let mut erm = Erm::with_tenant(Arc::clone(&tenant)).without_audit();
    let grid = decision_workload(2, 2);
    let (principal, object, operation) = &grid[0];
    let mut throttled_denials = 0u64;
    let mut fire = |shots: u64, throttled_denials: &mut u64| {
        for _ in 0..shots {
            let decision = erm.check(principal, object, *operation);
            if decision.deny_reason() == Some(&DenyReason::Throttled) {
                *throttled_denials += 1;
            }
        }
    };

    // Drain the initial burst, then probe once to prove the bucket is empty.
    fire(burst + 1, &mut throttled_denials);
    let minted_per_step = (step_ns as f64 / 1e9 * refill_per_sec as f64).floor() as u64;
    for _ in 0..steps {
        clock.advance_ns(step_ns);
        // Drain exactly what the window minted, plus one probe past empty.
        fire(minted_per_step + 1, &mut throttled_denials);
    }

    let stats = tenant.admission().stats();
    RefillReport {
        burst,
        refill_per_sec,
        steps,
        step_ns,
        admitted: stats.admitted,
        rejected: stats.rejected,
        throttled_denials,
    }
}

/// Outcome of the hot-reload-under-storm run.
#[derive(Debug, Clone, Copy)]
pub struct HotReloadReport {
    /// Reader threads streaming plans through the tenant.
    pub threads: usize,
    /// Plans each reader issued.
    pub passes: usize,
    /// Generation swaps the control plane performed mid-storm.
    pub swaps: usize,
    /// Total decisions observed across all readers.
    pub decisions: u64,
    /// Plans matching **neither** generation's oracle byte-for-byte.
    pub torn_plans: u64,
    /// Decisions dropped, missing or throttled (tenant is unmetered: must be 0).
    pub dropped_decisions: u64,
    /// Distinct generations the readers observed.
    pub generations_seen: usize,
    /// Retired generations still alive after every reader dropped (leak).
    pub retired_generations_alive: usize,
}

/// Streams `check_many` plans from `threads` readers through one tenant while
/// the control plane swaps the engine between ESCUDO and same-origin
/// generations `swaps` times.
///
/// # Panics
///
/// Panics if the two mode oracles agree on the whole grid — the torn-plan gate
/// would be vacuous.
#[must_use]
pub fn run_hot_reload_storm(threads: usize, passes: usize, swaps: usize) -> HotReloadReport {
    let threads = threads.max(1);
    let passes = passes.max(1);
    let swaps = swaps.max(1);

    let grid = decision_workload(6, 6);
    let escudo_oracle: Vec<Decision> = grid
        .iter()
        .map(|(p, o, op)| decide(PolicyMode::Escudo, p, o, *op))
        .collect();
    let sop_oracle: Vec<Decision> = grid
        .iter()
        .map(|(p, o, op)| decide(PolicyMode::SameOriginOnly, p, o, *op))
        .collect();
    assert_ne!(
        escudo_oracle, sop_oracle,
        "reload grid must distinguish the two generations"
    );

    let tenant = Arc::new(Tenant::new("reloaded", TenantConfig::default()));
    let start_line = Barrier::new(threads + 1);
    let mut witnesses = Vec::with_capacity(swaps);
    let mut torn_plans = 0u64;
    let mut dropped_decisions = 0u64;
    let mut decisions = 0u64;
    let mut generations: Vec<u64> = Vec::new();

    thread::scope(|scope| {
        let mut readers = Vec::with_capacity(threads);
        for _ in 0..threads {
            readers.push(scope.spawn(|| {
                let mut erm = Erm::with_tenant(Arc::clone(&tenant)).without_audit();
                let checks: Vec<_> = grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
                let mut torn = 0u64;
                let mut dropped = 0u64;
                let mut seen_generations: Vec<u64> = Vec::new();
                start_line.wait();
                for _ in 0..passes {
                    let observed = erm.check_many(&checks);
                    if observed.len() != checks.len()
                        || observed
                            .iter()
                            .any(|d| d.deny_reason() == Some(&DenyReason::Throttled))
                    {
                        dropped += 1;
                    } else if observed != escudo_oracle && observed != sop_oracle {
                        torn += 1;
                    }
                    let generation = erm.generation().expect("tenant-bound monitor");
                    if !seen_generations.contains(&generation) {
                        seen_generations.push(generation);
                    }
                }
                (
                    torn,
                    dropped,
                    passes as u64 * checks.len() as u64,
                    seen_generations,
                )
            }));
        }

        // The control plane: alternate the published generation mid-storm,
        // keeping a Weak witness on every retired generation.
        start_line.wait();
        for swap in 0..swaps {
            let mode = if swap % 2 == 0 {
                PolicyMode::SameOriginOnly
            } else {
                PolicyMode::Escudo
            };
            let retired =
                tenant.reload_with(TenantConfig::default().with_mode(mode).build_engine());
            witnesses.push(Arc::downgrade(&retired));
            drop(retired);
            thread::yield_now();
        }

        for reader in readers {
            let (torn, dropped, observed, seen_generations) = reader.join().expect("reader thread");
            torn_plans += torn;
            dropped_decisions += dropped;
            decisions += observed;
            for generation in seen_generations {
                if !generations.contains(&generation) {
                    generations.push(generation);
                }
            }
        }
    });

    // Every reader has dropped its pinned generation; only the handle's current
    // generation may still be alive, and it was never retired.
    let retired_generations_alive = witnesses
        .iter()
        .filter(|witness| witness.upgrade().is_some())
        .count();

    HotReloadReport {
        threads,
        passes,
        swaps,
        decisions,
        torn_plans,
        dropped_decisions,
        generations_seen: generations.len(),
        retired_generations_alive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_storm_on_one_tenant_never_reaches_another() {
        let registry = TenantRegistry::new();
        let noisy = registry.register("noisy", TenantConfig::default());
        let victim = registry.register("victim", TenantConfig::default());
        let storm = decision_workload(12, 12);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut erm = Erm::with_tenant(Arc::clone(&noisy)).without_audit();
                    let checks: Vec<_> = storm.iter().map(|(p, o, op)| (p, o, *op)).collect();
                    for _ in 0..10 {
                        erm.check_many(&checks);
                    }
                });
            }
        });
        assert_eq!(noisy.engine_stats().decisions, 4 * 10 * 144);
        assert_eq!(victim.engine_stats().decisions, 0);

        // The victim decides exactly as the oracle, storm or no storm.
        let grid = decision_workload(8, 8);
        let oracle: Vec<Decision> = grid
            .iter()
            .map(|(p, o, op)| decide(PolicyMode::Escudo, p, o, *op))
            .collect();
        let mut erm = Erm::with_tenant(Arc::clone(&victim));
        let checks: Vec<_> = grid.iter().map(|(p, o, op)| (p, o, *op)).collect();
        assert_eq!(erm.check_many(&checks), oracle);
        assert_eq!(victim.engine_stats().decisions, 64);
    }

    #[test]
    fn admission_burst_is_exactly_countable() {
        let report = run_admission_burst(5, 12);
        assert_eq!(report.admitted, 5);
        assert_eq!(report.rejected, 7);
        assert_eq!(report.throttled_denials, 7);
    }

    #[test]
    fn admission_refill_is_exact_under_the_manual_clock() {
        // 8 tokens/sec, 125 ms windows: each window mints exactly one token
        // (0.125 is exact in binary, so no float drift across windows).
        let report = run_admission_refill(4, 8, 6, 125_000_000);
        assert_eq!(report.admitted, 4 + 6);
        assert_eq!(report.rejected, 1 + 6, "one probe past empty per window");
        assert_eq!(report.throttled_denials, report.rejected);
    }

    #[test]
    fn hot_reload_storm_observes_no_torn_plans_and_no_leaks() {
        let report = run_hot_reload_storm(4, 50, 6);
        assert_eq!(report.torn_plans, 0);
        assert_eq!(report.dropped_decisions, 0);
        assert_eq!(report.retired_generations_alive, 0);
        assert!(report.generations_seen >= 1);
        assert_eq!(report.decisions, 4 * 50 * 36);
    }
}
