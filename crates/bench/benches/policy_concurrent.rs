//! Concurrent decision throughput of the shared engine: N OS threads hammering one
//! shared [`EscudoEngine`] with the standard decision workload, plus the end-to-end
//! multi-session (forum/blog/calendar) workload.
//!
//! Run with `cargo bench --bench policy_concurrent` (optionally
//! `-- --threads N --passes K`). This is a plain `harness = false` binary; it reports
//! aggregate decisions/second at 1/2/4/8 threads and exits non-zero if the
//! behavioural gate fails: multi-thread aggregate throughput must not collapse
//! below single-thread throughput. The threads share two kinds of mutable words:
//! the engine's relaxed decision counter, and the refcounts of the workload's
//! `Origin` strings, which every cross-origin denial clones. A collapse means one
//! of them contends across cores. A small tolerance absorbs scheduler noise on
//! starved CI runners; the strict comparison is printed either way.

use std::sync::Arc;

use escudo_bench::cli::{no_collapse_gate, parse_flag, JsonReport};
use escudo_bench::concurrent::{best_throughput, run_concurrent_sessions, ThroughputSample};
use escudo_bench::workload::decision_workload;
use escudo_core::EscudoEngine;

/// Fraction of single-thread throughput the multi-thread aggregate must retain.
/// A global-mutex engine loses far more than this to lock convoying once threads
/// contend; scheduler noise on a shared runner loses far less.
const NO_COLLAPSE_FRACTION: f64 = 0.85;

fn report_line(sample: &ThroughputSample) {
    println!(
        "  {: >2} thread(s)  {: >9.1} ns/decision  {: >12.0} decisions/s",
        sample.threads,
        sample.ns_per_decision(),
        sample.decisions_per_sec(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_threads = parse_flag(&args, "--threads", 8).max(1);
    // Total passes over the workload per timed window, *split across* the threads —
    // every thread count does the same total work, so the timed windows have equal
    // duration and best-of-N sampling is unbiased across configurations (shorter
    // windows have noisier minima, which would flatter the single-thread baseline).
    let total_passes = parse_flag(&args, "--passes", 800).max(1);

    // Same shape as `policy_decide`: 24 × 24 distinct context pairs, 3 ops.
    let workload = decision_workload(24, 24);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|t| *t <= max_threads)
        .collect();
    println!(
        "policy_concurrent: {} checks/pass, {total_passes} passes split per thread count, \
         threads {:?}",
        workload.len(),
        thread_counts
    );

    // Warm-up pass for allocator and branch predictors before any timed window.
    let _ = best_throughput(&workload, 1, total_passes / 4, 1);

    println!("aggregate decision throughput (shared engine):");
    let mut samples = Vec::new();
    for &threads in &thread_counts {
        let sample = best_throughput(&workload, threads, (total_passes / threads).max(1), 5);
        report_line(&sample);
        samples.push(sample);
    }

    // ------------------------------------------------------------- behavioural gate
    let gate_samples: Vec<(usize, f64)> = samples
        .iter()
        .map(|s| (s.threads, s.decisions_per_sec()))
        .collect();
    let mut failed = no_collapse_gate("decision", &gate_samples, NO_COLLAPSE_FRACTION);

    // --------------------------------------------- end-to-end multi-session workload
    let session_threads = max_threads.clamp(2, 4);
    let engine = Arc::new(EscudoEngine::new());
    let report = run_concurrent_sessions(&engine, session_threads, 3);
    println!(
        "multi-session workload: {} sessions × {} rounds, {} page loads, {} checks \
         ({} denials), {} engine decisions",
        report.threads,
        report.rounds,
        report.page_loads(),
        report.checks(),
        report.denials(),
        report.stats.decisions,
    );
    if report.checks() == 0 {
        eprintln!("FAIL: the multi-session workload performed no mediation at all");
        failed = true;
    }

    let mut json = JsonReport::new("policy_concurrent");
    for sample in &samples {
        json.num(
            &format!("decisions_per_sec_t{}", sample.threads),
            sample.decisions_per_sec(),
        );
    }
    json.int("session_page_loads", report.page_loads())
        .int("session_checks", report.checks())
        .flag("gates_passed", !failed);
    json.write_if_requested(&args);

    if failed {
        std::process::exit(1);
    }
}
