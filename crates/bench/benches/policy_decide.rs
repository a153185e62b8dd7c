//! Microbenchmark of the policy-decision core: the [`EscudoEngine`] next to the raw
//! decision procedure and the same-origin baseline.
//!
//! Run with `cargo bench --bench policy_decide`. This is a plain `harness = false`
//! binary (the workspace has no external dependencies); it reports nanoseconds per
//! decision and decisions per second for each path, and exits non-zero if the
//! engine costs more than [`MAX_ENGINE_OVER_FREE`] times the free function: the
//! engine is the free function plus one relaxed counter, so anything beyond that
//! is overhead the engine layer added back.
//!
//! [`EscudoEngine`]: escudo_core::EscudoEngine

use escudo_bench::cli::JsonReport;
use escudo_bench::measure::{measure_decision_paths, DecisionReport};
use escudo_bench::workload::decision_workload;

/// Bound on engine ns/decision over free-function ns/decision, from interleaved
/// medians.
const MAX_ENGINE_OVER_FREE: f64 = 1.25;

fn report_line(name: &str, ns: f64) {
    println!(
        "  {name:<28} {ns:>9.1} ns/decision  {:>12.0} decisions/s",
        DecisionReport::per_second(ns)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // 24 × 24 distinct context pairs ≈ a heavy multi-region page; 3 ops interleaved.
    let workload = decision_workload(24, 24);
    println!(
        "policy_decide: {} checks per pass ({} principals × {} objects)",
        workload.len(),
        24,
        24
    );

    // Warm the allocator and branch predictors once before timing.
    let _ = measure_decision_paths(&workload, 1);
    let report = measure_decision_paths(&workload, 15);

    println!("decision paths (medians of interleaved rounds):");
    report_line("escudo_engine", report.engine_ns);
    report_line("decide_free_function", report.free_fn_ns);
    report_line("same_origin_baseline", report.sop_ns);
    let ratio = report.engine_over_free();
    println!("  engine over free function: {ratio:.2}x (gate: ≤ {MAX_ENGINE_OVER_FREE:.2}x)");

    let passed = ratio <= MAX_ENGINE_OVER_FREE;
    let mut json = JsonReport::new("policy_decide");
    json.num("engine_ns_per_decision", report.engine_ns)
        .num("free_fn_ns_per_decision", report.free_fn_ns)
        .num("sop_ns_per_decision", report.sop_ns)
        .num("engine_over_free_ratio", ratio)
        .flag("gates_passed", passed);
    json.write_if_requested(&args);

    if !passed {
        eprintln!(
            "FAIL: the engine costs {ratio:.2}x the free decide function (gate: ≤ \
             {MAX_ENGINE_OVER_FREE:.2}x)"
        );
        std::process::exit(1);
    }
}
