//! # navbench
//!
//! The repository's end-to-end benchmark: whole navigations driven through
//! the public `Browser` API on three seeded workloads, every operation's
//! output checked, end-to-end metrics from an untraced run and a per-layer
//! breakdown from a traced run whose spans are all recorded from the
//! benchmark's own files. See `METRICS.md` for why each workload and metric
//! exists and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod figure4;
pub mod forum;
pub mod host;
pub mod measure;
pub mod multi_origin;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["figure4_pages", "multi_origin_site", "forum_sessions"];

/// Runs `workload` (one of [`WORKLOADS`]).
///
/// # Panics
///
/// On an unknown workload name (callers validate it first).
#[must_use]
pub fn run_workload(workload: &str, cfg: &measure::RunCfg) -> measure::Outcome {
    match workload {
        "figure4_pages" => figure4::run(cfg),
        "multi_origin_site" => multi_origin::run(cfg),
        "forum_sessions" => forum::run(cfg),
        other => panic!("unknown workload {other}"),
    }
}
