//! # escudo-bench
//!
//! The experiment harness that regenerates the ESCUDO paper's evaluation:
//!
//! * [`workload`] — the Figure 4 page generator: eight scenarios with varying numbers
//!   of AC-tagged regions and dynamic content,
//! * [`cli`] — flag parsing, the no-collapse gate and the `--json` report writer
//!   shared by the `harness = false` bench binaries,
//! * [`measure`] — timed page loads and event dispatches under either policy mode,
//! * [`concurrent`] — the multi-session workload: N OS threads driving independent
//!   forum/blog/calendar sessions against one shared engine, plus the
//!   concurrent decision-throughput measurement behind `policy_concurrent`,
//! * [`loader`] — the pipelined-subresource-loader workload over a shared network
//!   fabric with simulated per-origin latency: pipelined-vs-sequential page-load
//!   timing, the byte-identical log oracle and the shared-fabric isolation run
//!   behind `loader_concurrent`,
//! * [`scheduler`] — the unified-fetch-scheduler workload behind
//!   `scheduler_concurrent`: navigation-lane p99 latency under a bulk storm,
//!   the speculative-prefetch speedup, the prefetch-on-vs-off mediation oracle
//!   and the prefetching-session isolation run,
//! * [`cache`] — the mediation-keyed response-cache workloads behind
//!   `cache_concurrent`: repeat-navigation speedup, the cache-on-vs-off
//!   scenario-matrix oracle, cookie-header key isolation, the exactly-countable
//!   manual-clock TTL walk and batch-level single-flight coalescing,
//! * [`fault`] — the chaos workloads behind `fault_concurrent`: the scenario
//!   matrix replayed under injected fault schedules (verdicts and mediation
//!   counts must not move), the retry mediation oracle, and the
//!   exactly-countable breaker drill on a manual clock,
//! * [`tenant`] — the control-plane workloads behind `tenant_concurrent`:
//!   noisy-neighbor isolation across per-tenant engines, deterministic
//!   token-bucket admission, and the hot-reload-under-storm oracle run,
//! * [`trajectory`] — the perf-trajectory comparator that diffs a fresh merged
//!   bench report against the committed `BENCH_<PR>.json` snapshot (the
//!   `trajectory` binary CI gates each PR with),
//! * [`experiments`] — the report types printed by the `experiments` binary and
//!   recorded in `EXPERIMENTS.md` (Figure 4, UI events, §6.3, §6.4, Tables 1–5).
//!
//! The Criterion benches in `benches/` use the same workload and measurement code, so
//! `cargo bench` and `cargo run --bin experiments` agree on what is being measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod concurrent;
pub mod experiments;
pub mod fault;
pub mod loader;
pub mod measure;
pub mod scheduler;
pub mod tenant;
pub mod trajectory;
pub mod workload;

pub use concurrent::{
    best_throughput, measure_concurrent_throughput, run_concurrent_sessions, SessionWorkloadReport,
    ThroughputSample,
};
pub use experiments::{CompatReport, EventReport, Figure4Report, Figure4Row};
pub use measure::{load_once, measure_decision_paths, DecisionReport, LoadSample};
pub use workload::{decision_workload, figure4_scenarios, generate_page, DecisionCheck, Scenario};
