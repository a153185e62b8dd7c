//! Timed page loads, event dispatches and policy-decision throughput.

use escudo_browser::{Browser, PolicyMode};
use escudo_core::{Decision, EscudoEngine, PolicyEngine, SameOriginEngine};
use escudo_dom::EventType;
use escudo_net::{Request, Response};

use crate::workload::DecisionCheck;

/// The timing sample of one page load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSample {
    /// Parse time in nanoseconds.
    pub parse_ns: u128,
    /// ESCUDO bookkeeping (label extraction) time in nanoseconds.
    pub label_ns: u128,
    /// Script execution time in nanoseconds.
    pub script_ns: u128,
    /// Layout/render time in nanoseconds.
    pub render_ns: u128,
    /// Subresource fetches dispatched during the load.
    pub subresource_requests: u64,
    /// Cookie-`use` denials issued while mediating the load's subresources.
    pub subresource_denials: u64,
    /// Wall-clock time of the subresource fetch fan-out, in nanoseconds
    /// (overlapped time under the pipelined loader).
    pub subresource_fetch_ns: u128,
}

impl LoadSample {
    /// The quantity Figure 4 plots: parse + ESCUDO bookkeeping + render.
    #[must_use]
    pub fn parse_and_render_ns(&self) -> u128 {
        self.parse_ns + self.label_ns + self.render_ns
    }
}

/// Loads `html` once in a fresh browser under `mode` and returns the timing sample.
#[must_use]
pub fn load_once(mode: PolicyMode, html: &str) -> LoadSample {
    let mut browser = Browser::new(mode);
    let page_html = html.to_string();
    browser
        .network_mut()
        .register("http://workload.example", move |_req: &Request| {
            Response::ok_html(page_html.clone())
        });
    let page = browser
        .navigate("http://workload.example/")
        .expect("workload page loads");
    let stats = browser.page(page).stats;
    LoadSample {
        parse_ns: stats.parse_ns,
        label_ns: stats.label_ns,
        script_ns: stats.script_ns,
        render_ns: stats.render_ns,
        subresource_requests: stats.subresource_requests,
        subresource_denials: stats.subresource_denials,
        subresource_fetch_ns: stats.subresource_fetch_ns,
    }
}

/// Statistics over repeated samples of one quantity (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleStats {
    /// Number of samples.
    pub runs: usize,
    /// Mean in nanoseconds.
    pub mean_ns: f64,
    /// Median in nanoseconds (robust against scheduler noise on sub-millisecond loads).
    pub median_ns: u128,
    /// Minimum in nanoseconds.
    pub min_ns: u128,
    /// Maximum in nanoseconds.
    pub max_ns: u128,
}

impl SampleStats {
    /// Computes statistics from raw samples.
    #[must_use]
    pub fn from_samples(samples: &[u128]) -> Self {
        if samples.is_empty() {
            return SampleStats::default();
        }
        let sum: u128 = samples.iter().sum();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        SampleStats {
            runs: samples.len(),
            mean_ns: sum as f64 / samples.len() as f64,
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            max_ns: *sorted.last().expect("non-empty"),
        }
    }

    /// Mean in milliseconds.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1_000_000.0
    }

    /// Median in milliseconds.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        self.median_ns as f64 / 1_000_000.0
    }
}

/// Measures UI-event dispatch time: fires `click` on a handler-carrying element `runs`
/// times and reports per-dispatch statistics.
#[must_use]
pub fn measure_event_dispatch(
    mode: PolicyMode,
    html: &str,
    element_id: &str,
    runs: usize,
) -> SampleStats {
    let mut browser = Browser::new(mode);
    let page_html = html.to_string();
    browser
        .network_mut()
        .register("http://workload.example", move |_req: &Request| {
            Response::ok_html(page_html.clone())
        });
    let page = browser
        .navigate("http://workload.example/")
        .expect("workload page loads");
    let samples: Vec<u128> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            let _ = browser.fire_event(page, element_id, EventType::Click);
            start.elapsed().as_nanos()
        })
        .collect();
    SampleStats::from_samples(&samples)
}

/// Per-decision cost of the [`EscudoEngine`] next to its baselines.
///
/// * `engine` — the production engine (the rules plus its counter),
/// * `free_fn` — the raw `escudo_core::policy::decide` free function (no engine),
/// * `sop` — the [`SameOriginEngine`] baseline.
///
/// Each figure is the median over interleaved rounds (engine, free function, SOP
/// engine, then the next round), so slow drift on the host hits all three alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionReport {
    /// Number of checks in the workload.
    pub checks: usize,
    /// Nanoseconds per decision through the ESCUDO engine.
    pub engine_ns: f64,
    /// Nanoseconds per decision through the raw free function.
    pub free_fn_ns: f64,
    /// Nanoseconds per decision through the same-origin baseline engine.
    pub sop_ns: f64,
}

impl DecisionReport {
    /// Engine cost over free-function cost: what the engine's indirection and
    /// counter add to the three rules.
    #[must_use]
    pub fn engine_over_free(&self) -> f64 {
        if self.free_fn_ns > 0.0 {
            self.engine_ns / self.free_fn_ns
        } else {
            0.0
        }
    }

    /// Decisions per second for a per-decision cost in nanoseconds.
    #[must_use]
    pub fn per_second(ns: f64) -> f64 {
        if ns > 0.0 {
            1.0e9 / ns
        } else {
            0.0
        }
    }
}

/// Passes over the workload timed as one sample, so a sample spans well over a
/// timer tick.
const PASSES_PER_SAMPLE: usize = 16;

fn ns_per_check(workload: &[DecisionCheck], decide: impl Fn(&DecisionCheck) -> Decision) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..PASSES_PER_SAMPLE {
        for check in workload {
            std::hint::black_box(decide(std::hint::black_box(check)));
        }
    }
    start.elapsed().as_nanos() as f64 / (workload.len() * PASSES_PER_SAMPLE).max(1) as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Measures the engine, the free function and the SOP engine over `workload` in
/// `rounds` interleaved rounds and reports each path's median.
#[must_use]
pub fn measure_decision_paths(workload: &[DecisionCheck], rounds: usize) -> DecisionReport {
    let engine = EscudoEngine::new();
    let sop = SameOriginEngine::new();
    let (mut engine_ns, mut free_fn_ns, mut sop_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds.max(1) {
        engine_ns.push(ns_per_check(workload, |(p, o, op)| {
            engine.decide(p, o, *op)
        }));
        free_fn_ns.push(ns_per_check(workload, |(p, o, op)| {
            escudo_core::decide(PolicyMode::Escudo, p, o, *op)
        }));
        sop_ns.push(ns_per_check(workload, |(p, o, op)| sop.decide(p, o, *op)));
    }
    DecisionReport {
        checks: workload.len(),
        engine_ns: median(engine_ns),
        free_fn_ns: median(free_fn_ns),
        sop_ns: median(sop_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{decision_workload, figure4_scenarios, generate_page};

    #[test]
    fn load_once_produces_nonzero_timings() {
        let html = generate_page(&figure4_scenarios()[2]);
        let escudo = load_once(PolicyMode::Escudo, &html);
        assert!(escudo.parse_ns > 0);
        assert!(escudo.render_ns > 0);
        assert!(escudo.label_ns > 0);
        let sop = load_once(PolicyMode::SameOriginOnly, &html);
        // The baseline browser does no ESCUDO bookkeeping at all.
        assert_eq!(sop.label_ns, 0);
    }

    #[test]
    fn sample_stats_summarize_correctly() {
        let stats = SampleStats::from_samples(&[10, 20, 30]);
        assert_eq!(stats.runs, 3);
        assert!((stats.mean_ns - 20.0).abs() < f64::EPSILON);
        assert_eq!(stats.min_ns, 10);
        assert_eq!(stats.max_ns, 30);
        assert_eq!(SampleStats::from_samples(&[]).runs, 0);
    }

    #[test]
    fn event_dispatch_measurement_runs() {
        let html = generate_page(&figure4_scenarios()[1]);
        let stats = measure_event_dispatch(PolicyMode::Escudo, &html, "action-0", 5);
        assert_eq!(stats.runs, 5);
        assert!(stats.mean_ns > 0.0);
    }

    #[test]
    fn decision_paths_are_measured() {
        let workload = decision_workload(8, 8);
        let report = measure_decision_paths(&workload, 3);
        assert_eq!(report.checks, 64);
        assert!(report.engine_ns > 0.0);
        assert!(report.free_fn_ns > 0.0);
        assert!(report.sop_ns > 0.0);
        assert!(report.engine_over_free() > 0.0);
    }
}
