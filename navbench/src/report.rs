//! Turns a run's samples, counters, replays and spans into the named
//! metrics, and prints the human report plus the final JSON line.

use crate::host::{peak_rss_mib, Fingerprint};
use crate::measure::{Outcome, SetupTime, KEPT_SAMPLES, NOMINAL_REF_NS, WINDOW_MS};
use crate::replay::ReplayResults;
use crate::stats::{
    band_verdict, in_ref_units, median, overhead_by_class, overhead_ratio, per_ref_unit,
    percentile, relative_iqr, sorted_ns, Sample,
};
use crate::trace::{self_time_ns, Span};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
///
/// Raw microseconds and raw throughput are not among them: on CPU-bound
/// workloads they follow the host's core speed, which on a shared host
/// drifts by more than any usable bound between runs. They are printed in
/// the human report ([`print_raw`]) for comparison between runs on one
/// quiet host. The tail is gated at p90: p99 of the fetch-bound workload
/// swings with scheduler bursts of the oversubscribed host.
pub const END_TO_END: [&str; 7] = [
    "nav_p50_ref",
    "nav_p90_ref",
    "nav_per_ref",
    "escudo_overhead",
    "event_p50_ref",
    "setup_s",
    "peak_rss_mb",
];

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Median reference-kernel time of the run, nanoseconds.
#[must_use]
pub fn ref_ns(outcome: &Outcome) -> Option<f64> {
    percentile(&sorted_ns(outcome.samples.refs.samples()), 0.5).map(|ns| ns as f64)
}

/// The end-to-end metrics, or the name of the first one that could not be
/// measured (too few samples beyond a percentile).
///
/// # Errors
///
/// The metric that lacks samples.
pub fn end_to_end(outcome: &Outcome) -> Result<Vec<Metric>, String> {
    let samples = &outcome.samples;
    let (nav, sop, events, refs) = (
        samples.nav_escudo.samples(),
        samples.nav_sop.samples(),
        samples.event_escudo.samples(),
        samples.refs.samples(),
    );
    let nav_ref = in_ref_units(nav, refs);
    let event_ref = in_ref_units(events, refs);
    let missing = |name: &str| {
        format!(
            "{name}: too few samples ({} navigations, {} events, {} reference runs)",
            nav.len(),
            events.len(),
            refs.len()
        )
    };
    let need = |v: Option<f64>, name: &str| v.ok_or_else(|| missing(name));
    let window_ns = (WINDOW_MS * 1_000_000) as f64;
    Ok(vec![
        Metric {
            name: "nav_p50_ref",
            unit: "ref",
            value: need(percentile(&nav_ref, 0.5), "nav_p50_ref")?,
        },
        Metric {
            name: "nav_p90_ref",
            unit: "ref",
            value: need(percentile(&nav_ref, 0.9), "nav_p90_ref")?,
        },
        Metric {
            name: "nav_per_ref",
            unit: "1/ref",
            value: need(
                per_ref_unit(&samples.navs_per_window, refs, window_ns),
                "nav_per_ref",
            )?,
        },
        Metric {
            name: "escudo_overhead",
            unit: "ratio",
            value: need(overhead_ratio(nav, sop), "escudo_overhead")?,
        },
        Metric {
            name: "event_p50_ref",
            unit: "ref",
            value: need(percentile(&event_ref, 0.5), "event_p50_ref")?,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: need(
                median(
                    &outcome
                        .setup_s
                        .iter()
                        .map(SetupTime::reference_s)
                        .collect::<Vec<_>>(),
                ),
                "setup_s",
            )?,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mib().unwrap_or(0.0),
        },
    ])
}

/// Prints the raw (host-speed dependent) figures of an untraced run, with
/// their sample counts.
pub fn print_raw(outcome: &Outcome) {
    let samples = &outcome.samples;
    let nav = sorted_ns(samples.nav_escudo.samples());
    let events = sorted_ns(samples.event_escudo.samples());
    let nav_ref = in_ref_units(samples.nav_escudo.samples(), samples.refs.samples());
    let us = |v: Option<u64>| {
        v.map_or_else(|| "n/a".to_string(), |ns| format!("{:.1}", ns as f64 / 1e3))
    };
    println!(
        "raw (not gated; compare only on one quiet host): nav p50 {} us, p90 {} us, p99 {} us, p99 {} ref over {} kept of {} ESCUDO navigations; {:.1} navigations/s; event p50 {} us over {} kept",
        us(percentile(&nav, 0.5)),
        us(percentile(&nav, 0.9)),
        us(percentile(&nav, 0.99)),
        percentile(&nav_ref, 0.99).map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}")),
        nav.len(),
        samples.nav_escudo.seen(),
        ratio(samples.navs_total as f64, outcome.window_s),
        us(percentile(&events, 0.5)),
        events.len(),
    );
    let raw: Vec<f64> = outcome.setup_s.iter().map(|t| t.raw_s).collect();
    let refs: Vec<f64> = outcome.setup_s.iter().map(|t| t.ref_ns / 1e3).collect();
    println!(
        "set-up: median {:.4} s wall over {} set-ups, reference kernel {:.1} us around them (setup_s scales to a {:.0} us kernel)",
        median(&raw).unwrap_or(0.0),
        raw.len(),
        median(&refs).unwrap_or(0.0),
        NOMINAL_REF_NS / 1e3,
    );
}

/// Sub-windows pooled per point of the within-run overhead spread, so each
/// point has enough samples of every class.
const SPREAD_POOL: u32 = 8;

/// Within-run spread of the overhead: the ratio taken per pool of
/// [`SPREAD_POOL`] sub-windows, as `(pools, relative IQR)`.
#[must_use]
pub fn overhead_spread(outcome: &Outcome) -> (usize, Option<f64>) {
    let (escudo, sop) = (
        outcome.samples.nav_escudo.samples(),
        outcome.samples.nav_sop.samples(),
    );
    let pools = escudo
        .iter()
        .chain(sop)
        .map(|s| s.window / SPREAD_POOL)
        .max()
        .map_or(0, |p| p + 1);
    let ratios: Vec<f64> = (0..pools)
        .filter_map(|p| {
            let pick = |v: &[Sample]| {
                v.iter()
                    .filter(|s| s.window / SPREAD_POOL == p)
                    .copied()
                    .collect::<Vec<_>>()
            };
            overhead_ratio(&pick(escudo), &pick(sop))
        })
        .collect();
    (ratios.len(), relative_iqr(&ratios))
}

/// Span-derived figures of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanFigures {
    /// Mean wait of a subresource dispatch behind the first one of its
    /// navigation, µs.
    pub queue_wait_us: f64,
    /// Summed subresource service time over fan-out wall time.
    pub parallelism: f64,
    /// Mean handler time of an origin dispatch, µs.
    pub origin_us: f64,
    /// Mean navigation time not covered by its origin dispatches, µs.
    pub nav_self_us: f64,
}

/// Computes the span figures (origin spans already attributed).
#[must_use]
pub fn span_figures(spans: &[Span]) -> SpanFigures {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut origin_ns = 0u64;
    let mut origins = 0u64;
    for span in spans.iter().filter(|s| s.name.starts_with("origin")) {
        origin_ns += span.end_ns - span.start_ns;
        origins += 1;
        if span.parent != 0 {
            children.entry(span.parent).or_default().push(span);
        }
    }
    let (mut waits, mut wait_ns) = (0u64, 0u64);
    let (mut service_ns, mut fanout_ns) = (0u64, 0u64);
    let (mut navs, mut self_ns) = (0u64, 0u64);
    for nav in spans.iter().filter(|s| s.name == "nav") {
        let kids = children.get(&nav.id).map_or(&[][..], Vec::as_slice);
        let intervals: Vec<(u64, u64)> = kids
            .iter()
            .map(|s| (s.start_ns.saturating_sub(s.aux_ns), s.end_ns))
            .collect();
        self_ns += self_time_ns((nav.start_ns, nav.end_ns), &intervals);
        navs += 1;
        let subs: Vec<&&Span> = kids.iter().filter(|s| s.name == "origin.sub").collect();
        if let Some(first) = subs
            .iter()
            .map(|s| s.start_ns.saturating_sub(s.aux_ns))
            .min()
        {
            for s in &subs {
                wait_ns += s.start_ns.saturating_sub(s.aux_ns) - first;
                waits += 1;
            }
            if nav.aux_ns > 0 {
                service_ns += subs
                    .iter()
                    .map(|s| s.end_ns - s.start_ns + s.aux_ns)
                    .sum::<u64>();
                fanout_ns += nav.aux_ns;
            }
        }
    }
    SpanFigures {
        queue_wait_us: ratio(wait_ns as f64, waits as f64) / 1e3,
        parallelism: ratio(service_ns as f64, fanout_ns as f64),
        origin_us: ratio(origin_ns as f64, origins as f64) / 1e3,
        nav_self_us: ratio(self_ns as f64, navs as f64) / 1e3,
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
#[must_use]
pub fn per_layer(
    outcome: &Outcome,
    replays: &ReplayResults,
    spans: &[Span],
    dispatches: u64,
) -> Vec<Metric> {
    let l = &outcome.layers;
    let f = &outcome.fabric;
    let navs = l.navs as f64;
    let per_nav = |x: f64| ratio(x, navs);
    let us_per_nav = |ns: u128| ratio(ns as f64, navs) / 1e3;
    let share = |ns: u128| ratio(ns as f64, l.nav_ns as f64);
    let figures = span_figures(spans);
    let traced = sorted_ns(outcome.samples.nav_traced.samples());
    let untraced = sorted_ns(outcome.samples.nav_escudo.samples());
    let overhead = match (percentile(&traced, 0.5), percentile(&untraced, 0.5)) {
        (Some(t), Some(u)) => ratio(t as f64, u as f64),
        _ => 0.0,
    };
    let (decisions, hits) = outcome.engine_decisions;
    vec![
        Metric {
            name: "html.parse_us",
            unit: "us",
            value: us_per_nav(l.parse_ns),
        },
        Metric {
            name: "html.parse_share",
            unit: "ratio",
            value: share(l.parse_ns),
        },
        Metric {
            name: "label.us",
            unit: "us",
            value: us_per_nav(l.label_ns),
        },
        Metric {
            name: "label.share",
            unit: "ratio",
            value: share(l.label_ns),
        },
        Metric {
            name: "script.us",
            unit: "us",
            value: us_per_nav(l.script_ns),
        },
        Metric {
            name: "script.share",
            unit: "ratio",
            value: share(l.script_ns),
        },
        Metric {
            name: "render.us",
            unit: "us",
            value: us_per_nav(l.render_ns),
        },
        Metric {
            name: "render.share",
            unit: "ratio",
            value: share(l.render_ns),
        },
        Metric {
            name: "erm.checks_per_nav",
            unit: "count",
            value: per_nav(l.erm_checks as f64),
        },
        Metric {
            name: "erm.denials_per_nav",
            unit: "count",
            value: per_nav(l.erm_denials as f64),
        },
        Metric {
            name: "engine.decide_ns",
            unit: "ns",
            value: replays.engine_decide_ns,
        },
        Metric {
            name: "policy.decide_ns",
            unit: "ns",
            value: replays.policy_decide_ns,
        },
        Metric {
            name: "engine.deny_ns",
            unit: "ns",
            value: replays.engine_deny_ns,
        },
        Metric {
            name: "engine.hit_ratio",
            unit: "ratio",
            value: ratio(hits as f64, decisions as f64),
        },
        Metric {
            name: "event.checks_per_event",
            unit: "count",
            value: ratio(l.event_checks as f64, l.events as f64),
        },
        Metric {
            name: "erm.mediate_us",
            unit: "us",
            value: replays.mediate_us,
        },
        Metric {
            name: "jar.header_ns",
            unit: "ns",
            value: replays.jar_header_ns,
        },
        Metric {
            name: "jar.store_ns",
            unit: "ns",
            value: replays.jar_store_ns,
        },
        Metric {
            name: "jar.cookies",
            unit: "count",
            value: outcome.jar_cookies,
        },
        Metric {
            name: "fetch.us",
            unit: "us",
            value: us_per_nav(l.fetch_ns),
        },
        Metric {
            name: "fetch.queue_wait_us",
            unit: "us",
            value: figures.queue_wait_us,
        },
        Metric {
            name: "fetch.parallelism",
            unit: "ratio",
            value: figures.parallelism,
        },
        Metric {
            name: "pool.jobs_per_nav",
            unit: "count",
            value: per_nav(f.pool_jobs as f64),
        },
        Metric {
            name: "pool.preemptions_per_nav",
            unit: "count",
            value: per_nav(f.preemptions as f64),
        },
        Metric {
            name: "net.requests_per_nav",
            unit: "count",
            value: per_nav(f.requests as f64),
        },
        Metric {
            name: "net.dispatch_ratio",
            unit: "ratio",
            value: ratio(dispatches as f64, outcome.requests_all as f64),
        },
        Metric {
            name: "net.origin_us",
            unit: "us",
            value: figures.origin_us,
        },
        Metric {
            name: "nav.self_us",
            unit: "us",
            value: figures.nav_self_us,
        },
        Metric {
            name: "cache.hit_ratio",
            unit: "ratio",
            value: ratio(f.cache_hits as f64, f.requests as f64),
        },
        Metric {
            name: "cache.base_requests",
            unit: "count",
            value: f.requests as f64,
        },
        Metric {
            name: "cache.evictions_per_nav",
            unit: "count",
            value: per_nav(f.cache_evictions as f64),
        },
        Metric {
            name: "cache.expired_per_nav",
            unit: "count",
            value: per_nav(f.cache_expired as f64),
        },
        Metric {
            name: "cache.coalesced_per_nav",
            unit: "count",
            value: per_nav(f.cache_coalesced as f64),
        },
        Metric {
            name: "fault.injected_per_nav",
            unit: "count",
            value: per_nav(f.faults as f64),
        },
        Metric {
            name: "fault.retries_per_nav",
            unit: "count",
            value: per_nav(f.retries as f64),
        },
        Metric {
            name: "host.ref_us",
            unit: "us",
            value: ref_ns(outcome).unwrap_or(0.0) / 1e3,
        },
        Metric {
            name: "trace.overhead",
            unit: "ratio",
            value: overhead,
        },
    ]
}

/// Prints the human-readable report lines (everything but the final JSON).
pub fn print_context(workload: &str, seed: u64, outcome: &Outcome, fingerprint: &Fingerprint) {
    println!(
        "navbench workload={workload} seed={seed} window={:.2}s",
        outcome.window_s
    );
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" (absolute timings compare only between matching fingerprints)",
        fingerprint.nproc, fingerprint.cpu_model, fingerprint.rustc
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let s = &outcome.samples;
    println!(
        "samples: {} ESCUDO navigations, {} SOP navigations, {} ESCUDO events, {} reference runs (at most {KEPT_SAMPLES} of each kept)",
        s.nav_escudo.seen() + s.nav_traced.seen(),
        s.nav_sop.seen(),
        s.event_escudo.seen(),
        s.refs.seen()
    );
    println!(
        "failed_ratio: {} failed / {} attempted = {:.6}",
        outcome.tally.failed,
        outcome.tally.attempted,
        outcome.tally.failed_ratio()
    );
    for failure in &outcome.tally.failures {
        println!("  failure: {failure}");
    }
    let (escudo, sop) = (s.nav_escudo.samples(), s.nav_sop.samples());
    if let Some(ratio) = overhead_ratio(escudo, sop) {
        let (pools, spread) = overhead_spread(outcome);
        println!(
            "escudo_overhead: {ratio:.4} (ESCUDO adds {:+.1}%), {}; within-run spread (IQR/median over {pools} two-second pools): {}",
            (ratio - 1.0) * 100.0,
            band_verdict(ratio),
            spread.map_or_else(|| "n/a".to_string(), |s| format!("{s:.4}"))
        );
        let per_class: Vec<String> = overhead_by_class(escudo, sop)
            .iter()
            .map(|(class, r)| format!("{class}:{r:.3}"))
            .collect();
        println!("escudo_overhead per input class: {}", per_class.join(" "));
    }
    println!(
        "cache: {} hits of {} requests ({} ESCUDO navigations)",
        outcome.fabric.cache_hits, outcome.fabric.requests, outcome.layers.navs
    );
}

/// The final JSON line.
#[must_use]
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
