//! Layer replays: after the timed window, call the public functions of each
//! layer on the workload's own inputs and time them per call. This gives
//! per-decision and per-cookie costs that are too short to time inside a
//! navigation from outside the program.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use escudo_browser::Erm;
use escudo_core::{decide, engine_for_mode, Operation, PolicyMode};
use escudo_net::SharedCookieJar;

use crate::measure::ReplayInputs;
use crate::stats::median;
use crate::trace::Tracer;

/// Timed passes per replay; each replay reports the median pass.
const PASSES: usize = 15;

/// Per-call costs measured by the replays (0 where the workload offered no
/// input for that layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayResults {
    /// `PolicyEngine::decide` on a warm ESCUDO engine, ns per decision.
    pub engine_decide_ns: f64,
    /// The free `escudo_core::decide` on the same pairs, ns per decision.
    pub policy_decide_ns: f64,
    /// `PolicyEngine::decide` on the denied pairs only, ns per decision.
    pub engine_deny_ns: f64,
    /// `Erm::mediate_jar_many` on one page's subresource plan, µs per plan.
    pub mediate_us: f64,
    /// `SharedCookieJar::cookie_header_for`, ns per header.
    pub jar_header_ns: f64,
    /// `SharedCookieJar::store`, ns per directive.
    pub jar_store_ns: f64,
}

/// Operations one timed pass covers at least, so the clock's own cost is
/// negligible against what it times.
const MIN_OPS_PER_PASS: usize = 2_000;

/// Times [`PASSES`] passes (after one warm sweep) and returns the median
/// pass time per operation, in nanoseconds. `sweep` performs `per_sweep`
/// operations; a pass repeats it until it covers [`MIN_OPS_PER_PASS`].
fn per_op_ns(
    tracer: &Tracer,
    name: &'static str,
    per_sweep: usize,
    mut sweep: impl FnMut(),
) -> f64 {
    if per_sweep == 0 {
        return 0.0;
    }
    let sweeps = MIN_OPS_PER_PASS.div_ceil(per_sweep);
    sweep();
    let span_start = tracer.now_ns();
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..sweeps {
                sweep();
            }
            start.elapsed().as_nanos() as f64 / (per_sweep * sweeps) as f64
        })
        .collect();
    if tracer.tracing() {
        tracer.record(name, span_start, 0, 0);
    }
    median(&times).unwrap_or(0.0)
}

/// Runs every replay the inputs allow.
#[must_use]
pub fn run(inputs: &ReplayInputs, tracer: &Tracer) -> ReplayResults {
    let engine = engine_for_mode(PolicyMode::Escudo);
    let pairs = &inputs.pairs;
    let denied: Vec<_> = pairs
        .iter()
        .filter(|(p, o, op)| decide(PolicyMode::Escudo, p, o, *op).is_denied())
        .cloned()
        .collect();
    let engine_decide_ns = per_op_ns(tracer, "replay.engine", pairs.len(), || {
        for (p, o, op) in pairs {
            black_box(engine.decide(p, o, *op));
        }
    });
    let policy_decide_ns = per_op_ns(tracer, "replay.policy", pairs.len(), || {
        for (p, o, op) in pairs {
            black_box(decide(PolicyMode::Escudo, p, o, *op));
        }
    });
    let engine_deny_ns = per_op_ns(tracer, "replay.deny", denied.len(), || {
        for (p, o, op) in &denied {
            black_box(engine.decide(p, o, *op));
        }
    });

    let jar = inputs.jar.clone().unwrap_or_else(|| {
        let jar = Arc::new(SharedCookieJar::new());
        for (url, directive) in &inputs.set_cookies {
            jar.store(url, directive);
        }
        jar
    });
    let mediate_ns = per_op_ns(tracer, "replay.mediate", inputs.plans.len(), || {
        let mut erm = Erm::with_engine(Arc::clone(&engine));
        for plan in &inputs.plans {
            let requests: Vec<_> = plan.requests.iter().map(|(u, p)| (u, p)).collect();
            black_box(
                erm.mediate_jar_many(&jar, &requests, Operation::Use, |name, origin| {
                    plan.page.contexts.cookie_object(name, origin)
                }),
            );
        }
    });
    let jar_header_ns = per_op_ns(
        tracer,
        "replay.jar_header",
        inputs.header_urls.len(),
        || {
            for url in &inputs.header_urls {
                black_box(jar.cookie_header_for(url, |_| true));
            }
        },
    );
    let scratch = SharedCookieJar::new();
    let jar_store_ns = per_op_ns(tracer, "replay.jar_store", inputs.set_cookies.len(), || {
        for (url, directive) in &inputs.set_cookies {
            scratch.store(url, directive);
        }
    });
    ReplayResults {
        engine_decide_ns,
        policy_decide_ns,
        engine_deny_ns,
        mediate_us: mediate_ns / 1_000.0,
        jar_header_ns,
        jar_store_ns,
    }
}
