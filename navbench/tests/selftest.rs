//! Self-tests of the benchmark: seeded inputs, the summary arithmetic, the
//! operation checks and the agreement of `BENCHMARK.json` with the code.

use std::sync::Arc;
use std::time::Instant;

use escudo_apps::{Expectation, Verdict};
use escudo_browser::PolicyMode;
use navbench::forum::{run_session, App, Reply, Script, XSS_EXPECTATION};
use navbench::measure::{Client, Outcome, RunCfg, SetupTime};
use navbench::replay::ReplayResults;
use navbench::stats::{
    in_ref_units, overhead_by_class, overhead_ratio, percentile, Sample, MIN_SAMPLES_BEYOND,
};
use navbench::trace::{attribute, self_time_ns, Span, Tracer};
use navbench::{figure4, forum, multi_origin, report, WORKLOADS};

#[test]
fn the_same_seed_gives_identical_inputs() {
    assert_eq!(figure4::inputs(7), figure4::inputs(7));
    assert_eq!(multi_origin::inputs(7), multi_origin::inputs(7));
    assert_eq!(forum::scripts(7, 64), forum::scripts(7, 64));

    assert_ne!(figure4::inputs(7), figure4::inputs(8));
    assert_ne!(multi_origin::inputs(7), multi_origin::inputs(8));
    assert_ne!(forum::scripts(7, 64), forum::scripts(8, 64));
}

#[test]
fn salting_keeps_every_figure4_page_the_same_size_across_seeds() {
    let a = figure4::inputs(1);
    let b = figure4::inputs(2);
    for ((html_a, handlers_a), (html_b, handlers_b)) in a.pages.iter().zip(&b.pages) {
        assert_eq!(html_a.len(), html_b.len());
        assert_ne!(html_a, html_b);
        assert_eq!(handlers_a, handlers_b);
    }
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let samples: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&samples, 0.99), Some(990));
    assert_eq!(percentile(&samples[..999], 0.99), None);
    assert_eq!(percentile(&samples[..20], 0.5), Some(10));
    assert_eq!(percentile(&samples[..19], 0.5), None);
    assert_eq!(MIN_SAMPLES_BEYOND, 10);
    let empty: [u64; 0] = [];
    assert_eq!(percentile(&empty, 0.5), None);
}

fn sample(window: u32, class: u32, ns: u64) -> Sample {
    Sample { window, class, ns }
}

#[test]
fn ref_units_divide_each_sample_by_its_own_windows_kernel_median() {
    // Window 0 runs at twice the speed of window 1: the raw samples differ
    // two-fold, their reference-unit values do not.
    let refs: Vec<Sample> = (0..5)
        .map(|_| sample(0, 0, 100))
        .chain((0..5).map(|_| sample(1, 0, 200)))
        .collect();
    let samples = [sample(0, 0, 300), sample(1, 0, 600)];
    assert_eq!(in_ref_units(&samples, &refs), vec![3.0, 3.0]);
    // A window with too few kernel runs falls back to the run's median.
    let sparse = [sample(2, 0, 450)];
    assert_eq!(in_ref_units(&sparse, &refs), vec![450.0 / 200.0]);
    assert!(in_ref_units(&samples, &[]).is_empty());
}

#[test]
fn overhead_is_the_geometric_mean_of_per_class_median_ratios() {
    // Class 0: ESCUDO 10% slower; class 1: 21% slower; class 2 has no SOP
    // samples and is left out.
    let mut escudo = Vec::new();
    let mut sop = Vec::new();
    for i in 0..40 {
        escudo.push(sample(0, 0, 1100 + i));
        sop.push(sample(0, 0, 1000 + i));
        escudo.push(sample(0, 1, 12100 + i));
        sop.push(sample(0, 1, 10000 + i));
        escudo.push(sample(0, 2, 5));
    }
    let by_class = overhead_by_class(&escudo, &sop);
    assert_eq!(
        by_class.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
        vec![0, 1]
    );
    assert!((by_class[0].1 - 1119.0 / 1019.0).abs() < 1e-12);
    assert!((by_class[1].1 - 12119.0 / 10019.0).abs() < 1e-12);
    let expected = (by_class[0].1 * by_class[1].1).sqrt();
    assert!((overhead_ratio(&escudo, &sop).expect("two classes") - expected).abs() < 1e-12);
    // A class with too few samples for its median is left out too.
    assert_eq!(overhead_ratio(&escudo[..15], &sop[..15]), None);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    assert_eq!(self_time_ns((0, 100), &[]), 100);
    assert_eq!(self_time_ns((0, 100), &[(10, 30), (20, 40), (90, 150)]), 60);
    assert_eq!(self_time_ns((50, 100), &[(0, 200)]), 0);
}

#[test]
fn origin_spans_attach_to_their_clients_navigation() {
    let span = |id, name, start_ns, end_ns, client| Span {
        id,
        name,
        start_ns,
        end_ns,
        parent: 0,
        nav: 0,
        client,
        aux_ns: 0,
    };
    let mut spans = vec![
        span(1, "nav", 0, 100, 0),
        span(2, "nav", 50, 150, 1),
        span(3, "origin.sub", 60, 70, 0),
        span(4, "origin.sub", 120, 130, 1),
        span(5, "origin.sub", 120, 130, 0),
    ];
    attribute(&mut spans);
    assert_eq!(spans[2].parent, 1);
    assert_eq!(spans[3].parent, 2);
    assert_eq!(spans[4].parent, 0, "client 0 had no navigation in flight");
}

fn attack_script(attack: usize) -> Script {
    Script {
        app: App::Forum,
        replies: vec![Reply {
            attack: Some(attack),
            depth: 3,
            words: 6,
        }],
    }
}

#[test]
fn correct_verdicts_pass_and_an_injected_wrong_verdict_fails() {
    let cfg = RunCfg {
        seed: 1,
        seconds: 1.0,
        tracer: Arc::new(Tracer::new(false)),
    };
    let wrong = Expectation {
        sop: Verdict::Neutralized,
        escudo: Verdict::Succeeds,
    };
    for attack in 0..4 {
        for mode in [PolicyMode::Escudo, PolicyMode::SameOriginOnly] {
            let mut right = Client::new(0, Arc::clone(&cfg.tracer), Instant::now());
            let _ = run_session(
                &mut right,
                mode,
                &attack_script(attack),
                XSS_EXPECTATION,
                &cfg,
            );
            assert_eq!(
                right.tally.failed, 0,
                "attack {attack} {mode:?}: {:?}",
                right.tally.failures
            );
            assert!(right.tally.attempted > 0);

            let mut injected = Client::new(0, Arc::clone(&cfg.tracer), Instant::now());
            let _ = run_session(&mut injected, mode, &attack_script(attack), wrong, &cfg);
            assert!(
                injected.tally.failed > 0,
                "attack {attack} {mode:?} accepted a wrong verdict"
            );
            assert!(injected.tally.failed_ratio() > 0.0);
        }
    }
}

#[test]
fn benchmark_json_names_every_metric_the_code_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let per_layer = report::per_layer(&Outcome::default(), &ReplayResults::default(), &[], 0);
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(report::END_TO_END)
        .chain(per_layer.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json lists a metric the code does not report"
    );
}

#[test]
fn end_to_end_reports_exactly_the_gated_metrics_and_refuses_thin_runs() {
    let mut out = Outcome::default();
    for i in 0..2000u64 {
        let nav = Sample {
            window: (i / 100) as u32,
            class: (i % 3) as u32,
            ns: 1000 + i,
        };
        out.samples.nav_escudo.push(nav);
        out.samples.nav_sop.push(Sample { ns: 900 + i, ..nav });
        out.samples.event_escudo.push(Sample {
            ns: 50 + i % 7,
            ..nav
        });
        if i % 4 == 0 {
            out.samples.refs.push(Sample { ns: 500, ..nav });
        }
    }
    out.samples.navs_per_window = vec![200; 21];
    // Scaled to a 100 us kernel: 0.3 s, 0.2 s and 0.1 s.
    out.setup_s = vec![
        SetupTime {
            raw_s: 0.3,
            ref_ns: 100_000.0,
        },
        SetupTime {
            raw_s: 0.1,
            ref_ns: 50_000.0,
        },
        SetupTime {
            raw_s: 0.2,
            ref_ns: 200_000.0,
        },
    ];
    out.window_s = 5.0;
    let metrics = report::end_to_end(&out).expect("enough samples");
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, report::END_TO_END);
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .expect("reported")
            .value
    };
    assert!((value("setup_s") - 0.2).abs() < 1e-12);
    assert!((value("nav_per_ref") - 200.0 * 500.0 / 250e6).abs() < 1e-15);
    assert!(value("escudo_overhead") > 1.0);
    assert!(report::end_to_end(&Outcome::default()).is_err());
}
