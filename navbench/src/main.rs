//! Command line: `navbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end set for
//! `--trace 0`, the per-layer set for `--trace 1`. A traced run also writes
//! its spans to `.bench_out/trace-<workload>.jsonl`, replacing the previous
//! traced run's file for that workload so repeated runs do not fill the disk.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use navbench::host::Fingerprint;
use navbench::measure::RunCfg;
use navbench::trace::{write_spans, Tracer};
use navbench::{replay, report, run_workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("navbench: {error}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(Tracer::new(args.trace));
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Arc::clone(&tracer),
    };
    let fingerprint = Fingerprint::detect();
    let outcome = run_workload(&args.workload, &cfg);
    report::print_context(&args.workload, args.seed, &outcome, &fingerprint);
    let metrics = if args.trace {
        let replays = replay::run(&outcome.replay, &tracer);
        let spans = tracer.take_spans();
        let path = PathBuf::from(".bench_out").join(format!("trace-{}.jsonl", args.workload));
        match write_spans(&path, &spans) {
            Ok(()) => println!(
                "trace: {} spans ({} dropped) written to {}",
                spans.len(),
                tracer.dropped(),
                path.display()
            ),
            Err(error) => {
                eprintln!("navbench: writing {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
        report::per_layer(&outcome, &replays, &spans, tracer.dispatches())
    } else {
        report::print_raw(&outcome);
        match report::end_to_end(&outcome) {
            Ok(metrics) => metrics,
            Err(error) => {
                eprintln!("navbench: {error}");
                return ExitCode::FAILURE;
            }
        }
    };
    for m in &metrics {
        println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        report::json_line(
            correct,
            outcome.tally.attempted.max(1),
            outcome.tally.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
