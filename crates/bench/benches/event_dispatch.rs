//! Bench for §6.5's second measurement: UI-event handling with and without ESCUDO
//! (event delivery is an implicit `use` of the target element, and the handler runs as
//! a ring-labelled principal), so this exercises the mediation path end to end.
//!
//! Run with `cargo bench --bench event_dispatch` (plain `harness = false` binary).

use std::time::Instant;

use escudo_bench::cli::JsonReport;
use escudo_bench::workload::{figure4_scenarios, generate_page};
use escudo_browser::{Browser, PolicyMode};
use escudo_dom::EventType;
use escudo_net::{Request, Response};

fn browser_with_page(mode: PolicyMode, html: &str) -> (Browser, escudo_browser::PageId) {
    let mut browser = Browser::new(mode);
    let page_html = html.to_string();
    browser
        .network_mut()
        .register("http://workload.example", move |_req: &Request| {
            Response::ok_html(page_html.clone())
        });
    let page = browser.navigate("http://workload.example/").unwrap();
    (browser, page)
}

/// Best-of-`reps` nanoseconds per dispatch over `iters` dispatches.
fn time_dispatch(
    browser: &mut Browser,
    page: escudo_browser::PageId,
    reps: usize,
    iters: u32,
) -> f64 {
    // Warm up: page caches and the interpreter.
    for _ in 0..iters {
        browser
            .fire_event(page, "action-0", EventType::Click)
            .unwrap();
    }
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(
                    browser
                        .fire_event(page, "action-0", EventType::Click)
                        .unwrap(),
                );
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let html = generate_page(&figure4_scenarios()[4]);
    const REPS: usize = 7;
    const ITERS: u32 = 300;

    println!("event_dispatch: click on a handler-carrying element, {ITERS} dispatches/rep");

    let (mut sop_browser, sop_page) = browser_with_page(PolicyMode::SameOriginOnly, &html);
    let without = time_dispatch(&mut sop_browser, sop_page, REPS, ITERS);
    println!("  without_escudo  {without:>9.1} ns/dispatch");

    let (mut escudo_browser, escudo_page) = browser_with_page(PolicyMode::Escudo, &html);
    let with = time_dispatch(&mut escudo_browser, escudo_page, REPS, ITERS);
    println!("  with_escudo     {with:>9.1} ns/dispatch");

    let stats = escudo_browser.engine().stats();
    println!(
        "  escudo overhead: {:+.1}%  (engine: {} decisions)",
        (with - without) / without * 100.0,
        stats.decisions,
    );

    let mut json = JsonReport::new("event_dispatch");
    json.num("without_escudo_ns_per_dispatch", without)
        .num("with_escudo_ns_per_dispatch", with)
        .num("overhead_fraction", (with - without) / without)
        .int("engine_decisions", stats.decisions);
    json.write_if_requested(&args);
}
