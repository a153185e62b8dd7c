//! `multi_origin_site`: fetch-bound navigations of a logged-in site whose
//! pages pull 1–2 critical subresources and twelve images (thirteen where
//! one repeats) spread over five image origins, every origin at 200 µs
//! simulated latency.
//!
//! Two client threads, each a logged-in ESCUDO session, share one fabric,
//! jar and engine with the response cache on. A mirrored SOP pair runs on a
//! separate, identically built world; the two alternate in blocks, each SOP
//! block replaying the page sequence of the ESCUDO block before it. Page
//! popularity is a seeded Zipf over a working set larger than the 128-entry
//! response cache, so hits, misses, evictions and (for the site stylesheet,
//! fresh for one second) expiries all occur; some assets are uncacheable and some
//! plans repeat a URL so single-flight coalescing runs. One image origin
//! times out every k-th dispatch under a retrying `FetchPolicy`.
//!
//! Transport, fetch-pool lanes, the response cache, jar header builds and
//! ERM cookie mediation do the work here. Page build is small, so an html,
//! script or render change should not move this workload.
//!
//! Every asset URL carries its client (`?c=k`), so the benchmark's origin
//! handlers can attribute each dispatch to the navigation its client had in
//! flight. A consequence is that the clients share cache capacity but not
//! cache entries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use escudo_apps::markup::AcMarkup;
use escudo_browser::{Browser, PageId, PolicyMode};
use escudo_core::config::CookiePolicy;
use escudo_core::{engine_for_mode, Acl, PolicyEngine, Ring};
use escudo_dom::EventType;
use escudo_net::{
    FaultPlan, FetchPolicy, Request, Response, SetCookie, SharedCookieJar, SharedNetwork,
    StatusCode, Url,
};

use crate::check::{check_page, Problems};
use crate::measure::{
    timed_setups, Client, FabricDelta, FabricSnap, Outcome, ReplayInputs, RunCfg, TracedServer,
    SETUPS,
};
use crate::stats::{Rng, Zipf};

/// The site's registrable host; the session cookie's `Domain`.
pub const HOST: &str = "site.example";
/// The session cookie (ring 1, ACL uniform ring 1).
pub const COOKIE: &str = "sid";
/// Client threads per mode.
pub const CLIENTS: usize = 2;
/// Image origins (`img0` … `img4`); the last one carries the fault plan.
pub const IMAGE_ORIGINS: usize = 5;
/// Simulated service latency of every origin.
pub const LATENCY: Duration = Duration::from_micros(200);
/// Pages in the working set.
pub const PAGES: usize = 64;
/// Navigations per client per mode block.
const BLOCK_NAVS: usize = 8;
/// Navigations per session before it logs in afresh (`Browser` keeps every
/// page).
const SESSION_NAVS: u64 = 160;
/// Navigations per client and mode each set-up warms the caches with.
const WARM_NAVS: usize = 32;
/// Navigations sampled for the cache-off / sequential-loader oracle.
const ORACLE_NAVS: usize = 24;

/// One planned image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Image origin index.
    pub origin: usize,
    /// URL path.
    pub path: String,
    /// Inside a ring-3 user region (its request may not use the ring-1
    /// session cookie under ESCUDO).
    pub user_region: bool,
}

/// One page of the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitePage {
    /// Critical subresource paths on `static.` (stylesheet, optional script).
    pub critical: Vec<String>,
    /// Images in document order (a repeated URL is coalesced).
    pub images: Vec<Image>,
}

/// The seeded inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The working set.
    pub pages: Vec<SitePage>,
    /// Per client: the Zipf page sequence, cycled.
    pub sequences: Vec<Vec<usize>>,
    /// The faulted origin times out every this-many dispatches.
    pub fault_every: u64,
}

/// Images per page.
const IMAGES: usize = 12;
/// Image slots that show one of the eight site-wide shared assets.
const SHARED_SLOTS: [usize; 3] = [0, 5, 9];
/// Image slots served without `max-age` (uncacheable).
const NOCACHE_SLOTS: [usize; 2] = [3, 7];
/// Trailing image slots inside the ring-3 comment region.
const USER_SLOTS: usize = 3;

/// Generates the site for `seed`. A page's shape depends only on its index
/// — 12 images, which slots are shared, uncacheable or in the comment
/// region, whether it has a script and a repeated image — so the popular
/// pages cost the same whatever the seed. The seed picks the shared asset
/// in each shared slot, which image a page repeats, the popularity draws
/// and the fault period.
#[must_use]
pub fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 7);
    let pages = (0..PAGES)
        .map(|p| {
            let mut critical = vec!["/css/site.css".to_string()];
            if p % 2 == 0 {
                critical.push(format!("/js/a{p}.js"));
            }
            let mut images: Vec<Image> = (0..IMAGES)
                .map(|i| {
                    let (origin, path) = if SHARED_SLOTS.contains(&i) {
                        let id = rng.below(8);
                        (id % IMAGE_ORIGINS, format!("/shared/i{id}.png"))
                    } else if NOCACHE_SLOTS.contains(&i) {
                        (i % IMAGE_ORIGINS, format!("/p{p}/nocache-{i}.png"))
                    } else {
                        (i % IMAGE_ORIGINS, format!("/p{p}/i{i}.png"))
                    };
                    Image {
                        origin,
                        path,
                        user_region: i >= IMAGES - USER_SLOTS,
                    }
                })
                .collect();
            if p % 3 == 0 {
                let repeat = images[rng.below(IMAGES - USER_SLOTS)].clone();
                images.insert(IMAGES - USER_SLOTS, repeat);
            }
            SitePage { critical, images }
        })
        .collect();
    let zipf = Zipf::new(PAGES, 1.0);
    let sequences = (0..CLIENTS)
        .map(|_| (0..4096).map(|_| zipf.sample(&mut rng)).collect())
        .collect();
    Inputs {
        pages,
        sequences,
        fault_every: rng.range(8, 9) as u64,
    }
}

fn image_url(image: &Image, client: usize) -> String {
    format!("http://img{}.{HOST}{}?c={client}", image.origin, image.path)
}

/// The page's HTML as served to `client`: a ring-1 body with the critical
/// resources, an app script, a like button, the ring-1 images and a ring-3
/// comment region holding the rest.
#[must_use]
pub fn page_html(page: &SitePage, index: usize, client: usize) -> String {
    let mut markup = AcMarkup::new(0x5173 + index as u64, true);
    let mut head = String::new();
    for path in &page.critical {
        if path.ends_with(".css") {
            head.push_str(&format!(
                "<link rel=\"stylesheet\" href=\"http://static.{HOST}{path}?c={client}\">"
            ));
        } else {
            head.push_str(&format!(
                "<script src=\"http://static.{HOST}{path}?c={client}\"></script>"
            ));
        }
    }
    let (app_images, user_images): (Vec<&Image>, Vec<&Image>) =
        page.images.iter().partition(|image| !image.user_region);
    let img_tags = |images: &[&Image]| -> String {
        images
            .iter()
            .map(|image| format!("<img src=\"{}\">", image_url(image, client)))
            .collect()
    };
    let comments = markup.region(
        Ring::new(3),
        Acl::new(Ring::new(2), Ring::new(2), Ring::new(2)),
        "id=\"comments\" class=\"user-content\"",
        &format!("<p>visitor photos</p>{}", img_tags(&user_images)),
    );
    let app = markup.region(
        Ring::new(1),
        Acl::uniform(Ring::new(1)),
        "id=\"app\"",
        &format!(
            "<div id=\"page-marker\">p{index}</div><span id=\"likes\">none</span>\
             <button id=\"like\" onclick=\"document.getElementById('likes').innerHTML = 'liked';\">like</button>\
             <script>document.getElementById('likes').innerHTML = '0';</script>{}{comments}",
            img_tags(&app_images)
        ),
    );
    let body = markup.region_with_tag("body", Ring::new(1), Acl::uniform(Ring::new(1)), "", &app);
    format!("<!DOCTYPE html><html><head><title>p{index}</title>{head}</head>{body}</html>")
}

fn cookie_policy() -> CookiePolicy {
    CookiePolicy::new(COOKIE, Ring::new(1)).with_acl(Acl::uniform(Ring::new(1)))
}

/// Registers the site on `fabric`.
pub fn register_world(fabric: &SharedNetwork, inputs: &Inputs, cfg: &RunCfg) {
    let html: Arc<Vec<Vec<String>>> = Arc::new(
        inputs
            .pages
            .iter()
            .enumerate()
            .map(|(p, page)| (0..CLIENTS).map(|c| page_html(page, p, c)).collect())
            .collect(),
    );
    let latency_ns = u64::try_from(LATENCY.as_nanos()).unwrap_or(u64::MAX);
    let site = move |req: &Request| {
        let path = req.url.path();
        if path == "/login" {
            return Response::ok_html(
                "<html><body ring=\"1\" r=\"1\" w=\"1\" x=\"1\"><div id=\"welcome\">in</div></body></html>",
            )
            .with_cookie(SetCookie {
                domain: Some(HOST.to_string()),
                path: Some("/".to_string()),
                ..SetCookie::new(COOKIE, "bench")
            })
            .with_cookie_policy(&cookie_policy());
        }
        let client: usize = req
            .url
            .query_param("c")
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let page = path
            .strip_prefix("/p")
            .and_then(|p| p.parse::<usize>().ok());
        match page
            .and_then(|p| html.get(p))
            .and_then(|per_client| per_client.get(client))
        {
            Some(body) => Response::ok_html(body.clone())
                .with_max_age(3600)
                .with_cookie_policy(&cookie_policy()),
            None => Response::error(StatusCode::NOT_FOUND, "no such page"),
        }
    };
    let site_origin = format!("http://{HOST}");
    fabric.register(
        &site_origin,
        TracedServer::new(site, Arc::clone(&cfg.tracer), false, latency_ns),
    );
    fabric.set_latency(&site_origin, LATENCY);
    let assets = |req: &Request| {
        let path = req.url.path();
        let body = Response::ok_text(format!("asset {path}"));
        if path.contains("/nocache-") {
            body
        } else if path.starts_with("/css/") {
            body.with_max_age(1)
        } else {
            body.with_max_age(3600)
        }
    };
    let mut asset_origins = vec![format!("http://static.{HOST}")];
    asset_origins.extend((0..IMAGE_ORIGINS).map(|k| format!("http://img{k}.{HOST}")));
    for origin in &asset_origins {
        fabric.register(
            origin,
            TracedServer::new(assets, Arc::clone(&cfg.tracer), true, latency_ns),
        );
        fabric.set_latency(origin, LATENCY);
    }
    fabric.inject_fault(
        &format!("http://img{}.{HOST}", IMAGE_ORIGINS - 1),
        FaultPlan::new().every_nth(inputs.fault_every),
    );
}

/// One mode's world: fabric, jar and engine shared by its sessions.
pub struct World {
    /// The fabric.
    pub fabric: Arc<SharedNetwork>,
    /// The shared jar.
    pub jar: Arc<SharedCookieJar>,
    /// The shared engine.
    pub engine: Arc<dyn PolicyEngine>,
}

impl World {
    /// Builds and registers a world enforcing `mode`.
    #[must_use]
    pub fn new(mode: PolicyMode, inputs: &Inputs, cfg: &RunCfg) -> Self {
        let fabric = Arc::new(SharedNetwork::new());
        register_world(&fabric, inputs, cfg);
        World {
            fabric,
            jar: Arc::new(SharedCookieJar::new()),
            engine: engine_for_mode(mode),
        }
    }

    /// A logged-in session of `client` (the login itself is checked).
    fn session(&self, client: &mut Client, cache: bool, workers: usize) -> Browser {
        let mut browser = Browser::with_network(
            Arc::clone(&self.engine),
            Arc::clone(&self.jar),
            Arc::clone(&self.fabric),
        );
        browser.set_response_cache_enabled(cache);
        browser.set_subresource_workers(workers);
        browser.set_fetch_policy(FetchPolicy::resilient());
        let url = format!("http://{HOST}/login?c={}", client.id);
        let mut problems = Problems::default();
        match browser.navigate(&url) {
            Ok(page) => check_page(&mut problems, browser.page(page), "welcome"),
            Err(error) => problems.require(false, || format!("login failed: {error}")),
        }
        client.tally.record(problems.into_problem(&url));
        browser
    }
}

/// The cookies a subresource request must carry: under ESCUDO a ring-3
/// element may not use the ring-1 session cookie; the same-origin policy
/// attaches it everywhere in scope.
fn expected_attachment(mode: PolicyMode, user_region: bool) -> Vec<String> {
    if mode == PolicyMode::Escudo && user_region {
        Vec::new()
    } else {
        vec![COOKIE.to_string()]
    }
}

/// Loads page `index`, checking the page, its subresources and their cookie
/// attachments.
fn visit(
    client: &mut Client,
    browser: &mut Browser,
    inputs: &Inputs,
    index: usize,
) -> Option<PageId> {
    let mode = browser.mode();
    let url = format!("http://{HOST}/p{index}?c={}", client.id);
    let loaded = client.nav(browser, 0, |b| b.navigate(&url));
    let mut problems = Problems::default();
    let page = match loaded {
        Ok(page) => page,
        Err(error) => {
            problems.require(false, || format!("navigate failed: {error}"));
            client.tally.record(problems.into_problem(&url));
            return None;
        }
    };
    {
        let loaded = browser.page(page);
        check_page(&mut problems, loaded, "page-marker");
        problems.require(
            loaded.text_of("page-marker").as_deref() == Some(&format!("p{index}")),
            || format!("served the wrong page: {:?}", loaded.text_of("page-marker")),
        );
        let planned = &inputs.pages[index];
        let critical = planned.critical.len();
        problems.require(
            loaded.subresources.len() == critical + planned.images.len(),
            || {
                format!(
                    "{} subresources, planned {}",
                    loaded.subresources.len(),
                    critical + planned.images.len()
                )
            },
        );
        let mut ordered: Vec<&Image> = planned.images.iter().filter(|i| !i.user_region).collect();
        ordered.extend(planned.images.iter().filter(|i| i.user_region));
        for (sub, image) in loaded.subresources.iter().skip(critical).zip(ordered) {
            let expected = expected_attachment(mode, image.user_region);
            problems.require(sub.attached_cookies == expected, || {
                format!(
                    "{} attached {:?}, expected {expected:?}",
                    sub.url, sub.attached_cookies
                )
            });
        }
    }
    client.tally.record(problems.into_problem(&url));
    Some(page)
}

/// Clicks the page's like button, which must run and take effect.
fn click(client: &mut Client, browser: &mut Browser, page: PageId) {
    let mut problems = Problems::default();
    match client.event(browser, page, "like", EventType::Click) {
        Ok(Some(outcome)) => {
            problems.require(outcome.succeeded(), || {
                format!("like handler failed: {:?}", outcome.result)
            });
            problems.require(
                browser.page(page).text_of("likes").as_deref() == Some("liked"),
                || "like handler had no effect".to_string(),
            );
        }
        Ok(None) => problems.require(false, || "#like has no handler".to_string()),
        Err(error) => problems.require(false, || format!("fire_event failed: {error}")),
    }
    let url = browser.page(page).url.to_string();
    client
        .tally
        .record(problems.into_problem(&format!("{url} click #like")));
}

/// One client's sessions in both worlds.
struct Seat {
    escudo: Browser,
    sop: Browser,
    navs: u64,
}

/// Builds both worlds, logs every seat in and warms the caches with the
/// first [`WARM_NAVS`] pages of each client's sequence.
fn setup(cfg: &RunCfg) -> (Inputs, World, World, Vec<Seat>) {
    let inputs = inputs(cfg.seed);
    let escudo = World::new(PolicyMode::Escudo, &inputs, cfg);
    let sop = World::new(PolicyMode::SameOriginOnly, &inputs, cfg);
    let seats = (0..CLIENTS)
        .map(|c| {
            let mut warm = Client::new(c as u32, Arc::clone(&cfg.tracer), Instant::now());
            let mut seat = Seat {
                escudo: escudo.session(
                    &mut warm,
                    true,
                    escudo_browser::DEFAULT_SUBRESOURCE_WORKERS,
                ),
                sop: sop.session(&mut warm, true, escudo_browser::DEFAULT_SUBRESOURCE_WORKERS),
                navs: 0,
            };
            for &index in inputs.sequences[c].iter().take(WARM_NAVS) {
                for browser in [&mut seat.escudo, &mut seat.sop] {
                    if let Some(page) = visit(&mut warm, browser, &inputs, index) {
                        click(&mut warm, browser, page);
                    }
                }
            }
            seat
        })
        .collect();
    (inputs, escudo, sop, seats)
}

/// Replays a seeded sample of client 0's navigations on two fresh worlds —
/// cache on with the pipelined loader, cache off with the sequential one —
/// and requires byte-identical request logs and per-subresource cookie
/// attachments.
fn oracle(inputs: &Inputs, seed: u64, client: &mut Client) -> String {
    let mut rng = Rng::new(seed, 77);
    let sample: Vec<usize> = (0..ORACLE_NAVS)
        .map(|_| inputs.sequences[0][rng.below(inputs.sequences[0].len())])
        .collect();
    let quiet = RunCfg {
        seed,
        seconds: 0.0,
        tracer: Arc::new(crate::trace::Tracer::new(false)),
    };
    let mut replay = |cache: bool, workers: usize| {
        let world = World::new(PolicyMode::Escudo, inputs, &quiet);
        let mut oracle_client = Client::new(0, Arc::clone(&quiet.tracer), Instant::now());
        let mut browser = world.session(&mut oracle_client, cache, workers);
        let mut attachments = Vec::new();
        for &index in &sample {
            let url = format!("http://{HOST}/p{index}?c=0");
            match browser.navigate(&url) {
                Ok(page) => attachments.push(
                    browser
                        .page(page)
                        .subresources
                        .iter()
                        .map(|s| format!("{} {:?} {:?}", s.url, s.status, s.attached_cookies))
                        .collect::<Vec<_>>(),
                ),
                Err(error) => attachments.push(vec![format!("error {error}")]),
            }
        }
        let log: Vec<String> = world.fabric.log().iter().map(ToString::to_string).collect();
        client.tally.merge(oracle_client.tally);
        (log, attachments)
    };
    let (cached_log, cached_attach) = replay(true, escudo_browser::DEFAULT_SUBRESOURCE_WORKERS);
    let (plain_log, plain_attach) = replay(false, 1);
    let mut problems = Problems::default();
    problems.require(cached_log == plain_log, || {
        let at = cached_log.iter().zip(&plain_log).position(|(a, b)| a != b);
        format!(
            "request logs differ ({} vs {} entries, first difference at {at:?})",
            cached_log.len(),
            plain_log.len()
        )
    });
    client
        .tally
        .record(problems.into_problem("oracle request log"));
    for (nav, (a, b)) in cached_attach.iter().zip(&plain_attach).enumerate() {
        let mut problems = Problems::default();
        problems.require(a == b, || format!("navigation {nav}: {a:?} vs {b:?}"));
        client
            .tally
            .record(problems.into_problem("oracle attachments"));
    }
    format!(
        "oracle: {} sampled navigations, {} log entries; cache-on pipelined vs cache-off sequential {}",
        sample.len(),
        cached_log.len(),
        if cached_log == plain_log && cached_attach == plain_attach { "match" } else { "DIFFER" }
    )
}

/// Runs the workload.
#[must_use]
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ((inputs, escudo, sop, seats), setups) = timed_setups(SETUPS, || setup(cfg));
    out.setup_s = setups;
    let before = FabricSnap::take(&escudo.fabric);
    let sop_before = FabricSnap::take(&sop.fabric);
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let deadline = Duration::from_secs_f64(cfg.seconds);
    cfg.tracer.arm(true);
    let start = Instant::now();
    let finished: Vec<(Client, ReplayInputs)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seats
            .into_iter()
            .enumerate()
            .map(|(c, mut seat)| {
                let (inputs, escudo, sop, barrier, stop) =
                    (&inputs, &escudo, &sop, &barrier, &stop);
                let tracer = Arc::clone(&cfg.tracer);
                scope.spawn(move || {
                    let mut client = Client::new(c as u32, tracer, start);
                    client.auto_reference = false;
                    let sequence = &inputs.sequences[c];
                    let mut cursor = 0usize;
                    let mut replay = ReplayInputs::default();
                    let mut rng = Rng::new(cfg.seed, 70 + c as u64);
                    for block in 0usize.. {
                        let escudo_block = block % 2 == 0;
                        if escudo_block && seat.navs >= SESSION_NAVS {
                            replay.sample_audit(&seat.escudo, &mut rng);
                            seat.escudo = escudo.session(
                                &mut client,
                                true,
                                escudo_browser::DEFAULT_SUBRESOURCE_WORKERS,
                            );
                            seat.sop = sop.session(
                                &mut client,
                                true,
                                escudo_browser::DEFAULT_SUBRESOURCE_WORKERS,
                            );
                            seat.navs = 0;
                        }
                        let browser = if escudo_block {
                            &mut seat.escudo
                        } else {
                            &mut seat.sop
                        };
                        let mut pages = Vec::with_capacity(BLOCK_NAVS);
                        for k in 0..BLOCK_NAVS {
                            let index = sequence[(cursor + k) % sequence.len()];
                            if let Some(page) = visit(&mut client, browser, inputs, index) {
                                if escudo_block && k == 0 {
                                    replay.sample_plan(browser.page(page), &mut rng);
                                }
                                pages.push(page);
                            }
                        }
                        if escudo_block {
                            seat.navs += BLOCK_NAVS as u64;
                        } else {
                            cursor += BLOCK_NAVS;
                        }
                        // Quiet phase: the clients take turns to click the
                        // block's like buttons and run the reference kernel
                        // while the other waits, so neither the events nor
                        // the kernel are timed against the other client's
                        // navigations competing for the two cores.
                        barrier.wait();
                        for turn in 0..CLIENTS {
                            if turn == c {
                                for &page in &pages {
                                    click(&mut client, browser, page);
                                }
                                client.reference();
                            }
                            if c == 0
                                && turn + 1 == CLIENTS
                                && !escudo_block
                                && start.elapsed() >= deadline
                            {
                                stop.store(true, Ordering::SeqCst);
                            }
                            barrier.wait();
                        }
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    replay.sample_audit(&seat.escudo, &mut rng);
                    (client, replay)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.window_s = start.elapsed().as_secs_f64();
    cfg.tracer.arm(false);
    let mut fabric = FabricDelta::default();
    FabricSnap::take(&escudo.fabric).accrue_since(&before, &mut fabric);
    out.fabric = fabric;
    FabricSnap::take(&sop.fabric).accrue_since(&sop_before, &mut fabric);
    out.requests_all = fabric.requests;
    for (client, replay) in finished {
        out.replay.merge(replay);
        out.absorb(client);
    }
    let stats = escudo.engine.stats();
    out.engine_decisions = (stats.decisions, stats.cache_hits);
    out.jar_cookies = escudo.jar.stats().resident as f64;
    out.replay.jar = Some(Arc::clone(&escudo.jar));
    for plan in &out.replay.plans {
        out.replay
            .header_urls
            .extend(plan.requests.iter().map(|(url, _)| url.clone()));
    }
    let login = Url::parse(&format!("http://{HOST}/login?c=0")).expect("login URL parses");
    if let Ok(response) = escudo
        .fabric
        .dispatch_unlogged(Request::new(escudo_net::Method::Get, login.clone()))
    {
        out.replay.set_cookies.extend(
            response
                .set_cookies()
                .into_iter()
                .map(|d| (login.clone(), d)),
        );
    }
    let mut oracle_client = Client::new(
        0,
        Arc::new(crate::trace::Tracer::new(false)),
        Instant::now(),
    );
    let note = oracle(&inputs, cfg.seed, &mut oracle_client);
    out.tally.merge(oracle_client.tally);
    out.notes.push(note);
    out.notes.push(format!(
        "inputs: {PAGES} pages, Zipf(1.0) popularity, {CLIENTS} clients per mode, fault every {} dispatches on img{}",
        inputs.fault_every,
        IMAGE_ORIGINS - 1
    ));
    out
}
