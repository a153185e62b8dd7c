//! Spans recorded from outside the program: around `Browser` calls, inside
//! the benchmark's own origin handlers and around the layer replays. Nothing
//! here reaches into `crates/*`.
//!
//! A traced run alternates untraced and traced blocks of
//! [`TRACE_BLOCK_MS`]; spans are kept only in traced blocks, in memory, and
//! written out when the run ends. Comparing the two kinds of block gives the
//! tracing overhead.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Length of one traced or untraced block of a traced run.
pub const TRACE_BLOCK_MS: u128 = 250;

/// Spans retained per run; later spans are counted but dropped.
const MAX_SPANS: usize = 400_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// What the interval covers (`nav`, `event`, `origin.doc`, `origin.sub`,
    /// `ref`, `replay.*`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, once attributed (0 when none).
    pub parent: u64,
    /// The navigation this span belongs to (0 when none).
    pub nav: u64,
    /// The client thread that caused it.
    pub client: u32,
    /// Span-specific payload: a navigation's subresource fetch time, or an
    /// origin's configured latency, in nanoseconds.
    pub aux_ns: u64,
}

/// The span recorder shared by the client threads and the origin handlers.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tracing: bool,
    armed: AtomicBool,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dispatches: AtomicU64,
}

impl Tracer {
    /// A tracer; `tracing == false` never records a span.
    #[must_use]
    pub fn new(tracing: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            tracing,
            armed: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            dispatches: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens (`true`) or closes the measured window. Outside it nothing is
    /// recorded or counted, so set-up and warm-up traffic stays out.
    pub fn arm(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// `true` inside the measured window.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// `true` inside a traced block of the measured window of a traced run.
    #[must_use]
    pub fn active(&self) -> bool {
        self.tracing && self.armed() && (self.epoch.elapsed().as_millis() / TRACE_BLOCK_MS) % 2 == 1
    }

    /// `true` for a traced run (whether or not the current block records).
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Reserves a span id (for a span whose children are recorded before it
    /// ends).
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Keeps `span` (its `id` must come from [`Tracer::reserve_id`]).
    pub fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer lock");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished span with a fresh id and returns the id.
    pub fn record(&self, name: &'static str, start_ns: u64, client: u32, aux_ns: u64) -> u64 {
        let id = self.reserve_id();
        self.push(Span {
            id,
            name,
            start_ns,
            end_ns: self.now_ns(),
            parent: 0,
            nav: 0,
            client,
            aux_ns,
        });
        id
    }

    /// Counts one origin dispatch inside the measured window (traced block
    /// or not).
    pub fn count_dispatch(&self) {
        if self.armed() {
            self.dispatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Origin dispatches counted so far.
    #[must_use]
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Takes every kept span, with origin spans attributed to the
    /// navigation their client had in flight when they started.
    #[must_use]
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock"));
        attribute(&mut spans);
        spans
    }

    /// Spans dropped because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Sets `parent` and `nav` of every `origin.*` span to the `nav` span of the
/// same client whose interval contains the origin span's start. Each client
/// is a closed loop with one navigation in flight, so the match is unique.
pub fn attribute(spans: &mut [Span]) {
    let mut navs: Vec<(u32, u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "nav")
        .map(|s| (s.client, s.start_ns, s.end_ns, s.id))
        .collect();
    navs.sort_unstable();
    for span in spans.iter_mut().filter(|s| s.name.starts_with("origin")) {
        let upto =
            navs.partition_point(|&(c, start, _, _)| (c, start) <= (span.client, span.start_ns));
        if upto == 0 {
            continue;
        }
        let (client, _, end, id) = navs[upto - 1];
        if client == span.client && span.start_ns <= end {
            span.parent = id;
            span.nav = id;
        }
    }
}

/// A layer's self time: the parent interval's length minus the part of it
/// that the children cover (overlapping children counted once).
#[must_use]
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p_start, p_end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p_start), e.min(p_end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (p_end - p_start).saturating_sub(covered)
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"nav\":{},\"client\":{},\"aux_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.nav, s.client, s.aux_ns
        )?;
    }
    out.flush()
}
