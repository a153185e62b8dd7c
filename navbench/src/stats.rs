//! Seeded input generation and the summary arithmetic every metric goes
//! through: percentiles that refuse to extrapolate, medians, host-normalised
//! (`*_ref`) values and the ESCUDO/SOP overhead ratio.

use std::collections::BTreeMap;

/// SplitMix64: a small, fast, seedable generator. Every workload input comes
/// from one of these, so the same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two inputs
    /// drawn from the same seed do not share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A Zipf(`s`) distribution over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect::<Vec<_>>();
        Zipf {
            cumulative: cumulative.iter().map(|c| c / total).collect(),
        }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// The fewest samples that must lie above a reported percentile. A
/// percentile with fewer samples beyond it is a guess about the tail, not a
/// measurement of it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie above it.
#[must_use]
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() || !(0.0..1.0).contains(&q) || q <= 0.0 {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for an even count), or
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// One timed call (or reference-kernel run): the sub-window it ran in, the
/// class of input it handled (a page, a session step; 0 where the workload
/// has one class) and its duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Sub-window index.
    pub window: u32,
    /// Input class.
    pub class: u32,
    /// Duration, nanoseconds.
    pub ns: u64,
}

/// The durations of `samples`, ascending.
#[must_use]
pub fn sorted_ns<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.into_iter().map(|s| s.ns).collect();
    v.sort_unstable();
    v
}

/// Latency samples expressed in reference-kernel units, ascending: each
/// sample divided by the median kernel time of its own window (or of the
/// whole run, for a window with fewer than [`MIN_WINDOW_REFS`] kernel runs).
/// Host speed scales numerator and denominator alike, so the quotient is
/// steady on CPU-bound work where raw nanoseconds drift.
#[must_use]
pub fn in_ref_units(samples: &[Sample], refs: &[Sample]) -> Vec<f64> {
    let all = sorted_ns(refs);
    let Some(&run_ref) = all.get(all.len() / 2) else {
        return Vec::new();
    };
    let mut by_window: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for r in refs {
        by_window.entry(r.window).or_default().push(r.ns);
    }
    let window_ref: BTreeMap<u32, u64> = by_window
        .into_iter()
        .map(|(w, mut v)| {
            v.sort_unstable();
            (
                w,
                if v.len() >= MIN_WINDOW_REFS {
                    v[v.len() / 2]
                } else {
                    run_ref
                },
            )
        })
        .collect();
    let mut out: Vec<f64> = samples
        .iter()
        .map(|s| s.ns as f64 / window_ref.get(&s.window).copied().unwrap_or(run_ref).max(1) as f64)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Kernel runs a window needs before its own median is trusted.
pub const MIN_WINDOW_REFS: usize = 5;

/// Throughput in reference-kernel time: for each whole sub-window of
/// `window_ns`, the calls completed in it times that window's median kernel
/// time over the window's length; then the median over the windows. The
/// last window, cut short by the end of the run, is left out.
#[must_use]
pub fn per_ref_unit(counts: &[u64], refs: &[Sample], window_ns: f64) -> Option<f64> {
    let mut by_window: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for r in refs {
        by_window.entry(r.window).or_default().push(r.ns);
    }
    let whole = counts.len().saturating_sub(1);
    let rates: Vec<f64> = counts[..whole]
        .iter()
        .enumerate()
        .filter_map(|(w, &n)| {
            let mut v = by_window.get(&u32::try_from(w).ok()?)?.clone();
            if v.len() < MIN_WINDOW_REFS {
                return None;
            }
            v.sort_unstable();
            Some(n as f64 * v[v.len() / 2] as f64 / window_ns)
        })
        .collect();
    median(&rates)
}

/// The Figure-4 claim as one number: for each input class, median ESCUDO
/// latency over median SOP latency on the identical inputs; then the
/// geometric mean over the classes both modes measured. `1.10` means ESCUDO
/// adds 10%. Taking the ratio per class (per page, as the paper does) keeps
/// a mixture's median from landing on the edge between two classes.
#[must_use]
pub fn overhead_ratio(escudo: &[Sample], sop: &[Sample]) -> Option<f64> {
    let ratios: Vec<f64> = overhead_by_class(escudo, sop)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    if ratios.is_empty() {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// The per-class ratios behind [`overhead_ratio`], by class.
#[must_use]
pub fn overhead_by_class(escudo: &[Sample], sop: &[Sample]) -> Vec<(u32, f64)> {
    let group = |samples: &[Sample]| {
        let mut by: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for s in samples {
            by.entry(s.class).or_default().push(s.ns);
        }
        by
    };
    let sop = group(sop);
    group(escudo)
        .into_iter()
        .filter_map(|(class, mut e)| {
            let mut s = sop.get(&class)?.clone();
            e.sort_unstable();
            s.sort_unstable();
            let (e, s) = (percentile(&e, 0.5)?, percentile(&s, 0.5)?);
            (s > 0).then(|| (class, e as f64 / s as f64))
        })
        .collect()
}

/// The paper's Figure-4 band: ESCUDO adds 6–19% to page load.
pub const PAPER_OVERHEAD_BAND: (f64, f64) = (1.06, 1.19);

/// Where an overhead ratio falls relative to [`PAPER_OVERHEAD_BAND`].
#[must_use]
pub fn band_verdict(ratio: f64) -> &'static str {
    if ratio < PAPER_OVERHEAD_BAND.0 {
        "below the paper's 6-19% band"
    } else if ratio <= PAPER_OVERHEAD_BAND.1 {
        "inside the paper's 6-19% band"
    } else {
        "above the paper's 6-19% band"
    }
}

/// Interquartile range of `values` as a share of their median (the spread
/// statistic the benchmark's bounds are stated in).
#[must_use]
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let pos = p * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    let mid = median(values)?;
    (mid != 0.0).then(|| (at(0.75) - at(0.25)) / mid)
}
