//! The host-speed reference kernel, the host fingerprint and peak memory.
//!
//! Core speed on a shared host drifts by up to 2× between windows of a few
//! seconds. The reference kernel is allocation-heavy CPU work owned by the
//! benchmark (it calls nothing in the program), run interleaved with each
//! workload; dividing CPU-bound latencies by its median cancels the drift.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the reference kernel inserts per phase.
const REF_KEYS: u64 = 384;

/// Runs the reference kernel once and returns its wall time in nanoseconds:
/// BTreeMap inserts of formatted string keys, then of integer keys, then a
/// lookup pass. Its input is fixed (independent of the workload seed), so
/// its cost depends only on the host. The two phases stress the allocator
/// differently; together they track the workloads' own mix of string
/// building and node allocation better than either alone.
#[must_use]
pub fn ref_kernel_ns() -> u64 {
    let start = Instant::now();
    let mut strings = BTreeMap::new();
    let mut integers = BTreeMap::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..REF_KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        strings.insert(format!("ref-{:016x}-{i}", x >> 7), i);
        for k in 0..4 {
            integers.insert((x >> 3).wrapping_add(k), i);
        }
    }
    let mut hits = 0u64;
    for (key, value) in &strings {
        if key.len() > 20 && integers.contains_key(&(value << 2)) {
            hits = hits.wrapping_add(*value);
        }
    }
    black_box((hits, strings.len(), integers.len()));
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What absolute timings depend on. Absolute figures may be compared only
/// between reports whose fingerprints match; ratios measured inside one
/// process compare across hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism (`nproc`).
    pub nproc: usize,
    /// CPU model name as the kernel reports it.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host.
    #[must_use]
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc,
            cpu_model,
            rustc,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// the kernel does not report it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
