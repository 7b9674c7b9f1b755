//! Process probes and sample statistics.
//!
//! * Peak resident memory: `VmHWM` from `/proc/self/status`, reset by
//!   writing `5` to `/proc/self/clear_refs` so the peak covers only what
//!   follows the reset.
//! * Page faults: minor and major fault counts from `/proc/self/stat`,
//!   including those of reaped children (the driver's workers).
//! * Timing samples: median and the highest tail percentile that still has
//!   at least ten samples beyond it, always with the sample count.
//! * Failure tally: calls attempted, calls failed, and why.
//! * Scratch leaks: whatever a run left behind in its scratch directory.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Returns free heap pages to the kernel, so that memory an earlier stage
/// (input generation) freed but the allocator kept does not stay in RSS
/// and set the peak. A no-op off glibc.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // memory the allocator already holds as free; it is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's peak-RSS high-water mark to its current RSS.
pub fn reset_peak_rss() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak RSS (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm(&status)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// Extracts `VmHWM` (KiB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// Page-fault counters of this process plus its reaped children.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Faults {
    /// Minor faults (served without I/O).
    pub minflt: u64,
    /// Major faults (needed I/O).
    pub majflt: u64,
}

impl Faults {
    /// Reads the current counters from `/proc/self/stat`.
    pub fn now() -> io::Result<Faults> {
        let stat = std::fs::read_to_string("/proc/self/stat")?;
        parse_stat_faults(&stat)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc/self/stat"))
    }

    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: Faults) -> Faults {
        Faults {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            majflt: self.majflt.saturating_sub(earlier.majflt),
        }
    }
}

/// Parses `minflt + cminflt` and `majflt + cmajflt` from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from its last `)`.
pub fn parse_stat_faults(stat: &str) -> Option<Faults> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt(10) cminflt majflt cmajflt(13).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(Faults { minflt: field(10)? + field(11)?, majflt: field(12)? + field(13)? })
}

/// Timing samples of one metric.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle two for an even count), or `None`
    /// without samples.
    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// The highest of the 75th, 90th, 95th, 99th and 99.9th percentiles
    /// that leaves at least ten samples above it, as `(percentile, value)`
    /// (nearest rank); `None` until the run has enough samples for one.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let v = self.sorted();
        let n = v.len();
        // Per-mille levels keep the nearest-rank arithmetic exact.
        [999usize, 990, 950, 900, 750].into_iter().find_map(|permille| {
            let rank = (permille * n).div_ceil(1000);
            (rank >= 1 && n - rank >= 10).then(|| (permille as f64 / 10.0, v[rank - 1]))
        })
    }
}

/// Matcher calls attempted and failed, plus run-level problems (a wrong
/// work count, a leaked directory), each with its reason.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    calls: u64,
    failed_calls: u64,
    flags: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Tally {
        Tally::default()
    }

    /// Counts one attempted call that succeeded.
    pub fn pass(&mut self) {
        self.calls += 1;
    }

    /// Counts one attempted call that failed.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.calls += 1;
        self.failed_calls += 1;
        self.reasons.push(reason.into());
    }

    /// Marks every call counted so far as failed for one shared reason:
    /// their links all equal a first call that turned out to be wrong.
    pub fn fail_all(&mut self, reason: impl Into<String>) {
        self.failed_calls = self.calls;
        self.reasons.push(reason.into());
    }

    /// Records a run-level problem. It fails the run and counts as one
    /// more check attempted, but is not a matcher call.
    pub fn flag(&mut self, reason: impl Into<String>) {
        self.flags += 1;
        self.reasons.push(reason.into());
    }

    /// Calls plus run-level checks that failed, so never below
    /// [`Tally::failed`].
    pub fn attempted(&self) -> u64 {
        self.calls + self.flags
    }

    /// Failed calls plus run-level problems.
    pub fn failed(&self) -> u64 {
        self.failed_calls + self.flags
    }

    /// Failed calls over calls attempted; 0 when nothing was attempted.
    pub fn fail_rate(&self) -> f64 {
        match self.calls {
            0 => 0.0,
            n => self.failed_calls as f64 / n as f64,
        }
    }

    /// Why each failure happened, in order.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} calls failed", self.failed_calls, self.calls)
    }
}

/// Entries left in `dir`, sorted; an absent directory has none.
pub fn leftovers(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => Vec::new(),
    };
    out.sort();
    out
}
