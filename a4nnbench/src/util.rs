//! Small helpers shared by the workloads: result lines, host facts,
//! percentiles and digests.

use std::fmt::Write as _;
use std::path::Path;

/// One repetition's measurements, printed as a flat JSON object on the
/// last line of the child's standard output.
#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(String, f64)>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn num(&mut self, name: &str, value: f64) {
        self.fields.push((name.to_string(), value));
    }

    pub fn text(&mut self, name: &str, value: impl Into<String>) {
        self.notes.push((name.to_string(), value.into()));
    }

    pub fn extend(&mut self, other: Report) {
        self.fields.extend(other.fields);
        self.notes.extend(other.notes);
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in &self.fields {
            if !first {
                out.push(',');
            }
            first = false;
            // JSON has no NaN or infinity; a missing measurement is null.
            if v.is_finite() {
                let _ = write!(out, "\"{k}\":{v}");
            } else {
                let _ = write!(out, "\"{k}\":null");
            }
        }
        for (k, v) in &self.notes {
            if !first {
                out.push(',');
            }
            first = false;
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "\"{k}\":\"{escaped}\"");
        }
        out.push('}');
        out
    }
}

/// Cores the process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Nearest-rank percentile of an unsorted sample, `q` in [0, 1].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of a fixed ladder of percentiles with at least ten samples
/// beyond it, with that percentile's value: `(percentile, value)`.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let beyond = (n as f64 * (1.0 - pct / 100.0)).floor();
        if beyond >= 10.0 {
            return (pct, quantile(values, pct / 100.0));
        }
    }
    (f64::NAN, f64::NAN)
}

/// Seconds between consecutive timestamps, the first measured from `start`.
pub fn gaps(start: std::time::Instant, stamps: &[std::time::Instant]) -> Vec<f64> {
    let mut prev = start;
    stamps
        .iter()
        .map(|&at| {
            let gap = at.duration_since(prev).as_secs_f64();
            prev = at;
            gap
        })
        .collect()
}

/// FNV-1a 64 over a byte stream.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Total size and count of the regular files under `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let (b, f) = dir_usage(&path);
                bytes += b;
                files += f;
            } else if let Ok(meta) = entry.metadata() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

/// Remove `dir` if present and create it empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}
