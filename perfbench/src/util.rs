//! Small helpers shared by the workloads: a seeded RNG, order statistics,
//! family digests, peak-RSS probes and the report the harness prints.

use std::fmt::Write as _;
use std::time::Instant;

use mqce_graph::VertexId;

/// SplitMix64: the benchmark's own operation-stream generator, so the op mix
/// does not depend on the generators' RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Set count plus an FNV-1a hash of the canonical family (each set sorted,
/// then the list sorted), so two paths agree exactly when their families do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub count: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(family: &[Vec<VertexId>]) -> Digest {
        let mut sets: Vec<Vec<VertexId>> = family
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.sort_unstable();
                s
            })
            .collect();
        sets.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for set in &sets {
            feed(set.len() as u64 | 1 << 40);
            for &v in set {
                feed(v as u64);
            }
        }
        Digest {
            count: sets.len(),
            hash: h,
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:016x}", self.count, self.hash)
    }
}

/// `VmHWM` (peak resident set) of `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
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

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64, &'static str)>,
    /// Exact work counters that must repeat across runs of one commit.
    pub fingerprint: Vec<(String, u64)>,
    /// Informational counters that are not asserted on.
    pub counters: Vec<(String, u64)>,
    /// Exactness checks: `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted and failed (any op that errored, answered
    /// `ok=false` or best-effort, or failed an exactness check).
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts behind the latency metrics.
    pub samples: Vec<(String, usize)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.to_string(), value, unit));
    }

    /// Records an exactness check; a failed check counts as a failed op.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED {name}: {detail}");
        }
        self.checks.push((name.to_string(), passed, detail));
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The full report as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":{},\"seed\":{seed},\"traced\":{traced},\"correct\":{},\"attempted\":{},\"failed\":{}",
            json_str(workload),
            self.correct(),
            self.attempted,
            self.failed
        );
        s.push_str(",\"metrics\":");
        metrics_json(&mut s, &self.metrics);
        s.push_str(",\"layers\":");
        metrics_json(&mut s, &self.layers);
        for (key, list) in [
            ("fingerprint", &self.fingerprint),
            ("counters", &self.counters),
        ] {
            let _ = write!(s, ",\"{key}\":{{");
            for (i, (name, v)) in list.iter().enumerate() {
                let _ = write!(s, "{}{}:{v}", if i > 0 { "," } else { "" }, json_str(name));
            }
            s.push('}');
        }
        s.push_str(",\"samples\":{");
        for (i, (name, v)) in self.samples.iter().enumerate() {
            let _ = write!(s, "{}{}:{v}", if i > 0 { "," } else { "" }, json_str(name));
        }
        s.push_str("},\"checks\":[");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                json_str(detail)
            );
        }
        s.push_str("]}");
        s
    }
}

fn metrics_json(s: &mut String, list: &[(String, f64, &'static str)]) {
    s.push('{');
    for (i, (name, v, unit)) in list.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    s.push('}');
}

/// A finite float as JSON (`null` for NaN/inf so the report stays parseable).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
