//! Order statistics, process accounting read from `/proc`, digests and
//! `cppc-obs` registry deltas.

use std::collections::BTreeMap;

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` that still has at least ten
/// samples above it, as `(value, percentile, samples)`. With ten or
/// fewer samples no such percentile exists and the maximum (p100) is
/// returned instead.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 100.0, 0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0, n);
    }
    let idx = n - 11;
    (v[idx], (idx + 1) as f64 * 100.0 / n as f64, n)
}

/// Units per second of a round-based workload: units per round over
/// the median round time.
pub fn round_rate(units: u64, round_ms: &[f64]) -> f64 {
    units as f64 / round_ms.len() as f64 / (median(round_ms) / 1e3)
}

/// User + system CPU seconds of this process so far, all threads
/// included (exited ones too), from `/proc/self/stat`. Linux reports
/// these in USER_HZ ticks, which the kernel ABI fixes at 100 per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11
    // and 12 after the state field that follows the name.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a accumulator for simulated-result digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Mixes a run seed with a stream index (SplitMix64 finaliser), so each
/// round and each input of a run gets its own reproducible seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter values and timer span counts of the `cppc-obs` registry,
/// keyed by metric name. All zero when the program was built without
/// its `obs` feature.
#[derive(Debug)]
pub struct ObsSnapshot(BTreeMap<&'static str, u64>);

impl ObsSnapshot {
    pub fn take() -> Self {
        let mut map = BTreeMap::new();
        for group in cppc_obs::snapshot() {
            for m in group.metrics {
                let v = match m.value {
                    cppc_obs::SnapshotValue::Counter(v) => v,
                    cppc_obs::SnapshotValue::Timer(t) => t.count,
                    cppc_obs::SnapshotValue::Gauge(_) => continue,
                };
                map.insert(m.name, v);
            }
        }
        ObsSnapshot(map)
    }

    /// Per-metric increase since `before`, nonzero entries only.
    pub fn since(&self, before: &ObsSnapshot) -> BTreeMap<&'static str, u64> {
        self.0
            .iter()
            .filter_map(|(&k, &v)| {
                let d = v.saturating_sub(before.0.get(k).copied().unwrap_or(0));
                (d > 0).then_some((k, d))
            })
            .collect()
    }
}

/// Whether `cppc-obs` counters are compiled in (they read zero when
/// the feature is off).
pub fn obs_compiled_in() -> bool {
    let probe = cppc_obs::Counter::new();
    probe.inc();
    probe.get() == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(n, 100);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[5.0, 7.0]).0, 7.0);
    }
}
