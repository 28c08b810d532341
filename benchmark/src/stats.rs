//! Percentiles, windowed medians, and the request-stream fingerprint.

/// The `p`-quantile (0 < p ≤ 1) of an ascending slice by the
/// nearest-rank rule; 0 for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of values (mean of the middle two for even counts);
/// 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0 ≤ p ≤ 1) of a list, interpolating linearly
/// between order statistics; 0 for an empty list.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (k - lo as f64)
}

/// Arithmetic mean; 0 for an empty list.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// One completed request: when it completed (µs since the phase began)
/// and how long it took (ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    pub done_us: u64,
    pub latency_ns: u64,
}

/// Latency summary of one measured phase, in microseconds.
///
/// Quantiles are taken per window of `window` consecutive completions
/// and then summarised by the median window, so that a stall or a
/// neighbour's burst that spoils a few windows moves neither. The
/// server's IO loop answers some stretches of requests from its spin
/// mode and most from its sleep mode; a low quantile over windows would
/// read whichever mode a few stretches happened to be in. The
/// whole-phase quantiles are kept beside them as diagnostics.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    pub samples: usize,
    pub windows: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    pub whole_p50_us: f64,
    pub whole_p99_us: f64,
    pub max_us: f64,
}

/// Summarises samples with windows of `window` completions each; a
/// trailing partial window shorter than half a window is dropped from
/// the windowed medians (its percentile would rest on too few samples).
pub fn summarize(samples: &mut [Sample], window: usize) -> LatencySummary {
    samples.sort_by_key(|s| s.done_us);
    let lat: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    let window = window.max(1);
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for chunk in lat.chunks(window) {
        if chunk.len() * 2 < window && !p50s.is_empty() {
            continue;
        }
        let mut c = chunk.to_vec();
        c.sort_unstable();
        p50s.push(percentile(&c, 0.50) as f64 / 1e3);
        p99s.push(percentile(&c, 0.99) as f64 / 1e3);
    }
    let mut sorted = lat.clone();
    sorted.sort_unstable();
    LatencySummary {
        samples: lat.len(),
        windows: p50s.len(),
        p50_us: median(&p50s),
        p99_us: median(&p99s),
        mean_us: mean(&lat) / 1e3,
        whole_p50_us: percentile(&sorted, 0.50) as f64 / 1e3,
        whole_p99_us: percentile(&sorted, 0.99) as f64 / 1e3,
        max_us: sorted.last().copied().unwrap_or(0) as f64 / 1e3,
    }
}

/// 64-bit FNV-1a, fed incrementally: the fingerprint of a workload's
/// generated inputs. Two runs are comparable only when their
/// fingerprints match (same seed, same generator, same scale).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn interpolated_quantiles() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        // Ten windows of 100 samples at 100 µs; one window stalls at
        // 50 ms. The whole-phase p99 jumps to the stall, the windowed
        // median does not.
        let mut s: Vec<Sample> = (0..1000u64)
            .map(|i| Sample {
                done_us: i * 10,
                latency_ns: if (300..400).contains(&i) {
                    50_000_000
                } else {
                    100_000
                },
            })
            .collect();
        let sum = summarize(&mut s, 100);
        assert_eq!(sum.windows, 10);
        assert_eq!(sum.p99_us, 100.0);
        assert_eq!(sum.whole_p99_us, 50_000.0);
        assert_eq!(sum.samples, 1000);
    }

    #[test]
    fn windows_follow_completion_order() {
        // Samples arrive out of completion order (two connections
        // appended one after the other); windows are cut by time.
        let mut s = vec![
            Sample {
                done_us: 30,
                latency_ns: 3_000,
            },
            Sample {
                done_us: 10,
                latency_ns: 1_000,
            },
            Sample {
                done_us: 20,
                latency_ns: 2_000,
            },
            Sample {
                done_us: 40,
                latency_ns: 4_000,
            },
        ];
        let sum = summarize(&mut s, 2);
        assert_eq!(sum.windows, 2);
        // Window medians are 1 and 3 µs, window p99s 2 and 4 µs.
        assert_eq!(sum.p50_us, 2.0);
        assert_eq!(sum.p99_us, 3.0);
    }

    #[test]
    fn fingerprint_is_stable() {
        let mut a = Fnv::default();
        a.str("check-hot");
        a.u64(42);
        let mut b = Fnv::default();
        b.str("check-hot");
        b.u64(42);
        assert_eq!(a.hex(), b.hex());
        // Pinned: a generator change must show up as a new fingerprint,
        // never as a silently different workload under the old one.
        let mut e = Fnv::default();
        e.bytes(b"a");
        assert_eq!(e.hex(), "af63dc4c8601ec8c");
        let mut c = Fnv::default();
        c.str("check-hot");
        c.u64(43);
        assert_ne!(a.hex(), c.hex());
    }
}
