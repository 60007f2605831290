//! Log-linear latency histogram: 256 buckets per power of two of
//! nanoseconds (under 0.4% bucket width), so a run of tens of millions of
//! sub-microsecond reads keeps every sample in a fixed 128 KiB.

use std::time::Duration;

const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;

/// The latency samples of one run.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; 64 * SUB],
            n: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize & (SUB - 1))
}

/// Lower edge and width of bucket `i`, in nanoseconds.
fn bucket(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let lower = ((SUB + (i & (SUB - 1))) as u64) << shift;
    (lower as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Adds one sample.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `q` quantile in nanoseconds, interpolated linearly inside its
    /// bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lower, width) = bucket(i);
                return lower + width * ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            }
            below += c;
        }
        0.0
    }

    /// Samples ranked above the `q` quantile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.n - ((q * self.n as f64).ceil() as u64).min(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_samples() {
        for ns in [
            0u64,
            1,
            255,
            256,
            257,
            511,
            512,
            1023,
            1024,
            123_456,
            1 << 40,
        ] {
            let (lower, width) = bucket(index(ns));
            assert!(lower <= ns as f64 && (ns as f64) < lower + width, "{ns}");
        }
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = Hist::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile(0.5) / 1e3;
        let p99 = h.quantile(0.99) / 1e3;
        assert!((p50 - 500.0).abs() < 3.0, "{p50}");
        assert!((p99 - 990.0).abs() < 5.0, "{p99}");
        assert_eq!(h.beyond(0.99), 10);
    }
}
