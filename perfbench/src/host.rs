//! Host speed, measured beside the workload. A shared host runs the same
//! code up to about twice as fast at one moment as at another (other
//! tenants on sibling cores, clock changes), for seconds to minutes at a
//! time, which no run length averages out. So the timed phase and each
//! set-up are interleaved with a fixed piece of benchmark-side work, the
//! reference kernel, and every time the benchmark reports is scaled to a
//! host on which a probe of it takes [`REFERENCE_NS`]. The kernel calls no
//! fundb code and is timed only once its data is back in cache, so a
//! change to the system, its memory use included, moves the scaled times
//! exactly as it moves the raw ones. The kernel slows somewhat less than
//! the workloads do when the host is slow (by about 1.3x where they slow by
//! 1.4-1.5x), so scaling removes most of the host's swing, not all of it.

use std::hint::black_box;
use std::time::Instant;

/// One probe's time on the reference host, in nanoseconds: scaled times
/// are what the raw ones would be on a host where a probe takes this long.
/// A probe took 0.31-0.48 ms on the 2-CPU cloud VM the benchmark was tuned
/// on, so scaled times there read close to raw ones.
pub const REFERENCE_NS: f64 = 4e5;

/// Slots of the kernel's hash table (`u64` each, 32 KiB: it stays in a
/// core's private caches, so only the core's speed shows).
const SLOTS: usize = 1 << 12;
/// Keys inserted and then probed per kernel run.
const KEYS: usize = 1 << 11;
/// Small vectors allocated, filled and freed per kernel run.
const ALLOCS: usize = 1 << 7;
/// Kernel runs timed per probe, after one untimed run that brings the
/// kernel's data back into cache.
const REPS: usize = 8;

/// Runs the reference kernel and keeps its probe times.
#[derive(Debug)]
pub struct HostClock {
    table: Vec<u64>,
    keys: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::new()
    }
}

impl HostClock {
    /// A clock with no timings yet.
    pub fn new() -> HostClock {
        HostClock {
            table: vec![0; SLOTS],
            keys: Vec::with_capacity(KEYS),
            samples: Vec::new(),
        }
    }

    /// Warms the kernel's data, then times [`REPS`] kernel runs; keeps
    /// and returns that time in nanoseconds.
    pub fn probe(&mut self) -> f64 {
        black_box(kernel(&mut self.table, &mut self.keys));
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(kernel(&mut self.table, &mut self.keys));
        }
        let ns = t.elapsed().as_nanos() as f64;
        self.samples.push(ns);
        ns
    }

    /// Probes `n` times.
    pub fn probe_n(&mut self, n: usize) {
        for _ in 0..n {
            self.probe();
        }
    }

    /// Median probe time in nanoseconds (the reference time before any
    /// probe).
    pub fn median_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return REFERENCE_NS;
        }
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        let m = v.len() / 2;
        if v.len() % 2 == 1 {
            v[m]
        } else {
            (v[m - 1] + v[m]) / 2.0
        }
    }

    /// Factor that turns a raw time measured beside these kernel runs into
    /// a time on the reference host.
    pub fn scale(&self) -> f64 {
        REFERENCE_NS / self.median_ns()
    }

    /// Forgets the timings, keeping the buffers.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

/// The reference kernel: the same work on every call, from a fixed seed.
/// Multiplicative hashing, linear-probing inserts and lookups, a sort, and
/// small allocations: the mix of work a datalog engine's joins, indexes
/// and row vectors do.
fn kernel(table: &mut [u64], keys: &mut Vec<u64>) -> u64 {
    let mask = table.len() - 1;
    table.fill(0);
    keys.clear();
    let mut z = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..KEYS {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        keys.push(z | 1);
    }
    let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
    for &k in keys.iter() {
        let mut i = slot(k);
        while table[i] != 0 && table[i] != k {
            i = (i + 1) & mask;
        }
        table[i] = k;
    }
    let mut found = 0u64;
    for (n, &k) in keys.iter().enumerate() {
        // Every other probe is for a key that is absent.
        let k = if n % 2 == 0 { k } else { k ^ 2 };
        let mut i = slot(k);
        while table[i] != 0 {
            if table[i] == k {
                found += 1;
                break;
            }
            i = (i + 1) & mask;
        }
    }
    keys.sort_unstable();
    let mut sum = found ^ keys[KEYS / 2];
    for n in 0..ALLOCS {
        let v: Vec<u32> = (0..(n % 16 + 1) as u32).map(|x| x ^ n as u32).collect();
        sum = sum.wrapping_add(black_box(v).iter().map(|&x| u64::from(x)).sum::<u64>());
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let (mut table, mut keys) = (vec![0; SLOTS], Vec::new());
        let first = kernel(&mut table, &mut keys);
        assert_eq!(kernel(&mut table, &mut keys), first);
    }

    #[test]
    fn the_scale_is_reference_over_median() {
        let mut clock = HostClock::new();
        assert_eq!(clock.scale(), 1.0);
        clock.samples = vec![4.0 * REFERENCE_NS, REFERENCE_NS, 2.0 * REFERENCE_NS];
        assert_eq!(clock.scale(), 0.5);
    }
}
