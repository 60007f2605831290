//! SplitMix64: a small seeded generator, so every input the benchmark makes
//! is a pure function of its `--seed` argument.

/// A seeded pseudo-random stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `salt` separates the streams of different
    /// workloads drawn from one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` sizes spread evenly over `lo..hi`, in seeded order. Every
    /// seed draws the same multiset of sizes, so the work of a whole cycle
    /// of a stream, and the quantiles over it, do not move with the seed;
    /// the seed changes which size comes when.
    pub fn spread(&mut self, lo: usize, hi: usize, count: usize) -> Vec<usize> {
        let mut sizes: Vec<usize> = (0..count).map(|k| lo + k * (hi - lo) / count).collect();
        self.shuffle(&mut sizes);
        sizes
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A constant-name prefix derived from the seed, so each seed's programs
/// intern different symbols.
pub fn tag(seed: u64) -> String {
    format!("K{}v", seed % 100_000)
}
