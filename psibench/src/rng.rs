//! SplitMix64: the benchmark's own seeded generator, so every input it makes
//! follows from `--seed` alone.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `0..=max`.
    pub fn coord(&mut self, max: i64) -> i64 {
        self.below(max as usize + 1) as i64
    }

    /// A derived seed for a sub-stream (`tag` names it).
    pub fn fork(&mut self, tag: u64) -> u64 {
        self.next_u64() ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }
}
