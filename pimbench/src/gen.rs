//! Seeded input generation. Every input a workload feeds the program —
//! tensor values and arrival times — is a pure function of
//! `(seed, stream, index)`, so a run can regenerate any request's inputs
//! for the oracle replay without storing them.

/// SplitMix64: small, fast and good enough to pick benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream, index)`.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        r.0 ^= r
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.0 ^= r
            .next_u64()
            .wrapping_add(index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64 % n.max(1)
    }

    /// Uniform float in `[lo, hi)`, never zero: the sort and max checks
    /// compare bit patterns, and `-0.0`/`+0.0` would tie.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        loop {
            let v = lo + (hi - lo) * self.unit() as f32;
            if v != 0.0 && v < hi {
                return v;
            }
        }
    }

    pub fn f32s(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32_in(lo, hi)).collect()
    }

    pub fn i32s(&mut self, n: usize) -> Vec<i32> {
        (0..n).map(|_| self.next_u64() as i32).collect()
    }
}

/// Stream identifiers, so that no two purposes draw from the same stream.
pub mod stream {
    pub const WARMUP: u64 = 1;
    pub const REQUEST: u64 = 2;
    pub const ARRIVALS: u64 = 3;
    pub const ORACLE: u64 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 2, 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 2, 3).next_u64(), Rng::new(7, 2, 4).next_u64());
        assert_ne!(Rng::new(7, 2, 3).next_u64(), Rng::new(8, 2, 3).next_u64());
        let v = Rng::new(1, 1, 1).f32s(1000, -1.0, 1.0);
        assert!(v.iter().all(|&x| x != 0.0 && (-1.0..1.0).contains(&x)));
    }
}
