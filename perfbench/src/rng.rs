//! Seeded input generation: the only source of randomness in a run.
//!
//! Every schedule, query mix and feature row comes from a [`SplitMix64`]
//! stream derived from the `--seed` argument and a fixed per-stream tag,
//! so one seed always yields the same inputs.

/// SplitMix64: tiny, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream named `tag` under `seed`.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix64(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit() as f32
    }

    /// `n` values uniform in `[-1, 1)`.
    pub fn features(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.uniform(-1.0, 1.0)).collect()
    }
}

/// Send offsets (ns from the phase start) of a Poisson arrival process at
/// `rate` per second, covering `seconds`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<u64> {
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// Zipf(s) over `0..n`: index `k` has weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut SplitMix64::stream(7, 1), 1000.0, 2.0);
        let b = poisson_schedule(&mut SplitMix64::stream(7, 1), 1000.0, 2.0);
        let c = poisson_schedule(&mut SplitMix64::stream(8, 1), 1000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // About rate * seconds arrivals (4 sigma of a Poisson count).
        assert!((a.len() as f64 - 2000.0).abs() < 4.0 * 2000f64.sqrt());
    }

    #[test]
    fn streams_with_different_tags_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::stream(1, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::stream(1, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn below_and_uniform_stay_in_range() {
        let mut r = SplitMix64::stream(3, 3);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let v = r.uniform(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(4096, 1.1);
        let draw = |seed| {
            let mut r = SplitMix64::stream(seed, 9);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert!(a.iter().all(|k| *k < 4096));
        let head = a.iter().filter(|k| **k == 0).count();
        let tail = a.iter().filter(|k| **k == 4095).count();
        assert!(head > 100 * tail.max(1), "head {head} tail {tail}");
    }
}
