//! Seeded inputs: a SplitMix64 stream and the perflog record generator.

use perflogs::{Fom, PerflogRecord};

/// The catalog's seven simulated partitions (the host `native` system is
/// left out: it runs real kernels at full size and measures the machine).
pub const PARTITIONS: [&str; 7] = [
    "archer2:rome",
    "cosma8:rome",
    "csd3:cascadelake",
    "isambard:xci",
    "isambard-macs:cascadelake",
    "isambard-macs:volta",
    "noctua2:milan",
];

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates distinct, valid perflog records over the catalog's
/// partitions and the CLI's benchmarks with their real FOM names.
pub struct RecordGen {
    rng: Rng,
    sequence: u64,
    benchmarks: Vec<(String, Vec<(String, String)>)>,
}

impl RecordGen {
    pub fn new(seed: u64) -> RecordGen {
        let benchmarks = benchkit::cli::benchmark_names()
            .into_iter()
            .map(|name| {
                let case = benchkit::cli::case_by_name(&name).expect("listed benchmark resolves");
                let foms = case
                    .perf_vars
                    .iter()
                    .map(|v| (v.name.clone(), v.unit.clone()))
                    .collect();
                (name, foms)
            })
            .collect();
        RecordGen {
            rng: Rng::new(seed),
            sequence: 0,
            benchmarks,
        }
    }

    /// The next record; `sequence` increases, so no two are equal.
    pub fn record(&mut self) -> PerflogRecord {
        self.sequence += 1;
        let part = PARTITIONS[self.rng.below(PARTITIONS.len() as u64) as usize];
        let (system, partition) = part.split_once(':').expect("partition has a system");
        let (benchmark, foms) =
            &self.benchmarks[self.rng.below(self.benchmarks.len() as u64) as usize];
        // A per-system scale keeps rankings non-trivial; values stay finite
        // and positive with three decimals.
        let scale = 1.0 + (system.len() % 5) as f64 * 0.25;
        let foms = foms
            .iter()
            .map(|(name, unit)| Fom {
                name: name.clone(),
                value: ((1000.0 + 9000.0 * self.rng.unit()) * scale * 1000.0).round() / 1000.0,
                unit: unit.clone(),
            })
            .collect();
        PerflogRecord {
            sequence: self.sequence,
            benchmark: benchmark.clone(),
            system: system.to_string(),
            partition: partition.to_string(),
            environ: "gcc@12.1.0".to_string(),
            spec: format!("{benchmark}%gcc@12.1.0"),
            build_hash: format!("{:07x}", self.rng.next_u64() & 0xfff_ffff),
            job_id: Some(self.sequence),
            num_tasks: 1,
            num_tasks_per_node: 1,
            num_cpus_per_task: 1 + self.rng.below(128) as u32,
            foms,
            extras: vec![("origin".to_string(), "hostbench".to_string())],
        }
    }

    /// `n` records as perflog JSONL (one canonical line each).
    pub fn jsonl(&mut self, n: usize) -> String {
        (0..n)
            .map(|_| self.record().to_json_line() + "\n")
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(9);
        let first = r.next_u64();
        assert_ne!(first, r.next_u64());
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn generator_is_deterministic_and_valid_jsonl() {
        let a = RecordGen::new(5).jsonl(200);
        assert_eq!(a, RecordGen::new(5).jsonl(200));
        assert_ne!(a, RecordGen::new(6).jsonl(200));
        let mut lines = std::collections::BTreeSet::new();
        for line in a.lines() {
            let r = PerflogRecord::from_json_line(line).expect("valid perflog line");
            assert_eq!(r.to_json_line(), line, "canonical round trip");
            assert!(!r.foms.is_empty());
            assert!(r.foms.iter().all(|f| f.value.is_finite() && f.value > 0.0));
            assert!(PARTITIONS.contains(&format!("{}:{}", r.system, r.partition).as_str()));
            assert!(lines.insert(line.to_string()), "records are distinct");
        }
        assert_eq!(lines.len(), 200);
        // The offline analysis accepts the batch as one assimilated frame.
        let frame = postproc::assimilate(&[a]).expect("assimilates");
        let ranking =
            postproc::rank_frame(&frame, &postproc::RankPolicy::default()).expect("ranks");
        assert!(ranking.render_text().starts_with("ranking 7 systems"));
    }
}
