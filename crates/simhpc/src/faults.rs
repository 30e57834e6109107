//! Deterministic fault injection.
//!
//! Real benchmarking campaigns on ARCHER2/CSD3-class systems lose cells to
//! node failures, job timeouts, and flaky builds. A framework that claims
//! reproducibility (P4/P5) must therefore make *failure handling itself*
//! reproducible: the same seed and fault profile must produce the same
//! faults, the same retries, and the same final report — at any worker
//! count. This module is the single source of injected faults for the
//! whole stack.
//!
//! Determinism comes from the draw keying, not from draw order: every
//! fault is drawn from a fresh [`SplitMix64`] stream seeded by the
//! `(profile, run seed, system, case, stage, attempt)` tuple via
//! [`fnv1a`]. Two workers racing over a suite grid therefore see exactly
//! the faults a serial sweep would have seen, whatever order the jobs run
//! in.

use crate::noise::{fnv1a, SplitMix64};

/// A named fault-rate profile: per-attempt probabilities of each injected
/// fault class. Profiles are identified by name so that the name can key
/// the deterministic draw streams (two profiles with equal rates but
/// different names draw differently — the name is part of the experiment).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    pub name: String,
    /// Probability that one build attempt fails transiently.
    pub build_fail_p: f64,
    /// Probability that one run attempt loses a node mid-job.
    pub node_fail_p: f64,
    /// Probability that one run attempt overruns its time limit.
    pub timeout_p: f64,
    /// Mean simulated repair time for a drained node (seconds). Zero means
    /// a drained node never comes back (the pre-heal world). The actual
    /// window for a given system is drawn once per `(profile, seed,
    /// system)` by [`FaultInjector::repair_window_s`], so every cell on
    /// that system observes the same outage length.
    pub repair_window_s: f64,
}

impl FaultProfile {
    /// The default: nothing ever fails (the pre-fault-injection world).
    pub fn none() -> FaultProfile {
        FaultProfile {
            name: "none".to_string(),
            build_fail_p: 0.0,
            node_fail_p: 0.0,
            timeout_p: 0.0,
            repair_window_s: 0.0,
        }
    }

    /// Occasional transient failures: the weather of a healthy production
    /// system. With one or two retries almost every cell still completes.
    pub fn flaky() -> FaultProfile {
        FaultProfile {
            name: "flaky".to_string(),
            build_fail_p: 0.20,
            node_fail_p: 0.12,
            timeout_p: 0.08,
            repair_window_s: 1800.0,
        }
    }

    /// A system having a very bad day; used to exercise retry exhaustion,
    /// quarantine, and fail-fast paths.
    pub fn brutal() -> FaultProfile {
        FaultProfile {
            name: "brutal".to_string(),
            build_fail_p: 0.55,
            node_fail_p: 0.35,
            timeout_p: 0.25,
            repair_window_s: 3600.0,
        }
    }

    /// Look a profile up by name (the `--fault-profile` argument).
    pub fn from_name(name: &str) -> Option<FaultProfile> {
        match name {
            "none" | "off" => Some(FaultProfile::none()),
            "flaky" => Some(FaultProfile::flaky()),
            "brutal" => Some(FaultProfile::brutal()),
            _ => None,
        }
    }

    /// Names accepted by [`FaultProfile::from_name`].
    pub fn known_names() -> &'static [&'static str] {
        &["none", "flaky", "brutal"]
    }

    /// True when no fault can ever be drawn (the fast path the default
    /// pipeline takes; it must stay byte-identical to the pre-fault code).
    pub fn is_none(&self) -> bool {
        self.build_fail_p <= 0.0 && self.node_fail_p <= 0.0 && self.timeout_p <= 0.0
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::none()
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The build stage fails transiently (spurious compiler/network error).
    BuildFail,
    /// A node dies after `at_frac` of the job's runtime has elapsed.
    NodeFail { at_frac: f64 },
    /// The job overruns its wall-time limit and is killed by the scheduler.
    Timeout,
}

/// Draws faults for one run context. Stateless between draws: each
/// `(system, case, stage, attempt)` tuple owns an independent stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    seed: u64,
}

impl FaultInjector {
    pub fn new(profile: FaultProfile, seed: u64) -> FaultInjector {
        FaultInjector { profile, seed }
    }

    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    fn stream(&self, system: &str, case: &str, stage: &str, attempt: u32) -> SplitMix64 {
        let h = fnv1a(&[
            self.profile.name.as_bytes(),
            &self.seed.to_le_bytes(),
            system.as_bytes(),
            case.as_bytes(),
            stage.as_bytes(),
            &attempt.to_le_bytes(),
        ]);
        SplitMix64::new(h)
    }

    /// Fault (if any) injected into build attempt `attempt` (1-based) of
    /// `case` on `system`.
    pub fn build_fault(&self, system: &str, case: &str, attempt: u32) -> Option<Fault> {
        if self.profile.is_none() {
            return None;
        }
        let mut rng = self.stream(system, case, "build", attempt);
        (rng.next_f64() < self.profile.build_fail_p).then_some(Fault::BuildFail)
    }

    /// Fault (if any) injected into run attempt `attempt` (1-based) of
    /// `case` on `system`.
    pub fn run_fault(&self, system: &str, case: &str, attempt: u32) -> Option<Fault> {
        if self.profile.is_none() {
            return None;
        }
        let mut rng = self.stream(system, case, "run", attempt);
        let u = rng.next_f64();
        if u < self.profile.node_fail_p {
            // Fail somewhere strictly inside the run, never at 0 or 100%.
            Some(Fault::NodeFail {
                at_frac: 0.05 + 0.9 * rng.next_f64(),
            })
        } else if u < self.profile.node_fail_p + self.profile.timeout_p {
            Some(Fault::Timeout)
        } else {
            None
        }
    }

    /// The simulated repair window (seconds) for a drained node on
    /// `system`. The draw is keyed only by `(profile, seed, system)` — not
    /// by case or attempt — so every cell the suite runs on that system
    /// sees the *same* outage length: node failures are correlated per
    /// system, exactly like a real partition waiting on one repair ticket.
    /// The window is jittered in `[0.5, 1.5)`× the profile mean and is
    /// zero when the profile cannot fail nodes or never repairs them.
    pub fn repair_window_s(&self, system: &str) -> f64 {
        if self.profile.is_none() || self.profile.repair_window_s <= 0.0 {
            return 0.0;
        }
        let h = fnv1a(&[
            self.profile.name.as_bytes(),
            &self.seed.to_le_bytes(),
            system.as_bytes(),
            b"repair",
        ]);
        let mut rng = SplitMix64::new(h);
        self.profile.repair_window_s * (0.5 + rng.next_f64())
    }
}

/// Bounded exponential backoff (simulated seconds) before retry number
/// `retry` (1-based): 30 s, 60 s, 120 s, ... capped at 480 s. Deliberately
/// jitter-free so that retry schedules replay byte-identically.
pub fn backoff_s(retry: u32) -> f64 {
    let exp = retry.saturating_sub(1).min(16);
    (30.0 * f64::from(1u32 << exp)).min(480.0)
}

/// Scales the *wall-clock* sleep of [`backoff_sleep`] without touching its
/// accounting. Tests and CI set it to `0` so engine retries are instant;
/// the charged time-lost stays the nominal schedule either way, keeping
/// reports byte-identical across machines and scales.
pub const BACKOFF_SCALE_ENV: &str = "BENCHKIT_ENGINE_BACKOFF_SCALE";

/// The wall-clock scale from [`BACKOFF_SCALE_ENV`]: any finite value
/// ≥ 0, otherwise 1.
pub fn wall_scale() -> f64 {
    std::env::var(BACKOFF_SCALE_ENV)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
        .unwrap_or(1.0)
}

/// Really sleep `nominal_s × scale` seconds, capped at 480 s, and return
/// `nominal_s` — the seconds to charge to time-lost accounting, never the
/// measured elapsed time, so reports stay deterministic.
pub fn sleep_scaled(nominal_s: f64, scale: f64) -> f64 {
    let actual = (nominal_s * scale).min(480.0);
    if actual > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(actual));
    }
    nominal_s
}

/// Wall-clock backoff for the external-engine path: really sleeps (the
/// subprocess is a real process, not a simulated job), on the same
/// jitter-free 30·2ⁿ ≤ 480 s schedule as [`backoff_s`], scaled by
/// [`wall_scale`]. Returns the nominal seconds (see [`sleep_scaled`]).
pub fn backoff_sleep(retry: u32) -> f64 {
    sleep_scaled(backoff_s(retry), wall_scale())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_never_faults() {
        let inj = FaultInjector::new(FaultProfile::none(), 42);
        for attempt in 1..100 {
            assert_eq!(inj.build_fault("archer2", "hpgmg", attempt), None);
            assert_eq!(inj.run_fault("archer2", "hpgmg", attempt), None);
        }
    }

    #[test]
    fn draws_are_deterministic_and_keyed() {
        let inj = FaultInjector::new(FaultProfile::brutal(), 7);
        let a: Vec<_> = (1..50).map(|i| inj.run_fault("csd3", "x", i)).collect();
        let b: Vec<_> = (1..50).map(|i| inj.run_fault("csd3", "x", i)).collect();
        assert_eq!(a, b, "same key, same faults");
        let c: Vec<_> = (1..50).map(|i| inj.run_fault("archer2", "x", i)).collect();
        assert_ne!(a, c, "different system, different stream");
        let d: Vec<_> = (1..50)
            .map(|i| FaultInjector::new(FaultProfile::brutal(), 8).run_fault("csd3", "x", i))
            .collect();
        assert_ne!(a, d, "different seed, different stream");
    }

    #[test]
    fn draw_order_is_irrelevant() {
        // The suite-parallelism guarantee: draws commute because each key
        // owns its stream.
        let inj = FaultInjector::new(FaultProfile::brutal(), 3);
        let forward: Vec<_> = (1..20).map(|i| inj.run_fault("s", "c", i)).collect();
        let mut reverse: Vec<_> = (1..20).rev().map(|i| inj.run_fault("s", "c", i)).collect();
        reverse.reverse();
        assert_eq!(forward, reverse);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let inj = FaultInjector::new(FaultProfile::flaky(), 11);
        let n = 5000;
        let build_faults = (1..=n)
            .filter(|&i| inj.build_fault("sys", "case", i).is_some())
            .count();
        let frac = build_faults as f64 / n as f64;
        assert!((frac - 0.20).abs() < 0.03, "build fault rate {frac}");
        let mut node = 0;
        let mut timeout = 0;
        for i in 1..=n {
            match inj.run_fault("sys", "case", i) {
                Some(Fault::NodeFail { at_frac }) => {
                    assert!((0.05..0.95).contains(&at_frac));
                    node += 1;
                }
                Some(Fault::Timeout) => timeout += 1,
                Some(Fault::BuildFail) => panic!("run stage cannot draw build faults"),
                None => {}
            }
        }
        assert!((node as f64 / n as f64 - 0.12).abs() < 0.03);
        assert!((timeout as f64 / n as f64 - 0.08).abs() < 0.03);
    }

    #[test]
    fn profile_lookup() {
        assert_eq!(
            FaultProfile::from_name("flaky"),
            Some(FaultProfile::flaky())
        );
        assert_eq!(FaultProfile::from_name("off"), Some(FaultProfile::none()));
        assert!(FaultProfile::from_name("nope").is_none());
        assert!(FaultProfile::none().is_none());
        assert!(!FaultProfile::flaky().is_none());
        for name in FaultProfile::known_names() {
            assert!(FaultProfile::from_name(name).is_some());
        }
    }

    #[test]
    fn repair_window_is_deterministic_per_system_and_zero_when_unfaulted() {
        let inj = FaultInjector::new(FaultProfile::flaky(), 9);
        let w = inj.repair_window_s("archer2");
        assert_eq!(w, inj.repair_window_s("archer2"), "same key, same window");
        assert!(
            (900.0..2700.0).contains(&w),
            "window {w} within jitter band of the profile mean"
        );
        assert_ne!(
            w,
            inj.repair_window_s("csd3"),
            "different system, different outage"
        );
        assert_ne!(
            w,
            FaultInjector::new(FaultProfile::flaky(), 10).repair_window_s("archer2"),
            "different seed, different outage"
        );
        let none = FaultInjector::new(FaultProfile::none(), 9);
        assert_eq!(none.repair_window_s("archer2"), 0.0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_s(1), 30.0);
        assert_eq!(backoff_s(2), 60.0);
        assert_eq!(backoff_s(3), 120.0);
        assert_eq!(backoff_s(5), 480.0, "capped");
        assert_eq!(backoff_s(40), 480.0, "no overflow at silly retry counts");
    }

    #[test]
    fn backoff_sleep_charges_nominal_seconds_regardless_of_scale() {
        // Scale 0 ⇒ no wall-clock sleep, but the charged (returned) time
        // is still the nominal schedule so accounting is deterministic.
        let started = std::time::Instant::now();
        assert_eq!(sleep_scaled(backoff_s(1), 0.0), 30.0);
        assert_eq!(sleep_scaled(backoff_s(3), 0.0), 120.0);
        assert_eq!(sleep_scaled(backoff_s(40), 0.0), 480.0);
        // A tiny scale really sleeps, yet still charges the nominal time.
        assert_eq!(sleep_scaled(backoff_s(1), 1e-4), 30.0);
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }
}
