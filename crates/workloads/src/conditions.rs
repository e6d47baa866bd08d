//! Runtime conditions — the Table-2 experiment space.
//!
//! A runtime condition fixes the *static* knobs of one profiling or
//! evaluation run: which benchmarks are collocated, each one's arrival
//! intensity (25–95% of its service rate), each one's short-term allocation
//! timeout (0–600% of service time), and the counter sampling period
//! (1 Hz – every 5 s). Dynamic conditions (queue lengths) emerge at runtime
//! and cannot be set directly, as §3.1 notes.

use crate::spec::BenchmarkId;
use stca_util::Rng64;

/// Bounds of the Table-2 condition space.
pub mod bounds {
    /// Minimum arrival intensity relative to service rate.
    pub const MIN_UTIL: f64 = 0.25;
    /// Maximum arrival intensity relative to service rate.
    pub const MAX_UTIL: f64 = 0.95;
    /// Minimum timeout (always use shared cache).
    pub const MIN_TIMEOUT: f64 = 0.0;
    /// Maximum timeout (never use short-term allocation).
    pub const MAX_TIMEOUT: f64 = 6.0;
    /// Fastest counter sampling period (1 Hz).
    pub const MIN_SAMPLE_PERIOD: f64 = 1.0;
    /// Slowest counter sampling period (every 5 seconds).
    pub const MAX_SAMPLE_PERIOD: f64 = 5.0;
}

/// Per-workload settings within a condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCondition {
    /// Which benchmark runs.
    pub benchmark: BenchmarkId,
    /// Arrival intensity relative to service rate (Table 2: 0.25–0.95).
    pub utilization: f64,
    /// STAP timeout as a multiple of service time (Table 2: 0–6).
    pub timeout_ratio: f64,
}

/// A complete static runtime condition for a collocated experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCondition {
    /// The collocated workloads (pairwise in most experiments).
    pub workloads: Vec<WorkloadCondition>,
    /// Counter sampling period in seconds (Table 2: 1–5 s).
    pub sample_period: f64,
}

impl RuntimeCondition {
    /// Pairwise condition with a shared sampling period.
    pub fn pair(
        a: BenchmarkId,
        util_a: f64,
        timeout_a: f64,
        b: BenchmarkId,
        util_b: f64,
        timeout_b: f64,
    ) -> Self {
        RuntimeCondition {
            workloads: vec![
                WorkloadCondition {
                    benchmark: a,
                    utilization: util_a,
                    timeout_ratio: timeout_a,
                },
                WorkloadCondition {
                    benchmark: b,
                    utilization: util_b,
                    timeout_ratio: timeout_b,
                },
            ],
            sample_period: 1.0,
        }
    }

    /// Validate the condition against the Table-2 bounds.
    pub fn in_bounds(&self) -> bool {
        self.workloads.iter().all(|w| {
            (bounds::MIN_UTIL..=bounds::MAX_UTIL).contains(&w.utilization)
                && (bounds::MIN_TIMEOUT..=bounds::MAX_TIMEOUT).contains(&w.timeout_ratio)
        }) && (bounds::MIN_SAMPLE_PERIOD..=bounds::MAX_SAMPLE_PERIOD).contains(&self.sample_period)
    }

    /// Draw a uniformly random in-bounds condition for the given pair.
    pub fn random_pair(a: BenchmarkId, b: BenchmarkId, rng: &mut Rng64) -> Self {
        let mut draw = || WorkloadCondition {
            benchmark: a,
            utilization: rng.next_range(bounds::MIN_UTIL, bounds::MAX_UTIL),
            timeout_ratio: rng.next_range(bounds::MIN_TIMEOUT, bounds::MAX_TIMEOUT),
        };
        let mut wa = draw();
        wa.benchmark = a;
        let mut wb = draw();
        wb.benchmark = b;
        RuntimeCondition {
            workloads: vec![wa, wb],
            sample_period: 1.0,
        }
    }

    /// Draw `n` conditions for the pair with [`RuntimeCondition::random_pair`],
    /// serially from one generator seeded with `seed` (the draw every
    /// profiling run makes before running its conditions).
    pub fn random_pairs(a: BenchmarkId, b: BenchmarkId, n: usize, seed: u64) -> Vec<Self> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| Self::random_pair(a, b, &mut rng)).collect()
    }

    /// Draw a uniformly random in-bounds condition for a chain of
    /// workloads (Figure 7b collocates more services on bigger caches).
    pub fn random_chain(benchmarks: &[BenchmarkId], rng: &mut Rng64) -> Self {
        assert!(benchmarks.len() >= 2);
        RuntimeCondition {
            workloads: benchmarks
                .iter()
                .map(|&b| WorkloadCondition {
                    benchmark: b,
                    utilization: rng.next_range(bounds::MIN_UTIL, bounds::MAX_UTIL),
                    timeout_ratio: rng.next_range(bounds::MIN_TIMEOUT, bounds::MAX_TIMEOUT),
                })
                .collect(),
            sample_period: 1.0,
        }
    }

    /// Feature-vector encoding of the *static* condition (per-workload
    /// utilization and timeout, then the sampling period). Ordering is
    /// stable; this is the `static` sub-vector of the paper's Eq. 2 profile.
    pub fn static_features(&self) -> Vec<f64> {
        let mut f = Vec::with_capacity(self.workloads.len() * 2 + 1);
        for w in &self.workloads {
            f.push(w.utilization);
            f.push(w.timeout_ratio);
        }
        f.push(self.sample_period);
        f
    }

    /// All ordered pairwise collocations of the Table-1 benchmarks
    /// (`(target, collocated)` — Figure 7a's `jac(bfs)` vs `bfs(jac)`).
    pub fn all_pairs() -> Vec<(BenchmarkId, BenchmarkId)> {
        let mut out = Vec::new();
        for &a in &BenchmarkId::ALL {
            for &b in &BenchmarkId::ALL {
                if a != b {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_constructor_and_bounds() {
        let c = RuntimeCondition::pair(BenchmarkId::Jacobi, 0.9, 1.5, BenchmarkId::Bfs, 0.5, 2.0);
        assert!(c.in_bounds());
        assert_eq!(c.workloads.len(), 2);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut c =
            RuntimeCondition::pair(BenchmarkId::Jacobi, 0.9, 1.5, BenchmarkId::Bfs, 0.5, 2.0);
        c.workloads[0].utilization = 0.99;
        assert!(!c.in_bounds());
        c.workloads[0].utilization = 0.5;
        c.workloads[1].timeout_ratio = 7.0;
        assert!(!c.in_bounds());
        c.workloads[1].timeout_ratio = 1.0;
        c.sample_period = 0.1;
        assert!(!c.in_bounds());
    }

    #[test]
    fn random_conditions_are_in_bounds() {
        let mut rng = Rng64::new(3);
        for _ in 0..100 {
            let c =
                RuntimeCondition::random_pair(BenchmarkId::Redis, BenchmarkId::Social, &mut rng);
            assert!(c.in_bounds());
            assert_eq!(c.workloads[0].benchmark, BenchmarkId::Redis);
            assert_eq!(c.workloads[1].benchmark, BenchmarkId::Social);
        }
    }

    #[test]
    fn static_features_shape() {
        let c = RuntimeCondition::pair(BenchmarkId::Knn, 0.3, 0.5, BenchmarkId::Redis, 0.6, 3.0);
        let f = c.static_features();
        assert_eq!(f, vec![0.3, 0.5, 0.6, 3.0, 1.0]);
    }

    #[test]
    fn random_chain_in_bounds() {
        let mut rng = Rng64::new(5);
        let chain = [BenchmarkId::Knn, BenchmarkId::Bfs, BenchmarkId::Redis];
        for _ in 0..50 {
            let c = RuntimeCondition::random_chain(&chain, &mut rng);
            assert!(c.in_bounds());
            assert_eq!(c.workloads.len(), 3);
            assert_eq!(c.static_features().len(), 7);
        }
    }

    #[test]
    fn all_pairs_count() {
        // 8 benchmarks, ordered pairs without self-collocation
        assert_eq!(RuntimeCondition::all_pairs().len(), 8 * 7);
    }
}
