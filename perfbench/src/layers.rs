//! Per-layer measurement from outside the program: deltas of the counts
//! and histograms the `stca_obs` registry already records, a timing
//! wrapper around the model the serving loop is handed, and probes of
//! the cache simulator's and the deep-forest cascade's public calls.

use stca_obs::metrics::Metric;
use stca_serve::EaModel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A point-in-time copy of every registry counter and histogram
/// (count, sum).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl Snapshot {
    /// Copy the process-global registry.
    pub fn take() -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, metric) in stca_obs::registry().snapshot() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name, c.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name, (h.count(), h.sum()));
                }
                Metric::Gauge(_) => {}
            }
        }
        snap
    }
}

/// Registry activity accumulated over one or more measured intervals.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl Delta {
    /// Add the activity between `before` and `after`.
    pub fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for (name, &v) in &after.counters {
            let base = before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_default() += v - base;
        }
        for (name, &(count, sum)) in &after.histograms {
            let (c0, s0) = before.histograms.get(name).copied().unwrap_or((0, 0.0));
            let e = self.histograms.entry(name.clone()).or_default();
            e.0 += count - c0;
            e.1 += sum - s0;
        }
    }

    /// Fold in another interval's activity.
    pub fn merge(&mut self, other: Delta) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, (count, sum)) in other.histograms {
            let e = self.histograms.entry(name).or_default();
            e.0 += count;
            e.1 += sum;
        }
    }

    /// Counter increase.
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram (samples, sum) increase.
    pub fn hist(&self, name: &str) -> (u64, f64) {
        self.histograms.get(name).copied().unwrap_or((0, 0.0))
    }

    /// Histogram (samples, sum) increase over every histogram whose name
    /// ends with `suffix` (per-shard families such as
    /// `serve.shard3.adapt.retrain_seconds`).
    pub fn hist_family(&self, suffix: &str) -> (u64, f64) {
        self.histograms
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .fold((0, 0.0), |acc, (_, &(c, s))| (acc.0 + c, acc.1 + s))
    }
}

/// Calls and busy nanoseconds of one model entry point.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStats {
    fn record(&self, since: Instant) {
        // statistics only: nothing else is published through these
        self.nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// (calls, busy seconds).
    pub fn get(&self) -> (u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }
}

/// The benchmark's timing wrapper around the model a serving loop is
/// handed: it forwards every call unchanged and times it.
pub struct TimedModel<'a> {
    inner: &'a dyn EaModel,
    /// `predict_primary` calls.
    pub primary: CallStats,
    /// `predict_degraded` calls.
    pub degraded: CallStats,
}

impl<'a> TimedModel<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn EaModel) -> TimedModel<'a> {
        TimedModel {
            inner,
            primary: CallStats::default(),
            degraded: CallStats::default(),
        }
    }
}

impl EaModel for TimedModel<'_> {
    fn predict_primary(&self, features: &[f64]) -> Result<f64, stca_fault::StcaError> {
        let t = Instant::now();
        let out = self.inner.predict_primary(features);
        self.primary.record(t);
        out
    }

    fn predict_degraded(&self, features: &[f64]) -> (f64, u8) {
        let t = Instant::now();
        let out = self.inner.predict_degraded(features);
        self.degraded.record(t);
        out
    }
}

/// What a workload's layer probes measured after its traced passes; 0
/// for a layer the workload does not reach.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `Hierarchy::access`, ns per call.
    pub cachesim_ns_per_access: f64,
    /// `Cascade::predict` on a lifecycle-shaped cascade, ns per call.
    pub cascade_predict_ns: f64,
}

/// The shape of the serving lifecycle's retrain candidates
/// (`RETRAIN_CASCADE` in `stca_serve::adapt`, which is private): every
/// promoted or shadow-scored model is one of these.
const LIFECYCLE_CASCADE: stca_deepforest::CascadeConfig = stca_deepforest::CascadeConfig {
    levels: 1,
    forests_per_level: 2,
    trees_per_forest: 12,
    folds: 2,
    bins: Some(32),
    reference: false,
};

/// Nanoseconds per `Cascade::predict` on a lifecycle-shaped cascade: it
/// is fitted on one retrain window of the spec's request stream, with the
/// analytic EA the serving loop observes as the target, and then predicts
/// those rows in turn. The lifecycle's own predictions (promoted models
/// serving, candidates being shadow-scored) run inside the serving loop
/// where no wrapper can reach them; this probe prices them.
pub fn cascade_predict_ns(spec: &stca_scenario::ScenarioSpec, predicts: usize) -> f64 {
    use stca_deepforest::Cascade;
    use stca_serve::{AnalyticEa, EaModel};
    let window = (spec.adapt.window as usize).max(2);
    let (requests, _) = stca_scenario::convert::synthetic_stream(spec).chunk(0, window, 0.0);
    let rows: Vec<Vec<f64>> = requests.into_iter().map(|r| r.features).collect();
    let analytic = AnalyticEa::default();
    let y: Vec<f64> = rows
        .iter()
        .map(|f| analytic.predict_degraded(f).0)
        .collect();
    let x = stca_util::Matrix::from_rows(&rows);
    let stream = stca_util::SeedStream::new(spec.serve.seed);
    let model = Cascade::fit(&x, &y, LIFECYCLE_CASCADE, &stream);
    let run = |n: usize| {
        let mut acc = 0.0;
        for row in rows.iter().cycle().take(n) {
            acc += model.predict(row);
        }
        std::hint::black_box(acc)
    };
    // the first tenth warms the scratch buffers and caches, untimed
    run(predicts / 10);
    let t = Instant::now();
    run(predicts);
    t.elapsed().as_secs_f64() * 1e9 / predicts as f64
}

/// Nanoseconds per `Hierarchy::access` for a collocated pair: each
/// workload's `AccessGenerator` fills an address stream under the spec's
/// CAT layout at the default (unboosted) allocation, then only the
/// access calls are timed, in the profiler's round-robin quanta.
pub fn cachesim_ns_per_access(spec: &stca_scenario::ScenarioSpec, accesses: usize) -> f64 {
    use stca_cachesim::Hierarchy;
    use stca_workloads::{AccessGenerator, WorkloadSpec};
    const QUANTUM: usize = 64;
    let config = stca_core::pipeline::hierarchy_config(spec);
    let layout = stca_core::pipeline::experiment_layout(spec);
    let policies = layout.policies(&[1.0, 1.0]);
    let seed = spec.profile.seed;
    let mut hier = Hierarchy::new(config, seed);
    let pair = [spec.workloads.pair.0, spec.workloads.pair.1];
    let mut streams = Vec::with_capacity(pair.len());
    for (i, (bench, policy)) in pair.iter().zip(&policies).enumerate() {
        let w = WorkloadSpec::for_benchmark(*bench);
        let cbm = policy
            .default
            .to_cbm(config.llc.ways)
            .expect("the spec's layout fits its LLC");
        hier.set_llc_mask(i as u32, cbm);
        let mut gen = AccessGenerator::new(
            w.pattern_for(&config),
            (i as u64 + 1) << 42,
            w.store_fraction,
            seed ^ ((i as u64 + 1) << 24),
        );
        streams.push(
            (0..accesses / 2)
                .map(|_| gen.next_access())
                .collect::<Vec<_>>(),
        );
    }
    let run = |hier: &mut Hierarchy, range: std::ops::Range<usize>| {
        let mut served = 0u64;
        let stop = range.end;
        for start in range.step_by(QUANTUM) {
            for (w, stream) in streams.iter().enumerate() {
                let end = (start + QUANTUM).min(stop);
                for &(addr, kind) in &stream[start..end] {
                    served += hier.access(w as u32, addr, kind) as u64;
                }
            }
        }
        std::hint::black_box(served)
    };
    // the first tenth warms the caches and is not timed
    let warm = accesses / 20 / QUANTUM * QUANTUM;
    run(&mut hier, 0..warm);
    let t = Instant::now();
    run(&mut hier, warm..accesses / 2);
    let timed = 2 * (accesses / 2 - warm);
    t.elapsed().as_secs_f64() * 1e9 / timed as f64
}
