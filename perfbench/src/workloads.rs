//! The three benchmark workloads. Each is a catalog scenario embedded as
//! text, with `@SEED@` standing for the `--seed` argument, split into a
//! set-up (untimed inputs) and a timed pass that calls the program's
//! public API exactly as `stca scenario run` does.

use crate::layers::{Delta, Probes, Snapshot, TimedModel};
use stca_core::pipeline::{profile_conditions, train_predictor, train_predictor_seeded};
use stca_core::{PolicyExplorer, Predictor, ServingPredictor};
use stca_profiler::profile::ProfileSet;
use stca_scenario::{convert, ScenarioSpec};
use stca_serve::{AnalyticEa, EaModel};
use std::time::Instant;

/// Workload names, in the order the benchmark lists them.
pub const NAMES: [&str; 3] = ["policy-search", "serve-trained", "fleet-drift"];

/// `examples/scenarios/policy-sweep.stca` with 16 conditions, so the 32
/// profile rows make `model = "auto"` pick the standard cascade.
const POLICY_SEARCH: &str = r#"
[scenario]
name = "bench-policy-search"
pipeline = ["profile", "dataset", "train", "explore"]

[workloads]
pair = "redis,social"

[profile]
conditions = 16
seed = @SEED@

[train]
model = "auto"
seed = 7

[explore]
utilization = 0.85
grid = [0.25, 0.5, 1.0, 2.0, 4.0]
"#;

/// The `serve-heavy.stca` profile shape (4 kmeans,bfs conditions) with
/// the standard model, served at `table1-baseline.stca` load with no
/// fault plan. The seed drives the arrival stream only: the model is
/// always trained on the catalog's profile seed, because the trees grown
/// from other rows differ in depth and move the MGS cost per request by
/// up to 2x between seeds, which would swamp any change being measured.
const SERVE_TRAINED: &str = r#"
[scenario]
name = "bench-serve-trained"
pipeline = ["profile", "train", "serve"]

[workloads]
pair = "kmeans,bfs"

[profile]
conditions = 4
seed = 2022

[train]
model = "standard"
seed = 7

[serve]
requests = 10000
rate = 200
deadline_s = 0.5
seed = @SEED@
predictor = "trained"
"#;

/// `examples/scenarios/drift-heavy.stca` at 1M requests with tracing off.
/// The seed drives the arrival stream (and the breaker and per-shard
/// seeds derived from it); the fault plan keeps the catalog's seed, so
/// every run meets the same drift bursts and retrain faults. The
/// `[workloads]`/`[profile]` sections only shape the held-out rows the
/// served model's EA error is measured on.
const FLEET_DRIFT: &str = r#"
[scenario]
name = "bench-fleet-drift"
pipeline = ["serve"]

[workloads]
pair = "kmeans,bfs"

[profile]
seed = 2022

[fault]
plan = "drift_burst=0.8,retrain_fail=0.15,retrain_slow=0.15,promote_corrupt=0.5,seed=2022"

[serve]
requests = 1000000
rate = 1200
deadline_s = 0.25
queue_capacity = 32
seed = @SEED@
predictor = "analytic"

[serve.fleet]
shards = 4
router = "rendezvous"
reroute_max = 2

[serve.adapt]
enabled = true
epoch_s = 2
window = 128
min_samples = 32
drift_threshold = 1.5
shadow_requests = 32
agree_tol = 0.25
promote_agreement = 0.5
guard_requests = 64
guard_band = 1.5
history = 4
"#;

/// Conditions profiled under a different seed for the EA-error check.
const HELD_OUT_CONDITIONS: u64 = 4;

/// Seed of the held-out rows: the same test set for every run seed, and
/// never a catalog training seed.
const HELD_OUT_SEED: u64 = 0x4E1D_0000_0000_07E6;

/// The serve seed the pipeline's trained-serve path would train the
/// serve-trained model with (`serve.seed` of the catalog scenario).
const MODEL_SEED: u64 = 2022;

/// (workload, seed, [(output, exact text)]).
pub type Recorded = (&'static str, u64, &'static [(&'static str, &'static str)]);

/// Outputs recorded on the default seed. A run on it must reproduce them
/// exactly; other seeds get the seed-independent checks and the
/// pass-to-pass repeat check only.
pub const RECORDED: &[Recorded] = &[
    (
        "policy-search",
        crate::DEFAULT_SEED,
        &[
            ("timeout_a", "3fd0000000000000"),
            ("timeout_b", "3fd0000000000000"),
            ("profiles_fnv", "8a167af05052230e"),
        ],
    ),
    (
        "serve-trained",
        crate::DEFAULT_SEED,
        &[("decision_hash", "6d134a357925af2a"), ("balanced", "true")],
    ),
    (
        "fleet-drift",
        crate::DEFAULT_SEED,
        &[("decision_hash", "b516b4010a093a1f"), ("balanced", "true")],
    ),
];

/// What one workload's set-up produced.
pub struct Setup<I> {
    /// The timed section's inputs.
    pub inputs: I,
    /// Wall seconds spent building them.
    pub secs: f64,
    /// EA error of the served model, when it is known at set-up.
    pub ea_mae: Option<f64>,
}

/// What one timed pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall seconds of the timed call(s).
    pub wall_s: f64,
    /// Outputs that must repeat exactly, rendered as text.
    pub outputs: Vec<(&'static str, String)>,
    /// Seed-independent checks that failed.
    pub violations: Vec<String>,
    /// Units that succeeded, and units attempted, for `ok_frac`.
    pub ok: (u64, u64),
    /// EA error of the model trained in this pass, if any.
    pub ea_mae: Option<f64>,
    /// Deterministic results reported alongside the metrics.
    pub results: Vec<(&'static str, f64)>,
    /// Per-layer measurements (traced passes only).
    pub layer: Option<LayerRaw>,
}

/// Raw per-layer measurements of traced passes, summed over passes.
#[derive(Debug, Default)]
pub struct LayerRaw {
    /// Traced passes summed here.
    pub passes: u64,
    /// Wall seconds of the timed calls.
    pub wall: f64,
    /// Self-time tree rows (seconds), in tree order.
    pub rows: Vec<(&'static str, f64)>,
    /// Registry activity during the timed calls.
    pub delta: Delta,
    /// Model wrapper (calls, seconds): primary, then degraded.
    pub primary: (u64, f64),
    /// See `primary`.
    pub degraded: (u64, f64),
    /// Requests offered to the serving loop.
    pub requests: u64,
    /// Counts the program reports in its own result structs.
    pub counts: Vec<(&'static str, u64)>,
}

impl LayerRaw {
    /// Fold another pass in.
    pub fn merge(&mut self, other: LayerRaw) {
        self.passes += other.passes;
        self.wall += other.wall;
        for (name, secs) in other.rows {
            match self.rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => r.1 += secs,
                None => self.rows.push((name, secs)),
            }
        }
        self.delta.merge(other.delta);
        self.primary.0 += other.primary.0;
        self.primary.1 += other.primary.1;
        self.degraded.0 += other.degraded.0;
        self.degraded.1 += other.degraded.1;
        self.requests += other.requests;
        for (name, v) in other.counts {
            match self.counts.iter_mut().find(|c| c.0 == name) {
                Some(c) => c.1 += v,
                None => self.counts.push((name, v)),
            }
        }
    }
}

fn spec_for(text: &str, seed: u64) -> Result<ScenarioSpec, String> {
    let text = text.replace("@SEED@", &seed.to_string());
    stca_scenario::parse_str(&text, "embedded benchmark scenario").map_err(|e| e.to_string())
}

/// Rows of the spec's pair profiled under the held-out seed: never
/// trained on.
fn held_out_profiles(spec: &ScenarioSpec) -> Result<ProfileSet, String> {
    let mut held = spec.clone();
    held.profile.seed = HELD_OUT_SEED;
    held.profile.conditions = HELD_OUT_CONDITIONS;
    profile_conditions(&held, None).map_err(|e| e.to_string())
}

/// Mean |predicted − observed| EA over `rows`.
fn mean_abs_error(
    rows: &ProfileSet,
    predict: impl Fn(&stca_profiler::profile::ProfileRow) -> f64,
) -> f64 {
    let total: f64 = rows.rows.iter().map(|r| (predict(r) - r.ea).abs()).sum();
    total / rows.len() as f64
}

fn predictor_mae(predictor: &Predictor, rows: &ProfileSet) -> f64 {
    mean_abs_error(rows, |r| predictor.predict_ea(r))
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn fnv(text: &str) -> u64 {
    stca_scenario::fnv1a(text.as_bytes())
}

// ---------------------------------------------------------------- policy-search

/// Inputs of the policy-search pass.
pub struct PolicyInputs {
    spec: ScenarioSpec,
    held_out: ProfileSet,
}

/// Parse the spec and profile the held-out rows.
pub fn policy_setup(seed: u64) -> Result<Setup<PolicyInputs>, String> {
    let t = Instant::now();
    let spec = spec_for(POLICY_SEARCH, seed)?;
    let held_out = held_out_profiles(&spec)?;
    Ok(Setup {
        secs: t.elapsed().as_secs_f64(),
        inputs: PolicyInputs { spec, held_out },
        ea_mae: None,
    })
}

/// Profile → train → explore: the time from a spec to a chosen STAP.
pub fn policy_pass(inp: &PolicyInputs, traced: bool) -> Result<PassOut, String> {
    let spec = &inp.spec;
    let (a, b) = spec.workloads.pair;
    let before = traced.then(Snapshot::take);
    let t0 = Instant::now();
    let set = profile_conditions(spec, None).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let predictor = train_predictor(spec, &set);
    let t2 = Instant::now();
    let explorer = PolicyExplorer::new(&predictor, &set, a, b, spec.explore.utilization);
    let t3 = Instant::now();
    let chosen = explorer.explore_with_grid(&spec.explore.grid);
    let t4 = Instant::now();
    let wall_s = (t4 - t0).as_secs_f64();

    let layer = before.map(|before| {
        let mut delta = Delta::default();
        delta.add(&before, &Snapshot::take());
        LayerRaw {
            passes: 1,
            wall: wall_s,
            rows: vec![
                ("profile", (t1 - t0).as_secs_f64()),
                ("train", (t2 - t1).as_secs_f64()),
                ("explore", (t4 - t3).as_secs_f64()),
            ],
            delta,
            ..LayerRaw::default()
        }
    });

    let attempted = spec.profile.conditions;
    // every profiled condition contributes one row per collocated workload
    let profiled = (set.len() / 2) as u64;
    let p95 = chosen.predicted_a.max(chosen.predicted_b);
    let mut violations = Vec::new();
    let grid = &spec.explore.grid;
    if !grid.contains(&chosen.timeout_a) || !grid.contains(&chosen.timeout_b) {
        violations.push(format!(
            "chosen timeouts ({}, {}) are not on the grid",
            chosen.timeout_a, chosen.timeout_b
        ));
    }
    if !(p95.is_finite() && p95 > 0.0) {
        violations.push(format!("predicted p95 {p95} is not a positive number"));
    }
    if profiled > attempted || profiled == 0 {
        violations.push(format!("{profiled} of {attempted} conditions profiled"));
    }
    Ok(PassOut {
        wall_s,
        outputs: vec![
            ("timeout_a", hex(chosen.timeout_a.to_bits())),
            ("timeout_b", hex(chosen.timeout_b.to_bits())),
            (
                "profiles_fnv",
                hex(fnv(&stca_profiler::storage::to_string(&set))),
            ),
        ],
        violations,
        ok: (profiled, attempted),
        ea_mae: Some(predictor_mae(&predictor, &inp.held_out)),
        results: vec![
            ("policy_p95_norm", p95),
            ("timeout_a", chosen.timeout_a),
            ("timeout_b", chosen.timeout_b),
            ("profile_rows", set.len() as f64),
        ],
        layer,
    })
}

/// The cache simulator's cost per access under policy-search's pair and
/// CAT layout.
pub fn policy_probes(inp: &PolicyInputs) -> Probes {
    Probes {
        cachesim_ns_per_access: crate::layers::cachesim_ns_per_access(&inp.spec, 1_000_000),
        ..Probes::default()
    }
}

// ---------------------------------------------------------------- serving

/// Inputs of a serving pass: the spec and the model it serves.
pub struct ServeInputs {
    spec: ScenarioSpec,
    model: Box<dyn EaModel>,
}

/// Profile 4 conditions, train the standard model on them, and profile
/// the held-out rows.
pub fn serve_trained_setup(seed: u64) -> Result<Setup<ServeInputs>, String> {
    let t = Instant::now();
    let spec = spec_for(SERVE_TRAINED, seed)?;
    let set = profile_conditions(&spec, None).map_err(|e| e.to_string())?;
    let predictor = train_predictor_seeded(&spec, &set, MODEL_SEED);
    let held_out = held_out_profiles(&spec)?;
    let secs = t.elapsed().as_secs_f64();
    let ea_mae = predictor_mae(&predictor, &held_out);
    let model = ServingPredictor::new(predictor, set.rows[0].clone());
    Ok(Setup {
        inputs: ServeInputs {
            spec,
            model: Box::new(model),
        },
        secs,
        ea_mae: Some(ea_mae),
    })
}

/// The analytic model and the held-out rows its EA error is measured on.
pub fn fleet_drift_setup(seed: u64) -> Result<Setup<ServeInputs>, String> {
    let t = Instant::now();
    let spec = spec_for(FLEET_DRIFT, seed)?;
    let held_out = held_out_profiles(&spec)?;
    let secs = t.elapsed().as_secs_f64();
    let model = AnalyticEa::default();
    // a profile row's serving feature is l_a / l_a', the inverse of its
    // allocation ratio (the convention `ServingPredictor` converts back)
    let ea_mae = mean_abs_error(&held_out, |r| {
        model
            .predict_primary(&[1.0 / r.allocation_ratio])
            .expect("the analytic model never fails")
    });
    Ok(Setup {
        inputs: ServeInputs {
            spec,
            model: Box::new(model),
        },
        secs,
        ea_mae: Some(ea_mae),
    })
}

fn model_layer(
    timed: Option<&TimedModel>,
    before: Option<Snapshot>,
    wall_s: f64,
    requests: u64,
    counts: Vec<(&'static str, u64)>,
) -> Option<LayerRaw> {
    let (timed, before) = (timed?, before?);
    let mut delta = Delta::default();
    delta.add(&before, &Snapshot::take());
    let primary = timed.primary.get();
    let degraded = timed.degraded.get();
    // every queuesim run inside a serving call is a policy validation sim
    let validation = delta.hist("queuesim.run_seconds").1;
    let adapt = delta.hist_family("adapt.retrain_seconds").1;
    Some(LayerRaw {
        passes: 1,
        wall: wall_s,
        rows: vec![
            ("model", primary.1 + degraded.1),
            ("validation", validation),
            ("adapt", adapt),
        ],
        delta,
        primary,
        degraded,
        requests,
        counts,
    })
}

/// Seed-independent checks on a serving report's response percentiles:
/// finite, ordered, and backed by enough samples for a p99 (the
/// percentile rule: at least ten samples beyond it).
fn check_percentiles(p50: f64, p99: f64, samples: u64, violations: &mut Vec<String>) {
    if !(p50.is_finite() && p99.is_finite() && 0.0 < p50 && p50 <= p99) {
        violations.push(format!(
            "response percentiles p50 {p50} p99 {p99} out of order"
        ));
    }
    if crate::stats::tail_percentile(samples).is_none_or(|p| p < 0.99) {
        violations.push(format!("{samples} responses are too few for a p99"));
    }
}

/// One `stca_serve::serve` call (the single loop) over the trained model.
pub fn serve_trained_pass(inp: &ServeInputs, traced: bool) -> Result<PassOut, String> {
    let spec = &inp.spec;
    let cfg = convert::serve_config(spec);
    let stream = convert::synthetic_stream(spec);
    let n = spec.serve.requests;
    let timed = traced.then(|| TimedModel::new(inp.model.as_ref()));
    let model: &dyn EaModel = match &timed {
        Some(t) => t,
        None => inp.model.as_ref(),
    };
    let before = traced.then(Snapshot::take);
    let t0 = Instant::now();
    let report =
        stca_serve::serve(&cfg, model, &spec.fault.plan, &stream, n).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let layer = model_layer(timed.as_ref(), before, wall_s, n, Vec::new());

    let a = &report.accounting;
    let mut violations = Vec::new();
    if !a.balanced() {
        violations.push(format!("accounting does not balance: {a:?}"));
    }
    if a.admitted != n {
        violations.push(format!("{} of {n} requests admitted", a.admitted));
    }
    check_percentiles(
        report.p50_response_s,
        report.p99_response_s,
        a.completed,
        &mut violations,
    );
    let ok = crate::stats::ok_requests([a]);
    Ok(PassOut {
        wall_s,
        outputs: vec![
            ("decision_hash", hex(report.decision_hash)),
            ("balanced", a.balanced().to_string()),
        ],
        violations,
        ok: (ok, a.admitted),
        ea_mae: None,
        results: vec![
            ("sim_p50_s", report.p50_response_s),
            ("sim_p99_s", report.p99_response_s),
            ("sim_samples", a.completed as f64),
            ("policy_applies", report.policy_applies as f64),
        ],
        layer,
    })
}

/// The cost of one prediction by a lifecycle-shaped cascade, which the
/// fleet's promoted and shadow-scored models make inside the loop.
pub fn fleet_drift_probes(inp: &ServeInputs) -> Probes {
    Probes {
        cascade_predict_ns: crate::layers::cascade_predict_ns(&inp.spec, 500_000),
        ..Probes::default()
    }
}

/// One `stca_serve::serve_fleet` call: 4 shards with the model lifecycle
/// under the drift/retrain/promotion fault plan.
pub fn fleet_drift_pass(inp: &ServeInputs, traced: bool) -> Result<PassOut, String> {
    let spec = &inp.spec;
    let cfg = convert::fleet_config(spec).ok_or("the fleet-drift spec must have shards > 1")?;
    let stream = convert::synthetic_stream(spec);
    let n = spec.serve.requests;
    let timed = traced.then(|| TimedModel::new(inp.model.as_ref()));
    let model: &dyn EaModel = match &timed {
        Some(t) => t,
        None => inp.model.as_ref(),
    };
    let before = traced.then(Snapshot::take);
    let t0 = Instant::now();
    let report = stca_serve::serve_fleet(&cfg, model, &spec.fault.plan, &stream, n)
        .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();

    let adapt = report
        .shards
        .iter()
        .filter_map(|s| s.adapt)
        .fold([0u64; 3], |acc, a| {
            [
                acc[0] + a.retrains,
                acc[1] + a.promotions,
                acc[2] + a.rollbacks,
            ]
        });
    let layer = model_layer(
        timed.as_ref(),
        before,
        wall_s,
        n,
        vec![
            ("adapt.retrains", adapt[0]),
            ("adapt.promotions", adapt[1]),
            ("adapt.rollbacks", adapt[2]),
            ("fleet.reroutes", report.rerouted),
            ("fleet.router_shed", report.router_shed),
        ],
    );

    let mut violations = Vec::new();
    if !report.balanced() {
        violations.push("fleet accounting does not balance".to_string());
    }
    if report.offered != n {
        violations.push(format!("{} of {n} requests offered", report.offered));
    }
    check_percentiles(
        report.p50_response_s,
        report.p99_response_s,
        report.completed(),
        &mut violations,
    );
    let ok = crate::stats::ok_requests(report.shards.iter().map(|s| &s.accounting));
    Ok(PassOut {
        wall_s,
        outputs: vec![
            ("decision_hash", hex(report.decision_hash)),
            ("balanced", report.balanced().to_string()),
        ],
        violations,
        ok: (ok, report.offered),
        ea_mae: None,
        results: vec![
            ("sim_p50_s", report.p50_response_s),
            ("sim_p99_s", report.p99_response_s),
            ("sim_samples", report.completed() as f64),
            ("adapt_promotions", adapt[1] as f64),
            ("adapt_rollbacks", adapt[2] as f64),
        ],
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_scenarios_parse_for_any_seed() {
        for seed in [0, 1, 2022, u64::MAX] {
            let p = spec_for(POLICY_SEARCH, seed).expect("policy-search");
            assert_eq!(p.profile.seed, seed);
            assert_eq!(p.profile.conditions, 16);
            let s = spec_for(SERVE_TRAINED, seed).expect("serve-trained");
            assert_eq!((s.serve.seed, s.profile.seed), (seed, 2022));
            let f = spec_for(FLEET_DRIFT, seed).expect("fleet-drift");
            assert_eq!(f.serve.seed, seed);
            assert!(convert::fleet_config(&f).is_some());
            assert!(convert::serve_config(&f).trace.is_none());
        }
    }
}
