//! Soak test for the drift-aware model lifecycle: replay a request
//! stream through a sharded fleet while the fault plan re-rolls drift
//! offsets, fails/slows injected retrains, and corrupts promotions, and
//! assert the lifecycle contract holds.
//!
//! Four runs, same seed:
//!
//! 1. **baseline** — lifecycle off, no faults, 1 thread: the reference
//!    wall time and decision hash;
//! 2. **inert** — lifecycle off, the drift plan on: lifecycle faults
//!    must not touch serving (same decision hash as run 1);
//! 3. **adapt @ 1 thread** — lifecycle on under the drift plan: drifts
//!    fire, candidates retrain and shadow-score, promotions land, and
//!    the corrupt ones roll back;
//! 4. **adapt @ 8 threads** — must be *bit-identical* to run 3 (fleet
//!    decision hash, per-shard accounting, and per-shard lifecycle
//!    stats).
//!
//! Asserted invariants:
//!
//! * fleet accounting stays exact on every run — promotions and
//!   rollbacks never lose or duplicate a request;
//! * with the lifecycle off, the lifecycle fault keys are inert;
//! * the drift plan produces >= 1 promotion *and* >= 1 rollback;
//! * determinism: runs 3 and 4 agree bit-for-bit.
//!
//! `--out FILE` records retrain wall latency (aggregated over the
//! per-shard `serve.shardN.adapt.retrain_seconds` histograms) and the
//! shadow/lifecycle wall overhead vs the baseline run to a JSON file;
//! the committed `BENCH_adapt.json` holds a reference capture.
//!
//! Usage:
//!   cargo run --release -p stca-bench --bin adapt_soak --
//!       [--requests N] [--shards N] [--rate R] [--deadline S]
//!       [--fault-plan SPEC] [--seed N] [--out FILE] [--metrics-out FILE]
//!
//! Defaults replay 1M requests through 4 shards under a drift-heavy
//! plan. CI runs a short smoke (`--requests 120000`).

use stca_fault::{FaultPlan, StcaError};
use stca_serve::{
    serve_fleet, AdaptConfig, AnalyticEa, FleetConfig, FleetReport, ServeConfig, SyntheticStream,
};
use stca_util::Args;
use std::process::ExitCode;

fn check(ok: bool, what: &str) -> Result<(), StcaError> {
    if ok {
        println!("  ok: {what}");
        Ok(())
    } else {
        Err(StcaError::invalid_input(format!(
            "adapt soak FAILED: {what}"
        )))
    }
}

fn run_once(
    cfg: &FleetConfig,
    plan: &FaultPlan,
    stream: &SyntheticStream,
    n: u64,
    threads: usize,
    label: &str,
) -> Result<(FleetReport, f64), StcaError> {
    stca_exec::set_threads(threads);
    let t0 = std::time::Instant::now();
    let r = serve_fleet(cfg, &AnalyticEa::default(), plan, stream, n)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (promos, rollbacks) = lifecycle_totals(&r);
    println!(
        "{label}: {n} reqs x {} shards in {:.2}s wall / {:.0}s virtual | completed {} | \
         promotions {} rollbacks {} | p99 {:.4}s | hash {:016x}",
        r.shards.len(),
        wall_s,
        r.virtual_end_s,
        r.completed(),
        promos,
        rollbacks,
        r.p99_response_s,
        r.decision_hash
    );
    check(r.balanced(), &format!("{label}: fleet accounting balances"))?;
    check(
        r.offered == n,
        &format!("{label}: all {n} offered requests were accounted"),
    )?;
    Ok((r, wall_s))
}

/// Fleet-wide (promotions, rollbacks) across every shard's lifecycle.
fn lifecycle_totals(r: &FleetReport) -> (u64, u64) {
    r.shards
        .iter()
        .filter_map(|s| s.adapt.as_ref())
        .fold((0, 0), |(p, rb), a| (p + a.promotions, rb + a.rollbacks))
}

/// Per-shard state plus lifecycle stats, compared bit-for-bit between
/// two runs of the same plan at different thread counts.
fn check_bit_identical(a: &FleetReport, b: &FleetReport, what: &str) -> Result<(), StcaError> {
    check(
        a.decision_hash == b.decision_hash,
        &format!("{what}: fleet decision hash"),
    )?;
    let shards_agree = a.shards.len() == b.shards.len()
        && a.shards.iter().zip(&b.shards).all(|(x, y)| {
            x.accounting == y.accounting
                && x.adapt == y.adapt
                && x.p99_response_s.to_bits() == y.p99_response_s.to_bits()
        });
    check(
        shards_agree,
        &format!("{what}: per-shard accounting and lifecycle stats"),
    )?;
    check(
        a.p99_response_s.to_bits() == b.p99_response_s.to_bits()
            && a.mean_response_s.to_bits() == b.mean_response_s.to_bits(),
        &format!("{what}: fleet response percentiles"),
    )
}

fn real_main() -> Result<(), StcaError> {
    let flags = Args::from_env()?;
    let n: u64 = flags.get_parsed("requests", 1_000_000u64)?;
    let shards: u32 = flags.get_parsed("shards", 4u32)?;
    let rate: f64 = flags.get_parsed("rate", 1_200.0f64)?;
    let deadline: f64 = flags.get_parsed("deadline", 0.25f64)?;
    let seed: u64 = flags.get_parsed("seed", 2022u64)?;
    let plan = match flags.get("fault-plan") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::parse(
            "drift_burst=0.8,retrain_fail=0.15,retrain_slow=0.15,promote_corrupt=0.5,seed=2022",
        )?,
    };
    let adapt = AdaptConfig {
        enabled: true,
        epoch_s: 2.0,
        window: 128,
        min_samples: 32,
        drift_threshold: 1.5,
        shadow_requests: 32,
        agree_tol: 0.25,
        promote_agreement: 0.5,
        guard_requests: 64,
        guard_band: 1.5,
        history: 4,
        ..AdaptConfig::default()
    };
    let base_cfg = FleetConfig {
        base: ServeConfig {
            queue_capacity: 32,
            ..ServeConfig::default()
        },
        shards,
        ..FleetConfig::default()
    };
    let adapt_cfg = FleetConfig {
        base: ServeConfig {
            adapt,
            ..base_cfg.base.clone()
        },
        ..base_cfg.clone()
    };
    let stream = SyntheticStream {
        seed,
        rate,
        deadline_s: deadline,
        n_features: 6,
    };

    // 1 + 2: lifecycle off — with and without the drift plan. Lifecycle
    // fault keys only act through the lifecycle, so the hashes agree.
    let (healthy, base_wall) = run_once(&base_cfg, &FaultPlan::none(), &stream, n, 1, "baseline")?;
    let (inert, _) = run_once(&base_cfg, &plan, &stream, n, 1, "inert")?;
    check(
        inert.decision_hash == healthy.decision_hash,
        "lifecycle fault keys are inert while the lifecycle is off",
    )?;

    // 3 + 4: lifecycle on, 1 vs 8 threads
    let (adapt_1, adapt_wall) = run_once(&adapt_cfg, &plan, &stream, n, 1, "adapt@1t")?;
    let (adapt_8, _) = run_once(&adapt_cfg, &plan, &stream, n, 8, "adapt@8t")?;
    check_bit_identical(&adapt_1, &adapt_8, "1 vs 8 threads")?;

    let (promos, rollbacks) = lifecycle_totals(&adapt_1);
    let (drifts, retrains, guard_passes, shadow_scored) = adapt_1
        .shards
        .iter()
        .filter_map(|s| s.adapt.as_ref())
        .fold((0u64, 0u64, 0u64, 0u64), |(d, rt, g, sh), a| {
            (
                d + a.drifts,
                rt + a.retrains,
                g + a.guard_passes,
                sh + a.shadow_scored,
            )
        });
    check(drifts >= 1, &format!("drift fired ({drifts} drifts)"))?;
    check(
        retrains >= 1,
        &format!("candidates retrained ({retrains} retrains)"),
    )?;
    check(
        promos >= 1,
        &format!("at least one guarded promotion landed ({promos})"),
    )?;
    check(
        rollbacks >= 1,
        &format!("at least one corrupt promotion rolled back ({rollbacks})"),
    )?;

    // retrain wall latency, aggregated over the per-shard histograms
    let mut retrain_count = 0u64;
    let mut retrain_sum = 0.0f64;
    let mut retrain_min = f64::INFINITY;
    let mut retrain_max = 0.0f64;
    for id in 0..shards {
        let h = stca_obs::histogram(&format!("serve.shard{id}.adapt.retrain_seconds"));
        if h.count() == 0 {
            continue;
        }
        retrain_count += h.count();
        retrain_sum += h.sum();
        retrain_min = retrain_min.min(h.min());
        retrain_max = retrain_max.max(h.max());
    }
    check(
        retrain_count >= retrains,
        &format!("retrain latency histogram saw every retrain ({retrain_count})"),
    )?;
    let retrain_mean = retrain_sum / retrain_count.max(1) as f64;
    let overhead = (adapt_wall - base_wall) / base_wall.max(1e-9);
    println!(
        "retrain wall: count {retrain_count} mean {:.6}s min {:.6}s max {:.6}s | \
         lifecycle overhead {:+.1}% ({:.2}s -> {:.2}s wall)",
        retrain_mean,
        retrain_min,
        retrain_max,
        overhead * 100.0,
        base_wall,
        adapt_wall
    );

    if let Some(path) = flags.get("out") {
        let json = format!(
            "{{\"requests\":{n},\"shards\":{shards},\
             \"retrain\":{{\"count\":{retrain_count},\"mean_s\":{retrain_mean},\
             \"min_s\":{retrain_min},\"max_s\":{retrain_max}}},\
             \"overhead\":{{\"baseline_wall_s\":{base_wall},\
             \"adapt_wall_s\":{adapt_wall},\"ratio\":{overhead}}},\
             \"lifecycle\":{{\"drifts\":{drifts},\"retrains\":{retrains},\
             \"promotions\":{promos},\"rollbacks\":{rollbacks},\
             \"guard_passes\":{guard_passes},\"shadow_scored\":{shadow_scored}}}}}\n"
        );
        std::fs::write(path, json).map_err(|e| StcaError::io(path.to_string(), e))?;
        println!("wrote bench record to {path}");
    }
    if let Some(path) = flags.get("metrics-out") {
        let path = std::path::PathBuf::from(path);
        stca_obs::write_metrics(stca_obs::registry(), &path)
            .map_err(|e| StcaError::io(path.display().to_string(), e))?;
        println!("wrote metrics to {}", path.display());
    }
    println!("adapt soak passed");
    Ok(())
}

fn main() -> ExitCode {
    stca_obs::init_from_env();
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
