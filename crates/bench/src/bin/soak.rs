//! Soak test for the serving driver: replay a large request stream
//! through `--shards N` shards (1 = the single loop) under an injected
//! fault plan and assert the robustness contract holds.
//!
//! Six runs, same seed:
//!
//! 1. **baseline** — no faults, 1 thread: the healthy p99 and, in a
//!    fleet, a load spread over every shard;
//! 2. **faulted @ 1 thread** — the fault plan on;
//! 3. **faulted @ 8 threads** — must be *bit-identical* to run 2
//!    (decision hash, per-shard state, reroute/shed tallies, response
//!    percentiles);
//! 4. **traced @ 1 and 8 threads** — the flight recorder on at 1/64
//!    sampling: the (merged per-shard) dump must be bit-identical across
//!    thread counts, the decision hash and virtual percentiles must match
//!    the untraced run exactly (tracing observes, never perturbs), and
//!    the wall-clock overhead is recorded;
//! 5. **logged audit** — a capped logged+traced replay proving every
//!    offered request reaches exactly one final disposition (a decision
//!    line or a router shed), however many reroute hops it took, and that
//!    the flight recorder retained an agreeing trace for every shed /
//!    deadline-exceeded / drained decision (the retention invariant).
//!
//! Asserted invariants:
//!
//! * exact accounting on every run: every shard balances once
//!   `rerouted_out` is counted, and
//!   `offered = Σ per-shard (completed + shed + drained) + router_shed`;
//! * determinism: runs 2 and 3 agree bit-for-bit, and so do the two
//!   traced runs' dumps;
//! * tracing is free on the virtual clock: decision hash and p50/p99/end
//!   are bit-identical with the recorder on or off;
//! * bounded degradation: every shard's and the overall faulted p99 stay
//!   under the structural ceiling `deadline + 4 x watchdog budget` (a
//!   completed request starts within its deadline and each of its two
//!   stages costs at most two watchdog budgets);
//! * under a plan with predictor faults, the breaker both trips and
//!   recovers;
//! * in a fleet under a shard-crash plan, at least two distinct shards
//!   crash *and* recover, and flushed work is rerouted.
//!
//! Usage:
//!   cargo run --release -p stca-bench --bin soak --
//!       [--requests N] [--shards N] [--router KIND] [--rate R]
//!       [--deadline S] [--fault-plan SPEC] [--seed N] [--audit N]
//!       [--metrics-out FILE]
//!
//! Defaults replay 2M requests through one shard at 250 req/s per shard
//! under the `heavy` preset (whose 10% per-(shard, epoch) crash, stall
//! and flap rates act only when `--shards` > 1). CI runs two short
//! smokes: `--shards 1 --rate 250 --requests 60000` and
//! `--shards 8 --rate 2000 --requests 120000`, both under `ci-default`.

use stca_fault::{FaultPlan, StcaError};
use stca_serve::{
    serve_fleet, AnalyticEa, FleetConfig, FleetReport, RouterKind, ServeConfig, SyntheticStream,
};
use stca_util::Args;
use std::process::ExitCode;

fn check(ok: bool, what: &str) -> Result<(), StcaError> {
    if ok {
        println!("  ok: {what}");
        Ok(())
    } else {
        Err(StcaError::invalid_input(format!("soak FAILED: {what}")))
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
    let shed: u64 = r.shards.iter().map(|s| s.accounting.shed()).sum();
    let drained: u64 = r.shards.iter().map(|s| s.accounting.drained).sum();
    println!(
        "{label}: {n} reqs x {} shards in {:.2}s wall / {:.0}s virtual | completed {} shed {shed} \
         drained {drained} rerouted {} router-shed {} | p99 {:.4}s | hash {:016x}",
        r.shards.len(),
        wall_s,
        r.virtual_end_s,
        r.completed(),
        r.rerouted,
        r.router_shed,
        r.p99_response_s,
        r.decision_hash
    );
    check(r.balanced(), &format!("{label}: accounting balances"))?;
    check(
        r.offered == n,
        &format!("{label}: all {n} offered requests were accounted"),
    )?;
    Ok((r, wall_s))
}

/// Per-shard state plus run tallies, compared bit-for-bit between two
/// runs of the same plan at different thread counts.
fn check_bit_identical(a: &FleetReport, b: &FleetReport, what: &str) -> Result<(), StcaError> {
    check(
        a.decision_hash == b.decision_hash,
        &format!("{what}: decision hash"),
    )?;
    check(
        a.rerouted == b.rerouted && a.router_shed == b.router_shed,
        &format!("{what}: reroute and router-shed tallies"),
    )?;
    let shards_agree = a.shards.len() == b.shards.len()
        && a.shards.iter().zip(&b.shards).all(|(x, y)| {
            x.accounting == y.accounting
                && x.rerouted_out == y.rerouted_out
                && x.crashes == y.crashes
                && x.recoveries == y.recoveries
                && x.p99_response_s.to_bits() == y.p99_response_s.to_bits()
        });
    check(shards_agree, &format!("{what}: per-shard state"))?;
    check(
        a.p99_response_s.to_bits() == b.p99_response_s.to_bits()
            && a.mean_response_s.to_bits() == b.mean_response_s.to_bits(),
        &format!("{what}: response percentiles"),
    )
}

fn real_main() -> Result<(), StcaError> {
    let flags = Args::from_env()?;
    let n: u64 = flags.get_parsed("requests", 2_000_000u64)?;
    let shards: u32 = flags.get_parsed("shards", 1u32)?;
    let rate: f64 = flags.get_parsed("rate", 250.0 * f64::from(shards))?;
    let deadline: f64 = flags.get_parsed("deadline", 0.5f64)?;
    let seed: u64 = flags.get_parsed("seed", 2022u64)?;
    let audit: u64 = flags.get_parsed("audit", 200_000u64)?.min(n);
    let router = match flags.get("router") {
        Some(name) => RouterKind::parse(name)?,
        None => RouterKind::Rendezvous,
    };
    let plan = match flags.get("fault-plan") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::heavy(),
    };
    let fleet = shards > 1;
    // a twitchy breaker (2 consecutive failures) so even the ci-default
    // plan's 2% fault rate trips it within a short smoke run
    let cfg = FleetConfig {
        base: ServeConfig {
            breaker: stca_serve::BreakerConfig {
                failure_threshold: 2,
                ..stca_serve::BreakerConfig::default()
            },
            ..ServeConfig::default()
        },
        shards,
        router,
        ..FleetConfig::default()
    };
    let stream = SyntheticStream {
        seed,
        rate,
        deadline_s: deadline,
        n_features: 6,
    };

    // 1: healthy baseline — in a fleet, every shard takes a share
    let (baseline, _) = run_once(&cfg, &FaultPlan::none(), &stream, n, 1, "baseline")?;
    check(
        baseline.shards.iter().all(|s| s.accounting.admitted > 0),
        "baseline: every shard takes load",
    )?;

    // 2 + 3: faulted, 1 vs 8 threads
    let (faulted_1, faulted_1_wall) = run_once(&cfg, &plan, &stream, n, 1, "faulted@1t")?;
    let (faulted_8, _) = run_once(&cfg, &plan, &stream, n, 8, "faulted@8t")?;
    check_bit_identical(&faulted_1, &faulted_8, "1 vs 8 threads")?;

    // bounded degradation: a completed request starts within its deadline
    // and pays at most 2 watchdog budgets per stage
    let ceiling = deadline + 4.0 * cfg.base.watchdog_budget_s;
    for s in &faulted_1.shards {
        check(
            s.p99_response_s.is_finite() && s.p99_response_s <= ceiling,
            &format!(
                "shard {} p99 {:.4}s within the structural ceiling {ceiling:.4}s",
                s.id, s.p99_response_s
            ),
        )?;
    }
    check(
        faulted_1.p99_response_s.is_finite() && faulted_1.p99_response_s <= ceiling,
        &format!(
            "faulted p99 {:.4}s within the structural ceiling {ceiling:.4}s (baseline {:.4}s)",
            faulted_1.p99_response_s, baseline.p99_response_s
        ),
    )?;
    if plan.predict_fail_prob > 0.0 {
        let opens: u64 = faulted_1.shards.iter().map(|s| s.breaker_opens).sum();
        let closes: u64 = faulted_1.shards.iter().map(|s| s.breaker_closes).sum();
        check(opens > 0, &format!("breaker tripped ({opens} opens)"))?;
        check(closes > 0, &format!("breaker recovered ({closes} closes)"))?;
    }

    // fault domains: crashes hit >= 2 distinct shards, all of them came
    // back, and flushed work was rerouted rather than silently dropped
    if fleet && plan.shard_crash_prob > 0.0 {
        let crashed = faulted_1.crashed_shards();
        check(
            crashed.len() >= 2,
            &format!("crashes hit >= 2 distinct shards ({crashed:?})"),
        )?;
        check(
            faulted_1
                .shards
                .iter()
                .filter(|s| s.crashes > 0 && s.recoveries > 0)
                .count()
                >= 2,
            "at least 2 crashed shards also recovered",
        )?;
        check(
            faulted_1.rerouted > 0,
            &format!(
                "crashes rerouted flushed work ({} reroutes)",
                faulted_1.rerouted
            ),
        )?;
    }

    // 4: traced runs — the flight recorder at its default 1/64 sampling
    // must change nothing on the virtual clock and retain bit-identical
    // trace sets at any thread count
    let mut traced_cfg = cfg.clone();
    traced_cfg.base.trace = Some(stca_trace::TraceConfig {
        seed: seed ^ 0x7ACE,
        ..stca_trace::TraceConfig::default()
    });
    let (traced_1, traced_1_wall) = run_once(&traced_cfg, &plan, &stream, n, 1, "traced@1t")?;
    let (traced_8, _) = run_once(&traced_cfg, &plan, &stream, n, 8, "traced@8t")?;
    check(
        traced_1.trace_dump == traced_8.trace_dump,
        "retained traces are bit-identical at 1 vs 8 threads",
    )?;
    check(
        traced_1.decision_hash == faulted_1.decision_hash,
        "decision hash is unchanged by tracing",
    )?;
    check(
        traced_1.p50_response_s.to_bits() == faulted_1.p50_response_s.to_bits()
            && traced_1.p99_response_s.to_bits() == faulted_1.p99_response_s.to_bits()
            && traced_1.virtual_end_s.to_bits() == faulted_1.virtual_end_s.to_bits(),
        "virtual p50/p99/end are bit-identical with tracing on",
    )?;
    // wall overhead is machine-dependent, so it is recorded (stdout +
    // soak.trace_overhead_frac gauge), not asserted
    let overhead = (traced_1_wall - faulted_1_wall) / faulted_1_wall.max(1e-9);
    stca_obs::gauge("soak.trace_overhead_frac").set(overhead);
    println!(
        "  trace overhead at 1/64 sampling: {:+.1}% wall ({:.2}s -> {:.2}s; virtual clock unchanged)",
        overhead * 100.0,
        faulted_1_wall,
        traced_1_wall
    );

    // 5: logged audit — every offered request gets exactly one final
    // disposition: a decision line or a router shed. Reroute hops are
    // intermediate lines; seq-less event= lines narrate shard faults and
    // carry no disposition.
    let mut audit_cfg = traced_cfg;
    audit_cfg.base.keep_decision_log = true;
    let (audited, _) = run_once(&audit_cfg, &plan, &stream, audit, 8, "audit")?;
    let mut finals = vec![0u32; audit as usize];
    let mut hops = 0u64;
    for line in &audited.decision_log {
        let Some(rest) = line.strip_prefix("seq=") else {
            if !(fleet && line.starts_with("event=shard_")) {
                return Err(StcaError::invalid_input(format!(
                    "non-seq log line is not a shard fault event: {line:?}"
                )));
            }
            continue;
        };
        let seq: u64 = rest
            .split_whitespace()
            .next()
            .and_then(|tok| tok.parse().ok())
            .ok_or_else(|| StcaError::invalid_input(format!("unparseable log line {line:?}")))?;
        let slot = finals
            .get_mut(seq as usize)
            .ok_or_else(|| StcaError::invalid_input(format!("log names unknown seq {seq}")))?;
        if line.contains("disp=reroute ") {
            hops += 1;
        } else if fleet && !(line.contains(" shard=") || line.contains("disp=router_shed")) {
            return Err(StcaError::invalid_input(format!(
                "final log line names neither its shard nor the router: {line:?}"
            )));
        } else {
            *slot += 1;
        }
    }
    check(
        finals.iter().all(|&c| c == 1),
        &format!(
            "every one of {audit} audited requests reached exactly one final \
             disposition ({} lines, {hops} reroute hops)",
            audited.decision_log.len()
        ),
    )?;
    check(
        hops == audited.rerouted,
        &format!(
            "reroute hop lines ({hops}) match the {} successful reroutes",
            audited.rerouted
        ),
    )?;
    let dump = audited
        .trace_dump
        .as_ref()
        .ok_or_else(|| StcaError::invalid_input("audit run lost its trace dump"))?;
    let cc = stca_trace::report::cross_check(dump, audited.decision_log.iter().map(String::as_str));
    check(
        cc.holds(),
        &format!(
            "flight recorder retained an agreeing trace for every error-class \
             decision ({} matched; {} missing, {} disagreeing)",
            cc.error_matched,
            cc.missing.len(),
            cc.mismatched.len()
        ),
    )?;

    if let Some(path) = flags.get("metrics-out") {
        let path = std::path::PathBuf::from(path);
        stca_obs::write_metrics(stca_obs::registry(), &path)
            .map_err(|e| StcaError::io(path.display().to_string(), e))?;
        println!("wrote metrics to {}", path.display());
    }
    println!("soak passed");
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
