//! STCA pipeline benchmark: one workload per process, one worker thread.
//!
//! ```text
//! stca-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up, then repeats its timed pass until the passes
//! add up to `S` seconds (at least three passes), repeating the set-up
//! after every second pass; `setup_s` and `wall_s` are medians. Every pass's outputs are
//! checked. With `--trace 0` the binary then runs itself once more as
//! `--rss-probe 1` on the default seed, a fresh process that sets up,
//! runs one plain pass, checks it against the recorded outputs and
//! prints its own peak resident set: that is `peak_rss_mb`. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`, with the end-to-end metrics when `--trace 0`
//! and the per-layer metrics when `--trace 1`. See README.md.

mod layers;
mod stats;
mod workloads;

use layers::Probes;
use stats::{median, SelfTimeTree};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{LayerRaw, PassOut, Setup};

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1`. A metric of a layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("stage.profile_share", "fraction"),
    ("stage.train_share", "fraction"),
    ("stage.explore_share", "fraction"),
    ("stage.unattributed_share", "fraction"),
    ("cachesim.ns_per_access", "ns"),
    ("profiler.experiments", "count"),
    ("profiler.experiment_ms", "ms"),
    ("deepforest.fit_s", "s"),
    ("deepforest.trees_fitted", "count"),
    ("queuesim.ns_per_event", "ns"),
    ("queuesim.events", "count"),
    ("model.primary_us", "us"),
    ("model.degraded_us", "us"),
    ("model.calls_per_req", "1/req"),
    ("deepforest.mgs.transform_us", "us"),
    ("deepforest.mgs.transforms_per_req", "1/req"),
    ("deepforest.cascade.predict_us", "us"),
    ("deepforest.cascade.predicts_per_req", "1/req"),
    ("serve.model_share", "fraction"),
    ("serve.validation_share", "fraction"),
    ("serve.validation_runs_per_kreq", "1/kreq"),
    ("serve.validation_useful_frac", "fraction"),
    ("serve.adapt_share", "fraction"),
    ("serve.lifecycle_predict_share", "fraction"),
    ("serve.self_share", "fraction"),
    ("adapt.retrains", "count"),
    ("adapt.retrain_ms", "ms"),
    ("adapt.promote_frac", "fraction"),
    ("adapt.rollbacks", "count"),
    ("fleet.reroutes", "count"),
    ("fleet.router_shed", "count"),
    ("host.cpu_util", "fraction"),
    ("host.ref_probe_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Fewest timed passes per run, whatever `--seconds` says. Passes run
/// until their summed wall time reaches `--seconds`.
const MIN_PASSES: usize = 3;

/// The seed a run uses when `--seed` is not given, the catalog scenarios'
/// seed. The outputs in `workloads::RECORDED` were recorded on it.
pub const DEFAULT_SEED: u64 = 2022;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One set-up and one plain pass, then print this process's peak
    /// resident set: the child process behind `peak_rss_mb`.
    rss_probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        rss_probe: false,
    };
    let mut seconds = None;
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad(&workloads::NAMES.join(" | "))),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number of seconds"))?,
                )
            }
            "--trace" | "--rss-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.rss_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    match seconds {
        Some(s) => args.seconds = s,
        None if args.rss_probe => {}
        None => return Err("--seconds is required".to_string()),
    }
    Ok(args)
}

/// Everything a run measured, before it is turned into metrics.
struct Run {
    setup_secs: Vec<f64>,
    passes: Vec<PassOut>,
    /// EA error of the served model, when known at set-up.
    setup_ea_mae: Option<f64>,
    /// Peak resident set when set-up finished, MB.
    setup_peak_rss_mb: f64,
    cpu_util: f64,
    ref_probe_ms: f64,
    /// Per-layer measurements summed over the traced passes.
    layer: LayerRaw,
    /// Median traced pass time over median plain pass time, minus 1.
    trace_overhead: f64,
    /// Layer probes (traced runs only).
    probes: Probes,
}

fn run_workload<I>(
    args: &Args,
    setup: impl Fn(u64) -> Result<Setup<I>, String>,
    pass: impl Fn(&I, bool) -> Result<PassOut, String>,
    probe: impl Fn(&I) -> Probes,
) -> Result<Run, String> {
    let ref_before = stats::reference_probe_ms();
    let Setup {
        inputs,
        secs,
        ea_mae: setup_ea_mae,
    } = setup(args.seed)?;
    let setup_peak_rss_mb = stats::peak_rss_mb().unwrap_or(f64::NAN);
    let mut setup_secs = vec![secs];

    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.rss_probe { 1 } else { MIN_PASSES };
    let cpu0 = stats::cpu_seconds();
    let t0 = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut layer = LayerRaw::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    while passes.len() < min_passes || measured < budget {
        // traced runs alternate plain and traced passes, so the plain
        // ones give the tracing overhead
        let traced = args.trace && passes.len() % 2 == 1;
        let mut p = pass(&inputs, traced)?;
        measured += Duration::from_secs_f64(p.wall_s);
        match p.layer.take() {
            Some(l) => {
                layer.merge(l);
                traced_walls.push(p.wall_s);
            }
            None => plain_walls.push(p.wall_s),
        }
        passes.push(p);
        // repeat the set-up after every second pass (its inputs are
        // dropped), so its median samples the machine over the whole run
        // like the passes' does
        if passes.len().is_multiple_of(2) {
            setup_secs.push(setup(args.seed)?.secs);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu_util = match (cpu0, stats::cpu_seconds()) {
        (Some(c0), Some(c1)) => (c1 - c0) / wall,
        _ => f64::NAN,
    };
    let probes = if args.trace {
        probe(&inputs)
    } else {
        Probes::default()
    };
    let ref_probe_ms = median(&[ref_before, stats::reference_probe_ms()]);
    Ok(Run {
        setup_secs,
        passes,
        setup_ea_mae,
        setup_peak_rss_mb,
        cpu_util,
        ref_probe_ms,
        layer,
        trace_overhead: median(&traced_walls) / median(&plain_walls) - 1.0,
        probes,
    })
}

/// Outcome of checking every pass.
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn check(workload: &str, seed: u64, passes: &[PassOut]) -> Verdict {
    let recorded = workloads::RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|r| r.2);
    let first = &passes[0];
    let mut problems = Vec::new();
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        let mut bad: Vec<String> = p.violations.clone();
        // deterministic for a seed: every pass repeats pass 0 bit for bit
        if (&p.outputs, &p.results, p.ok, p.ea_mae)
            != (&first.outputs, &first.results, first.ok, first.ea_mae)
        {
            bad.push(format!(
                "outputs {:?} {:?} differ from pass 0's {:?} {:?}",
                p.outputs, p.results, first.outputs, first.results
            ));
        }
        if let Some(expected) = recorded {
            for (name, want) in expected.iter() {
                match p.outputs.iter().find(|o| o.0 == *name) {
                    Some((_, got)) if got == want => {}
                    got => bad.push(format!("{name}: recorded {want}, got {got:?}")),
                }
            }
        }
        let (ok, attempted) = p.ok;
        if ok > attempted || attempted == 0 {
            bad.push(format!("{ok} ok of {attempted} attempted"));
        }
        let finite = p.wall_s.is_finite()
            && p.results.iter().all(|r| r.1.is_finite())
            && p.ea_mae.is_none_or(f64::is_finite);
        if !finite {
            bad.push(format!("non-finite result: {:?}", p.results));
        }
        if !bad.is_empty() {
            failed += 1;
            problems.extend(bad.into_iter().map(|b| format!("pass {i}: {b}")));
        }
    }
    Verdict {
        attempted: passes.len() as u64,
        failed,
        problems,
    }
}

/// Run this binary again as `--rss-probe 1` on the default seed and wait
/// for it: (its peak resident set in MB, 1 if its pass failed the checks
/// against the recorded outputs, else 0). Under glibc's adaptive mmap
/// threshold the peak RSS of a process that runs many passes moves by up
/// to half from one seed to the next, while one seed in a fresh process
/// repeats it; so the gated figure comes from the one seed, in a process
/// that runs nothing else.
fn default_seed_peak_rss(workload: &str) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let seed = DEFAULT_SEED.to_string();
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed, "--rss-probe", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the peak-RSS process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (
        out.status.success(),
        text.lines().last().and_then(parse_rss_probe),
    ) {
        (true, Some(v)) => Ok(v),
        _ => Err(format!("the peak-RSS process ended with {}", out.status)),
    }
}

/// Parse the `--rss-probe` output line `peak_rss_mb <MB> failed <0|1>`.
fn parse_rss_probe(line: &str) -> Option<(f64, u64)> {
    let f: Vec<&str> = line.split_whitespace().collect();
    match f[..] {
        ["peak_rss_mb", mb, "failed", n] => Some((mb.parse().ok()?, n.parse().ok()?)),
        _ => None,
    }
}

fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<f64> {
    let walls: Vec<f64> = run.passes.iter().map(|p| p.wall_s).collect();
    let last = run.passes.last().expect("at least one pass");
    vec![
        median(&run.setup_secs),
        median(&walls),
        peak_rss_mb,
        stats::frac(last.ok.0, last.ok.1),
    ]
}

/// Per-layer metrics from the summed traced passes, and the self-time
/// tree they came from.
fn per_layer(run: &Run) -> (Vec<f64>, SelfTimeTree) {
    let raw = &run.layer;
    let serving = raw.requests > 0;
    let root = if serving {
        "serve call"
    } else {
        "time to policy"
    };
    let d = &raw.delta;
    // cascade predictions outside `DeepForest::predict`: the serving
    // lifecycle's promoted and shadow-scored models, priced by the probe
    let lifecycle_predicts = d
        .count("deepforest.cascade.predicts_total")
        .saturating_sub(d.count("deepforest.predict.predicts_total"));
    let mut rows = raw.rows.clone();
    if serving && run.probes.cascade_predict_ns > 0.0 {
        rows.push((
            "lifecycle predict (est.)",
            lifecycle_predicts as f64 * run.probes.cascade_predict_ns * 1e-9,
        ));
    }
    let tree = SelfTimeTree::new(root, raw.wall, rows);
    let passes = raw.passes.max(1) as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |name: &str| raw.counts.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
    let reqs = raw.requests as f64;
    let (q_runs, q_secs) = d.hist("queuesim.run_seconds");
    let q_events = d.count("queuesim.events_total");
    let (exp_n, exp_secs) = d.hist("profiler.experiment_seconds");
    let (mgs_n, mgs_secs) = d.hist("deepforest.mgs.transform_seconds");
    let (df_n, df_secs) = d.hist("deepforest.predict.seconds");
    let (rt_n, rt_secs) = d.hist_family("adapt.retrain_seconds");
    let retrains = count("adapt.retrains");
    let exhausted = d.count("queuesim.budget_exhausted_total");
    let share = |row: &str| if serving { 0.0 } else { tree.share(row) };
    let serve_share = |row: &str| if serving { tree.share(row) } else { 0.0 };
    let values = vec![
        share("profile"),
        share("train"),
        share("explore"),
        share("remainder"),
        run.probes.cachesim_ns_per_access,
        per_pass(exp_n),
        ratio(exp_secs * 1e3, exp_n as f64),
        tree.rows
            .iter()
            .find(|r| r.0 == "train")
            .map_or(0.0, |r| r.1 / passes),
        per_pass(d.count("deepforest.train.trees_fitted_total")),
        ratio(q_secs * 1e9, q_events as f64),
        per_pass(q_events),
        ratio(raw.primary.1 * 1e6, raw.primary.0 as f64),
        ratio(raw.degraded.1 * 1e6, raw.degraded.0 as f64),
        ratio((raw.primary.0 + raw.degraded.0) as f64, reqs),
        ratio(mgs_secs * 1e6, mgs_n as f64),
        ratio(mgs_n as f64, reqs),
        if run.probes.cascade_predict_ns > 0.0 {
            run.probes.cascade_predict_ns * 1e-3
        } else {
            ratio((df_secs - mgs_secs).max(0.0) * 1e6, df_n as f64)
        },
        ratio(d.count("deepforest.cascade.predicts_total") as f64, reqs),
        serve_share("model"),
        serve_share("validation"),
        if serving {
            ratio(q_runs as f64, reqs / 1e3)
        } else {
            0.0
        },
        if serving {
            ratio(q_runs.saturating_sub(exhausted) as f64, q_runs as f64)
        } else {
            0.0
        },
        serve_share("adapt"),
        serve_share("lifecycle predict (est.)"),
        serve_share("remainder"),
        per_pass(retrains),
        ratio(rt_secs * 1e3, rt_n as f64),
        ratio(count("adapt.promotions") as f64, retrains as f64),
        per_pass(count("adapt.rollbacks")),
        per_pass(count("fleet.reroutes")),
        per_pass(count("fleet.router_shed")),
        run.cpu_util,
        run.ref_probe_ms,
        run.trace_overhead,
    ];
    (values, tree)
}

fn json_metrics(names: &[(&str, &str)], values: &[f64]) -> String {
    let body: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_pairs<T: std::fmt::Display>(pairs: &[(&str, T)], quote: bool) -> String {
    let q = if quote { "\"" } else { "" };
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {q}{v}{q}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_list(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stca-perfbench: {e}");
            eprintln!("usage: stca-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    stca_exec::set_threads(1);
    let result = match args.workload.as_str() {
        "policy-search" => run_workload(
            &args,
            workloads::policy_setup,
            workloads::policy_pass,
            workloads::policy_probes,
        ),
        "serve-trained" => run_workload(
            &args,
            workloads::serve_trained_setup,
            workloads::serve_trained_pass,
            |_| Probes::default(),
        ),
        _ => run_workload(
            &args,
            workloads::fleet_drift_setup,
            workloads::fleet_drift_pass,
            workloads::fleet_drift_probes,
        ),
    };
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stca-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut verdict = check(&args.workload, args.seed, &run.passes);
    for p in &verdict.problems {
        eprintln!("check failed (seed {}): {p}", args.seed);
    }
    let Some(own_peak_rss_mb) = stats::peak_rss_mb() else {
        eprintln!("stca-perfbench: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    if args.rss_probe {
        println!("peak_rss_mb {own_peak_rss_mb} failed {}", verdict.failed);
        return ExitCode::SUCCESS;
    }
    let (names, values): (&[(&str, &str)], Vec<f64>) = if args.trace {
        let (values, tree) = per_layer(&run);
        print!("{}", tree.render("remainder (self)"));
        (&PER_LAYER, values)
    } else {
        match default_seed_peak_rss(&args.workload) {
            Ok((peak, failed)) => {
                verdict.attempted += 1;
                verdict.failed += failed;
                (&END_TO_END, end_to_end(&run, peak))
            }
            Err(e) => {
                eprintln!("stca-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let last = run.passes.last().expect("at least one pass");
    let walls: Vec<f64> = run.passes.iter().map(|p| p.wall_s).collect();
    let ea_mae = last.ea_mae.or(run.setup_ea_mae).unwrap_or(f64::NAN);
    println!(
        "diag {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {}, \"nproc\": {}, \
         \"cpu_util\": {}, \"ref_probe_ms\": {}, \"setup_s\": {}, \"pass_wall_s\": {}, \
         \"setup_peak_rss_mb\": {}, \"own_peak_rss_mb\": {}, \"ea_mae\": {}, \"outputs\": {}, \
         \"results\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        stca_exec::threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        run.cpu_util,
        run.ref_probe_ms,
        json_list(&run.setup_secs),
        json_list(&walls),
        run.setup_peak_rss_mb,
        own_peak_rss_mb,
        ea_mae,
        json_pairs(&last.outputs, true),
        json_pairs(&last.results, false),
    );
    let correct = verdict.failed == 0
        && ea_mae.is_finite()
        && values.iter().all(|v| v.is_finite())
        && values.len() == names.len();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        verdict.attempted,
        verdict.failed,
        json_metrics(names, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn args_parse_and_reject_bad_values() {
        let a = parse_args(argv(
            "--workload fleet-drift --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.rss_probe),
            ("fleet-drift", 7, 2.5, true, false)
        );
        let a = parse_args(argv("--workload policy-search --rss-probe 1")).expect("probe");
        assert_eq!((a.seed, a.rss_probe), (DEFAULT_SEED, true));
        assert!(
            parse_args(argv("--workload fleet-drift")).is_err(),
            "--seconds required"
        );
        assert!(parse_args(argv("--workload fleet-drift --seconds 1 --rss-probe 2")).is_err());
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--workload fleet-drift --trace 2")).is_err());
        assert!(parse_args(argv("--workload fleet-drift --seconds -1")).is_err());
        assert!(parse_args(argv("--workload fleet-drift --seed")).is_err());
        assert!(parse_args(argv("--seed 3")).is_err());
    }

    #[test]
    fn rss_probe_line_parses() {
        assert_eq!(
            parse_rss_probe("peak_rss_mb 24.5 failed 0"),
            Some((24.5, 0))
        );
        assert_eq!(parse_rss_probe("peak_rss_mb 24.5 failed"), None);
        assert_eq!(parse_rss_probe("peak_rss_mb x failed 0"), None);
        assert_eq!(parse_rss_probe(""), None);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        use stca_obs::json::Value;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let bench = Value::parse(&text).expect("valid JSON");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Array(listed)) = bench.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(String, String)> = listed
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                    other => panic!("{key} entry without name/unit: {other:?}"),
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
