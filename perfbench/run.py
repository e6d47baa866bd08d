#!/usr/bin/env python3
"""Build and run the STCA pipeline benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload policy-search --seed 2022 --seconds 24 --trace 0

builds the `stca-perfbench` package from source (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload in its own
process, and passes its output through. The last line of standard output
is the result JSON. A failed build or run exits non-zero without a result.
`--seconds` defaults to BENCHMARK.json's run_seconds.

Steadiness report (interleaves all workloads, seed r in round r = 1, 2, ...):

    python3 perfbench/run.py --report --rounds 10

prints, for every end-to-end metric of every workload, the median,
quartiles, min/max and the spread (q3 - q1) / median over the rounds,
plus each run's host CPU utilisation and reference-kernel time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["policy-search", "serve-trained", "fleet-drift"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "stca-perfbench")


def benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; return (stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)} are not the contract's")
    want = [m["name"] for m in benchmark_json()["per_layer" if trace else "end_to_end"]]
    if list(result["metrics"]) != want:
        fail(f"metrics {list(result['metrics'])} differ from BENCHMARK.json's {want}")
    return lines, result


def diag_of(lines):
    for line in lines:
        if line.startswith("diag "):
            return json.loads(line[len("diag "):])
    fail("run printed no diag line")


def report(binary, rounds, seconds):
    values = {w: {} for w in WORKLOADS}
    hosts = {w: [] for w in WORKLOADS}
    started = time.time()
    for r in range(rounds):
        seed = r + 1
        # rotate the order so no workload always runs first
        order = WORKLOADS[r % len(WORKLOADS):] + WORKLOADS[:r % len(WORKLOADS)]
        for w in order:
            lines, result = run_once(binary, w, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                fail(f"{w} seed {seed} failed its output checks")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            d = diag_of(lines)
            hosts[w].append((seed, d["cpu_util"], d["ref_probe_ms"], d["threads"], d["nproc"]))
            print(f"round {r + 1}/{rounds} {w} seed {seed}: " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) +
                  f" | passes {[round(x, 3) for x in d['pass_wall_s']]}"
                  f" setups {[round(x, 3) for x in d['setup_s']]}"
                  f" ref {d['ref_probe_ms']:.2f} ms own-seed peak RSS {d['own_peak_rss_mb']:.2f} MB"
                  f" outputs {d['outputs']}",
                  flush=True)
    print(f"\nnproc {os.cpu_count()}, worker threads 1, rounds {rounds}, "
          f"--seconds {seconds}, wall {time.time() - started:.0f} s")
    for w in WORKLOADS:
        print(f"\n{w}  (n = {rounds} runs, seeds 1..{rounds})")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}{'spread':>9}")
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{min(vals):>12.6g}{max(vals):>12.6g}{spread:>9.4f}")
        print("  per run (seed, host.cpu_util, host.ref_probe_ms, threads, nproc): " +
              ", ".join(f"({s}, {c:.3f}, {p:.2f}, {t}, {n})" for s, c, p, t, n in hosts[w]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--seconds", type=int, default=benchmark_json()["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true", help="steadiness report mode")
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args()
    if not args.report and args.workload is None:
        p.error("--workload is required (or --report)")
    binary = build()
    if args.report:
        report(binary, args.rounds, args.seconds)
        return
    lines, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
