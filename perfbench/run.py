#!/usr/bin/env python3
"""Build and run the coverage-suite benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload ingest-zipf --seed 1 --seconds 50 --trace 0

builds `perfbench/` (a Cargo package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and passes its output
through: the last line of standard output is the JSON result. With
`--trace 1` the spans are also written to `perfbench/out/`.

Steadiness report:

    python3 perfbench/run.py --steadiness 5 --workload ship-planted --seconds 50

runs the benchmark once per seed 1..5 and prints, for each metric, its
median and its spread: the distance between the first and third quartile
divided by the median. A metric whose spread exceeds a third of its bound
in BENCHMARK.json is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the benchmark binary; return its path, or exit non-zero."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Run one measurement; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout.splitlines()


def spread(values):
    """Quartile distance over the median, as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def steadiness(binary, args):
    """Run the benchmark once per seed and report each metric's spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    values = {name: [] for name in bounds}
    failed = 0
    for seed in range(1, args.steadiness + 1):
        code, lines = run_once(binary, args.workload, seed, args.seconds, args.trace)
        result = json.loads(lines[-1]) if lines else None
        if code != 0 or result is None or not result["correct"]:
            failed += 1
            print(f"seed {seed}: exit {code}, result {result and result['failed']} failed",
                  file=sys.stderr)
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: done", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = os.path.join(HERE, "out", f"steadiness-{args.workload}-trace{args.trace}.json")
    with open(raw, "w") as f:
        json.dump(values, f, indent=1)
    print(f"{args.workload}: {args.steadiness} runs of {args.seconds} s, {failed} failed; "
          f"values in {os.path.relpath(raw, ROOT)}")
    print(f"{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    unsteady = 0
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med, sp = spread(vals)
        bound = bounds[name]
        flag = ""
        if bound is not None and name != "setup_s" and sp > bound / 3:
            flag = "  UNSTEADY" if sp > bound else "  above bound/3"
            unsteady += 1
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:<36} {med:>14.4f} {sp:>8.4f} {shown:>6}{flag}")
    return 1 if failed or unsteady else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="RUNS",
                   help="run RUNS seeds and report each metric's spread")
    args = p.parse_args()
    binary = build()
    if args.steadiness:
        sys.exit(steadiness(binary, args))
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
