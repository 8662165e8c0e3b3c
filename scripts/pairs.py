#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against the working tree.

Usage: python3 scripts/pairs.py [--base REV] [--pairs N] [--seconds S]
                                [--workload W ...] [--aa]

The script exports the base commit (default `HEAD`) with `git archive`
into a fresh directory under the system temp directory (set TMPDIR to
move it) and builds the `benchmark` binary there and in the working
tree, each with its own `CARGO_TARGET_DIR` in that directory. For each
workload (default: every workload in `BENCHMARK.json`) it then runs N
pairs (default 10) of

    benchmark --workload W --seconds S --trace 0

one side after the other, never at once, swapping which side goes first
from one pair to the next. S defaults to `run_seconds` in
`BENCHMARK.json`. It reads each run's last stdout line (the run's
result), and fails when a run exits non-zero, is not `correct` or has a
failed repetition. With `--aa` it builds only the base and runs it on
both sides: the spread such a run shows is the host's noise.

For each end-to-end metric of `BENCHMARK.json`, plus `cpu_s`, it prints
both sides' medians and quartiles (inclusive method), how many pairs the
change won (strictly better in the metric's direction; ties count for
neither side) and two verdicts. `cpu_s` is the run's user + system CPU
time, taken from `os.wait4` (the benchmark's re-executed child
included), divided by the repetitions it attempted: a cost per
repetition that a busy neighbour on the host inflates less than wall
time. It has no bound.

Verdict rule. Let `spread` be the distance between the base's quartiles
and `move` the change in median, signed so that positive is better.

* Claim: `better` when the change won at least 9 in 10 of the pairs
  (`ceil(0.9 * N)`) and `move > spread`; `worse` when it lost at least
  9 in 10 and `-move > spread`; `same` otherwise, which means no move
  can be told from the host's noise.
* Bound: `over` when the change's median is worse than the base's by
  more than the metric's `bound` in `BENCHMARK.json` (a share of the
  base median); otherwise `unresolved` when `spread` is wider than that
  bound, unless every change run beats every base run; otherwise
  `within`.

A speed claim needs `better` on its metric. "No regression" needs every
metric `within` (or `unresolved`, said as such) and none `worse`. An A/A
run of the same length on the same host should read `same` on every
metric. The script only reads the benchmark: it edits nothing and
gates nothing. Exit status 0 when every run succeeded, 1 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("crates", "bench", "src", "bin", "benchmark", "Cargo.toml")


def build(source, target):
    """Builds the benchmark of the tree at `source` into `target` and
    returns the binary's path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(source, MANIFEST)
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest],
        env=env,
        check=True,
    )
    return os.path.join(target, "release", "benchmark")


def export(rev, dest):
    """Writes the tree of commit `rev` into the directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def run(binary, workload, seconds):
    """One timed run: the result line's metric values plus `cpu_s`."""
    command = [binary, "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.exit(f"{' '.join(command)}: exit {proc.returncode}, result {result}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["cpu_s"] = (usage.ru_utime + usage.ru_stime) / result["attempted"]
    return values


def quartiles(values):
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def verdict(base, new, better, bound):
    """The change's win count and the two verdicts of the module doc's
    rule."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(base, new))
    losses = sum(sign * (b - a) < 0 for a, b in zip(base, new))
    need = math.ceil(0.9 * len(base))
    median = statistics.median(base)
    move = sign * (statistics.median(new) - median)
    low, high = quartiles(base)
    spread = high - low
    claim = "same"
    if wins >= need and move > spread:
        claim = "better"
    elif losses >= need and -move > spread:
        claim = "worse"
    if bound is None:
        return wins, claim, "-"
    if -move > bound * abs(median):
        return wins, claim, "over"
    beats_all = all(sign * (b - a) > 0 for a in base for b in new)
    if spread > bound * abs(median) and not beats_all:
        return wins, claim, "unresolved"
    return wins, claim, "within"


def report(workload, metrics, base, new, pairs, new_label):
    print(f"\n{workload}: {pairs} pairs, base against {new_label}")
    print(
        f"{'metric':<13} {'base median':>11} {'base quartiles':>21} "
        f"{'new median':>11} {'new quartiles':>21} {'wins':>6}  claim   bound"
    )
    for name, better, bound in metrics:
        a = [values[name] for values in base]
        b = [values[name] for values in new]
        wins, claim, within = verdict(a, b, better, bound)
        (a_low, a_high), (b_low, b_high) = quartiles(a), quartiles(b)
        print(
            f"{name:<13} {statistics.median(a):>11.4g} {a_low:>10.4g}-{a_high:<10.4g} "
            f"{statistics.median(b):>11.4g} {b_low:>10.4g}-{b_high:<10.4g} "
            f"{wins:>3}/{pairs:<2}  {claim:<7} {within}"
        )


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description="Paired benchmark runs, base against the working tree.")
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"], help="length of one run")
    parser.add_argument("--workload", action="append", help="a workload (default: every one)")
    parser.add_argument("--aa", action="store_true", help="run the base on both sides")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = [(m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]
    metrics.append(("cpu_s", "lower", None))

    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        source = os.path.join(scratch, "base")
        export(args.base, source)
        base_bin = build(source, os.path.join(scratch, "base-target"))
        if args.aa:
            new_bin, new_label = base_bin, f"{args.base} (A/A)"
        else:
            new_bin, new_label = build(ROOT, os.path.join(scratch, "new-target")), "the working tree"
        for workload in workloads:
            base, new = [], []
            for pair in range(args.pairs):
                order = [(base_bin, base), (new_bin, new)]
                for binary, side in order if pair % 2 == 0 else reversed(order):
                    side.append(run(binary, workload, args.seconds))
                print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
            report(workload, metrics, base, new, args.pairs, new_label)


if __name__ == "__main__":
    main()
