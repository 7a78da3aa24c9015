#!/usr/bin/env python3
"""Compare the benchmark of a base revision with the working tree in
alternating pairs of runs.

    python scripts/abpairs.py                      # HEAD against the working tree
    python scripts/abpairs.py --base REV --pairs 10 --seconds 3 \\
        [--workload W ...] [--seed N]

Run it from anywhere inside the repository.  The base revision's committed
files are extracted with ``git archive`` into a temporary directory, which
leaves ``.git`` untouched, and each pair runs ``perfbench/run.py --workload
W --seed N --seconds S --trace 0`` once in that copy and once in the
working tree, the order swapping from pair to pair so that a drift of the
host's load favours neither.  The workloads and end-to-end metrics are
those ``BENCHMARK.json`` of the working tree declares (``--workload``
narrows the workloads).

Per workload and metric it prints the medians of the base and the change,
the base's interquartile range, the median over pairs of change / base and
in how many pairs the change was better.  A run whose JSON line is missing
or reports a failed operation is printed and leaves its pair out.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", help="workload name (repeatable)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    return args


def extract(rev: str, into: str):
    """Write the files of ``rev`` under ``into``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run(tree: str, workload: str, seconds: float, seed: int):
    """The metrics of one ``--trace 0`` run in ``tree``, or None when it
    fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    report = json.loads(lines[-1]) if lines else None
    if proc.returncode or report is None or report["failed"] or not report["correct"]:
        print(f"  run failed in {tree} (exit {proc.returncode}): {proc.stderr[-500:]}")
        return None
    return {name: m["value"] for name, m in report["metrics"].items()}


def summarise(workload: str, metrics, pairs):
    """Print one line per metric over the pairs ``[(base, change)]``."""
    print(f"{workload}: {len(pairs)} pairs")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else base * 3
        ratio = statistics.median(c / b for b, c in zip(base, change))
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        print(f"  {name:16s} base {statistics.median(base):.6g}  change "
              f"{statistics.median(change):.6g}  base IQR {q1:.6g}-{q3:.6g}  "
              f"ratio {ratio:.4f}  better in {wins}/{len(pairs)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory(prefix="abpairs-") as base:
        extract(args.base, base)
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                trees = (base, ROOT) if k % 2 == 0 else (ROOT, base)
                got = {tree: run(tree, workload, args.seconds, args.seed) for tree in trees}
                if None not in got.values():
                    pairs.append((got[base], got[ROOT]))
            if pairs:
                summarise(workload, bench["end_to_end"], pairs)
            else:
                print(f"{workload}: every pair failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
