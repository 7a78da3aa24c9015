#!/usr/bin/env python3
"""Monte-Carlo decode benchmark of sweepdecode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

Run it from the repository root; the package is imported from ./src.  A
run sets up the workload's code (timed cold several times), decodes the
seeded shot stream in one closed loop for --seconds, then checks its
outputs.  With --trace 0 it reports the end-to-end metrics.  With --trace 1
it decodes the shots of half the time budget untraced, then the same shots
again with every layer wrapped, and reports per-layer metrics and the
tracing overhead.

The report ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the full results (environment, input identity, digest, check
outcome) and the spans go to .perfbench_out/.  Exit status: 0 when every
output check passes, 1 when one fails, 2 when ./src holds no package.
"""

import argparse
import os
import subprocess
import sys

# OpenBLAS reads its thread count when numpy loads it, so main() sets this
# before anything imports numpy.  One process with one BLAS thread stays
# within nproc and keeps timings steady.
BLAS_THREADS = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one cold set-up and print it (used by the parent run)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Run every workload, each in its own process so that peak memory and
    the code constructors' caches are per workload."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        rc = subprocess.run(cmd, check=False).returncode
        print(f"== {name}: exit {rc}", flush=True)
        worst = max(worst, rc)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sweepdecode", "__init__.py")):
        print(f"perfbench: no sweepdecode package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(bench.timed_setup(WORKLOADS[args.workload])[0])
        return 0
    probe = [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--setup-probe"]
    return bench.main(args, WORKLOADS[args.workload], probe)


if __name__ == "__main__":
    sys.exit(main())
