"""Measurement, output checks and reporting for one workload run."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import tracemalloc
from importlib import metadata

import numpy as np

from sweepdecode import pauli

import cosetnet
from cosetnet import CLASSES, CosetNetworks, depolarising
from layertrace import Tracer
from workloads import LOGW_TOL, MIN_SHOTS, REF_SHOTS

# Cold set-ups per untraced run: this process plus SETUP_SAMPLES - 1 child
# processes, since the code constructors cache per (family, d) in-process.
# The children run between decodes, spread over the run.
SETUP_SAMPLES = 12
# Load from other virtual machines on the host slows the same work by up to
# 2x, in bursts and for whole minutes.  The gated decode timing is the
# fastest decode of a run, the sample that load disturbed least; typical
# ones are reported beside it.  Set-up samples are too few and too short to
# catch a quiet spell reliably, so set-up is the median of its samples.

# The 90th percentile is reported only with at least ten samples above it.
P90_MIN_SAMPLES = 100
# Shots decoded again under tracemalloc, outside the timed loop, for the
# decode's own peak memory.
MEMORY_SHOTS = 4
OUT_DIR = ".perfbench_out"
PROBE_TIMEOUT_S = 120


def timed_setup(wl):
    """Per-code work before the first decode: the code and its network
    skeleton.  Returns ``(seconds, code, nets)``."""
    start = time.perf_counter()
    code = wl.build_code()
    nets = CosetNetworks(code, depolarising(wl.p))
    return time.perf_counter() - start, code, nets


def probe_setup(probe_cmd) -> float:
    """Cold set-up time measured in a child process."""
    out = subprocess.run(probe_cmd, capture_output=True, text=True,
                         check=True, timeout=PROBE_TIMEOUT_S)
    return float(out.stdout.split()[-1])


class ShotStream:
    """The seeded error stream; shot i depends only on the seed and i."""

    def __init__(self, n, probs, seed):
        self._rng = np.random.default_rng(seed)
        self._n = n
        self._probs = probs
        self.errors = []

    def __getitem__(self, i):
        while len(self.errors) <= i:
            k = self._rng.choice(4, size=self._n, p=self._probs)
            self.errors.append(((k & 1).astype(np.uint8), (k >> 1).astype(np.uint8)))
        return self.errors[i]


def decode_shots(nets, chi, stream, min_shots, budget, tracer=None, probe=None, probes=0):
    """Closed loop: decode shots in order until ``min_shots`` are done and
    ``budget`` seconds of decoding have passed.

    ``probe`` is called ``probes`` times between decodes, at even steps of
    the budget, so that set-up samples see the same host load as decodes;
    its time is left out of the loop.  Returns ``(outcomes, wall, probed)``;
    outcome i is ``(latency, class, log weights)``, or ``(latency, None,
    message)`` for a decode that raised.
    """
    outcomes = []
    probed = []
    due = [budget * (k + 0.5) / probes for k in range(probes)]
    paused = 0.0
    start = time.perf_counter()
    while len(outcomes) < min_shots or time.perf_counter() - start - paused < budget:
        if due and time.perf_counter() - start - paused >= due[0]:
            due.pop(0)
            t0 = time.perf_counter()
            probed.append(probe())
            paused += time.perf_counter() - t0
        i = len(outcomes)
        x, z = stream[i]
        if tracer is not None:
            tracer.decode_id = i
        t0 = time.perf_counter()
        try:
            cls, logw = cosetnet.decode(nets, x, z, chi)
        except Exception as exc:  # counted against attempts; the batch goes on
            cls, logw = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((time.perf_counter() - t0, cls, logw))
    wall = time.perf_counter() - start - paused
    if tracer is not None:
        tracer.decode_id = None
    probed.extend(probe() for _ in due)
    return outcomes, wall, probed


def decode_peak_mb(nets, chi, stream) -> float:
    """Largest memory one decode allocates above what it started with, in
    MB, over the first ``MEMORY_SHOTS`` shots.  numpy reports its buffers
    to tracemalloc, so the MPS tensors are counted."""
    peak = 0
    tracemalloc.start()
    try:
        for i in range(MEMORY_SHOTS):
            x, z = stream[i]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cosetnet.decode(nets, x, z, chi)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def true_class(code, x, z) -> int:
    """Logical class of the error relative to the pure error of its syndrome."""
    syn = pauli.syndrome_batch(code, x[None, :], z[None, :])
    fx, fz = pauli.pure_error_batch(code, syn)
    residual = pauli.PauliOperator(x ^ fx[0], z ^ fz[0])
    return CLASSES.index(pauli.logical_class(code, residual))


def digest(outcomes) -> str:
    """Hash of every decision and coset log-weight, bit for bit."""
    h = hashlib.sha256()
    for _, cls, logw in outcomes:
        h.update(bytes([cls]))
        h.update(np.asarray(logw, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def check_outputs(wl, nets, stream, outcomes, truths):
    """Output checks; returns ``(problems, info)``.

    * every shot of the fixed prefix decoded;
    * no coset log-weight is NaN or +inf, and the coset holding the
      sampled error has nonzero weight;
    * re-decoding shot 0 gives bit-identical log-weights;
    * with a finite chi, on the first ``REF_SHOTS`` shots, the log-weights
      of the chosen and the heaviest coset lie within ``LOGW_TOL`` of exact
      contraction, and a changed decision is a near tie of the reference.
    """
    problems = []
    for i, (_, cls, logw) in enumerate(outcomes):
        if cls is None:
            if i < MIN_SHOTS:
                problems.append(f"shot {i} raised {logw}")
        elif any(math.isnan(w) or w == math.inf for w in logw):
            problems.append(f"shot {i}: coset log-weights {logw}")
        elif not math.isfinite(logw[truths[i]]):
            problems.append(f"shot {i}: the coset holding the error has weight 0")
    if problems:
        return problems, {}

    x, z = stream[0]
    if cosetnet.decode(nets, x, z, wl.chi)[1] != outcomes[0][2]:
        problems.append("re-decoding shot 0 changed its log-weights")

    info = {}
    # The reference is exact contraction.  Never use it for the square code
    # above d=7: exact d=7 already reaches bond 4096 and about 0.8 GB
    # resident, and exact d=9 was killed for lack of memory on an 8 GB
    # machine.  A larger workload needs a 2 chi reference instead.
    if wl.chi is not None:
        err_max = 0.0
        err_all_max = 0.0
        changed = 0
        for i in range(REF_SHOTS):
            x, z = stream[i]
            ref_cls, ref = cosetnet.decode(nets, x, z, None)
            _, cls, logw = outcomes[i]
            # equal values include two zero-weight cosets (-inf), which agree
            errs = [abs(a - b) if a != b else 0.0 for a, b in zip(logw, ref)]
            # Truncation can be far off on a light coset (0.9 nats seen at
            # chi=8) without touching the decision, so the tolerance holds
            # on the cosets a decision rests on: the chosen and the heaviest.
            err = max(errs[cls], errs[ref_cls])
            err_max = max(err_max, err)
            err_all_max = max(err_all_max, max(errs))
            if not err <= LOGW_TOL:
                problems.append(f"shot {i}: log-weight error {err:.3g} > {LOGW_TOL}")
            if cls != ref_cls:
                changed += 1
                if ref[ref_cls] - ref[cls] > 2 * err:
                    problems.append(f"shot {i}: decision {CLASSES[cls]} differs from "
                                    f"reference {CLASSES[ref_cls]} beyond the error")
        info = {"logw_err_max": err_max, "logw_err_all_cosets_max": err_all_max,
                "decisions_changed": changed, "ref_shots": REF_SHOTS}
    return problems, info


def wilson(fails, shots, z=1.96):
    """95% Wilson score interval of a failure rate."""
    p = fails / shots
    den = 1 + z * z / shots
    mid = (p + z * z / (2 * shots)) / den
    half = z * math.sqrt(p * (1 - p) / shots + z * z / (4 * shots * shots)) / den
    return max(0.0, mid - half), min(1.0, mid + half)


def git_sha() -> str:
    """Commit of the working tree, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "processes": 1,
    }


def identity(wl, code) -> dict:
    """What was decoded; a changed constructor shows here, not as speed."""
    text = pauli.format_code(code)
    return {"family": wl.family, "d": wl.d, "n": code.n,
            "num_checks": code.num_checks, "p": wl.p, "chi": wl.chi,
            "code_sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}


def main(args, wl, probe_cmd) -> int:
    tracer = Tracer() if args.trace else None
    if tracer is None:
        setup_s, code, nets = timed_setup(wl)
        probes = SETUP_SAMPLES - 1
    else:
        with tracer.installed():
            setup_s, code, nets = timed_setup(wl)
        probes = 0
    stream = ShotStream(code.n, depolarising(wl.p), args.seed)

    budget = args.seconds / 2 if tracer else args.seconds
    outcomes, wall, probed = decode_shots(
        nets, wl.chi, stream, MIN_SHOTS, budget,
        probe=lambda: probe_setup(probe_cmd), probes=probes)
    setups = [setup_s] + probed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_mb = decode_peak_mb(nets, wl.chi, stream)
    attempted = len(outcomes)
    traced = None
    if tracer is not None:
        with tracer.installed():
            traced = decode_shots(nets, wl.chi, stream, len(outcomes), 0.0, tracer)[0]
        attempted += len(traced)

    truths = [true_class(code, *stream[i]) for i in range(len(outcomes))]
    problems, info = check_outputs(wl, nets, stream, outcomes, truths)
    if traced is not None and [o[1:] for o in traced] != [o[1:] for o in outcomes]:
        problems.append("traced decodes differ from untraced ones")

    ok = [o for o in outcomes if o[1] is not None]
    failed = sum(o[1] is None for o in outcomes)
    if traced is not None:
        failed += sum(o[1] is None for o in traced)
    if not ok:
        print("perfbench: no decode succeeded:", "; ".join(problems))
        return 1
    prefix = outcomes[:MIN_SHOTS]
    fails = sum(o[1] != t for o, t in zip(prefix, truths))
    latencies = sorted(o[0] for o in ok)
    p90 = (statistics.quantiles(latencies, n=10)[-1]
           if len(latencies) >= P90_MIN_SAMPLES else None)

    result = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "input": identity(wl, code), "environment": environment(),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "shots": len(outcomes), "loop_wall_s": wall,
        "digest": digest(prefix) if all(o[1] is not None for o in prefix) else None,
        "check": info,
    }
    report = {
        "decode_rate": (len(outcomes) / wall, "decodes/s"),
        "decode_best_s": (latencies[0], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "decode_p50_s": (statistics.median(latencies), "s"),
        "decode_p90_s": (p90, "s"),
        "decode_peak_mb": (peak_mb, "MB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failure_rate": (fails / len(prefix), "fraction"),
        "decode_error_share": (failed / attempted, "fraction"),
        "logw_err_max": (info.get("logw_err_max"), "nats"),
    }
    result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    result["setup_samples_s"] = setups
    result["latency_samples"] = len(latencies)
    result["latencies_s"] = [o[0] for o in outcomes]
    result["failure_rate_wilson95"] = wilson(fails, len(prefix))
    if tracer is not None:
        layers = tracer.layer_metrics([o[0] for o in traced], [o[0] for o in outcomes])
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    write_outputs(args, result, tracer)
    print_report(result, report, layers if tracer is not None else None)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    section = declared["per_layer" if tracer is not None else "end_to_end"]
    metrics = result["per_layer" if tracer is not None else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"], "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in section},
    }))
    return 0 if result["correct"] else 1


def write_outputs(args, result, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        with open(stem + "_spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


def _fmt(value, unit):
    return f"{value:.6g} {unit}" if value is not None else "n/a"


def print_report(result, end_to_end, layers):
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={result['seconds']}")
    print(f"  why:   {result['why']}")
    print("  input: " + " ".join(f"{k}={v}" for k, v in result["input"].items()))
    print("  env:   " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    print(f"  loop:  {result['shots']} shots in {result['loop_wall_s']:.3f} s, "
          f"{result['latency_samples']} latency samples, "
          f"set-up samples {[round(t, 4) for t in result['setup_samples_s']]}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<20} {_fmt(value, unit)}")
    lo, hi = result["failure_rate_wilson95"]
    print(f"  failure_rate 95% Wilson interval [{lo:.4f}, {hi:.4f}]")
    if layers is not None:
        for name, (value, unit) in layers.items():
            print(f"  {name:<30} {_fmt(value, unit)}")
    print(f"  digest: {result['digest']}  check: {result['check']}")
    print("  outputs: " + ("ok" if result["correct"] else
                          "FAILED: " + "; ".join(result["problems"])))
