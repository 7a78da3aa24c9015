#!/usr/bin/env python3
"""Time sweep plans against the plan cost model of ``sweep/plan.py``.

    python scripts/plan_model.py            # time every configuration,
                                            # write BENCH_plan_model.json
    python scripts/plan_model.py --fit      # fit the model's constants to
                                            # BENCH_plan_model.json
    python scripts/plan_model.py --plans    # print the plan each benchmark
                                            # code gets; no timing

Run it from the repository root.  A configuration is a (code, form,
frame, chi): the square, triangular, hexagonal and subsystem codes at d=5
and d=7, each form the plan chooses from (unfolded, colour class 0 folded
into class 1, class 1 into class 0, and each fold with its merged vertices
paired in one of the four frames' sweep orders) in each quarter-turned
frame, at chi=8 and exact.  A configuration whose modelled peak or time
is out of reach (an exact sweep along a code's long side, say) is left
out, as is one whose steps repeat another frame's.  Each is timed as the
four coset networks of one depolarising shot swept along its plan
(``contract.run``), the fastest of ``REPEATS`` repeats, interleaved across
configurations, on one BLAS thread.  The model prices a warm sweep, the
one a decoder repeats, so every sweep timed or traced here runs after one
that filled a memo of step arrays, which it reads as ``sweep_contract``
does: it builds no merged tensor.  Beside each time the
file records the model's prediction and its counts, the code's chosen and
unfolded plans, the git sha and the machine.  ``--fit`` refits
``MODEL_SECONDS_PER_*`` by non-negative least squares on relative error
(:func:`fitted`) and rewrites the file's predictions and summary with the
fitted values, which are then written into ``plan.py`` by hand.  It
prints, for the constants ``plan.py`` holds and for the refit, the
relative error and the shares of pairs of configurations each ranks
right, within a code and over all pairs: a refit can lower the error and
still rank fewer plans right.
``--plans`` also prints, for each benchmark code, the steps whose
consumed run the chosen and unfolded plans split, their modelled peaks
with and without those splits, the cold plan build time (the fastest of
``REPEATS``, through ``plan_sweep``), the chosen plan's modelled peak in
bytes beside the tracemalloc peak of one warm sweep along it, and the
entries and bytes the memo of step arrays that ``sweep_contract`` caches
beside the plan holds once the four cosets of the benchmark's first
``MIN_SHOTS`` shots are swept: memory that stays resident between
decodes, which the benchmark's per-decode peak does not see.  Beside
it, the plans that sweep built, 0 when every lookup of the plan cache
hits (a lookup that starts missing slows each decode some tenfold and
changes no value), and the time of one warm plan lookup.  It prints the
same for square d=7 at chi=8, whose plan is unfolded.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import timeit
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import cosetnet  # noqa: E402
from workloads import MIN_SHOTS, WORKLOADS  # noqa: E402
from sweepdecode import pauli  # noqa: E402
from sweepdecode.codes import graphs, lattices, subsystem  # noqa: E402
from sweepdecode.sweep import contract  # noqa: E402
from sweepdecode.sweep import plan as planner  # noqa: E402

OUT = os.path.join(ROOT, "BENCH_plan_model.json")
FAMILIES = ("square", "triangular", "hexagonal", "subsystem")
DISTANCES = (5, 7)
CHIS = (8, None)
P = 0.1
REPEATS = 7
# a configuration above either is left out: 4M elements is 32 MB a sweep
PEAK_LIMIT = 4_000_000
SECONDS_LIMIT = 0.2
FORMS = ("unfolded", "class 0 into class 1", "class 1 into class 0")
CONSTANTS = ("MODEL_SECONDS_PER_MADD", "MODEL_SECONDS_PER_STEP",
             "MODEL_SECONDS_PER_COMPRESSED_SITE")


def build_code(family, d):
    if family == "subsystem":
        return subsystem.subsystem_code(d)
    return graphs.surface_code_from_graph(lattices.regular_lattice(family, d), family=family)


def coset_networks(code, p=P, shots=1, seed=0):
    """The four coset networks of each of the first ``shots`` shots of a
    depolarising stream at ``p``, drawn as the benchmark draws them."""
    probs = cosetnet.depolarising(p)
    nets = cosetnet.CosetNetworks(code, probs)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(shots):
        k = rng.choice(4, size=code.n, p=probs)
        x, z = (k & 1).astype(np.uint8), (k >> 1).astype(np.uint8)
        syn = pauli.syndrome_batch(code, x[None, :], z[None, :])[0]
        out += [nets.network(r) for r in nets.residuals(syn)]
    return out


def plans(networks, chi):
    """``(candidates, chosen, unfolded)`` of the code's networks at ``chi``."""
    candidates = planner._candidates(planner.planarize(networks[0]), chi)
    unfolded = planner._choose([c for c in candidates if c.fold == 0])
    return candidates, planner._choose(candidates), unfolded


def form(c):
    """The name of ``c``'s network form."""
    return FORMS[c.fold] + ("" if c.pairs is None else f", paired in frame {c.pairs}")


def describe(c):
    return {"form": form(c), "fold": c.fold, "pairs": c.pairs, "turns": c.turns,
            "steps": len(c.steps), "model_s": c.seconds, "model_peak": c.peak}


def traced_peak(plan, tn):
    """The most bytes tracemalloc sees allocated at once during one warm
    sweep of ``tn`` along ``plan``, after one warm-up sweep, which fills
    the memo of step arrays, the plan's memo of cuts and the identity
    memo."""
    memo = contract._MergeMemo()
    contract.run(plan, contract._step_arrays(plan, memo, tn.vertices))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        contract.run(plan, contract._step_arrays(plan, memo, tn.vertices))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def unsplit_peak(c, chi):
    """The modelled peak of ``c`` at ``chi`` with every consumed run
    chained whole: :func:`plan._tally` with every split priced as
    split 0."""
    real = planner._absorption
    planner._absorption = lambda run, held, size, rows, split: real(run, held, size, rows, 0)
    try:
        return planner._tally(c.steps, c.layout, chi)[2]
    finally:
        planner._absorption = real


def print_plans():
    for wl in WORKLOADS.values():
        family, d, chi = wl.family, wl.d, wl.chi
        code = build_code(family, d)
        tn = coset_networks(code)[0]
        cold = min(timeit.repeat(lambda: planner.plan_sweep(tn, chi), number=1, repeat=REPEATS))
        _, chosen, unfolded = plans([tn], chi)
        for name, c in (("chosen", chosen), ("unfolded", unfolded)):
            split = [(k, step.split) for k, step in enumerate(c.steps) if step.split]
            print(f"{family} d={d} chi={chi} {name}: {form(c)}, turns {c.turns}, "
                  f"{len(c.steps)} steps, modelled {c.seconds * 1e3:.3f} ms, "
                  f"peak {c.peak} elements ({unsplit_peak(c, chi)} unsplit), "
                  f"split steps (index, split) {split}")
        print(f"{family} d={d} chi={chi} chosen peak: modelled {8 * chosen.peak} bytes, "
              f"traced {traced_peak(chosen, tn)} bytes")
        print(f"{family} d={d} chi={chi} cold plan build {cold * 1e3:.1f} ms (fastest of {REPEATS})")
        print_memo(code, f"{family} d={d} chi={chi}", chi, wl.p)
    print_memo(build_code("square", 7), "square d=7 chi=8", 8, P)


def print_memo(code, name, chi, p):
    """Print the entries and bytes the memo of the plan of ``code`` at
    ``chi`` holds once the four cosets of ``MIN_SHOTS`` shots at ``p`` are
    swept, the plans built during that sweep (0 when every lookup hits),
    and the time of one warm plan lookup, the fastest of ``REPEATS``."""
    networks = coset_networks(code, p, MIN_SHOTS)
    plan, memo = contract._plan_for(networks[0], chi)
    memo.clear()
    builds, build = [], contract.plan_sweep

    def counted_build(tn, chi):
        builds.append(tn)
        return build(tn, chi)

    contract.plan_sweep = counted_build
    try:
        for net in networks:
            contract.sweep_contract(net, chi)
    finally:
        contract.plan_sweep = build
    print(f"{name} p={p} {form(plan)}: step-array memo after {MIN_SHOTS} shots: "
          f"{len(memo.arrays)} entries, {memo.nbytes} bytes; "
          f"{len(builds)} plan builds")
    lookup = min(timeit.repeat(lambda: [contract._plan_for(net, chi) for net in networks],
                               number=10, repeat=REPEATS)) / (10 * len(networks))
    print(f"{name}: warm plan lookup (_plan_for) {lookup * 1e6:.1f} us per call")


def configurations():
    """Every timed configuration, with the networks it sweeps."""
    out = []
    for family in FAMILIES:
        for d in DISTANCES:
            code = build_code(family, d)
            networks = coset_networks(code)
            for chi in CHIS:
                candidates, chosen, unfolded = plans(networks, chi)
                seen = set()
                for c in candidates:
                    key = (c.fold, c.steps)
                    if key in seen or c.peak > PEAK_LIMIT or c.seconds > SECONDS_LIMIT:
                        continue
                    seen.add(key)
                    madds, compressed, _, _ = planner._tally(c.steps, c.layout, chi)
                    out.append({
                        "code": f"{family}_d{d}", "chi": chi, **describe(c),
                        "chosen": key == (chosen.fold, chosen.steps),
                        "unfolded": key == (unfolded.fold, unfolded.steps),
                        # counts and model per decode: four sweeps
                        "madds": 4 * madds, "compressed_sites": 4 * compressed,
                        "model_decode_s": 4 * c.seconds,
                        "_plan": c, "_networks": networks,
                    })
    return out


def time_all(configs):
    """Time each configuration's warm decode: a first sweep of each network
    fills a memo of step arrays per configuration, untimed."""
    best = [float("inf")] * len(configs)
    memos = [contract._MergeMemo() for _ in configs]
    for rep in range(REPEATS + 1):
        for i, cfg in enumerate(configs):
            plan, networks = cfg["_plan"], cfg["_networks"]
            start = time.perf_counter()
            for tn in networks:
                contract.run(plan, contract._step_arrays(plan, memos[i], tn.vertices))
            if rep:
                best[i] = min(best[i], time.perf_counter() - start)
    for cfg, seconds in zip(configs, best):
        cfg["measured_decode_s"] = seconds


def ranked_pairs(rows, same_code):
    """``(right, total)`` over the pairs of rows whose modelled and measured
    times both differ, within one (code, chi) when ``same_code``."""
    right = total = 0
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if same_code and (a["code"], a["chi"]) != (b["code"], b["chi"]):
                continue
            if a["model_decode_s"] == b["model_decode_s"]:
                continue
            total += 1
            right += (a["model_decode_s"] < b["model_decode_s"]) == (
                a["measured_decode_s"] < b["measured_decode_s"])
    return right, total


def summary(rows):
    within = ranked_pairs(rows, True)
    overall = ranked_pairs(rows, False)
    chosen_vs_unfolded = {}
    for r in rows:
        un = [u for u in rows if u["unfolded"] and (u["code"], u["chi"]) == (r["code"], r["chi"])]
        if r["chosen"] and un:  # none when the unfolded sweep is out of reach
            chosen_vs_unfolded[f"{r['code']} chi={r['chi']}"] = (
                r["measured_decode_s"] / un[0]["measured_decode_s"])
    return {
        "pairs_ranked_within_code": f"{within[0]}/{within[1]}",
        "pairs_ranked_within_code_share": within[0] / within[1],
        "pairs_ranked_all": f"{overall[0]}/{overall[1]}",
        "pairs_ranked_all_share": overall[0] / overall[1],
        "chosen_over_unfolded_measured": chosen_vs_unfolded,
    }


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "platform": platform.platform()}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure():
    configs = configurations()
    print(f"timing {len(configs)} configurations, {REPEATS} interleaved repeats", flush=True)
    time_all(configs)
    rows = [{k: v for k, v in cfg.items() if not k.startswith("_")} for cfg in configs]
    result = {
        "git_sha": git_sha(), "machine": machine(), "p": P, "repeats": REPEATS,
        "constants": {name: getattr(planner, name) for name in CONSTANTS},
        "summary": summary(rows), "configurations": rows,
    }
    with open(OUT, "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result["summary"], indent=1))


def counts(rows):
    """Per row, the counts each constant prices in one decode (four
    sweeps), in ``CONSTANTS`` order."""
    return np.array([[r["madds"], 4 * r["steps"], r["compressed_sites"]] for r in rows], float)


def fitted(rows):
    """The constants that fit ``rows``' measured times by non-negative
    least squares on relative error, to three significant figures."""
    from scipy.optimize import nnls

    t = np.array([r["measured_decode_s"] for r in rows])
    coef, _ = nnls(counts(rows) / t[:, None], np.ones(len(rows)))
    return {name: float(f"{value:.3g}") for name, value in zip(CONSTANTS, coef)}


def fit():
    """Refit the constants to the recorded times and rewrite the file's
    predictions and summary with them; ``plan.py`` then takes the
    printed constants.  The fit minimises relative error, not the ranking
    of plans that ``_choose`` acts on, so the constants ``plan.py``
    holds and the refit are printed side by side, each with its relative
    error and the shares of pairs it ranks right, within a code and over
    all pairs."""
    with open(OUT) as f:
        result = json.load(f)
    rows = result["configurations"]
    a = counts(rows)
    t = np.array([r["measured_decode_s"] for r in rows])
    current = {name: getattr(planner, name) for name in CONSTANTS}
    result["constants"] = fitted(rows)
    # the refit last, so the file holds its predictions and summary
    for label, constants in (("plan.py", current), ("refit", result["constants"])):
        model = a @ np.array([constants[name] for name in CONSTANTS])
        for r, seconds in zip(rows, model):
            r["model_decode_s"] = float(seconds)
        result["summary"] = summary(rows)
        rel = np.abs(model / t - 1.0)
        print(f"{label}: " + ", ".join(f"{name} = {value:.3g}" for name, value in constants.items()))
        print(f"  relative error: median {np.median(rel):.3f}, max {rel.max():.3f}; pairs ranked "
              f"within code {result['summary']['pairs_ranked_within_code_share']:.3f}, "
              f"all {result['summary']['pairs_ranked_all_share']:.3f}")
    with open(OUT, "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result["summary"], indent=1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fit", action="store_true", help="fit the model to the recorded times")
    ap.add_argument("--plans", action="store_true", help="print the benchmark codes' plans")
    args = ap.parse_args(argv)
    if args.plans:
        print_plans()
    elif args.fit:
        fit()
    else:
        measure()


if __name__ == "__main__":
    main()
