#!/usr/bin/env python3
"""Fingerprint the bits of the sweep's values on fixed networks.

    python scripts/sweep_bits.py

Run it from the repository root.  Per group of networks and ``chi`` it
prints the first 16 hex digits of the sha256 of every value's
``float.hex(mantissa)`` and ``float.hex(log_scale)``, in order, and how
many values went in.  The groups:

- the netgen corpus of ``tests/test_sweep.py`` at chi None, 1, 2, 4 and 8;
- the fold cases (square, triangular, hexagonal and subsystem codes at
  d=3 and d=5, and subsystem d=7) at chi None and 8;
- the four coset networks of each of 16 seeded depolarising shots of
  square d=5 at p=0.15 and subsystem d=5 at p=0.05, at chi None and 8;
- the four coset networks of each of 4 seeded shots of square d=7 at
  p=0.1, at chi 8, where chi binds and every sweep compresses;
- the scale-range networks, at chi None and 2: the positive 3x3 grid
  times 1e-100, 1e-160 and 1e-200 and two bonded ``[1e200, 1e200]``
  vertices, whose merged step arrays float64's normal range cannot hold,
  and an unfolded network whose tensors are times 2^1020 and 2^-1060 in
  turn.

Every network is built by the test helpers under ``tests/``, so a change
that must leave every value bit-identical prints the same lines before and
after it: run the script in a copy of each revision and compare.

    python scripts/sweep_bits.py --dump PATH
    python scripts/sweep_bits.py --against PATH

``--dump`` also writes every value of every group to ``PATH`` as JSON,
``float.hex`` of the mantissa and of ``log_scale`` per value.
``--against`` reads such a file, written in a copy of another revision,
and prints per group, beside the digest, the largest relative difference
of ``log|mantissa| + log_scale`` between the two revisions and how many
mantissas differ: a change that moves the last bits of a scale on purpose
is compared within a tolerance.
"""

import argparse
import hashlib
import json
import math
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from netgen import depolarised_coset_networks  # noqa: E402
from sweepdecode.sweep import sweep_contract  # noqa: E402
from test_sweep import (  # noqa: E402
    code_network, code_of, fold_cases, netgen_corpus, scale_range_networks)

SHOTS = 16
COSET_CODES = (("square", 0.15), ("subsystem", 0.05))
BINDING_SHOTS = 4


def values(networks, chi) -> list:
    """``[mantissa, log_scale]`` of the sweep of each network, in order."""
    return [list(sweep_contract(tn, chi)) for tn in networks]


def digest(vals) -> str:
    h = hashlib.sha256()
    for mantissa, log_scale in vals:
        h.update(f"{mantissa.hex()} {log_scale.hex()}\n".encode())
    return f"{h.hexdigest()[:16]} ({len(vals)} values)"


def log_value(mantissa: float, log_scale: float) -> float:
    """``log|mantissa| + log_scale``, -inf for a zero value."""
    return math.log(abs(mantissa)) + log_scale if mantissa else -math.inf


def compare(vals, other) -> str:
    """The largest relative difference of the log values of ``vals`` and
    ``other``, and the count of mantissas that differ."""
    if len(vals) != len(other):
        return f"{len(other)} values against, not comparable"
    worst, mismatched = 0.0, 0
    for (m, scale), (other_m, other_scale) in zip(vals, other):
        # a mantissa differs when its value or, for a zero, its sign does
        mismatched += m != other_m or math.copysign(1.0, m) != math.copysign(1.0, other_m)
        a, b = log_value(m, scale), log_value(other_m, other_scale)
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return f"log values within {worst:.2e} relative, {mismatched} mantissas differ"


def cosets(family, d, p, shots) -> list:
    """The four coset networks of each of ``shots`` seeded shots."""
    code = code_of(family, d)
    return [tn for shot in range(shots)
            for tn in depolarised_coset_networks(code, p, np.random.default_rng(shot))]


def groups():
    """``(name, networks, chi)`` of every group, in print order."""
    corpus = netgen_corpus()
    for chi in (None, 1, 2, 4, 8):
        yield f"netgen corpus chi={chi}", corpus, chi
    folds = [code_network(family, d) for family, d in fold_cases()]
    for chi in (None, 8):
        yield f"fold cases chi={chi}", folds, chi
    for family, p in COSET_CODES:
        networks = cosets(family, 5, p, SHOTS)
        for chi in (None, 8):
            yield f"{family} d=5 p={p} cosets of {SHOTS} shots chi={chi}", networks, chi
    binding = cosets("square", 7, 0.1, BINDING_SHOTS)
    yield f"square d=7 p=0.1 cosets of {BINDING_SHOTS} shots chi=8", binding, 8
    ranges = scale_range_networks()
    for chi in (None, 2):
        yield f"scale-range networks chi={chi}", ranges, chi


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", metavar="PATH", help="write every value as hex to PATH")
    ap.add_argument("--against", metavar="PATH", help="compare with the values in PATH")
    args = ap.parse_args(argv)
    against = None
    if args.against:
        with open(args.against) as f:
            against = {name: [[float.fromhex(x) for x in v] for v in vals]
                       for name, vals in json.load(f).items()}
    dumped = {}
    for name, networks, chi in groups():
        vals = values(networks, chi)
        line = f"{name}: {digest(vals)}"
        if against is not None:
            line += "; " + (compare(vals, against[name]) if name in against else "not in the file")
        print(line, flush=True)
        dumped[name] = [[m.hex(), s.hex()] for m, s in vals]
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dumped, f, indent=0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
