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
  square d=5 at p=0.15 and subsystem d=5 at p=0.05, at chi None and 8.

Every network is built by the test helpers under ``tests/``, so a change
that must leave every value bit-identical prints the same lines before and
after it: run the script in a copy of each revision and compare.
"""

import hashlib
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from netgen import depolarised_coset_networks  # noqa: E402
from sweepdecode.sweep import sweep_contract  # noqa: E402
from test_sweep import code_network, code_of, fold_cases, netgen_corpus  # noqa: E402

SHOTS = 16
COSET_CODES = (("square", 0.15), ("subsystem", 0.05))


def digest(networks, chi) -> str:
    h = hashlib.sha256()
    for tn in networks:
        value = sweep_contract(tn, chi)
        h.update(f"{value.mantissa.hex()} {value.log_scale.hex()}\n".encode())
    return f"{h.hexdigest()[:16]} ({len(networks)} values)"


def main() -> int:
    corpus = netgen_corpus()
    for chi in (None, 1, 2, 4, 8):
        print(f"netgen corpus chi={chi}: {digest(corpus, chi)}", flush=True)
    folds = [code_network(family, d) for family, d in fold_cases()]
    for chi in (None, 8):
        print(f"fold cases chi={chi}: {digest(folds, chi)}", flush=True)
    for family, p in COSET_CODES:
        code = code_of(family, 5)
        cosets = [tn for shot in range(SHOTS)
                  for tn in depolarised_coset_networks(code, p, np.random.default_rng(shot))]
        for chi in (None, 8):
            print(f"{family} d=5 p={p} cosets of {SHOTS} shots chi={chi}: {digest(cosets, chi)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
