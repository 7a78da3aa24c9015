#!/usr/bin/env python3
"""Self-test: the benchmark's coset networks compute maximum-likelihood
coset weights.

    python3 perfbench/selftest.py      # from the repository root

At d=3 the square code has 12 stabiliser generators (4096 group terms) and
the subsystem code 20 gauge generators (2^20 terms, dependent ones
included, as the network sums them).  For seeded syndromes, the four coset
weights of each network, contracted exactly, must equal the brute-force
sums over all generator assignments to 1e-12 relative error, and the
sampled error must lie in the coset labelled with its class.  Exit status
0 on success, 1 on a mismatch.
"""

import math
import os
import sys

import numpy as np

REL_TOL = 1e-12
P = 0.15
SYNDROMES = 4  # per code: the trivial one and three nontrivial sampled ones


class GroupSum:
    """Every product of a subset of the code's generators, as bitmasks.

    Operators are one uint64 per x and z part, enumerated by doubling, so
    the subset sum the network performs is reproduced term by term.
    """

    def __init__(self, code):
        if code.n > 64:
            raise ValueError("brute force packs one qubit per bit of a uint64")
        self.n = code.n
        self._bits = np.uint64(1) << np.arange(code.n, dtype=np.uint64)
        self.xs = np.zeros(1, dtype=np.uint64)
        self.zs = np.zeros(1, dtype=np.uint64)
        for g in code.checks:
            self.xs = np.concatenate([self.xs, self.xs ^ self.mask(g.x)])
            self.zs = np.concatenate([self.zs, self.zs ^ self.mask(g.z)])

    def mask(self, bits):
        return np.uint64(int(np.dot(np.asarray(bits, dtype=np.uint64), self._bits)))

    def contains(self, x, z) -> bool:
        return bool(np.any((self.xs == self.mask(x)) & (self.zs == self.mask(z))))

    def log_weight(self, residual, probs) -> float:
        """log of the sum over the group of P(residual * g); depolarising
        noise makes each term depend only on its non-identity count."""
        k = np.bitwise_count((self.xs ^ self.mask(residual & 1))
                             | (self.zs ^ self.mask(residual >> 1)))
        counts = np.bincount(k, minlength=self.n + 1)
        terms = [math.log(c) + (self.n - j) * math.log(probs[0]) + j * math.log(probs[1])
                 for j, c in enumerate(counts) if c]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))


def check_code(name, code, seed) -> bool:
    from sweepdecode import pauli
    from sweepdecode.sweep import sweep_contract

    from bench import true_class
    from cosetnet import CLASSES, CosetNetworks, depolarising, log_weight

    probs = depolarising(P)
    nets = CosetNetworks(code, probs)
    group = GroupSum(code)
    rng = np.random.default_rng(seed)
    ok = True
    for s in range(SYNDROMES):
        k = np.zeros(code.n, dtype=np.int64)
        syn = np.zeros(code.num_checks, dtype=np.uint8)
        while s and not syn.any():
            k = rng.choice(4, size=code.n, p=probs)
            x, z = (k & 1).astype(np.uint8), (k >> 1).astype(np.uint8)
            syn = pauli.syndrome_batch(code, x[None, :], z[None, :])[0]
        x, z = (k & 1).astype(np.uint8), (k >> 1).astype(np.uint8)
        residuals = nets.residuals(syn)
        true = true_class(code, x, z)
        labelled = group.contains(x ^ (residuals[true] & 1), z ^ (residuals[true] >> 1))
        net = [log_weight(sweep_contract(nets.network(r), None)) for r in residuals]
        ref = [group.log_weight(r, probs) for r in residuals]
        rel = max(abs(math.expm1(a - b)) for a, b in zip(net, ref))
        good = rel <= REL_TOL and labelled
        ok &= good
        print(f"{name} syndrome {s}: max relative error {rel:.2e}, error in coset "
              f"{CLASSES[true]}: {labelled}  {'ok' if good else 'FAIL'}  "
              f"log w = {[round(v, 6) for v in ref]}")
    return ok


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from sweepdecode.codes.graphs import surface_code_from_graph
    from sweepdecode.codes.lattices import regular_lattice
    from sweepdecode.codes.subsystem import subsystem_code

    square = surface_code_from_graph(regular_lattice("square", 3), family="square")
    ok = check_code(f"square d=3 ({square.num_checks} generators)", square, seed=3)
    sub = subsystem_code(3)
    ok &= check_code(f"subsystem d=3 ({sub.num_checks} generators)", sub, seed=3)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
