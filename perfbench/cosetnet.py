"""Coset networks for maximum-likelihood decoding, built from a CodeDefinition.

The package has no decoder yet, so the benchmark builds the networks of
arXiv:2101.04125 itself.  For a syndrome with pure error f, the weight of
logical coset L is the sum, over every assignment of one bit per generator
(stabiliser or gauge generator), of the noise probability of the Pauli
f * L * prod_j g_j^{b_j}.  As a network:

* one rank-k delta (copy) tensor per generator, at ``check_coords``, with
  one leg per qubit in its support;
* one tensor per qubit, at ``qubit_coords``, with one leg per incident
  generator, mapping those bits to the probability of the Pauli they imply
  on that qubit (times the residual Pauli of f * L there).

Dependent generators (subsystem gauge sets) make every coset's sum count
each operator the same number of times, so the argmax is unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from sweepdecode import pauli
from sweepdecode.sweep import Bond, TensorNetwork2D, TNVertex, contract
from sweepdecode.tensor import DenseTensor

# Coset order; a Pauli on one qubit is indexed x + 2 z, so I, X, Z, Y.
CLASSES = ("I", "X", "Z", "Y")


def depolarising(p: float) -> np.ndarray:
    """Single-qubit probabilities of I, X, Z, Y."""
    return np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])


class CosetNetworks:
    """Per-code skeleton of the four coset networks.

    Everything that does not depend on the syndrome (generator tensors,
    bonds, and each qubit's four possible tensors) is made once here;
    :meth:`network` only picks one tensor per qubit.
    """

    def __init__(self, code, probs):
        n, m = code.n, code.num_checks
        self.code = code
        gx = np.array([c.x for c in code.checks], dtype=np.uint8)
        gz = np.array([c.z for c in code.checks], dtype=np.uint8)
        support = (gx | gz).astype(bool)

        self.check_vertices = []
        self.bonds = []
        qubit_checks = [[] for _ in range(n)]
        for j in range(m):
            qubits = np.flatnonzero(support[j])
            delta = np.zeros((2,) * len(qubits))
            delta[(0,) * len(qubits)] = 1.0
            delta[(1,) * len(qubits)] = 1.0
            self.check_vertices.append(
                TNVertex(j, DenseTensor(delta), tuple(code.check_coords[j])))
            for axis, q in enumerate(qubits):
                self.bonds.append(Bond((j, axis), (m + q, len(qubit_checks[q])), 2))
                qubit_checks[q].append(j)

        # qubit_tensors[q][r]: tensor of qubit q when f * L carries the
        # Pauli indexed r on it; entry b is the probability of r times the
        # generators' Paulis selected by the bit vector b.
        self.qubit_tensors = []
        for q in range(n):
            checks = qubit_checks[q]
            k = len(checks)
            bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            px = (bits @ gx[checks, q]) % 2
            pz = (bits @ gz[checks, q]) % 2
            gen = px + 2 * pz
            self.qubit_tensors.append([
                DenseTensor(probs[gen ^ r].reshape((2,) * k)) for r in range(4)
            ])
        self.qubit_ids = [m + q for q in range(n)]
        self.qubit_coords = [tuple(c) for c in code.qubit_coords]

        lx = code.logical_x.x + 2 * code.logical_x.z
        lz = code.logical_z.x + 2 * code.logical_z.z
        self.logicals = np.array([np.zeros(n, np.uint8), lx, lz, lx ^ lz])

    def residuals(self, syn: np.ndarray) -> np.ndarray:
        """(4, n) Pauli indices of f * L for each coset L of syndrome ``syn``."""
        fx, fz = pauli.pure_error_batch(self.code, syn[None, :])
        return (fx[0] + 2 * fz[0])[None, :] ^ self.logicals

    def network(self, residual) -> TensorNetwork2D:
        """The coset network whose qubits carry the residual Paulis given."""
        vertices = list(self.check_vertices)
        for vid, pos, tensors, r in zip(
                self.qubit_ids, self.qubit_coords, self.qubit_tensors, residual):
            vertices.append(TNVertex(vid, tensors[r], pos))
        return TensorNetwork2D(vertices, self.bonds)


def log_weight(value) -> float:
    """Natural log of a SweepValue; -inf for a zero-weight coset."""
    if value.mantissa <= 0.0:
        return -math.inf
    return math.log(value.mantissa) + value.log_scale


def decode(nets: CosetNetworks, x_bits, z_bits, chi):
    """Decode one error sample: syndrome in, logical class index out.

    Returns ``(class_index, log_weights)``.  Layers are called through their
    modules (and the builder through its class) so a tracer can wrap them.
    """
    syn = pauli.syndrome_batch(nets.code, x_bits[None, :], z_bits[None, :])[0]
    logw = [log_weight(contract.sweep_contract(nets.network(r), chi))
            for r in nets.residuals(syn)]
    return int(np.argmax(logw)), logw
