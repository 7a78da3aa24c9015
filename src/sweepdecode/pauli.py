"""Phaseless n-qubit Pauli operators and the shared code data model.

Operators are stored as (x, z) bit vectors: qubit i carries X^x_i Z^z_i and
the overall phase is dropped, so multiplication is XOR and commutation is
the symplectic form.  All code families produce a :class:`CodeDefinition`;
everything downstream (syndromes, coset representatives, class labels)
works through the operations here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PauliOperator",
    "CodeDefinition",
    "commutes",
    "logical_class",
    "pauli_to_string",
    "validate_code",
    "stabiliser_basis",
    "gf2_rref",
    "gf2_nullspace",
    "syndrome_batch",
    "pure_error_batch",
    "format_code",
]


def _only_bits(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, which must hold only 0 and 1 (booleans included)."""
    if not (arr.astype(bool) == arr).all():  # only 0 and 1 equal their truth value
        raise ValueError(f"{what} must hold only 0 and 1")
    return arr


def _as_bits(v, what: str, n=None) -> np.ndarray:
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise ValueError("bit vectors must be one-dimensional")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"expected length {n}, got {arr.shape[0]}")
    arr = _only_bits(arr, what).astype(np.uint8)  # a copy, C-contiguous as 1-d
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PauliOperator:
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = _as_bits(self.x, "x")
        z = _as_bits(self.z, "z", x.shape[0])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.x.tobytes(), self.z.tobytes()))

    def __str__(self) -> str:
        return pauli_to_string(self)

    def __repr__(self) -> str:
        return f"PauliOperator({pauli_to_string(self)!r})"


_BITS_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def pauli_to_string(p: PauliOperator) -> str:
    return "".join(_BITS_CHAR[(int(a), int(b))] for a, b in zip(p.x, p.z))


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    if p.n != q.n:
        raise ValueError(f"operator lengths differ: {p.n} vs {q.n}")
    overlap = int(np.dot(p.x, q.z)) + int(np.dot(p.z, q.x))
    return overlap % 2 == 0


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def gf2_rref(m: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns ``(r, pivots, transform)`` with ``r = (transform @ m) % 2`` in
    RREF and ``pivots`` the pivot column of each leading row.
    """
    r = np.array(m, dtype=np.uint8) % 2
    rows, cols = r.shape
    t = np.eye(rows, dtype=np.uint8)
    pivots = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        hit = np.nonzero(r[lead:, col])[0]
        if hit.size == 0:
            continue
        sel = lead + int(hit[0])
        if sel != lead:
            r[[lead, sel]] = r[[sel, lead]]
            t[[lead, sel]] = t[[sel, lead]]
        mask = r[:, col].copy()
        mask[lead] = 0
        idx = np.nonzero(mask)[0]
        if idx.size:
            r[idx] ^= r[lead]
            t[idx] ^= t[lead]
        pivots.append(col)
        lead += 1
    return r, pivots, t


def gf2_nullspace(m: np.ndarray) -> np.ndarray:
    """Basis (rows) of the right nullspace of m over GF(2)."""
    r, pivots, _ = gf2_rref(m)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for row, pc in enumerate(pivots):
            if r[row, fc]:
                basis[k, pc] = 1
    return basis


# ---------------------------------------------------------------------------
# Code model


@dataclass
class CodeDefinition:
    """A planar code with one logical qubit.

    ``checks`` holds the stabiliser generators, or the gauge generators for
    subsystem codes (then ``is_subsystem`` is set and the stabiliser
    subgroup is derived, not stored).  Coordinates give the planar layout
    used to build decoding networks.
    """

    n: int
    checks: list
    logical_x: PauliOperator
    logical_z: PauliOperator
    qubit_coords: list
    check_coords: list
    claimed_distance: int
    is_subsystem: bool = False
    family: str = ""

    @property
    def num_checks(self) -> int:
        return len(self.checks)

    @cached_property
    def check_matrix(self) -> np.ndarray:
        """(num_checks, 2n) rows [z-bits | x-bits]: row @ [e.x | e.z] gives
        the commutation bit of each check with e."""
        m = np.zeros((self.num_checks, 2 * self.n), dtype=np.uint8)
        for i, c in enumerate(self.checks):
            m[i, : self.n] = c.z
            m[i, self.n :] = c.x
        m.setflags(write=False)
        return m

    @cached_property
    def _solver(self) -> tuple:
        """``(pivots, t)`` of the check matrix's row reduction."""
        _, pivots, t = gf2_rref(self.check_matrix)
        t.setflags(write=False)
        return pivots, t

    @cached_property
    def _stabilisers(self) -> list:
        """:func:`stabiliser_basis`, from the check matrix's rows."""
        m = self.check_matrix
        rows = np.concatenate([m[:, self.n :], m[:, : self.n]], axis=1)  # [x | z]
        if self.is_subsystem:
            # Gram matrix of the symplectic form restricted to the gauge
            # span: its nullspace picks out the central combinations.
            rows = (gf2_nullspace((rows @ m.T) % 2) @ rows) % 2
        r, pivots, _ = gf2_rref(rows)
        return [PauliOperator(b[: self.n], b[self.n :]) for b in r[: len(pivots)]]


def _batch(bits, width: int, what: str) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what} must be a (batch, {width}) array, got shape {arr.shape}")
    return _only_bits(arr, what)


def syndrome_batch(code: CodeDefinition, x_bits: np.ndarray, z_bits: np.ndarray) -> np.ndarray:
    """Syndromes of many errors at once; bits are (batch, n) arrays.

    Returns (batch, num_checks) uint8.
    """
    vecs = np.concatenate([_batch(x_bits, code.n, "x bits"),
                           _batch(z_bits, code.n, "z bits")], axis=1)
    return (vecs @ code.check_matrix.T) % 2


def pure_error_batch(code: CodeDefinition, syns: np.ndarray):
    """Deterministic Paulis whose syndromes are the rows of ``syns``,
    a (batch, num_checks) array.

    Solves the GF(2) system through a row-reduced form precomputed per
    code; the reduced form is in RREF, so pivot variables read directly
    off the reduced right-hand side.  For codes with dependent checks (subsystem gauge
    generators) an inconsistent target raises.  Returns (x_bits, z_bits)
    arrays of shape (batch, n).
    """
    syns = np.asarray(_batch(syns, code.num_checks, "syndromes"), dtype=np.uint8)
    pivots, t = code._solver
    rhs = (syns @ t.T) % 2
    rank = len(pivots)
    if np.any(rhs[:, rank:]):
        raise ValueError("some syndromes are not attainable by any Pauli error")
    sol = np.zeros((syns.shape[0], 2 * code.n), dtype=np.uint8)
    sol[:, pivots] = rhs[:, :rank]
    return sol[:, : code.n], sol[:, code.n :]


def stabiliser_basis(code: CodeDefinition) -> list:
    """Independent generators of the stabiliser subgroup.

    For stabiliser codes these are the row-reduced checks; for subsystem
    codes they span the center of the gauge group (products of gauge
    generators commuting with the whole group), found by linear algebra on
    the symplectic Gram matrix.  Computed once per code.
    """
    return code._stabilisers


def logical_class(code: CodeDefinition, p: PauliOperator) -> str:
    """Which logical coset a syndrome-free operator belongs to.

    The label pairs anticommutation with the logical Z (acting as X) and
    with the logical X (acting as Z): I, X, Z, or Y.
    """
    for s in stabiliser_basis(code):
        if not commutes(p, s):
            raise ValueError("operator does not commute with the stabiliser group")
    anti_z = not commutes(p, code.logical_z)
    anti_x = not commutes(p, code.logical_x)
    return {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(int(anti_z), int(anti_x))]


def validate_code(code: CodeDefinition):
    """Raise if the definition violates its structural invariants."""
    for c in code.checks:
        if c.n != code.n:
            raise ValueError("check length differs from code.n")
    if code.logical_x.n != code.n or code.logical_z.n != code.n:
        raise ValueError("logical length differs from code.n")
    if len(code.qubit_coords) != code.n:
        raise ValueError("qubit_coords must list one position per qubit")
    if len(code.check_coords) != code.num_checks:
        raise ValueError("check_coords must list one position per check")
    if len(set(code.qubit_coords)) != code.n:
        raise ValueError("qubit_coords must be distinct")
    if code.claimed_distance < 1:
        raise ValueError("claimed_distance must be positive")

    if not code.is_subsystem:
        rows_x = np.array([c.x for c in code.checks], dtype=np.uint8)
        rows_z = np.array([c.z for c in code.checks], dtype=np.uint8)
        gram = (rows_x @ rows_z.T + rows_z @ rows_x.T) % 2
        if gram.any():
            bad = np.argwhere(gram)
            raise ValueError(f"checks {bad[0][0]} and {bad[0][1]} anticommute")
    for c in code.checks:
        if not commutes(code.logical_x, c):
            raise ValueError("logical_x anticommutes with a check")
        if not commutes(code.logical_z, c):
            raise ValueError("logical_z anticommutes with a check")
    if commutes(code.logical_x, code.logical_z):
        raise ValueError("logical_x must anticommute with logical_z")


# ---------------------------------------------------------------------------
# Serialization


def format_code(code: CodeDefinition) -> str:
    lines = [
        "[code]",
        f"n={code.n}",
        f"distance={code.claimed_distance}",
        f"subsystem={'true' if code.is_subsystem else 'false'}",
    ]
    if code.family:
        lines.append(f"family={code.family}")
    lines.append("[checks]")
    lines.extend(pauli_to_string(c) for c in code.checks)
    lines.append("[logicals]")
    lines.append(pauli_to_string(code.logical_x))
    lines.append(pauli_to_string(code.logical_z))
    lines.append("[qubit_coords]")
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in code.qubit_coords)
    lines.append("[check_coords]")
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in code.check_coords)
    return "\n".join(lines) + "\n"
