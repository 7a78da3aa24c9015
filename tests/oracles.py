"""Independent reference implementations used to pin expected values.

These deliberately avoid the package's contraction machinery: the network
oracle is a literal sum over all joint bond-index assignments, evaluated in
chunks so larger index spaces stay within memory.  The crossing oracle is
the plain scan over all pairs of bonds that planarize's grid search must
reproduce.
"""

import math
from unittest import mock

import numpy as np

from sweepdecode.sweep import network


def loop_contract(a: np.ndarray, b: np.ndarray, axis_pairs):
    """Nested-loop pairwise contraction of two plain arrays."""
    import itertools

    pairs = list(axis_pairs)
    a_paired = [p[0] for p in pairs]
    b_paired = [p[1] for p in pairs]
    a_free = [ax for ax in range(a.ndim) if ax not in a_paired]
    b_free = [ax for ax in range(b.ndim) if ax not in b_paired]
    out_shape = tuple(a.shape[ax] for ax in a_free) + tuple(b.shape[ax] for ax in b_free)
    out = np.zeros(out_shape)
    sum_ranges = [range(a.shape[p[0]]) for p in pairs]
    for out_idx in itertools.product(*(range(d) for d in out_shape)):
        acc = 0.0
        for summed in itertools.product(*sum_ranges):
            ia = [0] * a.ndim
            ib = [0] * b.ndim
            for ax, v in zip(a_free, out_idx[: len(a_free)]):
                ia[ax] = v
            for ax, v in zip(b_free, out_idx[len(a_free) :]):
                ib[ax] = v
            for (pa, pb), v in zip(pairs, summed):
                ia[pa] = v
                ib[pb] = v
            acc += a[tuple(ia)] * b[tuple(ib)]
        out[out_idx] = acc
    return out


def brute_force_value(tn, chunk=1 << 19):
    """Index-sum value of a closed network.

    Sums, over every joint assignment of all bond indices, the product of
    one element per vertex.  Returns ``(value, log_scale, abs_sum)`` where
    log_scale collects the vertices' scale fields, the value part is
    unnormalized, and abs_sum (the same sum over absolute products) sets
    the scale against which cancellation error should be judged.
    """
    bonds = list(tn.bonds)
    dims = [b.dimension for b in bonds]
    n_assign = int(np.prod(dims, dtype=np.int64)) if dims else 1
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()

    vertex_axes = {}
    for v in tn.vertices.values():
        amap = {}
        for k, b in enumerate(bonds):
            if b.endpoint_a[0] == v.id:
                amap[b.endpoint_a[1]] = k
            if b.endpoint_b[0] == v.id:
                amap[b.endpoint_b[1]] = k
        vertex_axes[v.id] = [amap[a] for a in range(v.tensor.rank)]

    total = 0.0
    total_abs = 0.0
    log_extra = sum(v.tensor.log_scale for v in tn.vertices.values())
    for start in range(0, n_assign, chunk):
        flat = np.arange(start, min(start + chunk, n_assign), dtype=np.int64)
        rows = {}
        prod = np.ones(len(flat))
        for v in tn.vertices.values():
            if not vertex_axes[v.id]:
                prod = prod * float(v.tensor.elements)
                continue
            sel = []
            for k in vertex_axes[v.id]:
                if k not in rows:
                    rows[k] = (flat // strides[k]) % dims[k]
                sel.append(rows[k])
            prod = prod * v.tensor.elements[tuple(sel)]
        total += float(prod.sum())
        total_abs += float(np.abs(prod).sum())
    return total, log_extra, total_abs


def assert_matches_oracle(result, tn, rel=1e-10):
    """Compare a SweepValue against brute_force_value in a shared frame."""
    mant, log_extra, total_abs = brute_force_value(tn)
    got = result.mantissa * math.exp(result.log_scale - log_extra)
    assert got == got, "contraction produced NaN"
    # When massive cancellation shrinks the value, judge against the
    # summand magnitude instead of the (possibly zero) result.
    tol = rel * max(abs(mant), 1e-5 * total_abs)
    assert abs(got - mant) <= tol, f"expected {mant}, got {got} (tol {tol})"


def first_crossing_all_pairs(bonds, pos):
    """First crossing ``(i, j, point)`` over all bond pairs in ``(i, j)`` order.

    Tests every pair of bonds without a shared vertex with
    ``network._proper_crossing``; O(B^2) segment tests for B bonds.
    """
    for i in range(len(bonds)):
        a = bonds[i]
        pa1, pa2 = pos[a.endpoint_a[0]], pos[a.endpoint_b[0]]
        for j in range(i + 1, len(bonds)):
            b = bonds[j]
            if {a.endpoint_a[0], a.endpoint_b[0]} & {b.endpoint_a[0], b.endpoint_b[0]}:
                continue
            pb1, pb2 = pos[b.endpoint_a[0]], pos[b.endpoint_b[0]]
            pt = network._proper_crossing(pa1, pa2, pb1, pb2)
            if pt is not None:
                return i, j, pt
    return None


def planarize_all_pairs(tn):
    """``planarize`` with its crossing search replaced by the all-pairs scan."""
    with mock.patch.object(network, "_find_crossing", first_crossing_all_pairs):
        return network.planarize(tn)
