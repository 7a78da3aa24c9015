"""Sweep-line contraction of planar tensor networks.

:func:`run` sweeps a closed network along its :class:`Plan`
(:func:`plan_sweep`) and does only numerics: it absorbs each step's array
into a boundary matrix product state, and compresses that state when it
grows too wide.  Of the plan it reads ``chi``, the bond cap it compresses
to; ``steps``, the absorptions in order; ``shapes``, the shape of each
step's array; and ``cuts``, the memo of the cuts that split each
absorption into sites, which every sweep of the plan shares.
:func:`sweep_contract` is the cached wrapper for networks given one at a
time: it keeps, per geometry and ``chi``, the plan and a memo of the
arrays its steps absorb, each laid out in its step's order and keyed by
the tensor objects it was built from, so a decoder, which sweeps networks
of one code over and over, plans once and builds each array once.

Each rule is stated where it is enforced:

- the arrays a sweep accepts: :func:`run`;
- the array a step absorbs: :func:`_step_arrays`, which reads the memo
  of step arrays, :class:`_MergeMemo`, and :func:`_build`, which checks
  the tensors of a miss and fills the memo up to ``MERGE_MEMO_BYTES``;
- the plan cache and its lookup by geometry: :func:`_plan_for`;
- an absorption and the split of its consumed run (``_Step.split``):
  :func:`contract_step`;
- a cut as the chain takes it, its identity sites built (the cut itself
  is :func:`plan._split`'s): :func:`_cut`, kept in the memo of cuts
  (``Plan.cuts``), which :func:`run` hands the chain;
- the pass-through identities, the chain's read-only sites:
  :class:`MPSState`;
- a site's scale and the non-finite check: ``MPSState._normalize_site``;
- the truncation and its LAPACK calls: :func:`compress_mps`.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

# planarize, the check plan_sweep runs, stays a name of this module, where
# the layer trace of perfbench/ looks it up
from .network import TensorNetwork2D, _check_fields, _check_tensor, planarize  # noqa: F401
from .plan import IDENTITY_MEMO_MAX, ContractionError, Plan, _Step, _bond_cap, _checked_chi
from .plan import _compress_above, _split, plan_sweep

__all__ = ["SweepValue", "run", "sweep_contract"]

# Singular values below this fraction of the largest are dropped on every
# compression, even when ``chi`` is not binding: they are rounding noise.
REL_CUTOFF = 1e-14

# Plans kept at once.  A decoder contracts the networks of one code over
# and over, so a handful of geometries covers it.  A lookup compares the
# network's geometry with the kept plans', most recently used first, so
# decoding one code compares with one plan per call.
PLAN_CACHE_SIZE = 8

# Bytes one plan's memo of step arrays (_MergeMemo) may hold, counting its
# arrays and the input tensors its keys keep alive.  It holds every step's
# array, merged or not.  An array depends only on the tensors of its
# vertex (and, folded, of the vertices merged into it), and a coset
# network picks each qubit's from four, so a code has few variants.  Every
# merged variant of the benchmark's codes, measured: square d=5 at chi=8,
# 172 entries of 0.06 MB (0.09 MB with their keys); subsystem d=5 exact,
# paired, 388 entries of 0.39 MB (0.53 MB).  The larger fits four times
# over.  An unfolded plan holds one entry per vertex and variant: square
# d=7 at chi=8, 293 entries of 0.06 MB after 64 shots (plan_model.py
# --plans).  All cached plans together hold at most PLAN_CACHE_SIZE *
# MERGE_MEMO_BYTES = 16 MB.
MERGE_MEMO_BYTES = 2 << 20


class SweepValue(NamedTuple):
    """Contraction result: value = mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float


@dataclass
class MPSState:
    """Open boundary of a partial contraction.

    ``sites[k]`` is a float64 array with axes (left bond, open leg, right
    bond); which network bond each open leg carries is fixed by the sweep
    plan.  The outermost bonds have extent 1.  Magnitudes are folded into
    ``log_scale`` (site arrays are kept near unit scale); ``mantissa``
    accumulates the sign/value once the boundary closes.

    The pass-through identities :func:`contract_step` emits either side of
    its data site are read-only views of :func:`_identity`, and they are
    the chain's only read-only sites: every other site is a fresh array (a
    reshaped product, a normalised copy or a compression factor).  One
    emitted right of a data site keeps a fresh site on its left, so the
    read-only sites at the left end of the chain are ``np.eye(l * d)``
    reshaped to ``(l, d, l * d)``, which :func:`compress_mps` finds by
    their flag.  The chain is internal to the sweep for that reason.

    ``emitted`` is the largest bond the last :func:`contract_step` made
    between the sites it emitted, 0 when it made none.  ``cuts`` is the
    memo of the cuts :func:`contract_step` makes: :func:`run` hands the
    chain its plan's (``Plan.cuts``), and a bare ``MPSState()`` has an
    empty one of its own.
    """

    sites: list = field(default_factory=list)
    log_scale: float = 0.0
    mantissa: float = 1.0
    emitted: int = 0
    cuts: dict = field(default_factory=dict)

    def max_bond(self) -> int:
        if len(self.sites) < 2:
            return 1 if self.sites else 0
        return max(site.shape[2] for site in self.sites[:-1])

    def _normalize_site(self, k: int):
        """Shift site ``k`` by a power of two so its largest magnitude lands
        in [2^-0.5, 2^0.5], folding the shift into ``log_scale``.

        Only exponent bits change, so the elements are rescaled exactly.
        An all-zero site is left alone; a non-finite one raises.  BLAS
        ``idamax`` finds the largest magnitude, but may pass over a NaN,
        so ``ddot`` of the site with itself, NaN exactly when an element
        is (a sum of squares meets no ``inf - inf``), finds those.
        """
        arr = self.sites[k]
        flat = arr.reshape(-1)
        m = abs(flat.item(_blas.idamax(flat)))
        if math.isinf(m) or math.isnan(_blas.ddot(flat, flat)):
            raise ContractionError("boundary MPS holds a non-finite value")
        if m == 0.0:
            return
        e = round(math.log2(m))
        if e != 0:
            self.sites[k] = np.ldexp(arr, -e)
            self.log_scale += e * math.log(2.0)


class _MergeMemo:
    """The step arrays a cached plan's sweeps have built
    (:func:`_step_arrays`).

    A key is the step's vertex id and the :class:`DenseTensor` objects of
    that vertex and of the vertices its ``_Merge`` absorbs (none when
    unfolded), in the order the recipe reads them.  A tensor hashes by
    identity and its elements never change after construction, so an entry
    is what :func:`_build` would compute from those operands
    again, bit for bit.  Entries are read-only and C-contiguous.  ``nbytes``
    counts the arrays and, per entry, the key's tensors, which the key
    keeps alive.  An entry larger than ``MERGE_MEMO_BYTES`` alone is not
    kept, and an insert that would take ``nbytes`` past it first clears
    the memo.  A key already held, put again by a thread that missed it
    too, keeps its entry and is counted once.
    """

    def __init__(self):
        self.arrays: dict = {}
        self.nbytes = 0
        self._lock = threading.Lock()

    def put(self, key, array: np.ndarray):
        size = array.nbytes + sum(t.elements.nbytes for t in key[1:])
        if size > MERGE_MEMO_BYTES:
            return
        with self._lock:
            if key in self.arrays:
                return
            if self.nbytes + size > MERGE_MEMO_BYTES:
                self.clear()
            self.arrays[key] = array
            self.nbytes += size

    def clear(self):
        self.arrays.clear()
        self.nbytes = 0


def _geometry(tn: TensorNetwork2D) -> tuple:
    """What :func:`plan_sweep` reads from ``tn``, as four flat tuples:
    the vertex ids in dict order, their positions (``tuple()`` returns a
    tuple itself and snapshots a list or array), their tensors' extents,
    and the bonds, immutable :class:`Bond` values."""
    return (tuple(tn.vertices), tuple([tuple(v.position) for v in tn.vertices.values()]),
            tuple([v.tensor.extents for v in tn.vertices.values()]), tuple(tn.bonds))


_plans: list = []  # ((chi, geometry), (plan, memo)), most recently used first
_plans_lock = threading.Lock()


def _plan_for(tn: TensorNetwork2D, chi: int | None = None) -> tuple:
    """``(plan, memo)``: the plan of ``tn`` at ``chi``, already checked
    (:func:`plan._checked_chi`), and the memo of the arrays its steps have
    absorbed (:class:`_MergeMemo`), cached, the plan built on a miss
    (:func:`plan_sweep`).

    A cached plan is found by ``==`` on ``chi`` and :func:`_geometry`,
    everything :func:`plan_sweep` reads from ``tn``: the vertex ids,
    positions and tensor shapes, and the ordered bonds with both endpoints
    and their dimensions.  No key is hashed.  The four coset networks of a
    code and the networks of every syndrome share their position tuples,
    their bond objects and the tensors (with their stored extents) each
    vertex picks from, so the comparison mostly meets the same objects,
    which tuple equality passes without comparing them, and the plan and
    its check are paid once per code and ``chi``.  A network edited in
    place after its plan was cached compares unequal and is planned anew.
    Equal geometries replay the same deterministic build, so a hit's plan
    equals what a rebuild would make, and it stands for a network that
    passed the check, which reads nothing the geometry does not hold but
    the types of the bond fields.  A bond equal to a checked one need not
    pass (``0.0 == 0``, ``True == 1``), so when the bonds of a hit are not
    the cached bond objects themselves, the type checks of
    :func:`planarize` (:func:`_check_fields`) run on them; a decoder's
    networks share their bond objects and skip them.  The memo is keyed by
    tensor identity, and a tensor's elements never change after
    construction, so any network of the geometry may share it: a memo
    entry is what a fresh build would compute from the same tensors.  The
    least recently used of more than ``PLAN_CACHE_SIZE`` entries is
    dropped.  Errors are not cached, so a network that fails a check of
    :func:`plan_sweep` misses and raises on every call, in that function's
    order; so does one with a vertex :func:`_geometry` cannot read.  The
    memo's keys are tensors that passed :func:`planarize`'s tensor check,
    so a hit's tensors that are not keys meet the same check in
    :func:`_build`.
    """
    try:
        key = (chi, _geometry(tn))
    except (TypeError, AttributeError):
        plan_sweep(tn, chi)  # names the vertex, or what it checks first
        raise
    with _plans_lock:
        for i, (cached, entry) in enumerate(_plans):
            if cached == key:
                if i:  # the usual hit, at 0, allocates nothing
                    _plans.insert(0, _plans.pop(i))
                break
        else:
            entry = None
    if entry is not None:
        if not all(map(operator.is_, key[1][3], cached[1][3])):
            for bond in key[1][3]:
                _check_fields(bond)
        return entry
    entry = plan_sweep(tn, chi), _MergeMemo()
    with _plans_lock:
        _plans.insert(0, (key, entry))
        del _plans[PLAN_CACHE_SIZE:]
    return entry


def _step_arrays(plan: Plan, memo: _MergeMemo, vertices: dict):
    """The arrays the steps of ``plan`` absorb, in step order, for a
    network with the vertices ``vertices``, each made as it is read: read
    from ``memo`` when it holds the step's key, built by :func:`_build`
    otherwise.  A key is the step's vertex id and the tensors of that
    vertex and of the vertices its ``_Merge`` absorbs, in the order the
    recipe reads them.  A built array is handed on, not held, so one the
    memo does not keep lives no longer than its step.  A network of a
    cached geometry skips :func:`planarize`'s tensor check, which
    :func:`_build` runs on a miss, so only checked tensors become keys."""
    merges, arrays = plan.layout.merges, memo.arrays
    for step in plan.steps:
        vid = step.vid
        key = (vid, vertices[vid].tensor)
        for member, _, _ in merges[vid].products:  # cheaper than a list per step
            key += (vertices[member].tensor,)
        try:
            x = arrays.get(key)
        except TypeError:  # an unhashable tensor, which _build's check names
            x = None
        yield _build(merges[vid], step, key, memo) if x is None else x


def _build(merge, step: _Step, key: tuple, memo: _MergeMemo) -> np.ndarray:
    """The array ``step`` absorbs, put in ``memo`` under ``key``: the tensor
    ``merge`` builds from the tensors of ``key``, transposed to
    ``step.perm``, read-only and C-contiguous.  Each tensor must be a
    :class:`DenseTensor`, which raises what :func:`planarize` raises for
    it otherwise (:func:`_check_tensor`)."""
    for v, tensor in zip((key[0], *[p[0] for p in merge.products]), key[1:]):
        _check_tensor(v, tensor)
    x = key[1].elements
    for (_, axes, vaxes), absorbed in zip(merge.products, key[2:]):
        x = np.tensordot(x, absorbed.elements, (axes, vaxes))
    x = x.transpose(merge.perm).reshape(merge.out).transpose(step.perm)
    if not x.flags.c_contiguous:
        # np.ascontiguousarray would make a 0-d array 1-d
        x = x.copy()
    x.setflags(write=False)
    memo.put(key, x)
    return x


_identities: dict = {}  # n -> read-only np.eye(n), for n <= IDENTITY_MEMO_MAX


def _identity(n: int) -> np.ndarray:
    """A read-only ``n x n`` identity, shared by every caller when at most
    ``IDENTITY_MEMO_MAX`` wide.

    Sites are never written in place (each update assigns a new array), and
    the read-only flag makes a write that would corrupt every sharer raise.
    """
    eye = _identities.get(n)
    if eye is None:
        eye = np.eye(n)
        eye.setflags(write=False)
        if n <= IDENTITY_MEMO_MAX:
            _identities[n] = eye
    return eye


# Upper-triangle mask of the R factors up to IDENTITY_MEMO_MAX wide; the
# triangle of a (rank, width) factor is its top-left block.
_upper_mask = np.triu(np.ones((IDENTITY_MEMO_MAX, IDENTITY_MEMO_MAX), dtype=bool))
_upper_mask.setflags(write=False)


def _upper(a: np.ndarray) -> np.ndarray:
    """``np.triu(a)``, in C order, with the mask sliced from ``_upper_mask``
    when neither side of ``a`` exceeds ``IDENTITY_MEMO_MAX``."""
    rows, cols = a.shape
    if max(rows, cols) > IDENTITY_MEMO_MAX:
        return np.triu(a)
    r = np.zeros((rows, cols))
    np.copyto(r, a, where=_upper_mask[:rows, :cols])
    return r


def _dot_right(site, mat):
    """``site`` (left, leg, right) times ``mat`` on its right bond."""
    dl, d, dr = site.shape
    return np.dot(site.reshape(dl * d, dr), mat).reshape(dl, d, mat.shape[1])


def _dot_left(mat, site):
    """``mat`` times ``site`` (left, leg, right) on its left bond."""
    dl, d, dr = site.shape
    return np.dot(mat, site.reshape(dl, d * dr)).reshape(mat.shape[0], d, dr)


def _cut(left: int, dims: tuple, right: int) -> tuple:
    """``(shape, t, emitted, before, after)``: the cut of :func:`_split`
    as :func:`contract_step` applies it.  The data site ``t`` has shape
    ``shape``; ``before`` and ``after`` are the read-only identity sites
    left and right of it, views of :func:`_identity` already reshaped.
    Every identity is at most ``emitted`` wide."""
    prefix, suffix, t, emitted = _split(left, dims, right)
    before = tuple(_identity(prefix[k + 1]).reshape(prefix[k], dims[k], prefix[k + 1])
                   for k in range(t))
    after = tuple(_identity(suffix[k]).reshape(suffix[k], dims[k], suffix[k + 1])
                  for k in range(t + 1, len(dims)))
    return (prefix[t], dims[t], suffix[t + 1]), t, emitted, before, after


def contract_step(mps: MPSState, step: _Step, elements: np.ndarray) -> MPSState:
    """Absorb the vertex of ``step``, whose array laid out in the step's
    order (``Plan.shapes``) is ``elements``, into the boundary MPS, in
    place.

    Unsplit (``step.split`` 0), it is one batched matrix product that
    transposes no data.  The consumed run merges, untransposed, into
    ``run`` of shape ``(left, L, right)`` as the chain stores it (a vertex
    with no backward bonds takes the identity on the bond it enters
    across, as ``(p, 1, p)``), and ``np.matmul(W, run)``, with ``W`` the
    elements as given reshaped to ``(S, L)``, gives ``(left, S, right)``,
    already in chain order; at ``left == 1`` a 2-D ``np.dot`` gives the
    same bits for less call overhead.  Split at ``j``, the run is never
    built whole: its first ``j`` sites chain into ``A`` of shape ``(left,
    La, b)`` and the rest into ``BC`` of shape ``(b, Lbc, right)``;
    ``np.matmul(W.reshape(S * La, Lbc), BC)`` gives ``T`` of shape ``(b,
    S * La, right)``, whose copy as ``(La * b, S * right)`` times ``A`` as
    ``(left, La * b)`` is the same ``(left, S, right)`` product, summed in
    another order.  :func:`plan._tally` picks the split where it lowers the
    plan's modelled peak.  The product is cut by :func:`_cut` into the
    data site, a reshape of the product, and read-only views of shared
    identities (:func:`_identity`) either side.  A cut whose identities
    are all at most ``IDENTITY_MEMO_MAX`` wide is made once per ``(left,
    dims, right)`` and kept in ``mps.cuts``, so it retains only shared
    identities.  Consumed sites leave the chain before their replacement
    is built.  The step sets ``mps.emitted`` (:class:`MPSState`).
    """
    _, lo, hi, _, m, split = step
    sites = mps.sites
    if hi >= lo:
        left, right = sites[lo].shape[0], sites[hi].shape[2]
        run = sites.pop(lo)
        for k in range(1, hi - lo + 1):
            site = sites.pop(lo)
            if k == split:
                # the first part is whole; the rest chains from this site
                first, run, b = run, site, site.shape[0]
            else:
                run = np.dot(run.reshape(-1, site.shape[0]), site.reshape(site.shape[0], -1))
            del site
    else:
        # A fresh component enters between pending slots lo-1 and lo; the
        # bond already running there (extent 1 at either end of the chain)
        # passes through the inserted sites untouched.
        left = right = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
        run = _identity(left)
    dims = elements.shape[:m]
    w = elements.reshape(math.prod(dims), -1)
    if split:
        rows, la = w.shape[0], first.size // (left * b)
        run = np.matmul(w.reshape(rows * la, -1), run.reshape(b, -1, right))
        run = run.reshape(b, rows, la, right).transpose(2, 0, 1, 3).reshape(la * b, rows * right)
        merged = np.dot(first.reshape(left, la * b), run)
        del first
    elif left == 1:
        merged = np.dot(w, run.reshape(-1, right))
    else:
        merged = np.matmul(w, run.reshape(left, -1, right))
    del run

    if m == 0:
        # Fully absorbed: a (left, right) matrix folds into a neighbor, or
        # (when the boundary is empty) into the scalar accumulator.
        mat = merged.reshape(left, right)
        del merged
        mps.emitted = 0
        if lo > 0:
            sites[lo - 1] = _dot_right(sites[lo - 1], mat)
        elif sites:
            sites[0] = _dot_left(mat, sites[0])
        else:
            if mat.size != 1:
                raise ContractionError("boundary vanished with open bonds left")
            val = float(mat.reshape(()))
            if not math.isfinite(val):
                raise ContractionError("network value is not finite")
            mag = abs(val)
            if mag == 0.0:
                mps.mantissa = 0.0
            else:
                mps.mantissa *= math.copysign(1.0, val)
                mps.log_scale += math.log(mag)
        if sites:
            mps._normalize_site(max(lo - 1, 0))
        return mps

    key = (left, dims, right)
    cut = mps.cuts.get(key)
    if cut is None:
        cut = _cut(left, dims, right)
        if cut[2] <= IDENTITY_MEMO_MAX:
            mps.cuts[key] = cut
    shape, t, mps.emitted, before, after = cut
    sites[lo:lo] = (*before, merged.reshape(shape), *after)
    mps._normalize_site(lo + t)
    return mps


def _check_info(routine: str, info: int):
    if info != 0:
        raise ContractionError(f"LAPACK {routine} failed (info={info})")


def compress_mps(mps: MPSState, chi: int):
    """Truncate every internal bond of ``mps`` to at most ``chi``.

    A left-to-right QR pass, which skips the pass-through identities at
    the left end of the chain (its leading read-only sites,
    :class:`MPSState`), makes the state left-canonical, then a
    right-to-left SVD pass truncates each bond, dropping the singular
    values beyond ``chi`` and those below ``REL_CUTOFF`` of the largest.  In that gauge each bond's
    truncation is optimal and successive error vectors are mutually
    orthogonal, so the boundary discard

        sqrt(sum_k dropped_k^2) / |psi|

    is the exact relative error of this compression, not an upper bound.
    Returns ``(mps, discard)``; the state is modified in place.  A ``chi``
    that is not an integer of at least 1 raises ``ValueError``.

    The QR is LAPACK ``dgeqrf`` then ``dorgqr``, the SVD ``dgesdd`` with
    thin factors, called through ``scipy.linalg.lapack``; a nonzero
    ``info`` raises :class:`ContractionError`.  This is what
    ``np.linalg.qr``/``svd`` run, without their per-call checks and
    workspace queries, which cost more than the arithmetic on the few
    dozen rows of a decoder's bonds.  QR workspaces are the minimum LAPACK
    accepts (the column count) and are freed at once, so they add nothing
    to the peak memory of a sweep; below 128 rows or columns LAPACK takes
    its unblocked path whatever the workspace, as it does under
    ``np.linalg``.  LAPACK returns Fortran-order factors; ``q`` and the
    kept parts of ``u`` and ``vt`` are copied to C order before any
    product, because BLAS rounds a product differently for each operand
    layout, and in C order every value is bit-identical to the
    ``np.linalg`` path.
    """
    chi = _bond_cap(chi)
    n = len(mps.sites)
    if n <= 1:
        return mps, 0.0

    sites = mps.sites
    # Each leading identity is np.eye(l * d) as (l, d, l * d), whose
    # Householder QR has tau = 0 and Q = R = I: skipping it changes no bit.
    head = 0
    while head < n - 1 and not sites[head].flags.writeable:
        head += 1
    if head:
        # Of the skipped identities only the last product, with site head,
        # is made: it turns negative zeros into positive ones, and the sign
        # of a zero steers the Householder reflections of the next QR.
        sites[head] = _dot_left(_identity(sites[head].shape[0]), sites[head])
    for k in range(head, n - 1):
        dl, d, dr = sites[k].shape
        qr, tau, work, info = _lapack.dgeqrf(sites[k].reshape(dl * d, dr), lwork=dr)
        del work
        _check_info("dgeqrf", info)
        rank = min(dl * d, dr)
        r = _upper(qr[:rank])
        q, work, info = _lapack.dorgqr(qr[:, :rank], tau, lwork=rank)
        del work, qr
        _check_info("dorgqr", info)
        sites[k] = np.ascontiguousarray(q).reshape(dl, d, rank)
        del q
        sites[k + 1] = _dot_left(r, sites[k + 1])
        mps._normalize_site(k + 1)

    norm0 = float(np.linalg.norm(sites[-1]))
    if norm0 == 0.0:
        return mps, 0.0

    dropped = 0.0
    for k in range(n - 1, 0, -1):
        dl, d, dr = sites[k].shape
        u, s, vt, info = _lapack.dgesdd(sites[k].reshape(dl, d * dr), full_matrices=0)
        _check_info("dgesdd", info)
        keep = int(np.count_nonzero(s >= REL_CUTOFF * s[0])) if s[0] > 0.0 else 1
        keep = max(1, min(keep, chi))
        dropped += float((s[keep:] ** 2).sum())
        # a copy, so the site does not keep the whole of ``vt`` alive
        sites[k] = np.ascontiguousarray(vt[:keep]).reshape(keep, d, dr)
        carry = np.ascontiguousarray(u[:, :keep]) * s[:keep]
        del u, vt
        sites[k - 1] = _dot_right(sites[k - 1], carry)
    for k in range(n):
        mps._normalize_site(k)
    return mps, math.sqrt(dropped) / norm0


def sweep_contract(tn: TensorNetwork2D, chi: int | None = None) -> SweepValue:
    """Contract a closed planar network to a scalar.

    ``chi`` bounds the boundary MPS bond dimension (``None`` contracts
    exactly; see :func:`run`).  Returns ``(mantissa, log_scale)`` with the
    value equal to ``mantissa * exp(log_scale)``.  The plan and the memo of
    step arrays come from :func:`_plan_for`; a folded plan sums the same
    network in another order, so its value is equal up to rounding.

    Raises what :func:`plan_sweep` raises, in its order: the empty
    network and ``chi`` are checked before the cache lookup
    (:func:`plan._checked_chi`), and the cache lets no network that fails
    a later check through (:func:`_plan_for`).  Raises
    :class:`ContractionError` for a non-finite value met during the sweep.
    """
    plan, memo = _plan_for(tn, _checked_chi(tn, chi))
    return run(plan, _step_arrays(plan, memo, tn.vertices))


def run(plan: Plan, arrays) -> SweepValue:
    """The sweep along ``plan`` of the network whose step arrays are
    ``arrays``: one read-only float64 array per step, in step order, each
    laid out as its step absorbs it (``Plan.shapes``).

    ``arrays`` is read one array per step, as the step runs, so an array
    that nothing else holds is freed before the next is read.  A missing
    or an extra array, or one of another shape than its step's, raises
    ``ValueError`` naming the step.

    After each step that emits a bond above ``2 * plan.chi``
    (:func:`plan._compress_above`) the boundary is compressed to
    ``plan.chi``.  A step makes no bond but those between the sites it
    emits, and reports the largest of them (``MPSState.emitted``), so
    testing that alone compresses at exactly the steps a check of the
    whole chain after every step would.  The chain makes its cuts with the
    plan's memo.
    """
    limit, shapes = _compress_above(plan.chi), plan.shapes
    mps = MPSState(cuts=plan.cuts)
    arrays = iter(arrays)
    # A non-finite product raises ContractionError at the step that made it
    # (every site that takes new data is normalized, and the closing scalar
    # is checked), so numpy's overflow and invalid-value warnings would only
    # repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in plan.steps:
            x = next(arrays, None)
            if x is None or x.shape != shapes[step.vid]:
                got = "no array" if x is None else x.shape
                raise ValueError(f"step {plan.steps.index(step)} (vertex {step.vid}) absorbs "
                                 f"shape {shapes[step.vid]}, got {got}")
            contract_step(mps, step, x)
            del x
            if mps.emitted > limit:
                compress_mps(mps, plan.chi)
    if next(arrays, None) is not None:
        raise ValueError(f"got an array beyond the plan's {len(plan.steps)} steps")
    return SweepValue(mps.mantissa, mps.log_scale)
