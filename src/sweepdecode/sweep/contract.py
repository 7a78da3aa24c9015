"""Sweep-line contraction of planar tensor networks.

:func:`run` sweeps a closed network along its :class:`Plan`
(:func:`plan_sweep`) and does only numerics: it absorbs each step's array
into a boundary matrix product state, and compresses that state when it
grows too wide.  Each array comes with its power of two, which joins the
boundary's.  Of the plan it reads ``chi``, the bond cap it compresses
to; ``steps``, the absorptions in order; ``shapes``, the shape of each
step's array; ``window``, the scales a site may keep unshifted; and
``records``, the memo of what each step would otherwise derive from the
shapes it meets, which every sweep of the plan shares.
:func:`sweep_contract` is the cached wrapper for networks given one at a
time: it keeps, per geometry and ``chi``, the plan and a memo of the
arrays its steps absorb, each laid out in its step's order and keyed by
the tensor objects it was built from, so a decoder, which sweeps networks
of one code over and over, plans once and builds each array once.

Each rule is stated where it is enforced:

- the ``(array, exponent)`` pairs a sweep accepts: :func:`run`;
- the pair a step absorbs: :func:`_step_arrays`, which reads the memo
  of step arrays, :class:`_MergeMemo`, and :func:`_build`, which checks
  the tensors of a miss, multiplies a merge's factors at unit scale,
  returns every array, merged or not, at unit scale with its exponent,
  and fills the memo up to ``MERGE_MEMO_BYTES``;
- the plan cache and its lookup by geometry: :func:`_plan_for`;
- an absorption and the split of its consumed run (``_Step.split``):
  :func:`contract_step`, the one absorption kernel;
- what a step derives from shapes (its reshapes, its cut, which is
  :func:`plan._split`'s, the site it makes and its widest new bond):
  :func:`_record`; the tape of a plan that never compresses, one record
  per step: :func:`_tape`; the records of a plan that compresses, made
  from the live chain: :func:`_live_record`; all kept in
  ``Plan.records``, which :func:`run` hands each step's record from;
- the pass-through identities, the chain's read-only sites:
  :class:`MPSState`;
- the boundary's scale, an integer power of two until the boundary
  closes, to which :func:`run` adds the step arrays' exponents, and the
  one scale rule every site a step or a compression
  makes meets, within the window ``Plan.window`` derives:
  :class:`MPSState`, enforced by ``MPSState._normalize_site``;
- the truncation and its LAPACK calls: :func:`compress_mps`.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas as _blas
from scipy.linalg import lapack as _lapack

# planarize, the check plan_sweep runs, stays a name of this module, where
# the layer trace of perfbench/ looks it up
from .network import TensorNetwork2D, _check_fields, _check_tensor, planarize  # noqa: F401
from .plan import IDENTITY_MEMO_MAX, ContractionError, Plan, _Step, _bond_cap, _checked_chi
from .plan import _compress_above, _split, plan_sweep

_LN2 = math.log(2.0)

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
# (array, exponent) pair, merged or not.  An array depends only on the
# tensors of its vertex (and, folded, of the vertices merged into it), and
# a coset network picks each qubit's from four, so a code has few
# variants.  Measured over the benchmark's seed-0 shot stream, the memos
# of its two plans stop growing: square d=5 at chi=8 by 256 shots, at 160
# entries of 659,456 array bytes (722,816 counted); subsystem d=5 exact by
# 1,000 shots, at 154 entries of 152,320 array bytes (207,680 counted).
# The larger fits the cap 2.9 times.  An unfolded plan holds one entry per
# vertex and variant: square d=7 at chi=8, 293 entries of 30,880 array
# bytes (61,760 counted) after 64 shots at p=0.1 (plan_model.py --plans).
# All cached plans together hold at most PLAN_CACHE_SIZE *
# MERGE_MEMO_BYTES = 16 MB.
MERGE_MEMO_BYTES = 2 << 20


class SweepValue(NamedTuple):
    """Contraction result: value = mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float


@functools.lru_cache(maxsize=None)
def _squared_window(window: int) -> tuple:
    """The window ``2^±window`` on a site's norm, squared: the bounds of
    :meth:`MPSState._normalize_site` on its sum of squares, made once per
    window, so a sweep allocates none."""
    return 2.0 ** (-2 * window), 2.0 ** (2 * window)


def _largest(x: np.ndarray) -> float:
    """The largest magnitude of the C-contiguous, non-empty array ``x``, by
    BLAS ``idamax``, which may pass over a NaN."""
    flat = x.ravel()
    return abs(flat.item(_blas.idamax(flat)))


def _unit_scale(x: np.ndarray) -> tuple:
    """``(y, e)`` with ``x = y * 2^e`` exactly and the largest magnitude of
    ``y`` in [2^-0.5, 2^0.5]: unit scale, to which
    :meth:`MPSState._normalize_site` shifts a site and :func:`_build` each
    step array and each factor of a merge; ``(x, 0)`` when ``x`` is all
    zero or not finite.
    Only exponent bits change, so the shift is exact."""
    m = _largest(x)
    e = round(math.log2(m)) if m and math.isfinite(m) else 0
    return (np.ldexp(x, -e), e) if e else (x, 0)


class MPSState:
    """Open boundary of a partial contraction.

    ``sites[k]`` is a float64 array with axes (left bond, open leg, right
    bond); which network bond each open leg carries is fixed by the sweep
    plan.  The outermost bonds have extent 1.  ``mantissa`` accumulates
    the sign/value once the boundary closes.

    The boundary's scale is ``log_scale = log_float + exponent * ln 2``.
    ``exponent`` is an integer power of two: every shift of a site adds to
    it, and so does the sum of the step arrays' exponents, which
    :func:`run` adds when the sweep is done, so no scale is rounded while
    the sweep runs.  When the boundary closes, :func:`contract_step` adds the
    closing scalar's ``frexp`` parts, ``log(f)`` to ``log_float`` and
    ``k`` to ``exponent``, so ``log_scale`` is rounded once, as ``log(f) +
    (exponent + k) * ln 2``.  ``MPSState(sites, log_scale)`` starts at
    ``log_float = log_scale`` and ``exponent = 0``.

    Every site the sweep makes, by a step or by a compression, meets one
    rule, :meth:`_normalize_site`:

    - a site whose norm is strictly within ``2^±window`` stands;
    - any other is shifted by a power of two to unit scale, which adds to
      ``exponent``;
    - a site with a non-finite element raises, and an all-zero site is
      left alone.

    :func:`run` takes its plan's window (``Plan.window``).  A bare
    ``MPSState()`` has a window of 0, which is empty, so every site is
    shifted.  A shift is exact, so the window moves no bit of a value: it
    changes only which power of two the sites carry and which
    ``exponent`` does.

    The pass-through identities :func:`contract_step` emits either side of
    its data site are read-only views of :func:`_identity`, and they are
    the chain's only read-only sites: every other site is a fresh array (a
    product, a shifted copy or a compression factor).  One emitted right
    of a data site keeps a fresh site on its left, so the read-only sites
    at the left end of the chain are ``np.eye(l * d)`` reshaped to ``(l,
    d, l * d)``, which :func:`compress_mps` finds by their flag.  The
    chain is internal to the sweep for that reason.
    """

    __slots__ = ("sites", "log_float", "exponent", "mantissa", "_low", "_high")

    def __init__(self, sites=None, log_scale=0.0, mantissa=1.0, *, window=0):
        self.sites = [] if sites is None else sites
        self.log_float, self.exponent = log_scale, 0
        self.mantissa = mantissa
        self._low, self._high = _squared_window(window)

    @property
    def log_scale(self) -> float:
        return self.log_float + self.exponent * _LN2

    def max_bond(self) -> int:
        if len(self.sites) < 2:
            return 1 if self.sites else 0
        return max(site.shape[2] for site in self.sites[:-1])

    def _normalize_site(self, k: int):
        """The scale rule (:class:`MPSState`) on site ``k``, a fresh array,
        so ``ravel`` is a view.

        One BLAS ``ddot`` of the site with itself gives its squared norm,
        and a norm strictly within the window leaves the site as it is.
        Any other site is shifted to unit scale (:func:`_unit_scale`), the
        shift added to ``exponent``: so is one whose squares under- or
        overflow to 0 or inf, and an all-zero one is left alone.  The sum
        of squares is NaN exactly when an element is (it meets no ``inf -
        inf``), which the largest magnitude may pass over, and the largest
        magnitude is inf when an element is: a non-finite site raises.
        """
        flat = self.sites[k].ravel()
        squares = _blas.ddot(flat, flat)
        if self._low < squares < self._high:
            return
        if math.isnan(squares) or math.isinf(_largest(flat)):
            raise ContractionError("boundary MPS holds a non-finite value")
        self.sites[k], e = _unit_scale(self.sites[k])
        self.exponent += e


class _MergeMemo:
    """The step arrays a cached plan's sweeps have built
    (:func:`_step_arrays`).

    A key is the step's vertex id and the :class:`DenseTensor` objects of
    that vertex and of the vertices its ``_Merge`` absorbs (none when
    unfolded), in the order the recipe reads them.  A tensor hashes by
    identity and its elements never change after construction, so an entry
    is the ``(array, exponent)`` pair :func:`_build` would compute from
    those operands again, bit for bit; its array is read-only and
    C-contiguous.  ``nbytes`` counts the arrays and, per entry, the key's
    tensors, which the key keeps alive.  An entry larger than
    ``MERGE_MEMO_BYTES`` alone is not kept, and an insert that would take
    ``nbytes`` past it first clears the memo.  A key already held, put again by a thread that missed it
    too, keeps its entry and is counted once.
    """

    def __init__(self):
        self.arrays: dict = {}
        self.nbytes = 0
        self._lock = threading.Lock()

    def put(self, key, entry: tuple):
        size = entry[0].nbytes + sum(t.elements.nbytes for t in key[1:])
        if size > MERGE_MEMO_BYTES:
            return
        with self._lock:
            if key in self.arrays:
                return
            if self.nbytes + size > MERGE_MEMO_BYTES:
                self.clear()
            self.arrays[key] = entry
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
    """The ``(array, exponent)`` pairs the steps of ``plan`` absorb, in
    step order, for a network with the vertices ``vertices``, each made as
    it is read: the pair ``memo`` holds under the step's key, as it is, so
    a hit allocates nothing, or the one :func:`_build` makes on a miss.  A
    key is the step's vertex id and the tensors of that vertex and of the
    vertices its ``_Merge`` absorbs, in the order the recipe reads them.  A
    built pair is handed on, not held, so one the memo does not keep lives
    no longer than its step.  A network of a cached geometry skips
    :func:`planarize`'s tensor check, which :func:`_build` runs on a miss,
    so only checked tensors become keys."""
    merges, entries = plan.layout.merges, memo.arrays
    for step in plan.steps:
        vid = step.vid
        key = (vid, vertices[vid].tensor)
        for member, _, _ in merges[vid].products:  # cheaper than a list per step
            key += (vertices[member].tensor,)
        try:
            entry = entries.get(key)
        except TypeError:  # an unhashable tensor, which _build's check names
            entry = None
        yield _build(merges[vid], step, key, memo) if entry is None else entry


def _build(merge, step: _Step, key: tuple, memo: _MergeMemo) -> tuple:
    """``(array, exponent)``, put in ``memo`` under ``key``: ``step``
    absorbs ``array * 2^exponent``, the tensor ``merge`` builds from the
    tensors of ``key``, transposed to ``step.perm``.  The array is at unit
    scale (:func:`_unit_scale`), read-only and C-contiguous, and the
    exponent an int.  Each tensor must be a :class:`DenseTensor`, which
    raises what :func:`planarize` raises for it otherwise
    (:func:`_check_tensor`).

    Merged or not, the array has one path: each tensor is shifted to unit
    scale, a merge multiplies the shifted tensors, and the product is
    shifted to unit scale too, every shift added to the exponent.  So no
    product under- or overflows that its factors' scales would not, and an
    array's scale has no range for float64 to hold: :func:`run` adds the
    exponent to ``MPSState.exponent``.  The products are made under the
    ``np.errstate`` :func:`run` sweeps under, wherever the pairs are read,
    so a non-finite factor warns of nothing: the sweep raises
    :class:`ContractionError` where it meets the value."""
    for v, tensor in zip((key[0], *[p[0] for p in merge.products]), key[1:]):
        _check_tensor(v, tensor)
    x, shift = _unit_scale(key[1].elements)
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, axes, vaxes), absorbed in zip(merge.products, key[2:]):
            y, e = _unit_scale(absorbed.elements)
            x, shift = np.tensordot(x, y, (axes, vaxes)), shift + e
    x, e = _unit_scale(x)
    # np.ldexp makes a numpy scalar of a 0-d array
    x = np.asarray(x).transpose(merge.perm).reshape(merge.out).transpose(step.perm)
    if not x.flags.c_contiguous:
        # np.ascontiguousarray would make a 0-d array 1-d
        x = x.copy()
    x.setflags(write=False)
    entry = x, shift + e
    memo.put(key, entry)
    return entry


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


class _Record(NamedTuple):
    """What :func:`contract_step` would otherwise derive from the shapes of
    a step's array and of the sites it consumes, made by :func:`_record`.

    ``chain`` holds, per consumed site after the first, the 2-D shapes the
    run so far and that site take for their product, or None at the split,
    where the run's second part starts.  ``enter`` is the run of a step
    that consumes no site, the identity on the bond it enters across
    (None otherwise).  ``wshape`` is the step array as a matrix and
    ``rshape`` the run's shape in the vertex product; split, ``parts``
    holds the shapes of its product ``T``, of ``T``'s reordered copy and
    of the first part (None unsplit).  ``product``, ``np.dot`` when split
    or at ``left == 1`` and ``np.matmul`` otherwise, makes the last
    product, of shape ``oshape``, into an array of the data site's shape
    ``shape`` (the ``(left, right)`` matrix when the step leaves no open
    leg).  ``slot`` is the site the step makes (-1 when the boundary
    closes), ``before`` and ``after`` the pass-through identities either
    side of the data site (None when the step leaves no open leg), and
    ``emitted`` the widest bond between its sites.  ``wide`` marks a
    record with an identity wider than ``IDENTITY_MEMO_MAX``: it keeps
    each identity as its shape (``enter`` as its width) and the step
    builds it, so no record holds an identity that is not shared.
    """

    chain: tuple
    enter: object
    wshape: tuple
    rshape: tuple
    parts: tuple | None
    product: object
    oshape: tuple
    shape: tuple
    slot: int
    before: tuple | None
    after: tuple | None
    emitted: int
    wide: bool


def _pass_through(shape: tuple) -> np.ndarray:
    """The pass-through identity of ``shape``, ``(l, d, l * d)`` or ``(r *
    d, d, r)``: a view of :func:`_identity` of the wider bond."""
    return _identity(max(shape[0], shape[2])).reshape(shape)


def _record(step: _Step, shape: tuple, run: tuple, rest: int) -> _Record:
    """The :class:`_Record` of ``step`` absorbing an array of ``shape``
    (``Plan.shapes``) into a chain whose consumed sites have the shapes
    ``run`` (for a fresh component, ``((left, 1, left),)``: the identity
    on the bond it enters across), with ``rest`` sites left beside them.
    The cut is :func:`plan._split`'s."""
    _, lo, hi, _, m, split = step
    left, right = run[0][0], run[-1][2]
    rows = math.prod(shape[:m])
    chain, part, legs = [], left, run[0][1]
    for k, (dl, d, dr) in enumerate(run[1:], 1):
        if k == split:
            chain.append(None)
            la, b, part, legs = legs, dl, dl, d
        else:
            chain.append(((part * legs, dl), (dl, d * dr)))
            legs *= d
    if split:
        wshape, rshape = (rows * la, legs), (b, legs, right)
        parts = ((b, rows, la, right), (la * b, rows * right), (left, la * b))
        product, oshape = np.dot, (left, rows * right)
    elif left == 1:
        wshape, rshape, parts = (rows, legs), (legs, right), None
        product, oshape = np.dot, (rows, right)
    else:
        wshape, rshape, parts = (rows, legs), (left, legs, right), None
        product, oshape = np.matmul, (left, rows, right)
    if m == 0:
        slot = lo - 1 if lo else (0 if rest else -1)
        shape, before, after, emitted = (left, right), None, None, 0
    else:
        dims = shape[:m]
        prefix, suffix, t, emitted = _split(left, dims, right)
        shape, slot = (prefix[t], dims[t], suffix[t + 1]), lo + t
        before = tuple((prefix[k], dims[k], prefix[k + 1]) for k in range(t))
        after = tuple((suffix[k], dims[k], suffix[k + 1]) for k in range(t + 1, m))
    enter = left if hi < lo else None
    wide = max(emitted, enter or 0) > IDENTITY_MEMO_MAX
    if not wide:
        enter = None if enter is None else _identity(enter).reshape(rshape)
        if m:
            before, after = tuple(map(_pass_through, before)), tuple(map(_pass_through, after))
    return _Record(tuple(chain), enter, wshape, rshape, parts, product, oshape, shape, slot,
                   before, after, emitted, wide)


def _live_record(records: dict, mps: MPSState, step: _Step, shape: tuple) -> _Record:
    """The record of ``step``, absorbing an array of ``shape``, on the
    shapes of ``mps``'s chain as it is: the record of a step of a plan
    that compresses, whose ranks the compressions find.  It is kept in
    ``records`` (``Plan.records``) under the step, the shapes of the sites
    it consumes (the bond it enters across for a fresh component) and the
    chain's length; within one plan the step fixes ``shape``.  A decoder's
    chains meet few shapes per step where chi binds often: the 169 steps of
    square d=7 at chi=8 keep 183 records after 64 shots at p=0.1 and 187
    after 256.  At p=0.02 the ranks the compressions find vary more: 987
    records after 64 shots, 1,397 after 256, still growing."""
    sites, lo, hi = mps.sites, step.lo, step.hi
    if hi >= lo:
        run = tuple([site.shape for site in sites[lo : hi + 1]])
    else:
        # A fresh component enters between pending slots lo-1 and lo; the
        # bond already running there (extent 1 at either end of the chain)
        # passes through the inserted sites untouched.
        left = sites[lo - 1].shape[2] if 0 < lo < len(sites) else 1
        run = ((left, 1, left),)
    key = (step, run, len(sites))
    record = records.get(key)
    if record is None:
        record = records.setdefault(key, _record(step, shape, run, len(sites) - hi + lo - 1))
    return record


def _tape(plan: Plan) -> tuple:
    """``(step, record)`` per step of ``plan``, kept in ``plan.records``
    under None.  A plan that never compresses fixes every shape its sweeps
    meet, so its tape holds the records :func:`_record` makes from the
    shapes :func:`plan._tally` replays (``Plan.runs``).  A plan that
    compresses has None in place of each record: its steps make theirs
    from the live chain (:func:`_live_record`)."""
    tape = plan.records.get(None)
    if tape is None:
        runs, shapes = plan.runs, plan.shapes
        if runs is None:
            tape = tuple((step, None) for step in plan.steps)
        else:
            tape = tuple((step, _record(step, shapes[step.vid], run, rest))
                         for step, (run, rest) in zip(plan.steps, runs))
        tape = plan.records.setdefault(None, tape)
    return tape


def contract_step(mps: MPSState, step: _Step, elements: np.ndarray, record: _Record) -> MPSState:
    """Absorb the vertex of ``step``, whose array laid out in the step's
    order (``Plan.shapes``) is ``elements``, into the boundary MPS, in
    place, by ``record`` (:class:`_Record`), made from the shapes of the
    chain as it is.  Returns ``mps``.

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
    plan's modelled peak.  The product is cut, as :func:`plan._split`
    cuts it, into the data site and read-only views of shared identities
    (:func:`_identity`) either side; the last product is written into the
    data site's own array, so the chain holds no view of a product.
    Consumed sites leave the chain before their replacement is built.  The
    site the step made meets the scale rule (:meth:`MPSState._normalize_site`).
    """
    (chain, run, wshape, rshape, parts, product, oshape, shape, slot, before, after,
     _, wide) = record
    lo, sites = step.lo, mps.sites
    if run is None:
        run = sites.pop(lo)
        for targets in chain:
            site = sites.pop(lo)
            if targets is None:
                # the first part is whole; the rest chains from this site
                first, run = run, site
            else:
                run = np.dot(run.reshape(targets[0]), site.reshape(targets[1]))
            del site
    elif wide:
        run = _identity(run)
    w = elements.reshape(wshape)
    if parts is not None:
        run = np.matmul(w, run.reshape(rshape))
        run = run.reshape(parts[0]).transpose(2, 0, 1, 3).reshape(parts[1])
        w = first.reshape(parts[2])  # A, times the copy of T
        del first
    else:
        run = run.reshape(rshape)
    merged = np.empty(shape)
    product(w, run, out=merged.reshape(oshape))
    del run, w

    if before is None:
        # Fully absorbed: a (left, right) matrix folds into a neighbor, or
        # (when the boundary is empty) into the scalar accumulator.
        if slot < 0:
            if merged.size != 1:
                raise ContractionError("boundary vanished with open bonds left")
            val = float(merged.reshape(()))
            if not math.isfinite(val):
                raise ContractionError("network value is not finite")
            if val == 0.0:
                mps.mantissa = 0.0
            else:
                mps.mantissa *= math.copysign(1.0, val)
                f, k = math.frexp(abs(val))
                mps.log_float += math.log(f)
                mps.exponent += k
            return mps
        sites[slot] = _dot_right(sites[slot], merged) if lo else _dot_left(merged, sites[0])
        del merged
        mps._normalize_site(slot)
        return mps

    if wide:
        before, after = tuple(map(_pass_through, before)), tuple(map(_pass_through, after))
    sites[lo:lo] = (*before, merged, *after)
    mps._normalize_site(slot)
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
    Each site a pass makes meets the scale rule of :class:`MPSState`.
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
    ``arrays``: one ``(array, exponent)`` pair per step, in step order,
    for ``array * 2^exponent``, with ``array`` a read-only float64 array
    laid out as its step absorbs it (``Plan.shapes``) and ``exponent`` an
    integer (read by ``operator.index``).  The exponents are summed as the
    steps absorb the arrays, and the sum is added to ``MPSState.exponent``
    when the sweep is done, so step arrays and sites share one integer
    scale, rounded once, when the boundary closes.  :func:`_step_arrays`
    hands arrays at unit scale; a raw array handed with exponent 0 must
    keep within the range ``Plan.window`` leaves it.

    ``arrays`` is read one pair per step, as the step runs, so an array
    that nothing else holds is freed before the next is read.  A missing
    or an extra item, one that is not such a pair, or an array of another
    shape than its step's, raises ``ValueError`` naming the step.

    After each step that emits a bond above ``2 * plan.chi``
    (:func:`plan._compress_above`) the boundary is compressed to
    ``plan.chi``.  Each step runs by its record on the plan's tape
    (:func:`_tape`), or, on a plan that compresses, by the record of the
    live chain, kept in the plan's memo (``Plan.records``).  A step makes
    no bond but those between the sites it emits, and its record holds the
    largest of them (``_Record.emitted``), so testing that alone
    compresses at exactly the steps a check of the whole chain after every
    step would.  The chain keeps its sites by the scale rule of
    :class:`MPSState` within the plan's window (``Plan.window``).
    """
    limit, shapes, records = _compress_above(plan.chi), plan.shapes, plan.records
    mps, shift = MPSState(window=plan.window), 0
    arrays = iter(arrays)
    # A non-finite product raises ContractionError at the step that made it
    # (every site that takes new data is checked, and the closing scalar
    # is checked), so numpy's overflow and invalid-value warnings would only
    # repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for step, record in _tape(plan):
            pair = next(arrays, None)
            try:
                x, e = pair
                shift += operator.index(e)
                got = None if x.shape == shapes[step.vid] else x.shape
            except (TypeError, ValueError, AttributeError):
                got = ("no array" if pair is None
                       else f"a {type(pair).__name__}, not an (array, int) pair")
            if got is not None:
                raise ValueError(f"step {plan.steps.index(step)} (vertex {step.vid}) absorbs "
                                 f"shape {shapes[step.vid]}, got {got}")
            record = record or _live_record(records, mps, step, x.shape)
            contract_step(mps, step, x, record)
            del x, pair
            if record.emitted > limit:
                compress_mps(mps, plan.chi)
    mps.exponent += shift
    if next(arrays, None) is not None:
        raise ValueError(f"step {len(plan.steps)}: got an item beyond the plan's steps")
    return SweepValue(mps.mantissa, mps.log_scale)
