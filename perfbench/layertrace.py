"""Outside-in layer trace of a decode.

The tracer replaces the public functions of each layer with timing
wrappers, by attribute on their module (or class), and puts the originals
back afterwards; nothing under ``src/`` is edited.  ``sweep_contract``
looks up ``planarize``, ``contract_step`` and ``compress_mps`` as globals
of ``sweepdecode.sweep.contract``, so wrapping those names times every
inner call.  Spans (name, start, end, parent, decode id) are kept in memory
and written out by the caller; a span's self time is its duration minus
that of its children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from sweepdecode import pauli
from sweepdecode.codes import graphs, lattices, subsystem
from sweepdecode.sweep import contract

import cosetnet


def _planarize_before(stats, args):
    stats["planarize.bonds_in"] += len(args[0].bonds)


def _planarize_after(stats, args, result):
    stats["planarize.swaps"] += len(result.vertices) - len(args[0].vertices)
    stats["planarize.noop"] += result is args[0]


def _step_after(stats, args, mps):
    stats["boundary.max_bond"] = max(stats["boundary.max_bond"], mps.max_bond())
    stats["boundary.max_sites"] = max(stats["boundary.max_sites"], len(mps.sites))


def compress_flops(shapes) -> float:
    """Model flop count of one ``compress_mps`` call from its site shapes.

    Leading Golub-Van Loan terms for an M x N matrix with k = min(M, N):
    thin Householder QR with Q formed, 4 M k^2 - 4/3 k^3, on each
    (left * leg, right) site of the QR pass, plus the R-times-next-site
    product; thin SVD with U and V, 14 M k^2 + 8 k^3, on each
    (left, leg * right) site of the SVD pass.  Computed, not measured, and
    blind to bonds shrinking mid-call.
    """
    total = 0.0
    for k, (dl, d, dr) in enumerate(shapes):
        if k < len(shapes) - 1:
            m, nn = dl * d, dr
            r = min(m, nn)
            total += 4 * max(m, nn) * r * r - 4 * r ** 3 / 3
            _, nd, nr = shapes[k + 1]
            total += 2 * r * dr * nd * nr
        if k > 0:
            m, nn = dl, d * dr
            r = min(m, nn)
            total += 14 * max(m, nn) * r * r + 8 * r ** 3
    return total


def _compress_before(stats, args):
    shapes = [site.shape for site in args[0].sites]
    stats["compress_mps.sites"] += len(shapes)
    stats["compress_mps.flops"] += compress_flops(shapes)


def _compress_after(stats, args, result):
    err = result[1]
    stats["compress_mps.trunc_err_max"] = max(stats["compress_mps.trunc_err_max"], err)
    stats["compress_mps.truncating"] += err > 0.0


# (owner, attribute, span name, hook before the call, hook after it)
LAYERS = (
    (lattices, "regular_lattice", "codes", None, None),
    (lattices, "smallest_patch", "codes", None, None),
    (graphs, "surface_code_from_graph", "codes", None, None),
    (subsystem, "subsystem_code", "codes", None, None),
    (pauli, "syndrome_batch", "pauli", None, None),
    (pauli, "pure_error_batch", "pauli", None, None),
    (cosetnet.CosetNetworks, "network", "network_build", None, None),
    (contract, "sweep_contract", "sweep_contract", None, None),
    (contract, "planarize", "planarize", _planarize_before, _planarize_after),
    (contract, "contract_step", "contract_step", None, _step_after),
    (contract, "compress_mps", "compress_mps", _compress_before, _compress_after),
    (cosetnet, "decode", "decode", None, None),
)


class Tracer:
    """Span recorder for one process; :meth:`installed` wraps the layers."""

    def __init__(self):
        self.spans = []
        self.stats = defaultdict(float)
        self.decode_id = None
        self._stack = []

    def _wrap(self, fn, name, before, after):
        spans, stack, stats, clock = self.spans, self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(stats, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.decode_id)
            if after is not None:
                after(stats, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, before, after in LAYERS:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, before, after))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds), split by
        whether the span belongs to a decode."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, did), self_s in zip(self.spans, own):
            row = out[(name, did is not None)]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out

    def layer_metrics(self, traced, untraced) -> dict:
        """Per-layer metrics averaged per decode, plus tracing overhead.

        ``traced`` and ``untraced`` are the latencies of the same shots
        decoded with and without the wrappers.  The overhead compares the
        fastest decode of each pass, as host load moves the typical one by
        more than the wrappers cost.
        """
        decodes = len(traced)
        t = self.totals()
        s = self.stats

        def calls(name):
            return t[(name, True)][0]

        def per_decode(name, col):
            return t[(name, True)][col] / decodes

        def share(count, name):
            return count / calls(name) if calls(name) else 0.0

        # Coverage by the named layers: the decode span's own self time is
        # the glue they leave out, so it does not count.
        layer_self = sum(row[2] for (name, in_decode), row in t.items()
                         if in_decode and name != "decode")
        return {
            "codes.build_s": (t[("codes", False)][2], "s"),
            "pauli.syndrome_s": (per_decode("pauli", 2), "s"),
            "network_build.s": (per_decode("network_build", 2), "s"),
            "planarize.calls": (calls("planarize") / decodes, "count"),
            "planarize.s": (per_decode("planarize", 2), "s"),
            "planarize.bonds_in": (share(s["planarize.bonds_in"], "planarize"), "count"),
            "planarize.swaps": (share(s["planarize.swaps"], "planarize"), "count"),
            "planarize.noop_share": (share(s["planarize.noop"], "planarize"), "fraction"),
            "sweep_contract.calls": (calls("sweep_contract") / decodes, "count"),
            "sweep_contract.s": (per_decode("sweep_contract", 1), "s"),
            "sweep_contract.self_s": (per_decode("sweep_contract", 2), "s"),
            "contract_step.calls": (calls("contract_step") / decodes, "count"),
            "contract_step.s": (per_decode("contract_step", 2), "s"),
            "boundary.max_bond": (s["boundary.max_bond"], "count"),
            "boundary.max_sites": (s["boundary.max_sites"], "count"),
            "compress_mps.calls": (calls("compress_mps") / decodes, "count"),
            "compress_mps.s": (per_decode("compress_mps", 2), "s"),
            # a share, not a time: it is exactly 0 wherever compression never runs
            "compress_mps.share": (t[("compress_mps", True)][2] / sum(traced), "fraction"),
            "compress_mps.sites": (share(s["compress_mps.sites"], "compress_mps"), "count"),
            "compress_mps.flops": (s["compress_mps.flops"] / decodes, "flop"),
            "compress_mps.trunc_err_max": (s["compress_mps.trunc_err_max"], "fraction"),
            "compress_mps.truncating_share": (
                share(s["compress_mps.truncating"], "compress_mps"), "fraction"),
            "decode.self_s": (per_decode("decode", 2), "s"),
            "trace.decode_best_s": (min(traced), "s"),
            "trace.untraced_best_s": (min(untraced), "s"),
            "trace.overhead_share": (min(traced) / min(untraced) - 1.0, "fraction"),
            "trace.layer_self_share": (layer_self / sum(traced), "fraction"),
        }

    def dump(self) -> dict:
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start", "end", "parent", "decode"],
            "spans": [[n, s - t0, e - t0, p, d] for n, s, e, p, d in self.spans],
        }

