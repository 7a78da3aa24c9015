"""The benchmark's workloads and how each one builds its code.

Every workload is a Monte-Carlo batch of decodes at a fixed
(family, d, p, chi).  Every run decodes at least the first ``MIN_SHOTS``
shots of the seeded shot stream, whatever the time budget, so its failure
rate and digest are defined by the seed alone.  On a workload with a finite
chi, the output check re-decodes the first ``REF_SHOTS`` shots by exact
contraction and requires |log w_chi - log w_exact| <= ``LOGW_TOL`` nats on
the chosen and the heaviest coset.  On those cosets the largest error seen
for chi=8 against exact at d=5 was 0.045 nats; the tolerance leaves room
for a compression change that stays that accurate, not for one that loses
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

from sweepdecode.codes import graphs, lattices, subsystem

MIN_SHOTS = 64
REF_SHOTS = 8
LOGW_TOL = 0.5


@dataclass(frozen=True)
class Workload:
    family: str
    d: int
    p: float
    chi: int | None
    why: str

    def build_code(self):
        """Per-code construction, called through the layer modules so a
        tracer can wrap them."""
        if self.family == "subsystem":
            return subsystem.subsystem_code(self.d)
        g = lattices.regular_lattice(self.family, self.d)
        return graphs.surface_code_from_graph(g, family=self.family)


WORKLOADS = {
    "square_d5_chi8": Workload(
        family="square", d=5, p=0.15, chi=8,
        why=("many cheap decodes of one code, so per-syndrome overhead "
             "(planarize, network build) dominates; truncating compression "
             "runs 12 times per decode; p near threshold"),
    ),
    "subsystem_d5_exact": Workload(
        family="subsystem", d=5, p=0.05, chi=None,
        why=("exact contraction, so compress_mps never runs; patch search "
             "shows set-up work; second code family"),
    ),
}
