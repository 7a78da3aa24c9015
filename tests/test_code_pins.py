"""The codes the decode benchmark runs on, pinned byte for byte.

``perfbench`` records the sha256 of ``format_code`` of each workload's
code; a refactor of the code layer that changes what it decodes fails
here instead of only showing up in the benchmark report.
"""

import hashlib

import pytest

from sweepdecode.codes.graphs import surface_code_from_graph
from sweepdecode.codes.lattices import regular_lattice
from sweepdecode.codes.subsystem import subsystem_code
from sweepdecode.pauli import format_code


@pytest.mark.parametrize("build, prefix", [
    (lambda: surface_code_from_graph(regular_lattice("square", 5), family="square"),
     "0276ba80201b10f0"),
    (lambda: subsystem_code(5), "a9f63ab5e41f5b57"),
], ids=["square_d5", "subsystem_d5"])
def test_benchmark_code_digest(build, prefix):
    digest = hashlib.sha256(format_code(build()).encode()).hexdigest()
    assert digest[:16] == prefix
