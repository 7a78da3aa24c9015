"""The codes the decode benchmark runs on, and every regular family at
small d, pinned byte for byte.

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


# family: (smallest d pinned, sha256 prefixes for that d and each next one)
REGULAR_PINS = {
    "square": (2, ("86d26e9f27ecb648", "a702b58ab6c292d0", "8243d3840c7b0d7f",
                   "0276ba80201b10f0", "ba81eaf5910467c5", "ae70fc9c60e12028",
                   "3b114a28297df935", "610b1a268fbc69da")),
    "triangular": (2, ("a6ba7e1a9b516f35", "1f951bef074baa87", "ef0a96b268d5bdd0",
                       "35a55967a7cdc066", "db56a778fe4ca9ee", "14f3e3ad4e5209db")),
    "hexagonal": (2, ("0b72419af633a678", "2cf93b169859b442", "5a66d55d7fdc30fb",
                      "08824ee22d3c5fc2", "79f6dbdf84b4c7d1", "f6da186843fd9707")),
    "kagome": (2, ("1d0798d06f795f1d", "0a12884f51d13838")),
    "rhombille": (2, ("b882e57294a30b00", "a6f52bb1f2efd610")),
    "trunc_hex": (3, ("3228082e4551b88d",)),
    "asanoha": (3, ("9fda1ba95ca62688",)),
}
# trunc_hex d=3 takes ~10 s to build, paid by whichever of its two codes
# (or test_codes_lattices.py::test_trunc_hex_d3) runs first
REGULAR_CASES = [pytest.param(family, d0 + k, prefix, id=f"{family}_d{d0 + k}",
                              marks=pytest.mark.slow if d0 == 3 else ())
                 for family, (d0, prefixes) in REGULAR_PINS.items()
                 for k, prefix in enumerate(prefixes)]


@pytest.mark.parametrize("family, d, prefix", REGULAR_CASES)
def test_regular_code_digest(family, d, prefix):
    code = surface_code_from_graph(regular_lattice(family, d), family=family)
    digest = hashlib.sha256(format_code(code).encode()).hexdigest()
    assert digest[:16] == prefix
