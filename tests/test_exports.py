"""Every name a package module exports must exist, so a deleted function
cannot live on in an ``__all__`` list."""

import importlib

import pytest

MODULES = [
    "sweepdecode",
    "sweepdecode.pauli",
    "sweepdecode.tensor",
    "sweepdecode.sweep",
    "sweepdecode.sweep.contract",
    "sweepdecode.sweep.network",
    "sweepdecode.sweep.plan",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
