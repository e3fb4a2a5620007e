"""Every name the package and its modules export resolves, so a deleted or
renamed member cannot linger in an `__all__` (where `from ... import *` would
fail on it)."""

import importlib

import pytest

MODULES = ["rainbowmatch", *(f"rainbowmatch.{m}" for m in
           ("model", "count", "process", "hamilton", "experiments", "cli"))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], (name, missing)
