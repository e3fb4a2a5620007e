"""Every name the package and its modules export resolves, so a deleted or
renamed member cannot linger in an `__all__` (where `from ... import *` would
fail on it), and the package imports nothing outside the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import rainbowmatch

MODULES = ["rainbowmatch", *(f"rainbowmatch.{m}" for m in
           ("model", "count", "process", "hamilton", "experiments", "cli"))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], (name, missing)


def test_imports_are_stdlib_or_relative():
    sources = sorted(Path(rainbowmatch.__file__).parent.glob("*.py"))
    assert len(sources) == len(MODULES)
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names
                        if n.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
