"""Every name the package and its modules export resolves, so a deleted or
renamed member cannot linger in an `__all__` (where `from ... import *` would
fail on it), the package imports nothing outside the standard library, a
serial run loads no process pool, and the CSV columns its documents list are
the ones the tables write."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rainbowmatch
from rainbowmatch import experiments

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


SERIAL_RUN = """
import sys
from rainbowmatch import cli
assert cli.main(["threshold", "--n", "3", "--m", "4", "--trials", "2", "--jobs", "1"]) == 0
assert cli.main(["trace", "--n", "3", "--trials", "2"]) == 0
print(sorted(m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules))
"""


def test_a_serial_run_imports_no_process_pool():
    # the pool is imported where jobs > 1 starts one, so importing the CLI
    # and running it serially never pays for multiprocessing; a fresh
    # interpreter without site, since this one has loaded the pool already,
    # and writing no bytecode into the checkout
    src = Path(rainbowmatch.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-B", "-S", "-c", SERIAL_RUN],
                         env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


def documented_column_lists(text: str) -> set[str]:
    """Every backticked comma-separated list of column names outside fenced
    code blocks, with a list that wraps across lines joined again."""
    text = re.sub(r"^\s*```.*?^\s*```", "", text, flags=re.M | re.S)
    spans = (re.sub(r"\s+", "", span) for span in re.findall(r"`([^`]+)`", text))
    return {span for span in spans if re.fullmatch(r"\w+(,\w+)+", span)}


@pytest.mark.parametrize("document", ["README.md", "experiments docstring"])
def test_documented_csv_columns_are_the_emitted_headers(document):
    if document == "README.md":
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    else:
        text = experiments.__doc__
    empty = experiments.ExperimentResult(
        experiments.ExperimentConfig(kind="docs", ns=(2,), ms=(1,)), ()
    )
    tables = [
        experiments.threshold_table,
        experiments.mean_count_table,
        experiments.trace_steps_table,
        experiments.trace_summary_table,
        experiments.hamilton_table,
    ]
    headers = {",".join(table(empty)[0]) for table in tables}
    assert documented_column_lists(text) == headers
