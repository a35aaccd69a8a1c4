"""The benchmark's child process imports lapscat names that must exist.

`perfbench/child.py` imports its lapscat functions inside the operation
it prepares, so a removed or renamed name would surface only as a failed
benchmark run.  Each `from lapscat.X import Y` it makes is resolved here,
from the child's source, together with the result fields it reads.
"""

import ast
import dataclasses
import importlib
import pathlib

import pytest

CHILD = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _imports() -> list[tuple[str, str]]:
    """(module, name) of every `from lapscat... import name` in the child."""
    tree = ast.parse(CHILD.read_text())
    return sorted({
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lapscat"
        for alias in node.names
    })


IMPORTS = _imports()


def test_the_child_imports_lapscat_names():
    assert ("lapscat.boundary_ops", "sign_check") in IMPORTS
    assert ("lapscat.data_operator", "assemble_F") in IMPORTS


@pytest.mark.parametrize("module, name", IMPORTS, ids=str)
def test_child_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"


@pytest.mark.parametrize("module, cls, field", [
    ("lapscat.boundary_ops", "SignReport", "classification"),
    ("lapscat.data_operator", "DataOperator", "eigenvalues"),
])
def test_child_reads_existing_result_fields(module, cls, field):
    fields = {f.name for f in dataclasses.fields(getattr(importlib.import_module(module), cls))}
    assert field in fields, f"{module}.{cls} has no field {field!r}"
