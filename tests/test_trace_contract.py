"""The benchmark tracer's notes name lapscat functions and their arguments.

`perfbench/spans.py` maps span names such as "kernels.fundamental_solution"
to notes that read the traced call's bound arguments by name (a["x"]).  The
tracer wraps only the functions that exist: a removed or renamed function
raises nothing, and its per-layer figures read 0 with no error, so each
noted function must exist.  A renamed argument makes every traced call of
its function fail, so each note's arguments are checked too, here against
the package, from the tracer's source.  So is each private function its
PRIVATE table names, which the tracer likewise skips without a word.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _literal(name: str) -> ast.Dict:
    """The dict literal assigned to ``name`` in the tracer's source."""
    return next(
        node.value for node in ast.walk(ast.parse(SPANS.read_text()))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    )


def _notes() -> dict:
    """Span name -> argument names the note reads, from the NOTES literal."""
    table = _literal("NOTES")
    notes = {}
    for key, note in zip(table.keys, table.values):
        assert isinstance(note, ast.Lambda), ast.dump(note)
        arg = note.args.args[0].arg
        notes[key.value] = {
            node.slice.value for node in ast.walk(note.body)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == arg
            and isinstance(node.slice, ast.Constant)
        }
    return notes


def _private() -> list[tuple[str, str]]:
    """(module, name) of each private function the tracer wraps, from the
    PRIVATE literal."""
    table = _literal("PRIVATE")
    return sorted((module.value, name.value)
                  for module, names in zip(table.keys, table.values) for name in names.elts)


NOTES = _notes()
PRIVATE = _private()


def test_the_tracer_has_notes():
    assert "kernels.fundamental_solution" in NOTES
    assert NOTES["kernels.fundamental_solution"] == {"x", "y"}
    assert all(NOTES.values())


@pytest.mark.parametrize("name", sorted(NOTES))
def test_note_reads_arguments_of_an_existing_function(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module("lapscat." + module), attr, None)
    assert inspect.isfunction(fn), f"lapscat.{name} is gone"
    params = inspect.signature(fn).parameters
    missing = NOTES[name] - set(params)
    assert not missing, f"lapscat.{name} has no argument {sorted(missing)}"


def test_the_tracer_wraps_private_functions():
    assert ("boundary_ops", "_sl_core") in PRIVATE
    assert ("kernels", "_bessel_i0") in PRIVATE


@pytest.mark.parametrize("module, name", PRIVATE, ids=[".".join(p) for p in PRIVATE])
def test_private_name_is_a_function_of_its_module(module, name):
    # the tracer wraps a function of the module itself, not an import
    mod = importlib.import_module("lapscat." + module)
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, \
        f"lapscat.{module}.{name} is gone"
