"""The benchmark tracer's notes name lapscat functions and their arguments.

`perfbench/spans.py` maps span names such as "kernels.fundamental_solution"
to notes that read the traced call's bound arguments by name (a["x"]).  A
renamed function or argument would make every traced operation fail, so
each note is checked here against the package, from the tracer's source.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _notes() -> dict:
    """Span name -> argument names the note reads, from the NOTES literal."""
    tree = ast.parse(SPANS.read_text())
    table = next(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "NOTES" for t in node.targets)
    )
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


NOTES = _notes()


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
