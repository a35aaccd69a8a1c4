"""The README's scenario and library session run as documented, the
README names every scenario key the CLI takes, and its module table states
the assembly's walk bounds as the code has them."""

import pathlib
import re

from lapscat import boundary_ops, cli
from lapscat.cli import EXIT_OK, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_session(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    jaccard, accuracy = map(float, capsys.readouterr().out.split())
    assert jaccard >= 0.85
    assert 0.0 <= accuracy <= 1.0


def test_readme_scenario_runs(tmp_path, monkeypatch, capsys):
    # every key of the documented scenario is one the CLI reads
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    (tmp_path / "scenario.json").write_text(blocks[0])
    monkeypatch.chdir(tmp_path)
    assert main(["reconstruct", "--scenario", "scenario.json"]) == EXIT_OK
    assert (tmp_path / "out" / "arc_report.json").exists()


def test_readme_names_every_scenario_key():
    # the reverse of the scenario check above: a key the CLI takes but the
    # README never names is one a user cannot find
    blocks = cli._BLOCKS  # block name -> keys, from the CLI's scenario table
    assert {"geometry", "reconstruction", "reconstruction.arc_sweep", "outputs"} <= set(blocks)
    text = README.read_text()
    missing = [
        f"{name}.{key}" for name, keys in blocks.items() for key in keys
        if not re.search(rf'[`"]([\w.]+\.)?{re.escape(key)}[`"]', text)
    ]
    assert not missing, f"README does not name {missing}"


def test_readme_states_the_row_walk_bounds():
    # the boundary_ops row gives the pair bound and the row floor of the
    # ranges by which the assembly walks its kernel core
    row = next(line for line in README.read_text().splitlines()
               if line.startswith("| `lapscat.boundary_ops` |"))
    found = re.search(r"row ranges [^(]*?at most ([\d,]+) node pairs but at least (\d+) rows",
                      row)
    assert found, "the boundary_ops row states no pair bound and row floor"
    pairs, rows = found.groups()
    assert int(pairs.replace(",", "")) == boundary_ops._BLOCK
    assert int(rows) == boundary_ops._PANEL_ROWS
