"""The README's scenario and library session run as documented."""

import pathlib
import re

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
