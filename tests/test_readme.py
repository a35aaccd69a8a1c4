"""The README's library session runs as documented."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_session(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    jaccard, accuracy = map(float, capsys.readouterr().out.split())
    assert jaccard >= 0.85
    assert 0.0 <= accuracy <= 1.0
