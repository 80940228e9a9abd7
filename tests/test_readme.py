"""README.md's Quick start must run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    # the first python block of the README, run in an empty directory so
    # that any file it writes lands there
    first = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert first, "README.md has no python block"
    monkeypatch.chdir(tmp_path)
    exec(compile(first.group(1), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
