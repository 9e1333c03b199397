"""The README's "Library use" block runs as documented."""

import contextlib
import io
import json
import re
from pathlib import Path

import hgcml.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", "demo"]) == 0
    config = tmp_path / "demo" / "config.json"
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw.setdefault("train", {})["max_epochs"] = 3
    config.write_text(json.dumps(raw), encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_block(), str(README), "exec"), {})
    best_epoch, best_loss, shape = printed.getvalue().split(" ", 2)
    assert 0 <= int(best_epoch) < 3
    assert float(best_loss) > 0
    assert shape.strip() == "(90, 64)"
