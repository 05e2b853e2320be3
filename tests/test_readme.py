"""The README's library quick start and command-line manifests run against
the installed API."""
import re
from pathlib import Path

from confield.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def command_line_manifests() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```json\n(.*?)```", section, re.S)


def test_readme_manifests_run(tmp_path):
    manifests = command_line_manifests()
    assert len(manifests) == 2
    for k, text in enumerate(manifests):
        manifest = tmp_path / f"manifest{k}.json"
        manifest.write_text(text)
        assert main(["run", str(manifest), "--out", str(tmp_path / f"report{k}.json")]) == 0, text


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("True ")
    assert all(line.endswith("killing_inessential") for line in lines[1:4])
    assert lines[-1] == "totally_umbilical"
