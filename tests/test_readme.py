"""The README's quick start, run as written: synth, then compare on its run.ini."""

import json
import re
import shlex
from pathlib import Path

from seqcast.cli import main
from seqcast.models import MODEL_KINDS
from seqcast.runconfig import config_echo, parse_config_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Quick start") : text.index("\n## ", text.index("## Quick start"))]


def _command(section: str, subcommand: str) -> list[str]:
    """The README's `seqcast <subcommand> ...` line as main's argv."""
    (line,) = re.findall(rf"^seqcast {subcommand} .*$", section, flags=re.M)
    return shlex.split(line)[1:]


def test_quick_start_runs_as_documented(tmp_path, monkeypatch, capsys):
    section = _quick_start()
    (ini,) = re.findall(r"```ini\n# run.ini\n(.*?)```", section, flags=re.S)
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(ini, encoding="utf-8")

    assert main(_command(section, "synth")) == 0
    capsys.readouterr()
    assert main(_command(section, "compare")) == 0

    # The metric digits depend on the BLAS kernels, so only their form is checked.
    number = r"-?\d+\.\d{4}"
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(MODEL_KINDS) + 1
    for kind, line in zip(MODEL_KINDS, lines):
        assert re.fullmatch(
            rf"{kind}: r2 {number}, mae {number}, mse {number}, rmse {number}", line
        ), line
    assert lines[-1] == "wrote demo/report.json, plot.csv, plot.svg and weight files"

    report = json.loads(Path("demo/report.json").read_text(encoding="utf-8"))
    assert list(report) == ["dataset", "models", "config"]
    assert [e["name"] for e in report["models"]] == list(MODEL_KINDS)
    for entry in report["models"]:
        assert list(entry) == ["name", "metrics", "forecast", "history"]
    assert report["config"] == config_echo(parse_config_file("run.ini"))
    for name in ["plot.csv", "plot.svg"] + [f"weights-{k}.txt" for k in MODEL_KINDS]:
        assert (Path("demo") / name).is_file()
