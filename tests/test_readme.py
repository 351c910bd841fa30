"""README's examples run as written: its Python block, and each command of its Command-line
block through cli.main, in a directory that holds the raw.csv and weather.csv it reads."""

import re
import shlex
from pathlib import Path

from curvecast import make_pm10_analog
from curvecast.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(heading, language):
    """The first fenced block of language below README's heading."""
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def commands():
    """The Command-line block's commands, continuation lines joined, as argument lists."""
    lines = fenced("## Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_python_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced("## Quick start", "python"), str(README), "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw, weather = make_pm10_analog(tmp_path)
    Path(raw).rename("raw.csv")
    Path(weather).rename("weather.csv")
    argvs = commands()
    assert [argv[:2] for argv in argvs] == [["curvecast", "simulate"]] * 2 + [
        ["curvecast", name] for name in ("ingest", "select", "forecast", "forecast", "forecast",
                                         "bands", "benchmark")]
    for argv in argvs:
        assert main(argv[1:]) == 0, f"{shlex.join(argv)}: {capsys.readouterr().err}"
