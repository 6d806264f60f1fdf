"""README.md stays true: its Python example runs, and every command of
its command-line walk-through parses."""

import re
import shlex
from pathlib import Path

import pytest

from doctext.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def commands() -> list[str]:
    """Each ``doctext`` command of the shell block holding the walk-through,
    its continuation lines joined."""
    (walkthrough,) = [b for b in blocks("sh") if "doctext synth-gen" in b]
    joined = re.sub(r"\\\n\s*", " ", walkthrough)
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("doctext ")]


def test_python_example_runs(capsys):
    (example,) = blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_walkthrough_lists_every_subcommand():
    names = {shlex.split(c)[1] for c in commands()}
    assert names == {"synth-gen", "group", "arrange", "decode", "rectify", "train-corrector", "run", "eval"}


@pytest.mark.parametrize("command", commands(), ids=lambda c: shlex.split(c)[1])
def test_command_parses(command):
    build_parser().parse_args(shlex.split(command)[1:])
