"""The README's library example runs as written, and its usage block lists
every command-line flag."""

import argparse
import re
from pathlib import Path

from medsolve import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["optimal"] * 4


def test_usage_block_lists_every_flag():
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    lines = re.findall(r"^medsolve (\S+)(.*?)(?=^medsolve |\Z)", block, re.S | re.M)
    documented = {command: set(re.findall(r"--[a-z0-9-]+", rest)) for command, rest in lines}
    [subs] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.choices.items()
    }
    assert documented == options
