"""The package's exported names and the README's commands."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import toporec
from toporec.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(toporec.__path__, "toporec."))


def _readme_commands():
    """Every `toporec ...` command in the README's code blocks, with its
    continuation lines joined."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.strip().startswith("toporec ")]


@pytest.mark.parametrize("name", ["toporec", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
