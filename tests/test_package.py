"""The package's exported names, its one file writer, its readers, and the
README's commands."""

import argparse
import ast
import importlib
import pkgutil
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

import toporec
from toporec.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted((Path(toporec.__file__).parent).glob("*.py"))
# Attribute calls that write a file or make a directory, by owner (None: any owner).
WRITERS = {
    "np": {"save", "savez", "savez_compressed", "savetxt"},
    "os": {"makedirs", "mkdir"},
    None: {"tofile", "write_text", "write_bytes"},
}
# Calls that read a file, other than `open` in a read mode, and the one
# function of each input kind allowed to make them.
READERS = {"np.loadtxt", "np.genfromtxt", "np.load", "np.fromfile", "json.load"}
READ_FUNCTIONS = {
    "data._rows", "data.load_features", "itemgraph.load_graph", "optim.load_checkpoint",
    "trainer.RunManifest.load", "config.load_config_file",
}
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


def test_each_command_takes_only_the_train_settings_it_reads():
    from toporec.config import TrainConfig

    names = {f.name for f in fields(TrainConfig)}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    taken = {cmd: {a.dest for a in p._actions} & names for cmd, p in commands.items()}
    assert taken == {
        "synth": {"seed"},  # its own --seed for the generator, like prepare's and corrupt's
        "prepare": {"seed"},
        "build-graph": {"use_visual", "use_textual", "knn_k", "binarize_knn", "visual_weight"},
        "prune": set(),
        "corrupt": {"seed"},
        "train": names,
        "evaluate": set(),
        "ablate": names,
    }


def test_readme_variants_line_names_every_variant_in_order():
    from toporec.trainer import VARIANTS

    paragraph = re.search(r"^Variants:(.*?)\n\n", README.read_text(), re.M | re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", paragraph)) == tuple(VARIANTS)


def _opens_to_write(call):
    """Whether an `open` call's mode may create or change the file."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def _writes(tree):
    """(line, call) of each call in `tree` that can create or change a file,
    outside `write_file`. numpy savers into an `io.BytesIO()` buffer write
    no file and pass."""
    inside_helper, buffers = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "write_file":
            inside_helper.update(id(n) for n in ast.walk(node))
        if isinstance(node, ast.Assign) and ast.unparse(node.value) == "io.BytesIO()":
            buffers.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside_helper:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _opens_to_write(node):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(func, ast.Attribute):
            owner = ast.unparse(func.value)
            if func.attr in WRITERS[None] or func.attr in WRITERS.get(owner, ()):
                target = node.args[0] if node.args else None
                if not (owner == "np" and isinstance(target, ast.Name) and target.id in buffers):
                    found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_files_are_written_only_through_write_file(path):
    tree = ast.parse(path.read_text(), str(path))
    found = _writes(tree)
    assert not found, f"{path.name} writes outside data.write_file: {found}"
    helpers = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == "write_file"]
    assert not helpers or path.name == "data.py", "write_file is defined only in data.py"


def test_write_guard_catches_each_writer():
    snippets = [
        "open(p, 'w')", "open(p, mode='ab')", "open(p, 'r+')", "open(p, 'x')", "open(p, m)",
        "np.save(p, a)", "np.savez(p, a=a)", "np.savetxt(p, a)", "a.tofile(p)",
        "os.makedirs(d)", "Path(p).write_text('x')", "buf.tofile(p)",
    ]
    for snippet in snippets:
        assert len(_writes(ast.parse(snippet))) == 1, snippet
    allowed = "open(p)\nopen(p, 'rb')\nbuf = io.BytesIO()\nnp.savez(buf, a=a)\nmanifest.save(d)\n" \
        "def write_file(path):\n    open(path, 'wb')\n    os.makedirs(d)\n"
    assert _writes(ast.parse(allowed)) == []


def _reads(tree, scope=""):
    """(qualified name of the enclosing function or "", line) of each
    read-mode `open` and each READERS call in tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += _reads(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in READERS or name == "open" and not _opens_to_write(node):
                found.append((scope, node.lineno))
        found += _reads(node, scope)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_files_are_read_only_in_the_reader_functions(path):
    module = path.stem
    found = _reads(ast.parse(path.read_text(), str(path)))
    stray = [(f"{module}.{scope}", line) for scope, line in found
             if f"{module}.{scope}" not in READ_FUNCTIONS]
    assert not stray, f"{path.name} reads files outside {sorted(READ_FUNCTIONS)}: {stray}"


def test_read_guard_catches_each_reader():
    snippets = ["open(p)", "open(p, 'rb')", "open(p, mode='r')", "np.loadtxt(p)",
                "np.genfromtxt(p)", "np.load(p)", "np.fromfile(p)", "json.load(fh)",
                "def load_map(p):\n    with open(p) as fh:\n        pass\n",
                "class RunManifest:\n    def save(self):\n        json.load(fh)\n"]
    for snippet in snippets:
        assert len(_reads(ast.parse(snippet))) == 1, snippet
    tree = ast.parse("class RunManifest:\n    def load(d):\n        json.load(open(d))\n"
                     "def _rows(p):\n    def inner():\n        open(p)\n")
    assert _reads(tree) == [("RunManifest.load", 3), ("RunManifest.load", 3),
                            ("_rows.inner", 6)]
    assert _reads(ast.parse("open(p, 'w')\njson.loads(s)\nnp.frombuffer(b)\nfh.read()")) == []


RUN_FILES = ("manifest.json", "checkpoint.tmc", "epochs.csv")


def _run_file_names(tree):
    """(line, name) of each run-directory file name in a string literal,
    f-string parts and docstrings included."""
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for name in RUN_FILES if name in node.value]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_run_directory_is_named_only_in_trainer(path):
    found = _run_file_names(ast.parse(path.read_text(), str(path)))
    if path.name == "trainer.py":
        assert {name for _, name in found} == set(RUN_FILES)
    else:
        assert not found, f"{path.name} names run-directory files {found}; use RunManifest"


def test_run_file_guard_catches_each_literal():
    for snippet in ('"manifest.json"', 'f"{d}/checkpoint.tmc"', '"""Writes epochs.csv."""'):
        assert len(_run_file_names(ast.parse(snippet))) == 1, snippet
    assert _run_file_names(ast.parse('"manifest"\n"checkpoint"')) == []
