"""The README's library example runs against the package it documents, and
pyproject.toml declares every package the tests import."""

import ast
import os
import re
import sys

import pytest

import relaysec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
TESTS = os.path.join(ROOT, "tests")


def _python_block(section):
    text = open(README, encoding="utf-8").read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_entry_points_block_runs(capsys):
    exec(compile(_python_block("Library entry points"), README, "exec"), {})
    assert capsys.readouterr().out.startswith("0.633393")


def test_every_exported_name_resolves():
    star = {}
    exec("from relaysec import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(relaysec.__all__)
    assert [n for n in relaysec.__all__ if not hasattr(relaysec, n)] == []
    assert len(set(relaysec.__all__)) == len(relaysec.__all__)


def _imported_top_level_names(path):
    tree = ast.parse(open(path, encoding="utf-8").read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_third_party_test_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.load(open(os.path.join(ROOT, "pyproject.toml"), "rb"))["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in declared}
    files = [name for name in os.listdir(TESTS) if name.endswith(".py")]
    local = {"relaysec"} | {name[:-3] for name in files}
    imported = {
        (name, module)
        for name in files
        for module in _imported_top_level_names(os.path.join(TESTS, name))
        if module not in sys.stdlib_module_names and module not in local
    }
    assert sorted(p for p in imported if p[1].lower() not in declared) == []
    assert {"numpy", "pytest", "hypothesis", "mpmath"} <= {module for _, module in imported}
