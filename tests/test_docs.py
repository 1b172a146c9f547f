"""The README's library example runs against the package it documents."""

import os
import re

import relaysec

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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
