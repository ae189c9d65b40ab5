"""The README's library quickstart runs as written and prints what its
comments say."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_prints_its_commented_values():
    source = quickstart()
    namespace: dict = {}
    exec(compile(source, str(README), "exec"), namespace)
    checked = {}
    lines = source.splitlines()
    for node in ast.parse(source).body:
        line = lines[node.lineno - 1]
        if not isinstance(node, ast.Expr) or "#" not in line:
            continue
        code, comment = line.split("#", 1)
        # The value is the comment up to a double space; "..." marks a
        # value rounded to the digits shown.
        expected = comment.strip().split("  ")[0]
        value = eval(code, namespace)
        if expected.endswith("..."):
            digits = len(expected[:-3].split(".")[1])
            assert round(value, digits) == float(expected[:-3]), (code, value)
        else:
            assert repr(value) == expected, (code, value)
        checked[code.strip()] = expected
    assert list(checked.values()) == [
        "2.154...",
        "1.433...",
        "0.4",
        "71.0",
        "['gd_plus', 'ci', 'spread', 'unfr', 'hv']",
    ]
