"""The package's export list: the union of its library modules' ``__all__``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import paretoeval
from paretoeval import core, doe, guidance, indicators, preprocess
from test_readme import quickstart

MODULES = (core, preprocess, indicators, doe, guidance)


def test_all_is_version_plus_module_exports():
    expected = ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert paretoeval.__all__ == expected
    assert len(set(expected)) == len(expected)  # no module shadows another


def test_every_export_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(paretoeval, name) is getattr(module, name)
    assert isinstance(paretoeval.__version__, str)


def test_import_leaves_the_cli_out():
    # Importing the package loads numpy, the standard library and the five
    # library modules, nothing else: every other import it gains is paid on
    # each start of the command line.
    code = (
        "import sys; before = set(sys.modules); import paretoeval; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = Path(paretoeval.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", code]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
    added = set(out.stdout.split())
    library = {f"paretoeval.{m.__name__.rpartition('.')[2]}" for m in MODULES}
    assert {n for n in added if n.startswith("paretoeval")} == {"paretoeval", *library}
    others = {n.partition(".")[0] for n in added if not n.startswith("paretoeval")}
    assert others <= {"numpy", *sys.stdlib_module_names}


def _loaded_names(source: str) -> set[str]:
    """Every name the source reads, bare (``ast.Name``) or as an attribute."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_export_is_read_by_the_package_or_the_quickstart():
    # A public name of a library module stays only if the package itself
    # reads it, so a command can reach it, or the README's quickstart shows it.
    package = Path(paretoeval.__file__).parent
    loaded = _loaded_names(quickstart()).union(
        *(_loaded_names(p.read_text(encoding="utf-8")) for p in package.glob("*.py"))
    )
    assert [n for m in MODULES for n in m.__all__ if n not in loaded] == []
