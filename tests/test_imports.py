"""Every name a quasicyc module imports is read somewhere in that module.

The repository runs no linter, so this AST scan is the guard against
imports that outlive their last use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quasicyc"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_scanner_flags_unused_and_accepts_used():
    src = "import os\nfrom math import gcd, pi\nimport a.b as c\nprint(pi, c)\ngcd = 1\n"
    assert unused_imports(src) == ["gcd (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
