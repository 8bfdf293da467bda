"""No quasicyc module hands text to the Python compiler.

Twist expressions and preset files come from users, so the package parses
them itself; this AST scan fails on any use of the builtins eval, exec or
compile (a method such as `re.compile` is not the builtin).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quasicyc"

FORBIDDEN = {"eval", "exec", "compile"}


def code_execution_sites(source: str) -> list[str]:
    tree = ast.parse(source)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FORBIDDEN:
            sites.append(f"{node.id} (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr in FORBIDDEN
              and isinstance(node.value, ast.Name)
              and node.value.id in ("builtins", "__builtins__")):
            sites.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(sites)


def test_scanner_flags_builtins_only():
    src = (
        "import builtins, re\n"
        "x = eval('1')\n"
        "f = exec\n"
        "c = builtins.compile('1', 'f', 'eval')\n"
        "p = re.compile('a')\n"
        "def g(obj): return obj.eval()\n"
    )
    assert code_execution_sites(src) == [
        "builtins.compile (line 4)", "eval (line 2)", "exec (line 3)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_code_execution(path):
    assert code_execution_sites(path.read_text()) == []
