"""Every top-level function and class, and every non-dunder method, under
src/quasicyc is referenced somewhere in src/ or perfbench/; a definition
that only tests reach must be one of the paper's oracles listed below.

A reference is a name that is not one of its module's variables, an
attribute that is read, not assigned, or an imported name, anywhere
outside the definition's own body.  A string that is an identifier counts
only in GETATTR_FILES, the files that resolve names with getattr
(perfbench traces what it names that way), and not as a dict key.  Names are
matched as names, not resolved: a method shares its references with every
attribute of the same name, so the scan finds code that nothing reaches by
name, not every method that is dead.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "perfbench")
GETATTR_FILES = ("perfbench/tracing.py",)

# library code that only tests call, kept as an independent statement of
# the paper's definitions
PAPER_ORACLES = {
    "top_projection": "top-degree part of a form, the integral's definition",
    "associator_defect": "phi(g,h,k) read as g.(h.k) = phi (g.h).k, checked on products",
    "norm_square": "octonion norm form, multiplicative on the doubling oracle",
    "cayley_dickson_oracle": "octonions by doubling, compared with the twisted product",
}


def _references(tree, strings: bool):
    """(name, line) of every reference in a module.  A name the module binds
    as a variable (assignment or loop target, parameter) is that variable
    wherever it is read; identifier strings count only when `strings` is
    set, and never as dict keys."""
    nodes = list(ast.walk(tree))
    variables = {
        node.id for node in nodes
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    } | {node.arg for node in nodes if isinstance(node, ast.arg)}
    keys = {id(k) for node in nodes if isinstance(node, ast.Dict) for k in node.keys}
    for node in nodes:
        if isinstance(node, ast.Name):
            if node.id not in variables:
                yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            if not isinstance(node.ctx, ast.Store):
                yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in keys
        ):
            yield node.value, node.lineno


def _definitions(tree):
    """(name, first line, last line) of the top-level functions and classes
    and the non-dunder methods of top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno, item.end_lineno


def unreferenced(defined: dict, scanned: dict, getattr_files=GETATTR_FILES) -> list[str]:
    """'path:line name' of each definition in the `defined` sources that no
    `scanned` source references outside the definition's own lines."""
    refs = defaultdict(list)
    for path, src in scanned.items():
        for name, line in _references(ast.parse(src), path in getattr_files):
            refs[name].append((path, line))
    out = []
    for path, src in defined.items():
        for name, first, last in _definitions(ast.parse(src)):
            if all(p == path and first <= line <= last for p, line in refs[name]):
                out.append(f"{path}:{first} {name}")
    return sorted(out)


def test_scanner_flags_unreferenced_and_accepts_referenced():
    lib = (
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Holder:\n"
        "    def __repr__(self): return ''\n"
        "    def method(self): pass\n"
        "    def by_getattr(self): pass\n"
        "    def dead(self): pass\n"
    )
    user = (
        "from lib import used as alias\n"
        "import lib\n"
        "lib.Holder().method()\n"
        "getattr(lib.Holder, 'by_getattr')\n"
    )
    scanned = {"lib.py": lib, "user.py": user}
    assert unreferenced({"lib.py": lib}, scanned, getattr_files=("user.py",)) == [
        "lib.py:2 recursive",
        "lib.py:7 dead",
    ]
    # outside the getattr files a string names nothing
    assert "lib.py:6 by_getattr" in unreferenced({"lib.py": lib}, scanned, getattr_files=())


def test_scanner_ignores_assigned_names_and_dict_keys():
    lib = (
        "class Element:\n"
        "    def unit(self): pass\n"
        "    def scale(self): pass\n"
        "    def shift(self): pass\n"
    )
    user = (
        "unit = 1\n"
        "for scale in range(3): pass\n"
        "row = {'unit': unit, 'shift': scale}\n"
        "row.shift = 2\n"
        "Element()\n"
    )
    scanned = {"lib.py": lib, "user.py": user}
    assert unreferenced({"lib.py": lib}, scanned, getattr_files=("user.py",)) == [
        "lib.py:2 unit",
        "lib.py:3 scale",
        "lib.py:4 shift",
    ]


def _sources():
    scanned = {
        p.relative_to(ROOT).as_posix(): p.read_text()
        for d in SCANNED
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    defined = {k: v for k, v in scanned.items() if k.startswith("src/quasicyc/")}
    assert defined
    return defined, scanned


def test_every_definition_is_referenced():
    defined, scanned = _sources()
    assert unreferenced(defined, scanned) == []


def test_no_library_code_only_tests_call():
    defined, scanned = _sources()
    library = {k: v for k, v in scanned.items() if not k.startswith("tests/")}
    test_only = unreferenced(defined, library)
    assert [d for d in test_only if d.split()[1] not in PAPER_ORACLES] == []
    # every listed oracle is still defined and still reached only from tests
    assert sorted(d.split()[1] for d in test_only) == sorted(PAPER_ORACLES)
