"""Source checks: every module-level import in the package is used, and every
module-level function, class and assigned name is read by some other code."""

import ast
from pathlib import Path

import pytest

import dispmax

PACKAGE = Path(dispmax.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that no name in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in read)


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom .a import b, c\nprint(b)\n") == ["line 1: os",
                                                                             "line 2: c"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _read_names(node) -> set:
    """Names that node reads, as an ast.Name or as the attribute of an ast.Attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _defined_names(node) -> list:
    """Names that a module-level function, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def dead_definitions(sources: dict, checked) -> list:
    """Module-level functions, classes and assigned names of the checked sources
    that nothing reads.

    sources maps a label to its source text.  A definition counts as read when
    its name is read in some module-level statement of any source other than
    the definition itself, so recursion alone does not count.
    """
    statements = [(label, node, _read_names(node))
                  for label, text in sources.items() for node in ast.parse(text).body]
    return sorted(f"{label}: {name}" for label, node, _ in statements if label in checked
                  for name in _defined_names(node)
                  if not any(name in names for _, other, names in statements
                             if other is not node))


def test_checker_flags_an_unread_definition():
    source = "def f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\nprint(g)\n"
    assert dead_definitions({"m": source, "t": "C = 1\n"}, {"m"}) == ["m: C", "m: f"]


def test_checker_flags_an_unread_constant():
    source = "A = 1\nB, C = 2, A\nD: int = B\nE = 3\n"
    assert dead_definitions({"m": source, "t": "print(D)\n"}, {"m"}) == ["m: C", "m: E"]


def test_every_definition_is_read():
    sources = {p.name if p.parent == PACKAGE else f"tests/{p.name}": p.read_text()
               for p in [*PACKAGE.glob("*.py"), *TESTS]}
    assert dead_definitions(sources, {p.name for p in MODULES}) == []
