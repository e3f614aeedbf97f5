"""Dead-code guard for ``src/cbwk``: no unused import, no unread private module-level name.

The tracer's imports (``# noqa: F401`` lines) are kept only for
``perfbench/tracer.py`` to patch; ``test_tracer_imports.py`` polices those.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cbwk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(tree) -> set:
    """Every name the module reads: a loaded name, or an attribute taken by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    lines = path.read_text().splitlines()
    tree = _tree(path)
    reads = _reads(tree)
    unused = [
        f"{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        if "# noqa: F401" not in lines[node.lineno - 1]
        for alias in node.names if (alias.asname or alias.name.split(".")[0]) not in reads
    ]
    assert unused == []


def _defined_private(tree) -> list:
    """(name, line) of each private function, class or variable defined at module level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    found.append((name.id, node.lineno))
    return [(n, line) for n, line in found if n.startswith("_") and not n.startswith("__")]


def test_every_private_module_name_is_read_somewhere():
    reads = set().union(*(_reads(_tree(p)) for p in SRC.glob("*.py")))
    unread = [f"{p.name}:{line} {name}" for p in MODULES
              for name, line in _defined_private(_tree(p)) if name not in reads]
    assert unread == []
