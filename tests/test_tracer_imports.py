"""Imports that only the benchmark's tracer needs.

A ``cbwk`` module may import a name it never uses on a ``# noqa: F401``
line only so that ``perfbench/tracer.py`` can patch it there: its
``_FUNCTIONS`` table wraps ``(module, attribute)`` pairs.  Once the tracer
drops such an entry, the import is dead and this test names it.  The tracer
is read as source, not imported.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cbwk")
TESTS = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
# defined in cbwk.oracles only so that the tracer can patch them
TRACER_ONLY = {"OnlinePredictor", "make_predictor"}


def traced_functions() -> set:
    """The (module, attribute) pairs of the tracer's ``_FUNCTIONS`` table."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_FUNCTIONS"]]
    return {(entry.elts[0].value, entry.elts[1].value) for entry in table.elts}


def unused_noqa_imports(source: str) -> set:
    """Names imported on a ``# noqa: F401`` line and never read elsewhere in ``source``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            names |= {alias.asname or alias.name for alias in node.names}
    return names - read


def test_unused_imports_are_tracer_targets():
    traced = traced_functions()
    assert ("cbwk.policy", "sample_outcome") in traced  # the table was read
    untraced = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        module = "cbwk." + filename[:-3]
        with open(os.path.join(PACKAGE, filename)) as fh:
            unused = unused_noqa_imports(fh.read())
        untraced += [f"{module}.{name}" for name in sorted(unused)
                     if (module, name) not in traced]
    assert untraced == [], "imported only for the tracer, which no longer patches them"


def test_unused_import_detection():
    source = ("from .core import RunTrace, sample_outcome  # noqa: F401\n"
              "from .dual import (dual_init,\n"
              "                   dual_update)  # noqa: F401\n"
              "import math\n"
              "def f(trace: RunTrace) -> float:\n"
              "    return dual_init\n")
    assert unused_noqa_imports(source) == {"sample_outcome", "dual_update"}


def named(source: str) -> set:
    """Every identifier ``source`` defines, imports, reads or looks up as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_tracer_only_names_stay_in_their_two_places():
    # oracles may define them and policy may import make_predictor, unread, for
    # the tracer; deleting them with the tracer's entries then edits no test
    allowed = {"oracles.py": TRACER_ONLY, "policy.py": {"make_predictor"}}
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename)) as fh:
                source = fh.read()
            found = named(source) & TRACER_ONLY
            assert found <= allowed.get(filename, set()), (filename, found)
            if filename == "policy.py":
                assert found <= unused_noqa_imports(source)
    word = re.compile(r"\b(" + "|".join(sorted(TRACER_ONLY)) + r")\b")
    naming = []
    for filename in sorted(os.listdir(TESTS)):
        path = os.path.join(TESTS, filename)
        if filename.endswith(".py") and path != os.path.abspath(__file__):
            with open(path) as fh:
                naming += [filename] if word.search(fh.read()) else []
    assert naming == [], "tests may reach the oracles only through VectorPredictor"
