"""Imports that only the benchmark's tracer needs.

A ``cbwk`` module may import a name it never uses on a ``# noqa: F401``
line only so that ``perfbench/tracer.py`` can patch it there: its
``_FUNCTIONS`` table wraps ``(module, attribute)`` pairs.  Once the tracer
drops such an entry, the import is dead and this test names it.  The other
way round, every entry of its ``_FUNCTIONS`` and ``_METHODS`` tables must
name an attribute that exists.  The tracer is read as source, not imported.
"""

import ast
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cbwk")
TESTS = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
# defined in cbwk.oracles only so that the tracer can patch them
TRACER_ONLY = {"OnlinePredictor", "make_predictor"}


def tracer_table(name: str) -> list:
    """The entries of one of the tracer's tables, each a tuple of its leading string fields."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]]
    return [tuple(e.value for e in entry.elts
                  if isinstance(e, ast.Constant) and isinstance(e.value, str))
            for entry in table.elts]


def traced_functions() -> set:
    """The (module, attribute) pairs of the tracer's ``_FUNCTIONS`` table."""
    return {entry[:2] for entry in tracer_table("_FUNCTIONS")}


def test_every_tracer_target_resolves():
    # the tracer patches these by name; a kernel change that renames or drops
    # one would break the traced benchmark run without failing anything else
    functions, methods = traced_functions(), tracer_table("_METHODS")
    assert ("cbwk.policy", "_sample_arm") in functions and methods  # the tables were read
    missing = [f"{module}.{attr}" for module, attr in sorted(functions)
               if not callable(getattr(importlib.import_module(module), attr, None))]
    for module, cls, attr, _ in methods:
        owner = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls}.{attr}")
    assert missing == []


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
