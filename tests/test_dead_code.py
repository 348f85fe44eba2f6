"""``src/lambdamaps`` holds only what a verb, a check or the benchmark calls.

A top-level function that no other definition in the package refers to is
dead code or a test helper, and belongs in the tests.  The re-exports of
``__init__.py`` are not callers; ``__main__.py`` is.  The functions that
``perfbench/spans.py`` traces by name are kept for the benchmark, and
``term_defect`` is the public check of a term object; ``convert`` runs the
same check on listings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambdamaps"


def _traced() -> set[str]:
    """The function names in perfbench/spans.TRACED, read from the file
    without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            traced = ast.literal_eval(node.value)
            return {fn for fns in traced.values() for fn in fns}
    raise AssertionError("perfbench/spans.py has no TRACED")


def _functions() -> tuple[set[str], set[str]]:
    """The names of the top-level functions, and of the ones that no other
    definition in the package refers to by name or attribute."""
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            if own:
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, defined - referenced


def test_every_top_level_function_has_a_caller():
    defined, uncalled = _functions()
    traced = _traced()
    assert traced <= defined
    assert uncalled - traced == {"term_defect"}
