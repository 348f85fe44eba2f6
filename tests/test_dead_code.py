"""``src/lambdamaps`` holds only what a verb, a check or the benchmark calls.

A top-level function that no other definition in the package refers to is
dead code or a test helper, and belongs in the tests; so does a method,
dunder methods aside, whose name nothing in the package refers to.
``__init__.py`` is only its docstring, so callers import the modules and
nothing is re-exported; ``__main__.py`` is a caller.  The functions that
``perfbench/spans.py`` traces by name are kept for the benchmark, and
``term_defect`` is the public check of a term object; ``convert`` runs the
same check on listings.

A skeleton is its pre-order arity word, held by ``lambda_core.Skeleton``,
and the generator builds words; a term is its listing, held by
``lambda_core.Term``.  So no module defines or names a node class
(``Leaf``, ``Unary``, ``Binary``, ``LEAF``; ``Var``, ``App``, ``Abs``,
their base ``_Term`` and their union ``LambdaTerm``) or a converter
between node trees and words or listings (``word_of``,
``skeleton_of_word``; ``_listing_of``, ``_term_of_listing``).  Both tree
models live in ``tests/reference_kernels.py``, as the references of the
word and listing kernels.  The edge-connectivity oracle reads the word
too, so no module defines or names the syntactic diagram as a multigraph
(``Diagram``); it lives there as well, with the graph oracles that read it.

Importing the CLI loads neither ``dataclasses`` (which loads ``inspect``,
``ast`` and ``dis``) nor ``pickle``, which every process would pay for in
memory: the records are ``NamedTuple`` classes, and the workers of
``verify`` report with ``marshal``.
"""

import ast
import subprocess
import sys
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


def _functions() -> tuple[set[str], set[str], set[str]]:
    """The names of the top-level functions, of the ones that no other
    definition in the package refers to by name or attribute, and of the
    non-dunder methods that nothing in the package refers to."""
    defined: set[str] = set()
    methods: set[str] = set()
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            if own:
                defined.add(own)
            if isinstance(node, ast.ClassDef):
                methods |= {sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")}
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return defined, defined - referenced, methods - referenced


def test_every_top_level_function_has_a_caller():
    defined, uncalled, _methods = _functions()
    traced = _traced()
    assert traced <= defined
    assert uncalled - traced == {"term_defect"}


def test_every_method_has_a_caller():
    _defined, _uncalled, uncalled_methods = _functions()
    assert uncalled_methods == set()


def test_no_module_names_a_node_class_or_a_tree_converter():
    # exact names, so that word_of_vtree, say, is not one of them
    banned = {"Leaf", "Unary", "Binary", "LEAF", "word_of", "skeleton_of_word",
              "Var", "App", "Abs", "_Term", "LambdaTerm", "_listing_of", "_term_of_listing",
              "Diagram"}
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Name):
                names = {sub.id}
            elif isinstance(sub, ast.Attribute):
                names = {sub.attr}
            elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                names = {sub.name}
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                names = {part for alias in sub.names
                         for part in (alias.name, alias.asname) if part}
            else:
                continue
            naming |= {(path.stem, name) for name in names & banned}
    assert naming == set()


def test_the_package_namespace_binds_nothing():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_pickle():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lambdamaps.cli; "
            "print(sys.modules['lambdamaps'].__file__); "
            "print(*sorted({'dataclasses', 'inspect', 'pickle'} & set(sys.modules)))")
    # -I -S: no site hooks and no environment, so only the import loads them
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    where, loaded = proc.stdout.splitlines()
    assert Path(where).parent == PACKAGE
    assert loaded == ""
