"""``src/lambdamaps`` has one error type per concern, all in ``lambda_core``:
``ParseError`` for a text that does not parse, ``InvalidInput`` for an
object or argument outside an operation's domain, and ``SizeTooLarge`` for
a size outside a cap.  Internal self-checks raise plain ``AssertionError``.

The guard reads the sources without importing them, so that a new
per-function error class, or a bare ``raise ValueError(...)``, fails here.
"""

import ast
import builtins
import pickle
from pathlib import Path

import pytest

from lambdamaps.lambda_core import InvalidInput, ParseError, SizeTooLarge

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambdamaps"
ERROR_TYPES = {"ParseError", "InvalidInput", "SizeTooLarge"}


def _is_exception(name: str, found: set[str]) -> bool:
    builtin = getattr(builtins, name, None)
    return name in found or isinstance(builtin, type) and issubclass(builtin, BaseException)


def _exception_classes() -> dict[str, tuple[str, list[str]]]:
    """Each exception class defined in the package: its module and the
    names of its bases."""
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.name, [ast.unparse(b) for b in node.bases])
    found: set[str] = set()
    while True:  # a class is an exception when one of its bases is
        more = {name for name, (_mod, bases) in classes.items()
                if any(_is_exception(b, found) for b in bases)}
        if more == found:
            return {name: classes[name] for name in found}
        found = more


def _raised_names() -> list[tuple[str, int, str]]:
    """(file, line, name) of each ``raise Name(...)`` or ``raise Name``."""
    raised = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.append((path.name, node.lineno, exc.id))
    return raised


def test_the_package_defines_exactly_the_three_error_types():
    classes = _exception_classes()
    assert set(classes) == ERROR_TYPES
    for name, (module, bases) in classes.items():
        assert (module, bases) == ("lambda_core.py", ["ValueError"]), name


def test_no_bare_value_error_is_raised():
    assert [r for r in _raised_names() if r[2] == "ValueError"] == []


@pytest.mark.parametrize("exc", [
    ParseError("expected ']'", 7),
    InvalidInput("not a valid v-tree"),
    SizeTooLarge("size must be in 1..8"),
])
def test_error_types_survive_a_pickle_round_trip(exc):
    # the error types stay plain values: sent between processes, as by
    # multiprocessing, an error comes back whole
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "position", None) == getattr(exc, "position", None)
    assert isinstance(back, ValueError)
