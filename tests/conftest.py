import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def shallow_recursion():
    """Lower the recursion limit to 150 for one test, so that a recursive
    walk over a 500-node-deep object fails at once instead of passing under
    the default limit or crawling to it."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture
def too_many_digits():
    """A run of digits one longer than int() reads: Python from 3.10.7 on
    refuses more than sys.get_int_max_str_digits() digits with a builtin
    ValueError.  Skips the test where int() reads any number of digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() reads any number of digits here")
    return "1" * (limit + 1)
