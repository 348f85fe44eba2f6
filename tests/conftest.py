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
