"""Skeleton helpers that several test modules share and the library does
not need: every plane unary-binary tree, a pre-order node listing, and a
unary chain over a subtree.  Not a test module; the tests import it."""

from lambdamaps.lambda_core import LEAF, Binary, Skeleton, Unary


def iter_unary_binary(nleaf: int, nunary: int):
    """Stream all plane unary-binary trees with the given counts."""
    if nleaf < 1 or nunary < 0:
        return
    if nleaf == 1 and nunary == 0:
        yield LEAF
    if nunary >= 1:
        for t in iter_unary_binary(nleaf, nunary - 1):
            yield Unary(t)
    for a in range(1, nleaf):
        for c in range(0, nunary + 1):
            for l in iter_unary_binary(a, c):
                for r in iter_unary_binary(nleaf - a, nunary - c):
                    yield Binary(l, r)


def preorder(s: Skeleton) -> list[tuple[int, Skeleton, int]]:
    """(id, node, parent_id) with ids assigned in pre-order from 0."""
    out: list[tuple[int, Skeleton, int]] = []
    stack = [(s, -1)]
    while stack:
        node, parent = stack.pop()
        nid = len(out)
        out.append((nid, node, parent))
        if isinstance(node, Unary):
            stack.append((node.child, nid))
        elif isinstance(node, Binary):
            stack.append((node.right, nid))
            stack.append((node.left, nid))
    return out


def wrap_unary(s: Skeleton, k: int) -> Skeleton:
    """s under a chain of k unary nodes."""
    for _ in range(k):
        s = Unary(s)
    return s
