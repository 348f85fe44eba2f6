"""Connectivity classes of planar linear normal terms.

Membership in the connected / 2-connected / 3-connected families is decided
two ways: structurally on the skeleton (counting conditions on subtree
leaf/unary deficits against the unary chain above each node) and by brute
force on the syntactic diagram (removing single edges and edge pairs).  The
two routes are cross-checked exhaustively in the tests.
"""

from __future__ import annotations

from enum import IntEnum

from .lambda_core import (
    Binary,
    Diagram,
    LEAF,
    Leaf,
    Skeleton,
    Unary,
    is_normal,
    wrap_unary,
)


class NotReducible(ValueError):
    pass


class InvalidReduced(ValueError):
    pass


class ConnectivityClass(IntEnum):
    Disconnected = 0
    One = 1
    Two = 2
    ThreePlus = 3


def leading_chain(s: Skeleton) -> tuple[int, Skeleton]:
    """Length of the unary chain at the top of s, and the subtree below."""
    k = 0
    while isinstance(s, Unary):
        k += 1
        s = s.child
    return k, s


def check_family(s: Skeleton, level: int) -> bool:
    """Structural membership test for the connected (level 1) and
    2-connected (level 2) families.

    Level 1: leaf count equals unary count, no binary node has a unary left
    child, and every binary node or leaf u satisfies
    deficit(subtree at u) >= length of the unary chain directly above u.
    Level 2 strengthens the inequality to strict, except at nodes whose
    unary chain reaches the skeleton root (the whole term is closed, so the
    top chain is exempt; this also classifies the one-atom term as
    2-connected).
    """
    if level not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {level}")
    if s.nleaf != s.nunary or not is_normal(s):
        return False

    def walk(node: Skeleton, chain: int, on_root_chain: bool) -> bool:
        if isinstance(node, Unary):
            return walk(node.child, chain + 1, on_root_chain)
        d = node.deficit()
        if d < chain:
            return False
        if level == 2 and not on_root_chain and d == chain:
            return False
        if isinstance(node, Binary):
            return walk(node.left, 0, False) and walk(node.right, 0, False)
        return True

    return walk(s, 0, True)


def check_reduced(s: Skeleton) -> bool:
    """Membership test for reduced skeletons (the 3-connected encoding).

    Requires normality, deficit(s) >= 1, and at every binary node u with
    right child v: deficit(subtree at v) > length of the unary chain
    directly above u.  The single leaf is admitted (the size-2 degenerate
    case); a bare unary chain is not, which the deficit condition enforces.
    """
    if not is_normal(s) or s.deficit() < 1:
        return False

    def walk(node: Skeleton, chain: int) -> bool:
        if isinstance(node, Unary):
            return walk(node.child, chain + 1)
        if isinstance(node, Leaf):
            return True
        if node.right.deficit() <= chain:
            return False
        return walk(node.left, 0) and walk(node.right, 0)

    return walk(s, 0)


def reduce_skeleton(s: Skeleton) -> Skeleton:
    """Strip the leading unary chain, the first binary node and its left
    leaf; returns that node's right subtree."""
    _k, node = leading_chain(s)
    if isinstance(node, Leaf):
        raise NotReducible("skeleton has no binary node")
    if not isinstance(node.left, Leaf):
        raise NotReducible("left child of the first binary node is not a leaf")
    return node.right


def unreduce(s: Skeleton) -> Skeleton:
    """Inverse of reduce_skeleton: a chain of deficit+1 unary nodes over a
    binary node with a leaf left child and s as right subtree."""
    d = s.deficit()
    if d <= 0:
        raise InvalidReduced(f"deficit {d} is not positive")
    return wrap_unary(Binary(LEAF, s), d + 1)


def is_three_connected_skeleton(s: Skeleton) -> bool:
    """Level-3 structural test: reducible with a valid reduced skeleton."""
    try:
        r = reduce_skeleton(s)
    except NotReducible:
        return False
    return check_reduced(r)


# ---------------------------------------------------------------------------
# Brute-force diagram oracle

def _connected(adj: list[list[tuple[int, int]]], skip_a: int = -1, skip_b: int = -1) -> bool:
    """Whether the graph with adjacency lists of (neighbour, edge id) stays
    connected without the edges skip_a and skip_b."""
    n = len(adj)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for y, i in adj[stack.pop()]:
            if not seen[y] and i != skip_a and i != skip_b:
                seen[y] = True
                count += 1
                if count == n:
                    return True
                stack.append(y)
    return count == n


def edge_connectivity_class(d: Diagram) -> ConnectivityClass:
    """Brute-force edge connectivity of a diagram.

    The adjacency lists of (neighbour, edge id) are built once; then the
    diagram itself, every single-edge removal and every edge-pair removal
    is tested by one depth-first search that skips the removed edge ids.
    Pairs with both edges incident to the root vertex are exempt from the
    3-connectedness test.  Diagrams with at most one vertex are vacuously
    ThreePlus.
    """
    if len(d.vertices) <= 1:
        return ConnectivityClass.ThreePlus
    index_of = {v: i for i, v in enumerate(d.vertices)}
    adj: list[list[tuple[int, int]]] = [[] for _ in d.vertices]
    for i, (u, v) in enumerate(d.edges):
        adj[index_of[u]].append((index_of[v], i))
        adj[index_of[v]].append((index_of[u], i))
    if not _connected(adj):
        return ConnectivityClass.Disconnected
    m = len(d.edges)
    if not all(_connected(adj, i) for i in range(m)):
        return ConnectivityClass.One
    at_root = [d.root in e for e in d.edges]
    for i in range(m):
        for j in range(i + 1, m):
            if not (at_root[i] and at_root[j]) and not _connected(adj, i, j):
                return ConnectivityClass.Two
    return ConnectivityClass.ThreePlus
