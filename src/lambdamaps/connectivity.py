"""Connectivity classes of planar linear normal terms.

Membership in the connected / 2-connected / 3-connected families is decided
two ways: structurally on the skeleton (counting conditions on subtree
leaf/unary deficits against the unary chain above each node) and by brute
force on the syntactic diagram (bridges of the diagram, and of the diagram
less each single edge, which find every disconnecting edge pair).  The two
routes are cross-checked exhaustively in the tests.
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

    One walk of the skeleton.  Level 1: leaf count equals unary count, no
    binary node has a unary left child, and every binary node or leaf u
    satisfies deficit(subtree at u) >= length of the unary chain directly
    above u.
    Level 2 strengthens the inequality to strict, except at nodes whose
    unary chain reaches the skeleton root (the whole term is closed, so the
    top chain is exempt; this also classifies the one-atom term as
    2-connected).
    """
    if level not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {level}")
    if s.nleaf != s.nunary:
        return False
    strict = level == 2
    stack: list[tuple[Skeleton, bool]] = [(s, True)]  # (node, on the root chain)
    while stack:
        node, on_root_chain = stack.pop()
        chain, node = leading_chain(node)
        d = node.nleaf - node.nunary
        if d < chain or (strict and not on_root_chain and d == chain):
            return False
        if isinstance(node, Binary):
            if isinstance(node.left, Unary):
                return False
            stack.append((node.right, False))
            stack.append((node.left, False))
    return True


def check_reduced(s: Skeleton) -> bool:
    """Membership test for reduced skeletons (the 3-connected encoding).

    Requires normality, deficit(s) >= 1, and at every binary node u with
    right child v: deficit(subtree at v) > length of the unary chain
    directly above u.  The single leaf is admitted (the size-2 degenerate
    case); a bare unary chain is not, which the deficit condition enforces.
    """
    if s.deficit() < 1:
        return False
    stack = [s]
    while stack:
        chain, node = leading_chain(stack.pop())
        if isinstance(node, Binary):
            if isinstance(node.left, Unary) or node.right.deficit() <= chain:
                return False
            stack.append(node.right)
            stack.append(node.left)
    return True


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

def _bridges(adj: list[list[tuple[int, int]]], skip: int = -1) -> tuple[bool, list[int]]:
    """Whether the graph with adjacency lists of (neighbour, edge id), less
    the edge skip, is connected, and its bridges.

    One lowlink depth-first search from vertex 0, by an explicit stack.  A
    tree edge is a bridge when nothing below it reaches back above it; the
    search leaves a vertex by the edge id it came in on, not by its parent
    vertex, so a parallel edge is a back edge and self-loops are inert.
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    via = [-1] * n  # edge id that reached the vertex
    nxt = [0] * n  # next position in its adjacency list
    disc[0] = 0
    count = 1
    bridges: list[int] = []
    stack = [0]
    while stack:
        x = stack[-1]
        k = nxt[x]
        if k < len(adj[x]):
            nxt[x] = k + 1
            y, i = adj[x][k]
            if i == skip or i == via[x]:
                continue
            if disc[y] < 0:
                disc[y] = low[y] = count
                count += 1
                via[y] = i
                stack.append(y)
            elif disc[y] < low[x]:
                low[x] = disc[y]
        else:
            stack.pop()
            if stack:
                p = stack[-1]
                if low[x] > disc[p]:
                    bridges.append(via[x])
                elif low[x] < low[p]:
                    low[p] = low[x]
    return count == n, bridges


def edge_connectivity_class(d: Diagram) -> ConnectivityClass:
    """Brute-force edge connectivity of a diagram.

    The adjacency lists of (neighbour, edge id) are built once.  One bridge
    search on the diagram gives Disconnected or One.  Otherwise an edge pair
    {i, j} disconnects exactly when j is a bridge of the diagram less i, so
    one bridge search per removed edge i decides Two.  Pairs with both edges
    incident to the root vertex are exempt from the 3-connectedness test.
    Diagrams with at most one vertex are vacuously ThreePlus.
    """
    if len(d.vertices) <= 1:
        return ConnectivityClass.ThreePlus
    index_of = {v: i for i, v in enumerate(d.vertices)}
    adj: list[list[tuple[int, int]]] = [[] for _ in d.vertices]
    for i, (u, v) in enumerate(d.edges):
        adj[index_of[u]].append((index_of[v], i))
        adj[index_of[v]].append((index_of[u], i))
    connected, bridges = _bridges(adj)
    if not connected:
        return ConnectivityClass.Disconnected
    if bridges:
        return ConnectivityClass.One
    at_root = [d.root in e for e in d.edges]
    for i in range(len(d.edges)):
        for j in _bridges(adj, i)[1]:
            if not (at_root[i] and at_root[j]):
                return ConnectivityClass.Two
    return ConnectivityClass.ThreePlus
