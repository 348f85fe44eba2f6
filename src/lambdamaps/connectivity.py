"""Connectivity classes of planar linear normal terms.

Membership in the connected / 2-connected / 3-connected families is decided
two ways: structurally on the skeleton (counting conditions on subtree
leaf/unary deficits against the unary chain above each node) and by brute
force on the syntactic diagram (bridges of the diagram, and of the diagram
less each single edge, which find every disconnecting edge pair).  The two
routes are cross-checked exhaustively in the tests.

The structural tests read the skeleton's pre-order arity word (see
``lambda_core``): a unary node's child follows it, so the unary chain
above a node is the run of 1s before it, and one reverse scan with a stack
of subtree deficits checks every node.
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
    word_of,
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


# A binary node directly followed by a unary node: its left child is unary.
_UNARY_LEFT_CHILD = b"\x02\x01"


def check_family(s: Skeleton, level: int) -> bool:
    """Structural membership test for the connected (level 1) and
    2-connected (level 2) families; see in_family."""
    return in_family(word_of(s), level)


def in_family(word: bytes, level: int) -> bool:
    """check_family on a skeleton's pre-order arity word.

    Level 1: leaf count equals unary count, no binary node has a unary left
    child, and every binary node or leaf u satisfies deficit(subtree at u)
    >= length of the unary chain directly above u.
    Level 2 strengthens the inequality to strict, except at nodes whose
    unary chain reaches the skeleton root (the whole term is closed, so the
    top chain is exempt; this also classifies the one-atom term as
    2-connected).

    The inequality at u says that the subtree at the top of u's chain has
    deficit >= 0 (> 0 at level 2).  That top is the root or a child of a
    binary node, so one reverse scan of the word, keeping the deficits of
    the finished subtrees on a stack, checks both children at each binary
    node.
    """
    if level not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {level}")
    if word.count(0) != word.count(1) or _UNARY_LEFT_CHILD in word:
        return False
    least = level - 1
    deficits: list[int] = []
    for k in reversed(word):
        if k == 0:
            deficits.append(1)
        elif k == 1:
            deficits[-1] -= 1
        else:
            left = deficits.pop()
            right = deficits[-1]
            if left < least or right < least:
                return False
            deficits[-1] = left + right
    return True


def _reduced(word: bytes) -> bool:
    """check_reduced on a word: one reverse scan keeps the deficits of the
    finished subtrees, and the right child's deficit at the last binary
    node is held until the run of unary nodes above that node is counted."""
    if word.count(0) - word.count(1) < 1 or _UNARY_LEFT_CHILD in word:
        return False
    deficits: list[int] = []
    right, chain = len(word), 0  # no binary node is pending yet
    for k in reversed(word):
        if k == 1:
            deficits[-1] -= 1
            chain += 1
            continue
        if right <= chain:
            return False
        if k == 0:
            deficits.append(1)
            right, chain = len(word), 0
        else:
            left = deficits.pop()
            right, chain = deficits[-1], 0
            deficits[-1] += left
    return right > chain


def check_reduced(s: Skeleton) -> bool:
    """Membership test for reduced skeletons (the 3-connected encoding).

    Requires normality, deficit(s) >= 1, and at every binary node u with
    right child v: deficit(subtree at v) > length of the unary chain
    directly above u.  The single leaf is admitted (the size-2 degenerate
    case); a bare unary chain is not, which the deficit condition enforces.
    """
    return _reduced(word_of(s))


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
    s = Binary(LEAF, s)
    for _ in range(d + 1):
        s = Unary(s)
    return s


def is_three_connected_skeleton(s: Skeleton) -> bool:
    """Level-3 structural test: reducible with a valid reduced skeleton.

    On the word: the leading unary chain, then a binary node whose left
    child is a leaf; the rest of the word is the reduced skeleton.
    """
    word = word_of(s)
    core = len(word) - len(word.lstrip(b"\x01"))
    return word[core:core + 2] == b"\x02\x00" and _reduced(word[core + 2:])


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
