"""Connectivity classes of planar linear normal terms.

Membership in the connected / 2-connected / 3-connected families is decided
two ways: structurally on the skeleton (counting conditions on subtree
leaf/unary deficits against the unary chain above each node) and on the
syntactic diagram, whose bridges and disconnecting edge pairs one labelling
of a spanning tree by cycle-space bits finds.  The two routes are
cross-checked exhaustively in ``verify`` and the tests.

The structural tests read the pre-order arity word that a ``Skeleton``
holds (see ``lambda_core``): a unary node's child follows it, so the unary
chain above a node is the run of 1s before it, and one reverse scan with a
stack of subtree deficits checks every node.  ``reduce_skeleton`` and
``unreduce`` cut and prefix the word.
"""

from __future__ import annotations

from enum import IntEnum

from .lambda_core import Diagram, InvalidInput, Skeleton


class ConnectivityClass(IntEnum):
    Disconnected = 0
    One = 1
    Two = 2
    ThreePlus = 3


# A binary node directly followed by a unary node: its left child is unary.
_UNARY_LEFT_CHILD = b"\x02\x01"


def check_family(s: Skeleton, level: int) -> bool:
    """Structural membership test for the connected (level 1) and
    2-connected (level 2) families; see in_family."""
    return in_family(s.word, level)


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
        raise InvalidInput(f"level must be 1 or 2, got {level}")
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
    return _reduced(s.word)


def reduce_skeleton(s: Skeleton) -> Skeleton:
    """Strip the leading unary chain, the first binary node and its left
    leaf; returns that node's right subtree, the rest of the word."""
    word = s.word
    core = len(word) - len(word.lstrip(b"\x01"))
    if word[core] == 0:
        raise InvalidInput("skeleton has no binary node")
    if word[core + 1] != 0:
        raise InvalidInput("left child of the first binary node is not a leaf")
    return Skeleton(word[core + 2:])


def unreduce(s: Skeleton) -> Skeleton:
    """Inverse of reduce_skeleton: a chain of deficit+1 unary nodes over a
    binary node with a leaf left child and s as right subtree."""
    word = s.word
    d = word.count(0) - word.count(1)
    if d <= 0:
        raise InvalidInput(f"deficit {d} is not positive")
    return Skeleton(b"\x01" * (d + 1) + b"\x02\x00" + word)


def is_three_connected_skeleton(s: Skeleton) -> bool:
    """Level-3 structural test: reducible with a valid reduced skeleton.

    On the word: the leading unary chain, then a binary node whose left
    child is a leaf; the rest of the word is the reduced skeleton.
    """
    word = s.word
    core = len(word) - len(word.lstrip(b"\x01"))
    return word[core:core + 2] == b"\x02\x00" and _reduced(word[core + 2:])


# ---------------------------------------------------------------------------
# Diagram oracle

def edge_connectivity_class(d: Diagram) -> ConnectivityClass:
    """Edge connectivity of a diagram, from one spanning tree.

    A breadth-first search from the first vertex finds the tree, or that
    the diagram is Disconnected.  Each non-tree edge gets its own bit,
    XORed into both of its ends, and a reverse pass over the search order
    labels each tree edge with the XOR of the vertices below it.  A label
    of 0 is a bridge (One).  Two edges of a bridgeless diagram disconnect
    it exactly when their labels are equal (the cycle-space test of
    Pritchard and Thurimella, exact with one bit per non-tree edge), which
    makes it Two unless both are at the root vertex.  Diagrams with at
    most one vertex are vacuously ThreePlus.
    """
    n = len(d.vertices)
    if n <= 1:
        return ConnectivityClass.ThreePlus
    index_of = {v: i for i, v in enumerate(d.vertices)}
    ends = [(index_of[u], index_of[v]) for u, v in d.edges]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(ends):
        adj[u].append((v, i))
        adj[v].append((u, i))
    via = [-1] * n  # the tree edge into each vertex
    up = [0] * n  # and the vertex it comes from
    order = [0]
    for x in order:
        for y, i in adj[x]:
            if via[y] < 0 and y:
                via[y], up[y] = i, x
                order.append(y)
    if len(order) < n:
        return ConnectivityClass.Disconnected
    tree = set(via)
    label = [0 if i in tree else 1 << i for i in range(len(ends))]
    below = [0] * n
    for (u, v), bit in zip(ends, label):
        below[u] ^= bit
        below[v] ^= bit
    for y in reversed(order[1:]):
        label[via[y]] = below[y]
        below[up[y]] ^= below[y]
    if 0 in label:
        return ConnectivityClass.One
    at_root = [d.root in e for e in d.edges]
    others = [lab for lab, r in zip(label, at_root) if not r]
    rooted = {lab for lab, r in zip(label, at_root) if r}
    if len(set(others)) < len(others) or not rooted.isdisjoint(others):
        return ConnectivityClass.Two
    return ConnectivityClass.ThreePlus
