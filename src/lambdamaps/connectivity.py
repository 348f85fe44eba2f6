"""Connectivity classes of planar linear normal terms.

Membership in the connected / 2-connected / 3-connected families is decided
two ways: structurally on the skeleton (counting conditions on subtree
leaf/unary deficits against the unary chain above each node) and on the
syntactic diagram, whose bridges and disconnecting edge pairs one labelling
of a spanning tree by cycle-space bits finds.  The two routes are
cross-checked exhaustively in ``verify`` and the tests.

Both read the pre-order arity word that a ``Skeleton`` holds (see
``lambda_core``).  A unary node's child follows it, so the unary chain
above a node is the run of 1s before it, and one reverse scan with a stack
of subtree deficits checks every node.  The diagram is never built: the
skeleton's own edges between internal nodes span it, and one reverse scan
with a stack of subtree labels both matches its binder edges and labels
the tree.  ``reduce_skeleton`` and ``unreduce`` cut and prefix the word.
"""

from __future__ import annotations

from enum import IntEnum

from .lambda_core import InvalidInput, Skeleton, _match


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

def edge_connectivity_class(word: bytes) -> ConnectivityClass:
    """Edge connectivity of the syntactic diagram of the skeleton with
    this pre-order arity word.

    The diagram is a multigraph on the internal nodes: the skeleton edges
    between them, and one binder edge per leaf, from its parent to the
    unary node that binds it along the clockwise contour (``_match`` with
    right_first).  The mirror drawing agrees on the connected and
    2-connected classes but not at 3-connectivity, where only the
    clockwise one matches the structural characterization.

    The skeleton edges span the diagram.  Each binder edge gets its own
    bit, and each tree edge the XOR of the bits of the binder edges with
    one end below it.  A label of 0 is a bridge (One).  Two edges of a
    bridgeless diagram disconnect it exactly when their labels are equal
    (the cycle-space test of Pritchard and Thurimella, exact with one bit
    per non-tree edge): Two, unless both are at the root.  Binder labels
    are distinct bits, so a tree label equal to one is a tree label of one
    bit.  The root is unary, and its tree edge's label is the bit of its
    one binder edge, an exempt pair; so that edge is left out.  At most
    one internal node is vacuously ThreePlus.

    One reverse scan matches and labels.  The pre-order word lists a node,
    its left subtree, then its right one, so the reversed word lists the
    right subtree, the left one, then the node: the post-order of the
    clockwise contour, which meets the leaves in contour order, the order
    in which the stack matcher pops them.  So the leaves get their bits
    in contour order, and each finished subtree keeps its leaves not
    bound inside it as the set bits of one integer, first leaf lowest.  A
    unary node binds the first leaf of its child's set, as the matcher
    does, since every unary node below it has already bound a leaf of its
    own.  A binary node joins its children's sets.  The leaves left
    unbound in a subtree are the binder edges with one end in it, so the
    set is also the label of the subtree's edge up.  A binary root, which
    a skeleton text outside the family can have, takes the same steps.  A
    unary node whose child leaves it no leaf, or leaves left over at the
    root, are a word that the matcher fails on: ``_match`` raises its
    InvalidInput for it.
    """
    below: list[int] = []  # the label of each finished subtree, or a leaf's bit
    labels: list[int] = []  # the labels of the internal nodes' edges up, the root last
    bit = 1
    for k in reversed(word):
        if k == 0:
            below.append(bit)
            bit <<= 1
            continue
        if k == 1:
            free = below[-1]
            if not free:
                _match(word, right_first=True)  # raises: this unary node binds no leaf
            label = free & (free - 1)  # less the first free leaf, which it binds
        else:
            label = below.pop() | below[-1]
        below[-1] = label
        labels.append(label)
    if below[0]:
        _match(word, right_first=True)  # raises: leaves left unbound at the root
    labels.pop()  # the root, which has no edge up
    if not labels:
        return ConnectivityClass.ThreePlus
    labels.pop()  # the root's tree edge
    if 0 in labels:
        return ConnectivityClass.One
    if len(set(labels)) < len(labels) or any(label & (label - 1) == 0 for label in labels):
        return ConnectivityClass.Two
    return ConnectivityClass.ThreePlus
