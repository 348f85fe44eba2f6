"""Tree-level bijections between skeletons and labeled plane trees.

phi and psi are one rotation correspondence for unary-binary trees with
unary chains confined to right branches: the right child of a binary node
becomes its leftmost child in the plane tree, the left child becomes its
next-right sibling, and a fresh plane-tree root is added above the left
spine of the binary structure.  The plane-tree node of binary node b is
labeled with the leaf/unary deficit of b's right subtree minus a shift; the
inverse rebuilds the unary chain above that subtree's core from the label.

psi (shift 0) sends a connected-family skeleton to a v-tree; the root gets
the length of the leading unary chain (one plus the sum of its children's
labels).

phi (shift 1) sends a reduced skeleton R to a degree tree; the root gets
deficit(R) - 1.  Proof that this is the degree tree whose edge labels are
the unary chains: a degree-tree label is the number of edges in its subtree
minus the sum of their edge labels; under the rotation those edges are the
binary nodes of the right subtree and their labels sum to its unary nodes,
so the label is nleaf - 1 - nunary = deficit - 1.

Both directions work on the pre-order arity word that a ``Skeleton``
holds (see ``lambda_core``): one reverse scan of the word gives the plane
tree, and one pre-order loop over the plane tree writes the word back, so
neither recurses.  ``vtree_of_word`` and ``word_of_vtree`` are psi and
psi_inv on the word itself; ``psi`` reads a skeleton's word and
``psi_inv`` wraps one.  ``skeleton_stats`` reads the reduced skeleton's
word as well.
"""

from __future__ import annotations

from typing import NamedTuple

from .connectivity import check_reduced
from .lambda_core import InvalidInput, Skeleton
from .labeled_trees import LabeledTree, validate_degree_tree


# ---------------------------------------------------------------------------
# The rotation shared by phi and psi, on pre-order arity words
#
# The core below a unary chain is a left spine of m binary nodes over a
# leaf, and its word is 2^m 0 R_m ... R_1, where R_i is the right subtree
# of the i-th spine node: its plane-tree children in order are R_1 .. R_m.

def _spine(word: bytes, shift: int) -> tuple[int, tuple[LabeledTree, ...]] | None:
    """The deficit of a skeleton word and the plane-tree children of its
    core, or None when a child of a binary node has a negative deficit.

    One reverse scan keeps, for each finished subtree, its deficit and its
    core's plane-tree children in reverse order.  At a binary node the top
    entry is the left subtree, whose children follow the node's own entry,
    and the one below it is the right subtree, which becomes that entry.
    """
    deficits: list[int] = []
    kids: list = []  # a list once a binary node has added to it, () until then
    for k in reversed(word):
        if k == 0:
            deficits.append(1)
            kids.append(())
        elif k == 1:
            deficits[-1] -= 1
        else:
            left, rest = deficits.pop(), kids.pop()
            right = deficits[-1]
            if left < 0 or right < 0:
                return None
            below = kids[-1]
            entry = LabeledTree(right - shift, tuple(reversed(below)) if below else ())
            if rest:
                rest.append(entry)
            else:
                rest = [entry]
            deficits[-1] = right + left
            kids[-1] = rest
    return deficits[0], tuple(reversed(kids[0]))


def _unspine(children: tuple[LabeledTree, ...], shift: int) -> bytearray:
    """The word of the core whose plane-tree children are children;
    inverse of _spine.

    A core with children c_1 .. c_m has deficit 1 + sum(shift + label(c_i)),
    so the chain above each right subtree is known from its node's label
    and its children's.  One pre-order loop computes every chain, raising
    InvalidInput at a label below 0 or beyond the deficit, a bad v-tree
    node; the word is written after it, so no chain of an unchecked label
    is allocated.
    """
    chains: list[tuple[int, int]] = []  # per node in pre-order: chain, children
    todo = list(children)  # the last child's right subtree comes first
    while todo:
        u = todo.pop()
        chain = 1 + shift * (len(u.children) - 1) - u.label
        for c in u.children:
            chain += c.label
        if chain < 0 or u.label < 0:
            raise InvalidInput("label exceeds attainable deficit")
        chains.append((chain, len(u.children)))
        todo += u.children
    word = bytearray(b"\x02" * len(children))
    word.append(0)
    for chain, k in chains:
        word += b"\x01" * chain
        word += b"\x02" * k
        word.append(0)
    return word


# ---------------------------------------------------------------------------
# phi: reduced skeletons <-> degree trees

def phi(r: Skeleton) -> LabeledTree:
    """Degree tree of a reduced skeleton."""
    if not check_reduced(r):
        raise InvalidInput("not a valid reduced skeleton")
    deficit, children = _spine(r.word, 1)
    return LabeledTree(deficit - 1, children)


def phi_inv(d: LabeledTree) -> Skeleton:
    """Reduced skeleton of a degree tree."""
    if not validate_degree_tree(d):
        raise InvalidInput("not a valid degree tree")
    deficit = 1 + sum(1 + c.label for c in d.children)
    return Skeleton(b"\x01" * (deficit - 1 - d.label) + _unspine(d.children, 1))


# ---------------------------------------------------------------------------
# psi: connected-family skeletons <-> v-trees

def vtree_of_word(word: bytes) -> LabeledTree:
    """psi on the pre-order arity word of a skeleton.

    The word is in the connected family (connectivity.in_family at level
    1) when it has as many leaves as unary nodes, no binary node has a
    unary left child, and both children of each binary node have deficit
    >= 0; _spine tests the last in the scan that reads the tree.
    """
    if (word.count(0) != word.count(1) or b"\x02\x01" in word
            or (spine := _spine(word, 0)) is None):
        raise InvalidInput("skeleton is not planar linear normal")
    return LabeledTree(len(word) - len(word.lstrip(b"\x01")), spine[1])


def word_of_vtree(v: LabeledTree) -> bytes:
    """psi_inv as a pre-order arity word: unary nodes inserted on right
    branches only, the root label becoming the leading chain, written once
    _unspine has checked the other labels."""
    if v.label != 1 + sum(c.label for c in v.children):
        raise InvalidInput("not a valid v-tree")
    try:
        core = _unspine(v.children, 0)
    except InvalidInput:
        raise InvalidInput("not a valid v-tree") from None
    return b"\x01" * v.label + core


def psi(s: Skeleton) -> LabeledTree:
    """V-tree of a skeleton in the connected family."""
    return vtree_of_word(s.word)


def psi_inv(v: LabeledTree) -> Skeleton:
    """Skeleton of a v-tree."""
    return Skeleton(word_of_vtree(v))


# ---------------------------------------------------------------------------
# Statistics

class SkeletonStats(NamedTuple):
    """Statistics of a reduced skeleton R.

    ex counts leaves minus unary nodes of R; applv / appla count binary
    nodes of the unreduced skeleton whose right child is a leaf /
    a binary node; uc[k] counts maximal unary chains of length k in R.
    """
    ex: int
    applv: int
    appla: int
    uc: tuple[tuple[int, int], ...]


class DegreeTreeStats(NamedTuple):
    """rlabel: root label; lnode: leaves; znode: internal nodes whose
    leftmost descending edge is labeled 0; edge[k]: edges labeled k >= 1."""
    rlabel: int
    lnode: int
    znode: int
    edge: tuple[tuple[int, int], ...]


def skeleton_stats(r: Skeleton) -> SkeletonStats:
    """One reverse scan of the unreduced skeleton's word below its leading
    chain, 2 0 R, which keeps the kind of each finished subtree's root: at
    a binary node the left child's kind is on top and the right child's
    under it.  The runs of 1s are the maximal unary chains of R."""
    if not check_reduced(r):
        raise InvalidInput("not a valid reduced skeleton")
    word = r.word
    applv = appla = chain = 0
    uc: dict[int, int] = {}
    kinds: list[int] = []
    for k in reversed(b"\x02\x00" + word):
        if k == 1:
            kinds[-1] = 1
            chain += 1
            continue
        if chain:
            uc[chain] = uc.get(chain, 0) + 1
            chain = 0
        if k == 0:
            kinds.append(0)
        else:
            kinds.pop()
            if kinds[-1] == 0:
                applv += 1
            elif kinds[-1] == 2:
                appla += 1
            kinds[-1] = 2
    ex = word.count(0) - word.count(1)
    return SkeletonStats(ex, applv, appla, tuple(sorted(uc.items())))


def degree_tree_stats(d: LabeledTree) -> DegreeTreeStats:
    if not validate_degree_tree(d):
        raise InvalidInput("not a valid degree tree")
    lnode = znode = 0
    edge: dict[int, int] = {}
    stack = [d]
    while stack:
        u = stack.pop()
        if not u.children:
            lnode += 1
            continue
        k = len(u.children) + sum(c.label for c in u.children) - u.label
        if k == 0:
            znode += 1
        else:
            edge[k] = edge.get(k, 0) + 1
        stack += u.children
    return DegreeTreeStats(d.label, lnode, znode, tuple(sorted(edge.items())))
