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
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import check_family, check_reduced, leading_chain, unreduce
from .lambda_core import Binary, LEAF, Leaf, Skeleton, Unary, wrap_unary
from .labeled_trees import (
    InvalidInput,
    LabeledTree,
    validate_degree_tree,
    validate_vtree,
)


# ---------------------------------------------------------------------------
# The rotation shared by phi and psi

def _spine(core: Skeleton, shift: int) -> tuple[LabeledTree, ...]:
    """Plane-tree children for the left spine starting at core."""
    entries = []
    node = core
    while isinstance(node, Binary):
        _k, rcore = leading_chain(node.right)
        entries.append(LabeledTree(node.right.deficit() - shift, _spine(rcore, shift)))
        node = node.left
    return tuple(entries)


def _unspine(children: tuple[LabeledTree, ...], shift: int) -> Skeleton:
    """Left spine of binary nodes for children; inverse of _spine."""
    if not children:
        return LEAF
    u, rest = children[0], children[1:]
    left = _unspine(rest, shift)
    rcore = _unspine(u.children, shift)
    j = rcore.deficit() - shift - u.label
    if j < 0:
        raise InvalidInput("label exceeds attainable deficit")
    return Binary(left, wrap_unary(rcore, j))


# ---------------------------------------------------------------------------
# phi: reduced skeletons <-> degree trees

def phi(r: Skeleton) -> LabeledTree:
    """Degree tree of a reduced skeleton."""
    if not check_reduced(r):
        raise InvalidInput("not a valid reduced skeleton")
    return LabeledTree(r.deficit() - 1, _spine(leading_chain(r)[1], 1))


def phi_inv(d: LabeledTree) -> Skeleton:
    """Reduced skeleton of a degree tree."""
    if not validate_degree_tree(d):
        raise InvalidInput("not a valid degree tree")
    core = _unspine(d.children, 1)
    return wrap_unary(core, core.deficit() - 1 - d.label)


# ---------------------------------------------------------------------------
# psi: connected-family skeletons <-> v-trees

def psi(s: Skeleton) -> LabeledTree:
    """V-tree of a skeleton in the connected family."""
    if not check_family(s, 1):
        raise InvalidInput("skeleton is not planar linear normal")
    m, core = leading_chain(s)
    return LabeledTree(m, _spine(core, 0))


def psi_inv(v: LabeledTree) -> Skeleton:
    """Skeleton of a v-tree (unary nodes inserted on right branches only,
    bottom up; the root label becomes the leading chain)."""
    if not validate_vtree(v).valid:
        raise InvalidInput("not a valid v-tree")
    return wrap_unary(_unspine(v.children, 0), v.label)


# ---------------------------------------------------------------------------
# Statistics

@dataclass(frozen=True)
class SkeletonStats:
    """Statistics of a reduced skeleton R.

    ex counts leaves minus unary nodes of R; applv / appla count binary
    nodes of the unreduced skeleton whose right child is a leaf /
    a binary node; uc[k] counts maximal unary chains of length k in R.
    """
    ex: int
    applv: int
    appla: int
    uc: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DegreeTreeStats:
    """rlabel: root label; lnode: leaves; znode: internal nodes whose
    leftmost descending edge is labeled 0; edge[k]: edges labeled k >= 1."""
    rlabel: int
    lnode: int
    znode: int
    edge: tuple[tuple[int, int], ...]


def _chain_profile(s: Skeleton) -> dict[int, int]:
    """Multiplicities of maximal unary chain lengths."""
    out: dict[int, int] = {}

    def walk(node: Skeleton):
        chain, node = leading_chain(node)
        if chain:
            out[chain] = out.get(chain, 0) + 1
        if isinstance(node, Binary):
            walk(node.left)
            walk(node.right)

    walk(s)
    return out


def skeleton_stats(r: Skeleton) -> SkeletonStats:
    if not check_reduced(r):
        raise InvalidInput("not a valid reduced skeleton")
    splus = unreduce(r)
    applv = appla = 0
    stack = [splus]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            if isinstance(node.right, Leaf):
                applv += 1
            elif isinstance(node.right, Binary):
                appla += 1
            stack.append(node.left)
            stack.append(node.right)
    uc = tuple(sorted(_chain_profile(r).items()))
    return SkeletonStats(r.deficit(), applv, appla, uc)


def degree_tree_stats(d: LabeledTree) -> DegreeTreeStats:
    if not validate_degree_tree(d):
        raise InvalidInput("not a valid degree tree")
    lnode = znode = 0
    edge: dict[int, int] = {}

    def walk(u: LabeledTree):
        nonlocal lnode, znode
        if not u.children:
            lnode += 1
            return
        s = len(u.children) + sum(c.label for c in u.children)
        if s - u.label == 0:
            znode += 1
        else:
            edge[s - u.label] = edge.get(s - u.label, 0) + 1
        for c in u.children:
            walk(c)

    walk(d)
    return DegreeTreeStats(d.label, lnode, znode, tuple(sorted(edge.items())))
