"""Tree-level bijections between skeletons and labeled plane trees.

Both maps share the rotation correspondence for unary-binary trees with
unary chains confined to right branches: the right child of a binary node
becomes its leftmost child in the plane tree, the left child becomes its
next-right sibling, and a fresh plane-tree root is added above the left
spine of the binary structure.

phi sends a reduced skeleton to a degree tree: the unary chain directly
above each binary node becomes the label of the edge to its plane-tree
parent (the leading chain labels the root's leftmost edge), and node labels
follow from the edge labels.

psi sends any connected-family skeleton to a v-tree: each binary node is
labeled with the leaf/unary deficit of its right subtree, and the added
root gets the length of the leading unary chain (which equals one plus the
sum of its children's labels).
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import check_family, check_reduced, leading_chain, unreduce
from .lambda_core import Binary, LEAF, Leaf, Skeleton, Unary, wrap_unary
from .labeled_trees import (
    EdgeLabeledTree,
    InvalidInput,
    LabeledTree,
    edge_labels_from_node_labels,
    node_labels_from_edge_labels,
    validate_degree_tree,
    validate_vtree,
)


# ---------------------------------------------------------------------------
# phi: reduced skeletons <-> degree trees

def _phi_spine(core: Skeleton, first_chain: int):
    """Edge-labeled children list for the left spine starting at core."""
    entries = []
    chain = first_chain
    node = core
    while isinstance(node, Binary):
        k, rcore = leading_chain(node.right)
        if isinstance(rcore, Leaf) and k > 0:
            raise InvalidInput("unary chain above a leaf in a reduced skeleton")
        entries.append((chain, EdgeLabeledTree(_phi_spine(rcore, k))))
        node = node.left
        chain = 0
    if isinstance(node, Unary):
        raise InvalidInput("unary node on a left branch")
    return tuple(entries)


def phi(r: Skeleton) -> LabeledTree:
    """Degree tree of a reduced skeleton."""
    if not check_reduced(r):
        raise InvalidInput("not a valid reduced skeleton")
    m, core = leading_chain(r)
    return node_labels_from_edge_labels(EdgeLabeledTree(_phi_spine(core, m)))


def _phi_inv_spine(entries) -> Skeleton:
    if not entries:
        return LEAF
    (_own_chain, node), rest = entries[0], entries[1:]
    left = _phi_inv_spine(rest)
    kids = node.children
    right = wrap_unary(_phi_inv_spine(kids), kids[0][0] if kids else 0)
    return Binary(left, right)


def phi_inv(d: LabeledTree) -> Skeleton:
    """Reduced skeleton of a degree tree."""
    if not validate_degree_tree(d):
        raise InvalidInput("not a valid degree tree")
    et = edge_labels_from_node_labels(d)
    kids = et.children
    return wrap_unary(_phi_inv_spine(kids), kids[0][0] if kids else 0)


# ---------------------------------------------------------------------------
# psi: connected-family skeletons <-> v-trees

def _psi_spine(core: Skeleton):
    entries = []
    node = core
    while isinstance(node, Binary):
        _k, rcore = leading_chain(node.right)
        entries.append(LabeledTree(node.right.deficit(), _psi_spine(rcore)))
        node = node.left
    if isinstance(node, Unary):
        raise InvalidInput("unary node on a left branch")
    return tuple(entries)


def psi(s: Skeleton) -> LabeledTree:
    """V-tree of a skeleton in the connected family."""
    if not check_family(s, 1):
        raise InvalidInput("skeleton is not planar linear normal")
    m, core = leading_chain(s)
    return LabeledTree(m, _psi_spine(core))


def _psi_inv_spine(entries) -> Skeleton:
    if not entries:
        return LEAF
    u, rest = entries[0], entries[1:]
    left = _psi_inv_spine(rest)
    rcore = _psi_inv_spine(u.children)
    j = rcore.deficit() - u.label
    if j < 0:
        raise InvalidInput("label exceeds attainable deficit")
    return Binary(left, wrap_unary(rcore, j))


def psi_inv(v: LabeledTree) -> Skeleton:
    """Skeleton of a v-tree (unary nodes inserted on right branches only,
    bottom up; the root label becomes the leading chain)."""
    if not validate_vtree(v).valid:
        raise InvalidInput("not a valid v-tree")
    return wrap_unary(_psi_inv_spine(v.children), v.label)


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
