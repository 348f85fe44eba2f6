"""Plane trees with integer node labels.

Two labeled families are used: degree trees (every leaf labeled 0, and at
every internal node with children v1..vk and s(u) = k + sum of child labels,
s(u) - l(v1) <= l(u) <= s(u)) and v-trees (leaves labeled 0 or 1, non-root
nodes u with 0 <= l(u) <= 1 + sum of child labels, root label exactly
1 + sum of child labels).  Degree trees are defined through an edge
labelling: s(u) - l(u) sits on the leftmost descending edge of u, all other
edges carry 0, and each node label is the number of edges in its subtree
minus the sum of their edge labels.  degree_tree_stats counts these edge
labels; no edge-labelled tree type is built.

``LabeledTree`` is a plain class with ``__slots__``.  Its equality, hash
and node count and ``has_zero`` walk a tree breadth first over a growing
list of nodes, and the validators walk it by an explicit stack; only the
text format's printer and parser still recurse.

Text format: ``<label>[child,child,...]`` with brackets omitted on leaves,
e.g. ``2[1[0],0]``.
"""

from __future__ import annotations

from typing import NamedTuple

from .lambda_core import ParseError


class LabeledTree:
    """A node label and a tuple of child subtrees, equal to another tree
    exactly when the labels and the children are."""

    __slots__ = ("label", "children")

    def __init__(self, label: int, children: tuple[LabeledTree, ...] = ()):
        self.label = label
        self.children = children

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        xs, ys = [self], [other]  # breadth first, the two lists grow in step
        for a, b in zip(xs, ys):
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            xs += a.children
            ys += b.children
        return True

    def __hash__(self):
        # The breadth-first word of (label, child count) determines the tree.
        word = []
        nodes = [self]
        for x in nodes:
            word += (x.label, len(x.children))
            nodes += x.children
        return hash(tuple(word))

    def node_count(self) -> int:
        nodes = [self]
        for x in nodes:
            nodes += x.children
        return len(nodes)

    def edge_count(self) -> int:
        return self.node_count() - 1

    def __repr__(self):
        return render_labeled_tree(self)


def render_labeled_tree(t: LabeledTree) -> str:
    if not t.children:
        return str(t.label)
    return f"{t.label}[{','.join(render_labeled_tree(c) for c in t.children)}]"


def parse_labeled_tree(text: str) -> LabeledTree:
    s = "".join(text.split())
    pos = 0

    def number() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] in "0123456789":
            pos += 1
        if pos == start:
            raise ParseError("expected a label", start)
        return int(s[start:pos])

    def rec() -> LabeledTree:
        nonlocal pos
        label = number()
        children = []
        if pos < len(s) and s[pos] == "[":
            pos += 1
            children.append(rec())
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(rec())
            if pos >= len(s) or s[pos] != "]":
                raise ParseError("expected ']'", pos)
            pos += 1
        return LabeledTree(label, tuple(children))

    t = rec()
    if pos != len(s):
        raise ParseError(f"trailing input {s[pos:]!r}", pos)
    return t


def validate_degree_tree(t: LabeledTree) -> bool:
    """Check the degree-tree conditions, in one walk by an explicit stack."""
    stack = [t]
    while stack:
        u = stack.pop()
        if not u.children:
            if u.label != 0:
                return False
            continue
        s = len(u.children) + sum(c.label for c in u.children)
        if not (s - u.children[0].label <= u.label <= s):
            return False
        stack += u.children
    return True


class VTreeCheck(NamedTuple):
    valid: bool
    positive: bool


def has_zero(t: LabeledTree) -> bool:
    """Some node of t is labeled 0."""
    nodes = [t]
    for u in nodes:
        if u.label == 0:
            return True
        nodes += u.children
    return False


def validate_vtree(t: LabeledTree) -> VTreeCheck:
    """Check the v-tree conditions; positive additionally forbids label 0.

    One walk by an explicit stack; a valid root is never labeled 0.
    """
    if t.label != 1 + sum(c.label for c in t.children):
        return VTreeCheck(False, False)
    positive = True
    stack = list(t.children)
    while stack:
        u = stack.pop()
        total = 1
        for c in u.children:
            total += c.label
            stack.append(c)
        if not 0 <= u.label <= total:
            return VTreeCheck(False, False)
        if u.label == 0:
            positive = False
    return VTreeCheck(True, positive)
