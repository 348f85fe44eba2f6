"""Helpers that several test modules share and the library does not need:
the tree model of skeletons that the library held before a skeleton became
its word (node objects, their word and their build from a word, and the
generator that built them), the tree model of terms that it held before a
term became its listing (``Var``, ``App`` and ``Abs``, their listing and
their build from a listing), every plane unary-binary tree, a pre-order
node listing, a unary chain over a subtree, the one at the top of a
skeleton, the syntactic diagram as a multigraph with the graph
edge-connectivity oracles that the library's word oracle replaced (the
search and labelling pass, and the bridge search before it), and the
parallel tree walk that ``alpha_equal`` ran before it compared listings,
each kept as a reference.  Not a test module; the tests import it."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from lambdamaps.connectivity import ConnectivityClass
from lambdamaps.lambda_core import Skeleton, _match, render_skeleton


# ---------------------------------------------------------------------------
# The tree model: a skeleton as plane unary-binary node objects.  Trees
# compare and hash as their pre-order arity words, which tree_word computes
# once per node and keeps on it; the reference kernels walk the nodes and
# hand Skeleton(tree_word(t)) to the library's kernels.

class Tree:
    """Plane unary-binary tree of node objects; size is the number of
    leaves."""

    __slots__ = ("nleaf", "_word")

    @property
    def nunary(self) -> int:
        return tree_word(self).count(1)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self.nleaf == other.nleaf and tree_word(self) == tree_word(other)

    def __hash__(self):
        return hash(tree_word(self))

    def __repr__(self):
        return render_skeleton(Skeleton(tree_word(self)))


class Leaf(Tree):
    __slots__ = ()

    def __init__(self):
        self.nleaf = 1
        self._word = b"\x00"


class Unary(Tree):
    __slots__ = ("child",)

    def __init__(self, child: Tree):
        self.child = child
        self.nleaf = child.nleaf


class Binary(Tree):
    __slots__ = ("left", "right")

    def __init__(self, left: Tree, right: Tree):
        self.left = left
        self.right = right
        self.nleaf = left.nleaf + right.nleaf


LEAF = Leaf()


def tree_word(t: Tree) -> bytes:
    """The pre-order arity word of t, computed by one walk and kept on t."""
    try:
        return t._word
    except AttributeError:
        pass
    word = bytearray()
    todo: list[Tree] = []
    x = t
    while True:
        kind = type(x)
        if kind is Binary:
            word.append(2)
            todo.append(x.right)
            x = x.left
        elif kind is Unary:
            word.append(1)
            x = x.child
        else:
            word.append(0)
            if not todo:
                break
            x = todo.pop()
    w = t._word = bytes(word)
    return w


def tree_of_word(word: bytes) -> Tree:
    """The tree of a pre-order arity word, built bottom up in reverse
    pre-order; the word is kept on the result."""
    out: list[Tree] = []
    for k in reversed(word):
        if k == 0:
            out.append(LEAF)
        elif k == 1:
            out[-1] = Unary(out[-1])
        else:
            left = out.pop()
            out[-1] = Binary(left, out[-1])
    t = out[0]
    t._word = bytes(word)
    return t


@lru_cache(maxsize=None)
def tree_gen_lin(nleaf: int, nunary: int) -> tuple[Tree, ...]:
    """The trees of enumeration._gen_lin, built as node objects in the
    same order: normal, with the chain condition at every node below the
    top chain and nonnegative deficit.  Unlike _gen_lin, whose memo lives
    for one size and whose callers cache only the words of each size, this
    caches every (nleaf, nunary) pair for the life of the process."""
    if nleaf < 1 or nunary < 0 or nleaf - nunary < 0:
        return ()
    out: list[Tree] = []
    if nleaf == 1 and nunary == 0:
        out.append(LEAF)
    if nunary >= 1:
        out.extend(Unary(t) for t in tree_gen_lin(nleaf, nunary - 1))
    for a in range(1, nleaf):
        b = nleaf - a
        for c in range(0, min(a, nunary) + 1):
            d = nunary - c
            if b - d < 0:
                continue
            lefts = [t for t in tree_gen_lin(a, c) if not isinstance(t, Unary)]
            if not lefts:
                continue
            rights = tree_gen_lin(b, d)
            out.extend(Binary(l, r) for l in lefts for r in rights)
    return tuple(out)


# ---------------------------------------------------------------------------
# The term model: a term as Var, App and Abs node objects.  term_listing
# gives a tree's listing (lambda_core's pre-order arity word and names) by
# one walk, term_of_listing builds the tree of a listing, and
# Term(*term_listing(t)) is the library's term of t, which the tests compare.

class Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class App:
    __slots__ = ("fun", "arg")

    def __init__(self, fun: LambdaTerm, arg: LambdaTerm):
        self.fun = fun
        self.arg = arg


class Abs:
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: LambdaTerm):
        self.var = var
        self.body = body


LambdaTerm = Var | App | Abs


def term_listing(t: LambdaTerm) -> tuple[bytes, list[str]]:
    """The listing of a term tree, by one pre-order walk."""
    word = bytearray()
    names: list[str] = []
    stack = [t]
    while stack:
        x = stack.pop()
        while type(x) is Abs:
            word.append(1)
            names.append(x.var)
            x = x.body
        if type(x) is App:
            word.append(2)
            stack.append(x.arg)
            stack.append(x.fun)
        else:
            word.append(0)
            names.append(x.name)
    return bytes(word), names


def term_of_listing(word: bytes, names: list[str]) -> LambdaTerm:
    """The tree of a listing, built bottom up in reverse pre-order: a
    node's children are built before it, its function on top of its
    argument."""
    out: list[LambdaTerm] = []
    i = len(names)
    for kind in reversed(word):
        if kind == 0:
            i -= 1
            out.append(Var(names[i]))
        elif kind == 1:
            i -= 1
            out[-1] = Abs(names[i], out[-1])
        else:
            fun = out.pop()
            out[-1] = App(fun, out[-1])
    return out[0]


# ---------------------------------------------------------------------------
# Trees, terms and diagrams

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


def preorder(s: Tree) -> list[tuple[int, Tree, int]]:
    """(id, node, parent_id) with ids assigned in pre-order from 0."""
    out: list[tuple[int, Tree, int]] = []
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


def wrap_unary(s: Tree, k: int) -> Tree:
    """s under a chain of k unary nodes."""
    for _ in range(k):
        s = Unary(s)
    return s


def leading_chain(s: Tree) -> tuple[int, Tree]:
    """Length of the unary chain at the top of s, and the subtree below."""
    k = 0
    while isinstance(s, Unary):
        k += 1
        s = s.child
    return k, s


# ---------------------------------------------------------------------------
# The syntactic diagram as a multigraph, and the graph oracles on it

class Diagram(NamedTuple):
    """Multigraph on the internal nodes of a skeleton.

    Edges are the skeleton edges between internal nodes plus one binder edge
    per leaf, from the leaf's parent to its matched unary node (a self-loop
    when the parent is the binder), with the clockwise-contour matching.
    The root is the skeleton's root node.  The graph oracles take any
    multigraph, rooted at any vertex.
    """
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    root: int


def diagram_graph(s: Skeleton) -> Diagram:
    """The diagram, from one scan of the word: a node's parent is the node
    before it unless that one is a leaf, and then the innermost binary
    node still waiting for its right child."""
    word = s.word
    binder = _match(word, right_first=True)
    vertices = [0]
    edges = []
    waiting: list[int] = [0] if word[0] == 2 else []
    for nid in range(1, len(word)):
        kind = word[nid]
        parent = nid - 1 if word[nid - 1] else waiting.pop()
        if kind:
            vertices.append(nid)
            edges.append((parent, nid))
            if kind == 2:
                waiting.append(nid)
        else:
            edges.append((parent, binder[nid]))
    return Diagram(tuple(vertices), tuple(edges), 0)


def label_connectivity_class(d: Diagram) -> ConnectivityClass:
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


def bridge_connectivity_class(d: Diagram) -> ConnectivityClass:
    """Edge connectivity of a diagram by bridge search.

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


def tree_alpha_equal(a, b) -> bool:
    """Equality of two terms up to renaming of bound variables, by walking
    both trees in parallel.

    Each side maps a name to the depth of its innermost open binder, so two
    atoms agree when both are free under the same name or both are bound at
    the same depth.
    """
    env_a: dict = {}
    env_b: dict = {}
    depth = 0
    stack: list[tuple] = [(a, b)]
    while stack:
        x, y = stack.pop()
        kind = type(x)
        if kind is not type(y):
            return False
        if kind is Var:
            dx = env_a.get(x.name)
            if dx != env_b.get(y.name) or (dx is None and x.name != y.name):
                return False
        elif kind is App:
            stack.append((x.arg, y.arg))
            stack.append((x.fun, y.fun))
        elif kind is Abs:
            # popped once the bodies are done, to restore the shadowed depths
            stack.append(((x.var, env_a.get(x.var)), (y.var, env_b.get(y.var))))
            env_a[x.var] = env_b[y.var] = depth
            depth += 1
            stack.append((x.body, y.body))
        else:
            depth -= 1
            env_a[x[0]] = x[1]
            env_b[y[0]] = y[1]
    return True
