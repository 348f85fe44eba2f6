"""Helpers that several test modules share and the library does not need:
every plane unary-binary tree, a pre-order node listing, a unary chain over
a subtree, the one at the top of a skeleton, a copy of a term built by
the constructors, the bridge-search edge-connectivity oracle that
the library's labelling pass replaced, and the parallel tree walk that
``alpha_equal`` ran before it compared listings, each kept as a reference.
Not a test module; the tests import it."""

from lambdamaps.connectivity import ConnectivityClass
from lambdamaps.lambda_core import LEAF, Abs, App, Binary, Diagram, Skeleton, Unary, Var


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


def preorder(s: Skeleton) -> list[tuple[int, Skeleton, int]]:
    """(id, node, parent_id) with ids assigned in pre-order from 0."""
    out: list[tuple[int, Skeleton, int]] = []
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


def wrap_unary(s: Skeleton, k: int) -> Skeleton:
    """s under a chain of k unary nodes."""
    for _ in range(k):
        s = Unary(s)
    return s


def leading_chain(s: Skeleton) -> tuple[int, Skeleton]:
    """Length of the unary chain at the top of s, and the subtree below."""
    k = 0
    while isinstance(s, Unary):
        k += 1
        s = s.child
    return k, s


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


def rebuilt(t, rename=None):
    """A copy of term t built by the constructors, so it keeps no listing,
    with each variable and binder x named rename.get(x, x)."""
    rename = rename or {}
    if type(t) is Var:
        return Var(rename.get(t.name, t.name))
    if type(t) is Abs:
        return Abs(rename.get(t.var, t.var), rebuilt(t.body, rename))
    return App(rebuilt(t.fun, rename), rebuilt(t.arg, rename))


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
