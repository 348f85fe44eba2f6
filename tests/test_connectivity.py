import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from lambdamaps.bijections import phi_inv
from lambdamaps.connectivity import (
    ConnectivityClass,
    check_family,
    check_reduced,
    edge_connectivity_class,
    is_three_connected_skeleton,
    reduce_skeleton,
    unreduce,
)
from lambdamaps.enumeration import gen_reduced_skeletons, gen_skeletons
from lambdamaps.labeled_trees import LabeledTree
from lambdamaps.lambda_core import (InvalidInput, Skeleton, diagram_of, parse_skeleton,
                                    render_skeleton)
from reference_kernels import (Diagram, Leaf, bridge_connectivity_class, diagram_graph,
                               iter_unary_binary, label_connectivity_class, leading_chain,
                               preorder, tree_of_word, tree_word)


def sk(text):
    return parse_skeleton(text)


# ---------------------------------------------------------------------------
# Structural family checks

def test_check_family_examples():
    assert check_family(sk("U(U(B(L,L)))"), 2)
    assert not check_family(sk("U(B(L,U(L)))"), 2)
    assert not check_family(sk("U(B(U(L),L))"), 1)


def test_check_family_level1_examples():
    assert check_family(sk("U(L)"), 1)
    assert check_family(sk("U(B(L,U(L)))"), 1)
    assert not check_family(sk("U(B(L,L))"), 1)  # linearity fails
    assert not check_family(sk("B(L,U(U(L)))"), 1)  # chain above a leaf too long


def test_one_atom_term_is_two_connected():
    assert check_family(sk("U(L)"), 2)


def test_check_reduced_examples():
    assert check_reduced(sk("B(L,L)"))
    assert check_reduced(sk("U(B(L,B(L,L)))"))
    assert not check_reduced(sk("B(L,U(L))"))


def test_check_reduced_degenerate_cases():
    assert check_reduced(sk("L"))          # the size-2 degenerate element
    assert not check_reduced(sk("U(L)"))   # bare chains have no positive deficit
    assert not check_reduced(sk("U(B(L,L))"))  # top chain exceeds right deficit


# ---------------------------------------------------------------------------
# Reduce / unreduce

def test_reduce_examples():
    assert render_skeleton(reduce_skeleton(sk("U(U(U(B(L,B(L,L)))))"))) == "B(L,L)"
    assert render_skeleton(reduce_skeleton(sk("U(U(B(L,L)))"))) == "L"
    with pytest.raises(InvalidInput):
        reduce_skeleton(sk("U(B(U(L),L))"))
    with pytest.raises(InvalidInput):
        reduce_skeleton(sk("U(L)"))


def test_unreduce_examples():
    assert render_skeleton(unreduce(sk("B(L,L)"))) == "U(U(U(B(L,B(L,L)))))"
    assert render_skeleton(unreduce(sk("L"))) == "U(U(B(L,L)))"
    # unreduce is purely structural: membership failures are reported by
    # check_reduced, not here
    assert render_skeleton(unreduce(sk("B(L,U(L))"))) == "U(U(B(L,B(L,U(L)))))"
    with pytest.raises(InvalidInput):
        unreduce(sk("U(L)"))


def test_reduce_unreduce_identity():
    for n in range(2, 8):
        for r in gen_reduced_skeletons(n):
            assert reduce_skeleton(unreduce(r)) == r
            assert check_family(unreduce(r), 2)


def test_leading_chain():
    assert leading_chain(tree_of_word(sk("U(U(B(L,L)))").word))[0] == 2
    assert leading_chain(tree_of_word(sk("B(L,L)").word))[0] == 0


# ---------------------------------------------------------------------------
# The diagram oracle: edge connectivity from one labelling scan of the word

def test_edge_connectivity_examples():
    assert edge_connectivity_class(diagram_of(sk("U(U(B(L,L)))"))) \
        == ConnectivityClass.ThreePlus
    assert edge_connectivity_class(diagram_of(sk("U(B(L,U(L)))"))) \
        == ConnectivityClass.One
    assert edge_connectivity_class(diagram_of(sk("U(L)"))) \
        == ConnectivityClass.ThreePlus


def test_class_ordering():
    c = ConnectivityClass
    assert c.Disconnected < c.One < c.Two < c.ThreePlus


def test_oracle_equivalence_level2():
    for n in range(1, 6):
        for s in gen_skeletons(n, 1):
            cls = edge_connectivity_class(diagram_of(s))
            assert check_family(s, 2) == (cls >= ConnectivityClass.Two), s


def test_oracle_equivalence_level3():
    # the one-atom term is excluded: its single-vertex diagram is vacuously
    # ThreePlus but no reduced skeleton exists
    for n in range(2, 6):
        for s in gen_skeletons(n, 1):
            cls = edge_connectivity_class(diagram_of(s))
            assert is_three_connected_skeleton(s) == \
                (cls == ConnectivityClass.ThreePlus), s


def test_mirror_matters_only_at_level3():
    # with binder edges drawn from the counterclockwise contour instead,
    # the first 3-connected skeleton acquires a non-root disconnecting pair;
    # the reference graph oracle sees it, and the clockwise diagram is
    # ThreePlus to the reference and the word oracle alike
    from lambdamaps.lambda_core import planar_match

    s = sk("U(U(U(B(L,B(L,L)))))")
    match = planar_match(s)
    binder = {leaf: u for u, leaf in match.items()}
    vertices, edges = [], []
    for nid, node, parent in preorder(tree_of_word(s.word)):
        if isinstance(node, Leaf):
            edges.append((parent, binder[nid]))
        else:
            vertices.append(nid)
            if parent >= 0:
                edges.append((parent, nid))
    mirror = Diagram(tuple(vertices), tuple(edges), 0)
    assert label_connectivity_class(mirror) == ConnectivityClass.Two
    assert label_connectivity_class(diagram_graph(s)) == ConnectivityClass.ThreePlus
    assert edge_connectivity_class(diagram_of(s)) == ConnectivityClass.ThreePlus


def test_edge_connectivity_class_on_a_deep_three_connected_diagram(shallow_recursion):
    # a 3-connected skeleton whose diagram has 3,004 edges, on which one
    # bridge search per removed edge took seconds
    s = unreduce(phi_inv(LabeledTree(1000, (LabeledTree(0),) * 1000)))
    assert len(diagram_graph(s).edges) == 3004
    t0 = time.perf_counter()
    assert edge_connectivity_class(diagram_of(s)) == ConnectivityClass.ThreePlus
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# Four graph references on random multigraphs, each the oracle that the next
# one replaced: the edge-set oracle below (one search over the edge list per
# removed set of up to two edges), the pair-removal oracle after it (one
# search per single edge and per edge pair, on adjacency lists built once),
# the bridge search (one lowlink search, then one per removed edge;
# reference_kernels.bridge_connectivity_class), and the search and
# labelling pass (reference_kernels.label_connectivity_class), which the
# word oracle replaced.  On skeletons the word oracle must equal them all

def _old_connected(nvert, index_of, edges, skip):
    if nvert == 0:
        return True
    adj = [[] for _ in range(nvert)]
    for i, (u, v) in enumerate(edges):
        if i in skip:
            continue
        ui, vi = index_of[u], index_of[v]
        adj[ui].append(vi)
        adj[vi].append(ui)
    seen = [False] * nvert
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == nvert


def _old_edge_connectivity_class(d):
    if len(d.vertices) == 1:
        return ConnectivityClass.ThreePlus
    index_of = {v: i for i, v in enumerate(d.vertices)}
    n = len(d.vertices)
    conn = lambda skip: _old_connected(n, index_of, d.edges, skip)
    if not conn(frozenset()):
        return ConnectivityClass.Disconnected
    m = len(d.edges)
    if any(not conn(frozenset({i})) for i in range(m)):
        return ConnectivityClass.One
    for i in range(m):
        for j in range(i + 1, m):
            if d.root in d.edges[i] and d.root in d.edges[j]:
                continue
            if not conn(frozenset({i, j})):
                return ConnectivityClass.Two
    return ConnectivityClass.ThreePlus


# The pair-removal oracle, which the bridge search replaced

def _pair_connected(adj, skip_a=-1, skip_b=-1):
    n = len(adj)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for y, i in adj[stack.pop()]:
            if not seen[y] and i != skip_a and i != skip_b:
                seen[y] = True
                count += 1
                if count == n:
                    return True
                stack.append(y)
    return count == n


def _pair_edge_connectivity_class(d):
    if len(d.vertices) <= 1:
        return ConnectivityClass.ThreePlus
    index_of = {v: i for i, v in enumerate(d.vertices)}
    adj = [[] for _ in d.vertices]
    for i, (u, v) in enumerate(d.edges):
        adj[index_of[u]].append((index_of[v], i))
        adj[index_of[v]].append((index_of[u], i))
    if not _pair_connected(adj):
        return ConnectivityClass.Disconnected
    m = len(d.edges)
    if not all(_pair_connected(adj, i) for i in range(m)):
        return ConnectivityClass.One
    at_root = [d.root in e for e in d.edges]
    for i in range(m):
        for j in range(i + 1, m):
            if not (at_root[i] and at_root[j]) and not _pair_connected(adj, i, j):
                return ConnectivityClass.Two
    return ConnectivityClass.ThreePlus


def _matchable_skeletons(nleaf):
    """Every unary-binary tree with nleaf leaves and as many unary nodes
    that matches, inside the connected family or not, as a skeleton."""
    for t in iter_unary_binary(nleaf, nleaf):
        s = Skeleton(tree_word(t))
        try:
            diagram_graph(s)
        except InvalidInput:
            continue
        yield s


def _random_diagrams(count, seed):
    """Small multigraphs with loops and parallel edges, some of them
    disconnected, on vertex names that are not 0..n-1."""
    rng = random.Random(seed)
    for _ in range(count):
        vertices = tuple(rng.sample(range(100), rng.randint(0, 6)))
        if not vertices:
            yield Diagram((), (), 0)
            continue
        edges = tuple((rng.choice(vertices), rng.choice(vertices))
                      for _ in range(rng.randint(0, 9)))
        yield Diagram(vertices, edges, rng.choice(vertices))


def test_edge_connectivity_class_equals_old_oracle():
    skeletons = [s for n in range(1, 8) for s in gen_skeletons(n, 1)]
    skeletons += [s for n in range(1, 6) for s in _matchable_skeletons(n)]
    seen = Counter()
    for s in skeletons:
        d = diagram_graph(s)
        want = _pair_edge_connectivity_class(d)
        assert bridge_connectivity_class(d) == want, s
        assert label_connectivity_class(d) == want, s
        assert edge_connectivity_class(diagram_of(s)) == want, s
        seen[want] += 1
    # no skeleton's diagram is disconnected: its tree edges span it
    assert set(seen) == set(ConnectivityClass) - {ConnectivityClass.Disconnected}
    for d in _random_diagrams(3000, seed=7):
        want = _pair_edge_connectivity_class(d)
        assert bridge_connectivity_class(d) == want, d
        assert label_connectivity_class(d) == want, d
        assert _old_edge_connectivity_class(d) == want, d
        seen[want] += 1
    assert set(seen) == set(ConnectivityClass)


@st.composite
def _multigraphs(draw):
    """Multigraphs with self-loops, parallel edges, disconnected parts and
    any root vertex, on vertex names that are not 0..n-1."""
    vertices = tuple(draw(st.lists(st.integers(0, 99), unique=True, max_size=7)))
    if not vertices:
        return Diagram((), (), 0)
    vertex = st.sampled_from(vertices)
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=12)))
    return Diagram(vertices, edges, draw(vertex))


@given(_multigraphs())
def test_edge_connectivity_class_equals_old_oracle_on_multigraphs(d):
    want = _old_edge_connectivity_class(d)
    assert _pair_edge_connectivity_class(d) == want
    assert bridge_connectivity_class(d) == want
    assert label_connectivity_class(d) == want
