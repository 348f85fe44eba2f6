import pytest

from lambdamaps.bijections import (
    degree_tree_stats,
    phi,
    phi_inv,
    psi,
    psi_inv,
    skeleton_stats,
)
from lambdamaps.connectivity import reduce_skeleton
from lambdamaps.enumeration import gen_reduced_skeletons, gen_skeletons, gen_trees
from lambdamaps.labeled_trees import (
    LabeledTree,
    parse_labeled_tree,
    render_labeled_tree,
    validate_degree_tree,
    validate_vtree,
)
from lambdamaps.lambda_core import InvalidInput, parse_skeleton
from reference_kernels import LEAF, Binary, leading_chain, tree_of_word, tree_word, wrap_unary


def sk(text):
    return parse_skeleton(text)


def lt(text):
    return parse_labeled_tree(text)


# ---------------------------------------------------------------------------
# phi

def test_phi_examples():
    assert phi(sk("B(L,L)")) == lt("1[0]")
    assert phi(sk("U(B(L,B(L,L)))")) == lt("1[1[0]]")
    assert phi(sk("B(B(L,L),L)")) == lt("2[0,0]")


def test_phi_degenerate():
    assert phi(sk("L")) == lt("0")
    assert phi_inv(lt("0")) == sk("L")


def test_phi_inv_examples():
    assert phi_inv(lt("1[0]")) == sk("B(L,L)")
    assert phi_inv(lt("1[1[0]]")) == sk("U(B(L,B(L,L)))")
    assert phi_inv(lt("2[0,0]")) == sk("B(B(L,L),L)")


def test_phi_rejects_invalid():
    with pytest.raises(InvalidInput):
        phi(sk("B(L,U(L))"))
    with pytest.raises(InvalidInput):
        phi_inv(lt("0[0]"))


def test_phi_bijection_exhaustive():
    for n in range(2, 8):
        reduced = gen_reduced_skeletons(n)
        trees = gen_trees(n - 2, "degree")
        assert len(reduced) == len(trees)
        images = set()
        for r in reduced:
            d = phi(r)
            assert validate_degree_tree(d)
            assert d.edge_count() == n - 2
            assert phi_inv(d) == r
            images.add(render_labeled_tree(d))
        assert images == {render_labeled_tree(t) for t in trees}


# Reference phi/phi_inv through an edge-labelled plane tree, written as the
# tuple of (edge label, child) pairs below a node.  The unary chain above
# each binary node labels the edge to its plane-tree parent, and node labels
# follow as (edges in the subtree) - (sum of edge labels in it).

def _edge_phi_spine(core, first_chain):
    entries = []
    chain = first_chain
    node = core
    while isinstance(node, Binary):
        k, rcore = leading_chain(node.right)
        entries.append((chain, _edge_phi_spine(rcore, k)))
        node = node.left
        chain = 0
    return tuple(entries)


def _node_labels_from_edge_labels(children):
    kids = []
    label = 0
    for elbl, child in children:
        sub = _node_labels_from_edge_labels(child)
        kids.append(sub)
        label += sub.label + 1 - elbl
    return LabeledTree(label, tuple(kids))


def _edge_labels_from_node_labels(t):
    s = len(t.children) + sum(c.label for c in t.children)
    return tuple((s - t.label if i == 0 else 0, _edge_labels_from_node_labels(c))
                 for i, c in enumerate(t.children))


def _edge_phi_inv_spine(entries):
    if not entries:
        return LEAF
    (_own_chain, kids), rest = entries[0], entries[1:]
    right = wrap_unary(_edge_phi_inv_spine(kids), kids[0][0] if kids else 0)
    return Binary(_edge_phi_inv_spine(rest), right)


def edge_phi(r):
    m, core = leading_chain(r)
    return _node_labels_from_edge_labels(_edge_phi_spine(core, m))


def edge_phi_inv(d):
    kids = _edge_labels_from_node_labels(d)
    return wrap_unary(_edge_phi_inv_spine(kids), kids[0][0] if kids else 0)


def test_phi_equals_edge_labelled_reference():
    for n in range(2, 8):
        for r in gen_reduced_skeletons(n):
            assert phi(r) == edge_phi(tree_of_word(r.word))
    for e in range(0, 7):
        for d in gen_trees(e, "degree"):
            assert phi_inv(d).word == tree_word(edge_phi_inv(d))


def test_degree_tree_is_shifted_vtree_child():
    def minus_one(t):
        return LabeledTree(t.label - 1, tuple(minus_one(c) for c in t.children))

    for n in range(2, 8):
        for s in gen_skeletons(n, 3):
            (child,) = psi(s).children
            assert phi(reduce_skeleton(s)) == minus_one(child)


# ---------------------------------------------------------------------------
# psi

def test_psi_examples():
    assert psi(sk("U(U(B(L,L)))")) == lt("2[1]")
    assert psi(sk("U(B(L,U(L)))")) == lt("1[0]")
    assert psi(sk("U(L)")) == lt("1")


def test_psi_inv_examples():
    assert psi_inv(lt("2[1]")) == sk("U(U(B(L,L)))")
    assert psi_inv(lt("1[0]")) == sk("U(B(L,U(L)))")
    assert psi_inv(lt("1")) == sk("U(L)")


def test_psi_rejects_invalid():
    with pytest.raises(InvalidInput):
        psi(sk("U(B(L,L))"))
    with pytest.raises(InvalidInput):
        psi_inv(lt("1[1]"))


def test_psi_bijection_exhaustive():
    for n in range(1, 8):
        skeletons = gen_skeletons(n, 1)
        trees = gen_trees(n - 1, "vtree")
        assert len(skeletons) == len(trees)
        images = set()
        for s in skeletons:
            v = psi(s)
            assert validate_vtree(v).valid
            assert v.edge_count() == n - 1
            assert psi_inv(v) == s
            images.add(render_labeled_tree(v))
        assert images == {render_labeled_tree(t) for t in trees}


def test_psi_2connected_restriction():
    for n in range(1, 8):
        positive = {render_labeled_tree(t) for t in gen_trees(n - 1, "vtree_positive")}
        image = {render_labeled_tree(psi(s)) for s in gen_skeletons(n, 2)}
        assert positive == image


def test_psi_root_label_is_leading_chain():
    for n in range(1, 7):
        for s in gen_skeletons(n, 1):
            assert psi(s).label == leading_chain(tree_of_word(s.word))[0]


# ---------------------------------------------------------------------------
# Statistics

def test_skeleton_stats_examples():
    st = skeleton_stats(sk("B(L,L)"))
    assert (st.ex, st.applv, st.appla, st.uc) == (2, 1, 1, ())
    st = skeleton_stats(sk("U(B(L,B(L,L)))"))
    assert (st.ex, st.applv, st.appla, st.uc) == (2, 1, 1, ((1, 1),))
    # the deficit of B(B(L,L),L) is 3; its degree tree has root label 2
    st = skeleton_stats(sk("B(B(L,L),L)"))
    assert (st.ex, st.applv, st.appla, st.uc) == (3, 2, 1, ())


def test_degree_tree_stats_examples():
    st = degree_tree_stats(lt("1[0]"))
    assert (st.rlabel, st.lnode, st.znode, st.edge) == (1, 1, 1, ())
    st = degree_tree_stats(lt("1[1[0]]"))
    assert (st.rlabel, st.lnode, st.znode, st.edge) == (1, 1, 1, ((1, 1),))
    st = degree_tree_stats(lt("2[0,0]"))
    assert (st.rlabel, st.lnode, st.znode, st.edge) == (2, 2, 1, ())


def test_stats_transfer_through_phi():
    for n in range(2, 7):
        for r in gen_reduced_skeletons(n):
            s = skeleton_stats(r)
            d = degree_tree_stats(phi(r))
            assert s.applv == d.lnode
            assert s.appla == d.znode
            assert s.uc == d.edge
            assert s.ex == d.rlabel + 1


def test_stats_uc_accounts_all_unary_nodes():
    for n in range(2, 7):
        for r in gen_reduced_skeletons(n):
            st = skeleton_stats(r)
            assert sum(k * c for k, c in st.uc) == r.nunary
            assert st.ex >= 1


def test_degree_tree_stats_on_a_deep_tree(shallow_recursion):
    # the lowest internal node's leftmost edge is labelled 0, every other
    # internal node's 1
    d = LabeledTree(0)
    for _ in range(10_000):
        d = LabeledTree(1, (d,))
    st = degree_tree_stats(d)
    assert (st.rlabel, st.lnode, st.znode, st.edge) == (1, 1, 1, ((1, 9_999),))
