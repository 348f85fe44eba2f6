import gc
import pickle
import random
import tracemalloc
from itertools import product

import pytest

from lambdamaps.bijections import psi, psi_inv, vtree_of_word, word_of_vtree
from lambdamaps.cli import convert
from lambdamaps.connectivity import check_family, edge_connectivity_class, is_three_connected_skeleton
from lambdamaps.enumeration import gen_loopless_maps, gen_maps, gen_skeletons, gen_trees
from lambdamaps.labeled_trees import LabeledTree, parse_labeled_tree, render_labeled_tree, validate_vtree
from lambdamaps.lambda_core import (InvalidInput, alpha_equal, diagram_of, parse_term, render_term,
                                    skeleton_of, term_of_skeleton)
from lambdamaps import planar_maps
from lambdamaps.planar_maps import (
    EMPTY_MAP,
    RootedMap,
    _extract,
    _inverse,
    _orbits,
    _root_corners,
    attach_root_edge,
    canonical_form,
    canonical_map,
    decompose,
    is_one_corner,
    map_defect,
    map_stats,
    outer_walk,
    outv,
    parse_map,
    pi,
    render_map,
    rho,
    rho_direct,
    rho_inv,
    validate_map,
)
from reference_kernels import preorder, tree_of_word

LOOP = RootedMap(1, (1, 0), 0)
EDGE = RootedMap(1, (0, 1), 0)
DOUBLE = RootedMap(2, (2, 3, 0, 1), 0)


def lt(text):
    return parse_labeled_tree(text)


# ---------------------------------------------------------------------------
# Validation and stats

def test_validate_examples():
    assert validate_map(LOOP)
    assert validate_map(EDGE)
    # two loops on two different vertices: not connected
    bad = RootedMap(2, (1, 0, 3, 2), 0)
    assert not validate_map(bad)
    assert map_defect(bad) == "map is not connected"


def test_validate_rejects_nonpermutation_and_bad_root():
    assert not validate_map(RootedMap(1, (0, 0), 0))
    assert not validate_map(RootedMap(1, (0, 1), 5))
    assert validate_map(EMPTY_MAP)


def test_map_is_read_only():
    m = RootedMap(2, (2, 3, 0, 1), 0)
    with pytest.raises(AttributeError):
        m.sigma = (0, 1, 2, 3)
    for field in ("n", "root"):
        with pytest.raises(AttributeError):
            setattr(m, field, 1)
        with pytest.raises(AttributeError):
            delattr(m, field)
    assert (m.n, m.sigma, m.root) == (2, (2, 3, 0, 1), 0)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and copy.sigma == m.sigma and copy.root == m.root


def test_invalid_map_raises_on_every_call():
    bad = RootedMap(2, (1, 0, 3, 2), 0)
    for _ in range(2):
        for kernel in (rho, rho_direct, map_stats):
            with pytest.raises(InvalidInput, match="map is not connected"):
                kernel(bad)


def test_each_map_is_validated_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return map_defect(m)

    monkeypatch.setattr(planar_maps, "map_defect", counting)
    m = gen_maps(4)[100]
    m = RootedMap(m.n, m.sigma, m.root)  # not yet seen by any kernel
    assert rho(m) == rho_direct(m)
    map_stats(m)
    rho(m)
    assert calls == [m]
    parsed = parse_map(render_map(m))
    map_stats(parsed)
    rho_direct(parsed)
    assert calls == [m, parsed]


def test_stats_examples():
    st = map_stats(LOOP)
    assert (st.outv, st.loopless, st.bipartite) == (1, False, False)
    st = map_stats(EDGE)
    assert (st.outv, st.loopless, st.bipartite, st.white, st.black,
            st.outdeg, st.face) == (2, True, True, 1, 1, 1, ())
    st = map_stats(DOUBLE)
    assert (st.outv, st.bipartite, st.outdeg, st.face) == (2, True, 1, ((1, 1),))


def test_stats_empty_map():
    st = map_stats(EMPTY_MAP)
    assert (st.outv, st.bipartite, st.white, st.black, st.loopless,
            st.outdeg, st.face) == (1, True, 0, 1, True, 0, ())


def test_bipartite_invariants():
    from lambdamaps.planar_maps import vertex_cycles

    def face_degrees(m):
        # the orbits of h -> sigma(h) ^ 1, read without map_stats; the
        # empty map has one face of degree 0
        seen, degrees = set(), []
        for start in range(2 * m.n):
            if start not in seen:
                degrees.append(0)
                h = start
                while h not in seen:
                    seen.add(h)
                    degrees[-1] += 1
                    h = m.sigma[h] ^ 1
        return degrees or [0]

    for n in range(0, 6):
        for m in gen_maps(n):
            st = map_stats(m)
            assert st.bipartite == all(d % 2 == 0 for d in face_degrees(m))
            if st.bipartite:
                assert sum(2 * k * c for k, c in st.face) + 2 * st.outdeg == 2 * m.n
                # Euler: vertices + faces (the outer one included) = edges + 2
                assert st.white + st.black + sum(c for _k, c in st.face) + 1 == m.n + 2
                if m.n:
                    assert st.white + st.black == len(vertex_cycles(m))


# ---------------------------------------------------------------------------
# Canonical form and text format

def test_canonical_form_invariance():
    # the loop map under a different labeling of half-edges
    relabeled = RootedMap(1, (1, 0), 1)
    assert canonical_form(relabeled) == canonical_form(LOOP)
    assert canonical_form(LOOP) != canonical_form(EDGE)


def test_canonical_distinguishes_rootings():
    # 2-edge path x-v-w: half-edges 0 at x, 1 and 2 at v, 3 at w
    sigma = (0, 2, 1, 3)
    end = RootedMap(2, sigma, 0)
    center = RootedMap(2, sigma, 1)
    assert validate_map(end) and validate_map(center)
    assert canonical_form(end) != canonical_form(center)
    assert len({canonical_form(m) for m in gen_maps(2)}) == 9


def test_map_text_roundtrip():
    assert render_map(EMPTY_MAP) == "map n=0"
    assert parse_map("map n=0").n == 0
    for n in range(0, 4):
        for m in gen_maps(n):
            assert canonical_form(parse_map(render_map(m))) == canonical_form(m)
    assert render_map(canonical_map(EDGE)) == "map n=1 sigma=(0)(1) root=0"
    assert render_map(canonical_map(LOOP)) == "map n=1 sigma=(0 1) root=0"


def test_parse_map_rejects_garbage():
    for bad in ["", "map", "map n=1", "map n=1 sigma=(0 1) root=9",
                "map n=2 sigma=(0 1)(2 3) root=0"]:
        with pytest.raises(InvalidInput):
            parse_map(bad)


def test_parse_map_reads_ascii_digits_only():
    # "\d" matched every Unicode decimal digit, so Arabic-Indic digits
    # parsed as the map n=1 sigma=(0)(1) root=0
    for text, error in (("map n=\u0661 sigma=(\u0660)(\u0661) root=\u0660", "missing n="),
                        ("map n=1 sigma=(\u0660)(\u0661) root=0", "missing sigma="),
                        ("map n=1 sigma=(0)(1) root=\u0660", "missing sigma="),
                        ("map n=1 sigma=(0)(\u0661) root=0", "missing sigma=")):
        with pytest.raises(InvalidInput, match=error):
            parse_map(text)


# ---------------------------------------------------------------------------
# pi / attach / decompose

def test_pi_examples():
    assert pi(LOOP).n == 0
    assert pi(EDGE).n == 0
    two_path = attach_root_edge(EDGE, 2)
    assert canonical_form(pi(two_path)) == canonical_form(EDGE)
    with pytest.raises(InvalidInput):
        pi(EMPTY_MAP)


def test_pi_would_disconnect():
    # Root 1 ends at a leaf: the far end 0 of the root edge is alone.
    with pytest.raises(InvalidInput, match="^far end of the root edge carries no other edge$"):
        pi(RootedMap(2, (0, 2, 1, 3), 1))
    # The root edge 2-3 is a bridge between the edges 0-1 and 4-5.
    with pytest.raises(InvalidInput, match="^deleting the root edge disconnects the map$"):
        pi(RootedMap(3, (0, 2, 1, 4, 3, 5), 2))


def test_attach_examples():
    u2 = attach_root_edge(EDGE, 2)  # bridge: path rooted at a pendant end
    u1 = attach_root_edge(EDGE, 1)  # double edge
    u0 = attach_root_edge(EDGE, 0)  # loop enclosing the edge
    assert canonical_form(u1) == canonical_form(DOUBLE)
    for i, u in [(2, u2), (1, u1), (0, u0)]:
        assert is_one_corner(u)
        assert outv(u) - 1 == i
        assert canonical_form(pi(u)) == canonical_form(EDGE)
    with pytest.raises(InvalidInput):
        attach_root_edge(EDGE, 3)


def test_attach_empty():
    assert canonical_form(attach_root_edge(EMPTY_MAP, 0)) == canonical_form(LOOP)
    assert canonical_form(attach_root_edge(EMPTY_MAP, 1)) == canonical_form(EDGE)


def test_decompose_examples():
    [u] = decompose(LOOP)
    assert canonical_form(u) == canonical_form(LOOP)
    [u] = decompose(EDGE)
    assert canonical_form(u) == canonical_form(EDGE)
    two_loops = rho_inv(lt("1[0,0]"))
    us = decompose(two_loops)
    assert len(us) == 2
    assert all(canonical_form(u) == canonical_form(LOOP) for u in us)
    with pytest.raises(InvalidInput):
        decompose(EMPTY_MAP)


def test_decompose_conservation():
    for n in range(1, 5):
        for m in gen_maps(n):
            comps = decompose(m)
            assert sum(u.n for u in comps) == m.n
            assert outv(m) == 1 + sum(outv(u) - 1 for u in comps)
            assert all(is_one_corner(u) for u in comps)


# ---------------------------------------------------------------------------
# rho, rho_inv, rho_direct

def test_rho_base_cases():
    assert rho(EMPTY_MAP) == lt("1")
    assert rho(LOOP) == lt("1[0]")
    assert rho(EDGE) == lt("2[1]")


def test_rho_double_edge_regression():
    # frozen from the recursive construction
    assert rho(DOUBLE) == lt("2[1[1]]")
    assert rho_direct(DOUBLE) == lt("2[1[1]]")


def test_rho_inv_base_cases():
    assert rho_inv(lt("1")).n == 0
    assert canonical_form(rho_inv(lt("1[0]"))) == canonical_form(LOOP)
    assert canonical_form(rho_inv(lt("2[1]"))) == canonical_form(EDGE)
    with pytest.raises(InvalidInput):
        rho_inv(lt("2[0]"))


def test_rho_roundtrip_and_direct():
    for n in range(0, 5):
        for m in gen_maps(n):
            t = rho(m)
            assert validate_vtree(t).valid
            assert t.edge_count() == m.n
            assert t.label == outv(m)
            assert rho_direct(m) == t
            assert canonical_form(rho_inv(t)) == canonical_form(m)


def test_rho_direct_agrees_at_six_edges():
    for m in gen_maps(6):
        t = rho(m)
        assert rho_direct(m) == t
        assert t.label == outv(m)
        assert canonical_form(rho_inv(t)) == canonical_form(m)


def test_rho_direct_equals_rho_to_six_edges():
    maps = [m for n in range(7) for m in gen_maps(n)]
    assert len(maps) == 27417
    for m in maps:
        assert rho_direct(m) == rho(m)


def test_rho_direct_on_a_deep_path_map(shallow_recursion):
    # Opening this map detaches arcs that run along the rest of the path,
    # so walking each detached arc would take quadratic time.
    t = LabeledTree(1)
    for _ in range(10**4 - 1):
        t = LabeledTree(1, (t,))
    t = LabeledTree(2, (t,))
    m = rho_inv(t)
    assert m.n == 10**4
    assert rho_direct(m) == rho(m) == t


def _random_vtree(n: int, reach: int, rng: random.Random) -> LabeledTree:
    """Seeded random v-tree with n edges, built bottom-up without recursion.
    Node i hangs below one of the `reach` nodes before it, so a small reach
    gives deep trees and a large one shallow, bushy trees."""
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        kids[rng.randrange(max(0, i - reach), i)].append(i)
    nodes: list[LabeledTree] = [LabeledTree(0)] * (n + 1)
    for v in range(n, -1, -1):
        children = tuple(nodes[c] for c in kids[v])
        top = 1 + sum(c.label for c in children)
        nodes[v] = LabeledTree(top if v == 0 else rng.randint(0, top), children)
    return nodes[0]


def test_rho_direct_on_large_maps():
    # sizes stay well inside the default recursion limit, which the tree
    # reading of rho_direct and the text renderers still need
    rng = random.Random(2022)
    trees = [_random_vtree(rng.randint(200, 300), reach, rng)
             for reach in (2, 8, 300) for _ in range(2)]
    trees.append(LabeledTree(301, (LabeledTree(1),) * 300))
    for t in trees:
        m = rho_inv(t)
        assert rho_direct(m) == rho(m) == t
        assert convert("map", "vtree", render_map(m)) == render_labeled_tree(t)


def test_rho_onto_vtrees():
    for n in range(0, 5):
        images = {render_labeled_tree(rho(m)) for m in gen_maps(n)}
        trees = {render_labeled_tree(t) for t in gen_trees(n, "vtree")}
        assert images == trees


def test_loopless_law():
    for n in range(0, 5):
        positive = {render_labeled_tree(t) for t in gen_trees(n, "vtree_positive")}
        image = {render_labeled_tree(rho(m)) for m in gen_loopless_maps(n)}
        assert positive == image


def test_preimage_completeness():
    for n in range(0, 4):
        preimages: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for u in gen_maps(n + 1):
            if is_one_corner(u):
                preimages.setdefault(canonical_form(pi(u)), []).append(
                    canonical_form(u))
        for m in gen_maps(n):
            built = sorted(
                canonical_form(attach_root_edge(m, i)) for i in range(outv(m) + 1))
            assert built == sorted(preimages.get(canonical_form(m), []))
            assert len(set(built)) == outv(m) + 1


# ---------------------------------------------------------------------------
# Reference: the one-corner kernels as they were before rho and rho_inv ran
# in place, each step on a fresh copy of the map, relabelled at every level.

def _ref_decompose(m):
    cuts = _root_corners(m)
    succ = list(m.sigma)
    for prev, o in zip([m.root] + cuts, cuts):
        succ[o] = m.sigma[prev]
    return _extract(succ, cuts)


def _ref_pi(u):
    if u.n == 1:
        return EMPTY_MAP
    succ = list(u.sigma)
    pred = _inverse(succ)
    r = u.root
    a = r ^ 1
    cand = pred[a]
    if cand == r:
        cand = pred[r]
    if cand == a:
        raise InvalidInput("far end of the root edge carries no other edge")
    for h in (r, a):
        p, nx = pred[h], succ[h]
        succ[p], pred[nx] = nx, p
    out = _extract(succ, [cand])[0]
    if out.n != u.n - 1:
        raise InvalidInput("deleting the root edge disconnects the map")
    return out


def _ref_last_outer_corners(m):
    vid, nv = _orbits(m.sigma)
    met = [False] * nv
    last = []
    for h in reversed(outer_walk(m)):
        if not met[vid[h]]:
            met[vid[h]] = True
            last.append(h)
    last.reverse()
    return last


def _ref_attach_root_edge(m, i):
    k = outv(m)
    if m.n == 0:
        if i == 1:
            return RootedMap(1, (0, 1), 1)
        return RootedMap(1, (1, 0), 1)
    a, b = 2 * m.n, 2 * m.n + 1
    succ = list(m.sigma) + [m.sigma[m.root], b]
    if i == k:
        succ[m.root] = a
    elif i == 0:
        succ[m.root], succ[b] = b, a
    else:
        t = _ref_last_outer_corners(m)[k - i - 1]
        succ[b], succ[t], succ[m.root] = succ[t], b, a
    return RootedMap(m.n + 1, tuple(succ), b)


def _ref_glue(comps):
    sigma = []
    roots = []
    for c in comps:
        offset = len(sigma)
        sigma.extend(s + offset for s in c.sigma)
        roots.append(c.root + offset)
    firsts = [sigma[r] for r in roots]
    for j, r in enumerate(roots):
        sigma[r] = firsts[(j + 1) % len(roots)]
    return RootedMap(len(sigma) // 2, tuple(sigma), roots[-1])


def _ref_rho(m):
    if m.n == 0:
        return LabeledTree(1)
    kids = []
    for u in _ref_decompose(m):
        sub = _ref_rho(_ref_pi(u))
        kids.append(LabeledTree(outv(u) - 1, sub.children))
    return LabeledTree(outv(m), tuple(kids))


def _ref_rho_inv(v):
    if not v.children:
        return EMPTY_MAP
    comps = []
    for child in v.children:
        sub = LabeledTree(1 + sum(g.label for g in child.children), child.children)
        comps.append(_ref_attach_root_edge(_ref_rho_inv(sub), child.label))
    return _ref_glue(comps)


def _fields(m):
    return m.n, m.sigma, m.root


def test_rho_and_rho_inv_equal_the_reference_to_six_edges():
    total = 0
    for n in range(0, 7):
        for m in gen_maps(n):
            t = rho(m)
            assert t == _ref_rho(m)
            assert _fields(rho_inv(t)) == _fields(_ref_rho_inv(t))
            total += 1
    assert total == 27417


def test_one_corner_steps_equal_the_reference_to_five_edges():
    for n in range(0, 6):
        for m in gen_maps(n):
            for i in range(outv(m) + 1):
                assert _fields(attach_root_edge(m, i)) == _fields(_ref_attach_root_edge(m, i))
            if n == 0:
                continue
            assert [_fields(u) for u in decompose(m)] == [_fields(u) for u in _ref_decompose(m)]
            try:
                want = _fields(_ref_pi(m))
            except InvalidInput as exc:
                with pytest.raises(InvalidInput, match=f"^{exc}$"):
                    pi(m)
            else:
                assert _fields(pi(m)) == want


def _shapes(edges):
    """Every plane tree with this many edges, as nested tuples of children."""
    if edges == 0:
        return [()]
    return [(first, *rest) for j in range(edges) for first in _shapes(j)
            for rest in _shapes(edges - 1 - j)]


def _labelled(shape, labels):
    """The tree of this shape with labels taken from an iterator in
    pre-order."""
    return LabeledTree(next(labels), tuple(_labelled(c, labels) for c in shape))


def _size(shape):
    return 1 + sum(_size(c) for c in shape)


def _outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_vtree_kernels_reject_exactly_what_validate_vtree_rejects():
    # every plane tree with at most 4 edges under every labelling from
    # -1..4; rho_inv and word_of_vtree check the labels in their own pass
    rejected = ("InvalidInput", "not a valid v-tree")
    accepted = set()
    for edges in range(5):
        for shape in _shapes(edges):
            for labels in product(range(-1, 5), repeat=_size(shape)):
                t = _labelled(shape, iter(labels))
                valid = validate_vtree(t).valid
                got = [_outcome(k, t) for k in (rho_inv, word_of_vtree, psi_inv)]
                text = render_labeled_tree(t) if min(labels) >= 0 else None
                if text is not None:
                    got += [_outcome(convert, "vtree", to, text) for to in ("map", "term")]
                if not valid:
                    assert got == [rejected] * len(got), render_labeled_tree(t)
                    continue
                accepted.add(text)
                m, word, s = got[:3]
                assert rho(m) == rho_direct(m) == t
                assert vtree_of_word(word) == psi(s) == t and s.word == word
                assert convert("map", "vtree", got[3]) == text
                assert convert("term", "vtree", got[4]) == text
    # all v-trees to 4 edges but those with a label 5, a root over 4 leaves
    vtrees = {render_labeled_tree(t) for e in range(5) for t in gen_trees(e, "vtree")}
    assert accepted == {text for text in vtrees if "5" not in text}


def test_vtree_kernels_check_every_label_before_they_allocate():
    # each tree passes the root check with a huge label below the root; the
    # kernels must refuse it before they write a chain as long as a label
    rejected = ("InvalidInput", "not a valid v-tree")
    for big in (10 ** 7, 10 ** 20):
        for text in (f"1[0[{big}]]", f"{big + 1}[{big}]", f"2[0[{big}],1]"):
            t = parse_labeled_tree(text)
            assert not validate_vtree(t).valid
            tracemalloc.start()
            try:
                got = [_outcome(k, t) for k in (rho_inv, word_of_vtree, psi_inv)]
                got += [_outcome(convert, "vtree", to, text) for to in ("map", "term")]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == [rejected] * len(got), text
            assert peak < 10 ** 6, text


def test_rho_roundtrip_on_large_vtrees():
    rng = random.Random(9)
    trees = [_random_vtree(n, 300, rng) for n in (2000, 5000, 10000)]
    trees.append(LabeledTree(3001, (LabeledTree(1),) * 3000))
    for t in trees:
        m = rho_inv(t)
        assert rho(m) == rho_direct(m) == t


def _cyclic_garbage(fn, objects) -> int:
    """Objects left in reference cycles by calling fn on each object, with
    the collector off."""
    gc.collect()
    gc.disable()
    try:
        for x in objects:
            fn(x)
        return gc.collect()
    finally:
        gc.enable()


def test_rho_kernels_leave_no_reference_cycles():
    maps = [m for n in range(0, 6) for m in gen_maps(n)]
    trees = [rho(m) for m in maps]
    assert _cyclic_garbage(rho, maps) == 0
    assert _cyclic_garbage(rho_direct, maps) == 0
    assert _cyclic_garbage(rho_inv, trees) == 0


def test_skeleton_kernels_leave_no_reference_cycles():
    skeletons = [s for n in range(1, 6) for s in gen_skeletons(n, 1)]
    terms = [term_of_skeleton(s) for s in skeletons]
    trees = [psi(s) for s in skeletons]
    kernels = {
        "term_of_skeleton": (term_of_skeleton, skeletons),
        "preorder": (preorder, [tree_of_word(s.word) for s in skeletons]),
        "diagram_of": (diagram_of, skeletons),
        "check_family": (lambda s: check_family(s, 2), skeletons),
        "is_three_connected_skeleton": (is_three_connected_skeleton, skeletons),
        "psi": (psi, skeletons),
        "render_term": (render_term, terms),
        "alpha_equal": (lambda t: alpha_equal(t, t), terms),
        "skeleton_of": (skeleton_of, terms),
        "parse_term": (parse_term, [render_term(t) for t in terms]),
        "validate_vtree": (validate_vtree, trees),
        "psi_inv": (psi_inv, trees),
        "edge_connectivity_class": (edge_connectivity_class, [diagram_of(s) for s in skeletons]),
    }
    # With the collector off, every object made since the last collection
    # stays in the youngest generation, so collecting that generation alone
    # finds the cycles each kernel left.
    found = {}
    gc.collect()
    gc.disable()
    try:
        for name, (fn, inputs) in kernels.items():
            for x in inputs:
                fn(x)
            found[name] = gc.collect(0)
    finally:
        gc.enable()
    assert found == dict.fromkeys(found, 0)
