"""The generators against their oracles.

Run as a script (``python tests/test_enumeration.py 7``) to compare the
maps of the rotation search with the rho_inv image of the v-trees at
another edge count.
"""

import sys
import tracemalloc
from itertools import permutations
from math import comb

import pytest

from lambdamaps import enumeration
from lambdamaps.connectivity import check_family, is_three_connected_skeleton
from lambdamaps.enumeration import (
    MAX_MAP_EDGES,
    _planar_rotations,
    bipartite_maps_formula,
    compare_stat_multisets,
    count_table,
    gen_bipartite_maps,
    gen_loopless_maps,
    gen_maps,
    gen_skeletons,
    gen_trees,
    maps_formula,
    render_count_table,
)
from lambdamaps.labeled_trees import render_labeled_tree, validate_degree_tree, validate_vtree
from lambdamaps.lambda_core import InvalidInput, SizeTooLarge, Skeleton, render_skeleton
from lambdamaps.planar_maps import (
    EMPTY_MAP,
    RootedMap,
    canonical_form,
    canonical_map,
    map_stats,
    rho_inv,
    validate_map,
)
from reference_kernels import iter_unary_binary, tree_word


# ---------------------------------------------------------------------------
# Skeleton generation

def test_gen_skeletons_examples():
    assert [render_skeleton(s) for s in gen_skeletons(1, 1)] == ["U(L)"]
    assert {render_skeleton(s) for s in gen_skeletons(2, 1)} == {
        "U(U(B(L,L)))", "U(B(L,U(L)))"}
    assert [render_skeleton(s) for s in gen_skeletons(3, 3)] == [
        "U(U(U(B(L,B(L,L)))))"]


def test_gen_skeletons_against_ambient_filter():
    for n in range(1, 5):
        ambient = [Skeleton(tree_word(t)) for t in iter_unary_binary(n, n)]
        for level, pred in [
            (1, lambda s: check_family(s, 1)),
            (2, lambda s: check_family(s, 2)),
            (3, is_three_connected_skeleton),
        ]:
            expect = {render_skeleton(s) for s in ambient if pred(s)}
            got = [render_skeleton(s) for s in gen_skeletons(n, level)]
            assert len(got) == len(set(got))
            assert set(got) == expect


def test_gen_skeletons_counts():
    assert [len(gen_skeletons(n, 1)) for n in range(1, 8)] == [
        1, 2, 9, 54, 378, 2916, 24057]
    assert [len(gen_skeletons(n, 2)) for n in range(1, 7)] == [
        1, 1, 3, 13, 68, 399]
    assert [len(gen_skeletons(n, 3)) for n in range(1, 8)] == [
        0, 1, 1, 3, 12, 56, 288]


def test_gen_skeletons_size_guard():
    with pytest.raises(SizeTooLarge):
        gen_skeletons(9, 1)
    with pytest.raises(SizeTooLarge):
        gen_skeletons(0, 1)


def _clear_generator_caches() -> list:
    caches = [f for f in vars(enumeration).values() if hasattr(f, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    return caches


def test_gen_skeletons_deterministic():
    # the same words in the same order on a cold cache and after size 7
    # was built: the memo of one size carries nothing into the next
    def words():
        return [[s.word for s in gen_skeletons(n, level)]
                for n in range(1, 7) for level in (1, 2, 3)]
    _clear_generator_caches()
    cold = words()
    _clear_generator_caches()
    gen_skeletons(7, 1)
    assert words() == cold
    assert words() == cold


def test_gen_skeletons_keeps_only_the_words_it_returns():
    # the cached tuple of the size-7 words takes about 0.2 MB; the words of
    # the smaller pairs it is built from, about 5 MB, must not stay
    caches = _clear_generator_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        skeletons = gen_skeletons(7, 1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(cache.cache_info().currsize for cache in caches) == 1
    returned = sys.getsizeof(skeletons) + sum(sys.getsizeof(s) + sys.getsizeof(s.word)
                                              for s in skeletons)
    assert kept - returned < 0.5e6


# ---------------------------------------------------------------------------
# Map generation

def test_gen_maps_small():
    assert [m.n for m in gen_maps(0)] == [0]
    assert len(gen_maps(1)) == 2
    assert len(gen_maps(2)) == 9
    for n in range(0, 3):
        for m in gen_maps(n):
            assert validate_map(m)


def test_gen_maps_counts_and_formula():
    for n in range(0, 7):
        assert len(gen_maps(n)) == maps_formula(n)
    assert [maps_formula(n) for n in range(6)] == [1, 2, 9, 54, 378, 2916]


def test_gen_maps_deduplicates():
    for n in range(0, 7):
        forms = [canonical_form(m) for m in gen_maps(n)]
        assert len(forms) == len(set(forms))
        assert forms == sorted(forms)


def _scan_canon_sigma(sigma: tuple[int, ...], root: int) -> bytes:
    """Breadth-first root-anchored relabelling of sigma, as a byte string."""
    nh = len(sigma)
    order = [root]
    seen = [False] * nh
    seen[root] = True
    i = 0
    while i < len(order):
        h = order[i]
        i += 1
        for nxt in (sigma[h], h ^ 1):
            if not seen[nxt]:
                seen[nxt] = True
                order.append(nxt)
    new_id = [-1] * nh
    ne = 0
    for h in order:
        if new_id[h] < 0:
            new_id[h] = 2 * ne
            new_id[h ^ 1] = 2 * ne + 1
            ne += 1
    out = bytearray(nh)
    for h in range(nh):
        out[new_id[h]] = new_id[sigma[h]]
    return bytes(out)


def _scan_maps(n: int) -> list[RootedMap]:
    """Reference oracle: every rotation permutation on 2n half-edges,
    filtered by connectivity and V - E + F = 2, deduplicated by the
    relabelling above."""
    if n == 0:
        return [EMPTY_MAP]
    nh = 2 * n
    found: set[bytes] = set()
    half = range(nh)
    for sigma in permutations(half):
        # connectivity of the group generated by sigma and the edge flip
        seen = [False] * nh
        seen[0] = True
        stack = [0]
        cnt = 1
        while stack:
            h = stack.pop()
            s = sigma[h]
            if not seen[s]:
                seen[s] = True
                cnt += 1
                stack.append(s)
            a = h ^ 1
            if not seen[a]:
                seen[a] = True
                cnt += 1
                stack.append(a)
        if cnt != nh:
            continue
        # Euler characteristic: V - n + F == 2
        v = 0
        mark = [False] * nh
        for h0 in half:
            if not mark[h0]:
                v += 1
                x = h0
                while not mark[x]:
                    mark[x] = True
                    x = sigma[x]
        f = 0
        mark = [False] * nh
        for h0 in half:
            if not mark[h0]:
                f += 1
                x = h0
                while not mark[x]:
                    mark[x] = True
                    x = sigma[x] ^ 1
        if v - n + f != 2:
            continue
        found.add(_scan_canon_sigma(sigma, 0))
    return [RootedMap(n, tuple(b), 0) for b in sorted(found)]


def test_gen_maps_equals_permutation_scan():
    # the scan visits all 10! permutations at 5 edges: run once, in-process
    for n in range(0, 6):
        got = [(m.n, m.sigma, m.root) for m in gen_maps(n)]
        want = [(m.n, m.sigma, m.root) for m in _scan_maps(n)]
        assert got == want, n


def search_equals_vtree_image(n: int) -> int:
    """The maps of the rotation search with n edges against the canonical
    forms of rho_inv over every v-tree with n edges; returns the number of
    maps.  The search is called directly, so that n may exceed
    MAX_MAP_EDGES."""
    forms = [canonical_form(RootedMap(n, sigma, 0)) for sigma in _planar_rotations(n)]
    image = {canonical_form(canonical_map(rho_inv(t))) for t in gen_trees(n, "vtree")}
    assert set(forms) == image
    assert len(forms) == len(image) == maps_formula(n)
    return len(forms)


def test_gen_maps_six_edges_equals_vtree_image():
    assert search_equals_vtree_image(6) == 24057


def test_gen_maps_size_guard():
    with pytest.raises(SizeTooLarge):
        gen_maps(7)


def test_gen_bipartite_maps_equals_map_stats_filter():
    # the filter gen_bipartite_maps replaced, kept as its oracle
    for n in range(0, 7):
        got = [(m.n, m.sigma, m.root) for m in gen_bipartite_maps(n)]
        want = [(m.n, m.sigma, m.root) for m in gen_maps(n) if map_stats(m).bipartite]
        assert got == want, n


def test_gen_loopless_maps_equals_map_stats_filter():
    # the filter gen_loopless_maps replaced, kept as its oracle
    for n in range(0, 7):
        got = [(m.n, m.sigma, m.root) for m in gen_loopless_maps(n)]
        want = [(m.n, m.sigma, m.root) for m in gen_maps(n) if map_stats(m).loopless]
        assert got == want, n


def test_searches_at_seven_edges():
    # one size above MAX_MAP_EDGES: the loopless count is OEIS A000260
    assert len(_planar_rotations(7)) == maps_formula(7) == 208494
    assert len(_planar_rotations(7, bipartite=True)) == bipartite_maps_formula(7) == 9152
    assert len(_planar_rotations(7, loopless=True)) == 16965


def test_gen_bipartite_maps_size_guard():
    with pytest.raises(SizeTooLarge):
        gen_bipartite_maps(MAX_MAP_EDGES + 1)
    with pytest.raises(SizeTooLarge):
        gen_bipartite_maps(-1)


def test_loopless_and_bipartite_counts():
    assert [len(gen_loopless_maps(n)) for n in range(0, 5)] == [1, 1, 3, 13, 68]
    assert [len(gen_bipartite_maps(n)) for n in range(0, 5)] == [1, 1, 3, 12, 56]
    for n in range(1, 5):
        assert bipartite_maps_formula(n) == len(gen_bipartite_maps(n))


# ---------------------------------------------------------------------------
# Labeled tree generation

def test_gen_trees_examples():
    assert {render_labeled_tree(t) for t in gen_trees(1, "vtree")} == {"1[0]", "2[1]"}
    assert len(gen_trees(2, "degree")) == 3
    assert [render_labeled_tree(t) for t in gen_trees(1, "vtree_positive")] == ["2[1]"]


def test_gen_trees_validate():
    for n in range(0, 5):
        for t in gen_trees(n, "degree"):
            assert validate_degree_tree(t)
            assert t.edge_count() == n
        for t in gen_trees(n, "vtree"):
            assert validate_vtree(t).valid
        for t in gen_trees(n, "vtree_positive"):
            assert validate_vtree(t).positive


def test_gen_trees_counts():
    assert [len(gen_trees(n, "degree")) for n in range(0, 6)] == [1, 1, 3, 12, 56, 288]
    assert [len(gen_trees(n, "vtree")) for n in range(0, 6)] == [1, 2, 9, 54, 378, 2916]
    assert [len(gen_trees(n, "vtree_positive")) for n in range(0, 6)] == [
        1, 1, 3, 13, 68, 399]


def test_gen_trees_size_guard():
    with pytest.raises(SizeTooLarge):
        gen_trees(8, "vtree")
    with pytest.raises(InvalidInput):
        gen_trees(2, "nonsense")


# ---------------------------------------------------------------------------
# Count table

def test_count_table_structure():
    rows = count_table(4)
    by_family = {}
    for r in rows:
        by_family.setdefault(r.family, []).append(r)
    assert [r.count for r in by_family["map"]] == [1, 2, 9, 54]
    assert [r.count for r in by_family["map-bipartite"]] == [1, 1, 3, 12]
    assert [r.count for r in by_family["s1"]] == [1, 2, 9, 54]
    assert all(r.match for r in by_family["map"])
    # the 3-connected rows follow the bipartite map formula, which has no
    # value at 0 edges
    s3 = {r.n: r for r in by_family["s3"]}
    assert s3[2].match is None and s3[3].match is True and s3[4].match is True


def test_count_table_s3_rows_match_the_bipartite_formula():
    # 3-connected terms of size n and bipartite maps with n - 2 edges
    s3 = [r for r in count_table(7) if r.family == "s3"]
    assert [(r.n, r.formula) for r in s3] == [
        (1, None), (2, None), (3, 1), (4, 3), (5, 12), (6, 56), (7, 288)]
    assert all(r.match is True for r in s3 if r.formula is not None)


def test_bipartite_maps_formula_is_integral():
    # 3 * 2^(n-1) * C(2n, n) is a multiple of (n+1)(n+2) for n >= 1 (OEIS A000257)
    assert bipartite_maps_formula(0) is None
    for n in range(1, 201):
        num = 3 * 2 ** (n - 1) * comb(2 * n, n)
        assert num % ((n + 1) * (n + 2)) == 0
        assert bipartite_maps_formula(n) * (n + 1) * (n + 2) == num


def test_render_count_table_tsv():
    text = render_count_table(count_table(2))
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == "family\tn\tcount\tformula\tmatch"
    assert all(len(line.split("\t")) == 5 for line in lines[1:])


# ---------------------------------------------------------------------------
# Cross-family statistics

def test_compare_stat_multisets():
    for n in range(1, 4):
        rep = compare_stat_multisets(n)
        assert rep.abstraction_shift == 2
    assert compare_stat_multisets(2).tuples_per_side == 3
    assert compare_stat_multisets(3).tuples_per_side == 12


def test_compare_stat_multisets_n2_values():
    from lambdamaps.bijections import degree_tree_stats

    tuples = sorted(
        (d.rlabel, d.lnode, d.znode, d.edge)
        for d in (degree_tree_stats(t) for t in gen_trees(2, "degree")))
    assert tuples == [(1, 1, 1, ((1, 1),)), (2, 1, 2, ()), (2, 2, 1, ())]


if __name__ == "__main__":
    print(search_equals_vtree_image(int(sys.argv[1])),
          "maps: the rotation search equals the rho_inv image of the v-trees")
