"""Exhaustive generators for every object family, with count cross-checks.

Skeleton generation is recursive with pruning (normality, chain conditions
and nonnegative leaf/unary deficit are maintained during construction) and
builds each skeleton's pre-order arity word, which ``gen_skeletons`` wraps
in a ``Skeleton``; the result provably equals filtering the ambient
unary-binary trees, which the tests confirm by full ambient scans at small
sizes, and the tests keep the generator of node objects it replaced as its
reference.  Only the words of each size's connected family are cached; the
words of the smaller leaf/unary pairs they are built from are dropped once
that size is built, and the top size's chain of pairs (n, n), ..., (n, 0)
is never held: each of its words is a unary run over a word whose root is
not unary.  Maps are generated by a search that builds each rooted
rotation system directly in its canonical labelling, so none is built
twice; the tests check it against a scan over all rotation permutations
and keep the search that tested every half-edge as its reference.  Its
candidates are the bits of a mask of the half-edges with no preimage
yet, and the last half-edge takes the one bit left, untested.
Euler's bound prunes that search to the planar maps: a complete map with n
edges closes at most n + 2 vertex and face cycles, exactly n + 2 when
planar, and each of its 2n assignments either labels a new edge and closes
nothing or closes at most one vertex and one face, so a branch that can no
longer reach n + 2 is not grown.  Bipartite and loopless maps come from
the same search with one more rule each.  The colour rule: each half-edge
is coloured by its vertex's side when it is labelled (the rotation keeps
the colour, the edge flip changes it), and a half-edge is only sent to one
of its own colour.  The loop rule: two vertex paths that hold the two
halves of one edge are never joined.  The tests keep the old route,
filtering every map by map_stats, as the oracle for both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

from .bijections import degree_tree_stats, skeleton_stats
from .connectivity import check_family, is_three_connected_skeleton, reduce_skeleton
from .labeled_trees import LabeledTree, has_zero
from .lambda_core import InvalidInput, SizeTooLarge, Skeleton
from .planar_maps import (
    EMPTY_MAP,
    RootedMap,
    map_stats,
)


MAX_SKELETON_SIZE = 8
MAX_MAP_EDGES = 6
MAX_TREE_EDGES = 7


# ---------------------------------------------------------------------------
# Skeletons

def _gen_lin(nleaf: int, nunary: int, memo: dict) -> tuple[bytes, ...]:
    """The pre-order arity words of the unary-binary trees with the given
    leaf/unary counts that are normal, satisfy the chain condition at
    every node below the top chain, and have nonnegative deficit (so they
    can still be capped or closed).  A unary node's word is 1 and its
    child's; a binary node's is 2, its left child's, which is not unary,
    and its right child's.  The words with a unary root come first, then
    those of _split_words.  memo maps each pair built to its words."""
    if nleaf < 1 or nunary < 0 or nleaf - nunary < 0:
        return ()
    if (nleaf, nunary) in memo:
        return memo[nleaf, nunary]
    out = [b"\x01" + t for t in _gen_lin(nleaf, nunary - 1, memo)]
    out += _split_words(nleaf, nunary, memo)
    memo[nleaf, nunary] = words = tuple(out)
    return words


def _split_words(nleaf: int, nunary: int, memo: dict) -> list[bytes]:
    """The words of _gen_lin(nleaf, nunary) whose root is not unary, in
    its order: the leaf at (1, 0), else a binary node over each split of
    the leaves and unary nodes between its children.  It reads only pairs
    with fewer leaves."""
    out = [b"\x00"] if nleaf == 1 and nunary == 0 else []
    for a in range(1, nleaf):
        b = nleaf - a
        for c in range(0, min(a, nunary) + 1):
            d = nunary - c
            if b - d < 0:
                continue
            lefts = [t for t in _gen_lin(a, c, memo) if t[0] != 1]
            if not lefts:
                continue
            rights = _gen_lin(b, d, memo)
            out.extend(b"\x02" + l + r for l in lefts for r in rights)
    return out


@lru_cache(maxsize=None)
def _connected_words(n: int) -> tuple[bytes, ...]:
    """The words of the connected-family skeletons of size n, in
    _gen_lin(n, n)'s order without building its chain of pairs (n, j):
    for j = 0..n, the words of (n, j) whose root is not unary, each under
    n - j unary nodes."""
    memo: dict = {}
    return tuple(b"\x01" * (n - j) + w
                 for j in range(n + 1) for w in _split_words(n, j, memo))


def gen_skeletons(n: int, level: int) -> list[Skeleton]:
    """All skeletons of size n in the connected (1), 2-connected (2) or
    3-connected (3) family, in a deterministic order."""
    if not 1 <= n <= MAX_SKELETON_SIZE:
        raise SizeTooLarge(f"size must be in 1..{MAX_SKELETON_SIZE}")
    base = map(Skeleton, _connected_words(n))
    if level == 1:
        return list(base)
    if level == 2:
        return [s for s in base if check_family(s, 2)]
    if level == 3:
        return [s for s in base if is_three_connected_skeleton(s)]
    raise InvalidInput(f"level must be 1, 2 or 3, got {level}")


def gen_reduced_skeletons(n: int) -> list[Skeleton]:
    """Reduced skeletons of the 3-connected skeletons of size n."""
    return [reduce_skeleton(s) for s in gen_skeletons(n, 3)]


# ---------------------------------------------------------------------------
# Maps

def _planar_rotations(n: int, bipartite: bool = False,
                      loopless: bool = False) -> list[tuple[int, ...]]:
    """The rotation of every rooted planar map with n >= 1 edges, each
    exactly once and already in the labelling canonical_map gives it
    (root 0); with bipartite, only the maps with 2-colourable vertices,
    and with loopless, only the maps in which no edge joins a vertex to
    itself.

    The search replays canonical_map's breadth-first relabelling: the
    half-edge being processed takes as image either a labelled half-edge
    that has no preimage yet, or the even half of the next new edge, and
    the images and partners are queued as the relabelling queues them.
    Each complete assignment is one connected rooted map.  The labelled
    half-edges without a preimage are the bits of the int free, passed
    down the recursion; the candidates are its bits and, while an edge is
    owed, bit 2 * ne, taken lowest first.

    Euler's bound keeps the search planar: a complete map has V + F closed
    vertex and face cycles, at most n + 2 with equality exactly when it is
    planar.  Of the 2n assignments, the n - 1 that label a new edge close
    no cycle (their image and its partner are fresh), and each other one
    closes at most one vertex and one face.  So after k assignments with c
    cycles closed and ne edges labelled, at most c + 2(n - k + ne) cycles
    can still be reached, and slack = c + 2(n - k + ne) - (n + 2) must stay
    >= 0: a new edge leaves it as it is, and any other assignment adds its
    closed cycles and takes 2.  An image that would make it negative is not
    tried, and every complete assignment reached is a planar map.

    Nor is an image that would empty the queue with edges still owed: when
    h is the last queued half-edge, h ^ 1 is queued and ne < n, an already
    queued t queues nothing, and the relabelling would stop with fewer than
    n edges.  So every leaf of the search is a complete assignment.

    For bipartite, half-edges 0 and 1 get colours 0 and 1, a new edge's
    even half takes the colour of h and its odd half the other, and a
    labelled t is only tried if it has the colour of h.  For loopless, a
    labelled t on another vertex path than h is not tried if the two
    paths, walked along sigma, hold the two halves of one edge.  Every
    open path is then loop-free: a new edge's half joins a path with its
    partner still alone, and closing a path into a vertex joins it to
    itself.  So every vertex of every map reached is loop-free.

    The last half-edge h takes the one bit t left in free, untested: after
    2n - 1 assignments, t alone has no preimage and h alone no image, so
    the open vertex path runs from t to h and the open face path from
    t ^ 1 to h.  sigma(h) = t closes both, which leaves the slack as it
    is; the colours agree, since each arrow of the path kept one colour;
    and the loop rule does not apply, since t begins the path of h.
    """
    nh = 2 * n
    last = nh - 1
    sigma = [-1] * nh
    colour = [0, 1] + [-1] * (nh - 2)
    seen = [False] * nh   # already queued
    seen[0] = True
    order = [0]
    out: list[tuple[int, ...]] = []
    # The partial sigma and the partial face walk h -> sigma(h)^1 are each a
    # set of paths and closed cycles (vertices and faces).  vbeg/fbeg map
    # the last half-edge of each open path to its first, vend/fend back.
    vbeg, vend, fbeg, fend = (list(range(nh)) for _ in range(4))

    def joins_a_loop(h: int, t: int) -> bool:
        """Whether the vertex path ending at h and the one starting at t
        hold the two halves of one edge."""
        ends = {h}
        x = vbeg[h]
        while x != h:
            ends.add(x)
            x = sigma[x]
        x, end = t, vend[t]
        while x ^ 1 not in ends:
            if x == end:
                return False
            x = sigma[x]
        return True

    def extend(i: int, ne: int, slack: int, free: int) -> None:
        h = order[i]
        if i == last:
            sigma[h] = free.bit_length() - 1
            out.append(tuple(sigma))
            return
        vb, fb = vbeg[h], fbeg[h]
        h1 = h ^ 1
        owed = ne < n
        closes = owed and i + 1 == len(order) and seen[h1]
        c = free | 1 << 2 * ne if owed else free
        while c:
            low = c & -c
            c ^= low
            t = low.bit_length() - 1
            if closes and seen[t]:
                continue
            u = t ^ 1
            new = t == 2 * ne
            if new:
                left = slack
                rest = free | low << 1
                if bipartite:
                    colour[t], colour[u] = colour[h], colour[h] ^ 1
            else:
                left = slack + (vb == t) + (fb == u) - 2
                if left < 0:
                    continue
                if bipartite and colour[t] != colour[h]:
                    continue
                if loopless and vb != t and joins_a_loop(h, t):
                    continue
                rest = free ^ low
            sigma[h] = t
            queued = 0
            if not seen[t]:
                seen[t] = True
                order.append(t)
                queued = 1
            if not seen[h1]:
                seen[h1] = True
                order.append(h1)
                queued += 1
            ve, fe = vend[t], fend[u]
            if vb != t:
                vend[vb], vbeg[ve] = ve, vb
            if fb != u:
                fend[fb], fbeg[fe] = fe, fb
            extend(i + 1, ne + new, left, rest)
            if fb != u:
                fend[fb], fbeg[fe] = h, u
            if vb != t:
                vend[vb], vbeg[ve] = h, t
            for _ in range(queued):
                seen[order.pop()] = False

    extend(0, 1, n, 0b11)
    return out


def _rooted_maps(n: int, bipartite: bool = False,
                 loopless: bool = False) -> tuple[RootedMap, ...]:
    if not 0 <= n <= MAX_MAP_EDGES:
        raise SizeTooLarge(f"edge count must be in 0..{MAX_MAP_EDGES}")
    if n == 0:
        return (EMPTY_MAP,)
    return tuple(RootedMap(n, sigma, 0)
                 for sigma in sorted(_planar_rotations(n, bipartite, loopless)))


@lru_cache(maxsize=None)
def gen_maps(n: int) -> tuple[RootedMap, ...]:
    """Distinct rooted planar maps with n edges, each built once directly in
    canonical labelling, sorted by rotation and checked against the closed
    formula."""
    maps = _rooted_maps(n)
    if len(maps) != maps_formula(n):
        raise AssertionError(
            f"generator yields {len(maps)} maps, formula says {maps_formula(n)}")
    return maps


@lru_cache(maxsize=None)
def gen_bipartite_maps(n: int) -> tuple[RootedMap, ...]:
    """The bipartite maps among gen_maps(n), in the same order, built by
    the same search with the colour rule of _planar_rotations, so that no
    other map is built.  The tests keep the filter of gen_maps(n) by
    map_stats as the oracle of this generator; the counts are compared
    with the closed formula by the checks and the count table."""
    return _rooted_maps(n, bipartite=True)


@lru_cache(maxsize=None)
def gen_loopless_maps(n: int) -> tuple[RootedMap, ...]:
    """The loopless maps among gen_maps(n), in the same order, built by the
    same search with the loop rule of _planar_rotations.  The tests keep
    the filter of gen_maps(n) by map_stats as the oracle of this
    generator."""
    return _rooted_maps(n, loopless=True)


# ---------------------------------------------------------------------------
# Labeled trees

def _compositions(total: int, k: int):
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _children_lists(edges: int, gen):
    """All ordered children tuples using `edges` edges at the root."""
    for k in range(1, edges + 1):
        for comp in _compositions(edges - k, k):
            for combo in product(*(gen(e) for e in comp)):
                yield combo


@lru_cache(maxsize=None)
def _vsubtrees(e: int) -> tuple[LabeledTree, ...]:
    """Labeled trees with e edges where every node u satisfies
    0 <= label(u) <= 1 + sum of child labels."""
    if e == 0:
        return (LabeledTree(0), LabeledTree(1))
    out = []
    for children in _children_lists(e, _vsubtrees):
        top = 1 + sum(c.label for c in children)
        for lab in range(top + 1):
            out.append(LabeledTree(lab, children))
    return tuple(out)


@lru_cache(maxsize=None)
def _dsubtrees(e: int) -> tuple[LabeledTree, ...]:
    """Valid degree trees with e edges (no special root rule)."""
    if e == 0:
        return (LabeledTree(0),)
    out = []
    for children in _children_lists(e, _dsubtrees):
        s = len(children) + sum(c.label for c in children)
        for lab in range(s - children[0].label, s + 1):
            out.append(LabeledTree(lab, children))
    return tuple(out)


def gen_trees(n: int, kind: str) -> list[LabeledTree]:
    """All valid labeled trees with n edges of the requested kind
    (degree, vtree or vtree_positive), in a deterministic order."""
    if not 0 <= n <= MAX_TREE_EDGES:
        raise SizeTooLarge(f"edge count must be in 0..{MAX_TREE_EDGES}")
    if kind == "degree":
        return list(_dsubtrees(n))
    if kind in ("vtree", "vtree_positive"):
        if n == 0:
            out = [LabeledTree(1)]
        else:
            out = [
                LabeledTree(1 + sum(c.label for c in children), children)
                for children in _children_lists(n, _vsubtrees)
            ]
        if kind == "vtree_positive":
            out = [t for t in out if not has_zero(t)]
        return out
    raise InvalidInput(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Count table

def maps_formula(n: int) -> int:
    """2 * 3^n * (2n)! / (n! * (n+2)!)"""
    return 2 * 3**n * comb(2 * n, n) // ((n + 1) * (n + 2))


def bipartite_maps_formula(n: int) -> int | None:
    """3 * 2^(n-1) * (2n)! / (n! * (n+2)!) for n >= 1 (OEIS A000257, always
    an integer); None at n = 0, where the formula does not apply."""
    if n == 0:
        return None
    return 3 * 2 ** (n - 1) * comb(2 * n, n) // ((n + 1) * (n + 2))


class CountRow(NamedTuple):
    family: str
    n: int
    count: int
    formula: int | None
    match: bool | None


def count_table(n_max: int) -> list[CountRow]:
    if not 1 <= n_max <= 7:
        raise SizeTooLarge("n_max must be in 1..7")
    rows: list[CountRow] = []
    for n in range(1, n_max + 1):
        rows.append(CountRow("s1", n, len(gen_skeletons(n, 1)), None, None))
    for n in range(1, n_max + 1):
        rows.append(CountRow("s2", n, len(gen_skeletons(n, 2)), None, None))
    for n in range(1, n_max + 1):
        c = len(gen_skeletons(n, 3))
        f = bipartite_maps_formula(n - 2) if n >= 2 else None
        rows.append(CountRow("s3", n, c, f, f == c if f is not None else None))
    for n in range(2, n_max + 1):
        rows.append(CountRow("rs", n, len(gen_reduced_skeletons(n)), None, None))
    map_max = min(n_max - 1, MAX_MAP_EDGES)
    for n in range(0, map_max + 1):
        f = maps_formula(n)
        rows.append(CountRow("map", n, len(gen_maps(n)), f, len(gen_maps(n)) == f))
    for n in range(0, map_max + 1):
        rows.append(CountRow("map-loopless", n, len(gen_loopless_maps(n)), None, None))
    for n in range(0, map_max + 1):
        c = len(gen_bipartite_maps(n))
        f = bipartite_maps_formula(n)
        rows.append(CountRow("map-bipartite", n, c, f, c == f if f is not None else None))
    for n in range(0, min(n_max - 2, MAX_TREE_EDGES) + 1):
        rows.append(CountRow("dtree", n, len(gen_trees(n, "degree")), None, None))
    for n in range(0, min(n_max - 1, MAX_TREE_EDGES) + 1):
        rows.append(CountRow("vtree", n, len(gen_trees(n, "vtree")), None, None))
    for n in range(0, min(n_max - 1, MAX_TREE_EDGES) + 1):
        rows.append(CountRow("vtree-pos", n, len(gen_trees(n, "vtree_positive")), None, None))
    return rows


def render_count_table(rows: list[CountRow]) -> str:
    lines = ["family\tn\tcount\tformula\tmatch"]
    for r in rows:
        formula = "" if r.formula is None else str(r.formula)
        match = "" if r.match is None else ("yes" if r.match else "no")
        lines.append(f"{r.family}\t{r.n}\t{r.count}\t{formula}\t{match}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Cross-family statistics comparison

class StatReport(NamedTuple):
    tuples_per_side: int
    abstraction_shift: int


def compare_stat_multisets(n: int) -> StatReport:
    """Multiset equality of joint statistics between degree trees with n
    edges and bipartite maps with n edges, and between reduced skeletons
    (via their degree trees) and the same maps; also measures the constant
    shift between leading-abstraction counts and outer half-degrees."""
    if not 1 <= n <= 4:
        raise SizeTooLarge("n must be in 1..4")
    dstats = [degree_tree_stats(t) for t in gen_trees(n, "degree")]
    dtuples = sorted((d.rlabel, d.lnode, d.znode, d.edge) for d in dstats)
    btuples = sorted(
        (st.outdeg, st.white, st.black, st.face)
        for st in (map_stats(m) for m in gen_bipartite_maps(n))
    )
    if dtuples != btuples:
        for a, b in zip(dtuples, btuples):
            if a != b:
                raise AssertionError(f"first mismatching tuple: {a} vs {b}")
        raise AssertionError("side lengths differ")
    reduced = gen_reduced_skeletons(n + 2)
    sk = [skeleton_stats(r) for r in reduced]
    stuples = sorted((s.applv, s.appla, s.uc) for s in sk)
    mtuples = sorted((w, b, f) for (_o, w, b, f) in btuples)
    if stuples != mtuples:
        for a, b in zip(stuples, mtuples):
            if a != b:
                raise AssertionError(f"first mismatching tuple: {a} vs {b}")
        raise AssertionError("side lengths differ")
    chains = sorted(len(s.word) - len(s.word.lstrip(b"\x01"))
                    for s in gen_skeletons(n + 2, 3))
    outdegs = sorted(t[0] for t in btuples)
    shift = chains[0] - outdegs[0]
    if chains != [o + shift for o in outdegs]:
        raise AssertionError("abstraction counts are not a constant shift of outdegs")
    return StatReport(len(dtuples), shift)
