"""Rooted planar maps as rotation systems on half-edges.

A map with n edges lives on half-edges 0..2n-1; alpha(h) = h XOR 1 swaps the
two halves of an edge, and sigma gives the next half-edge counterclockwise
around its vertex.  Corners are encoded by half-edges: the corner of h is the
gap swept counterclockwise from h to sigma(h).  The face walk on corner
representatives is h -> alpha(sigma(h)); the outer face is the orbit of the
root half-edge, and that orbit visits the outer corners in counterclockwise
contour order.  The empty map (one vertex, no edges) is a distinguished
value with n = 0.

Every kernel works on this one flat representation: sigma as a list indexed
by half-edge (`succ = list(m.sigma)` where a kernel rewires it), alpha as
h ^ 1, a `pred` list holding the inverse of succ where a kernel walks
backwards, and the orbit ids of `_orbits`: `_orbits(sigma)` numbers the
vertices and `_orbits([s ^ 1 for s in sigma])` the faces, giving each
half-edge the id of its vertex or face.

The one-corner machinery lives here: deleting a root edge and re-rooting at
the corner it stemmed from (pi), drawing a new root edge into a map at one
of outv(M)+1 positions (attach_root_edge), splitting a map at the outer
corners of its root vertex (decompose), and the resulting encodings of maps
by v-trees (rho recursively, rho_direct by a contour exploration).
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .labeled_trees import InvalidInput, LabeledTree, validate_vtree


class InvalidMap(ValueError):
    pass


class WouldDisconnect(ValueError):
    pass


class EmptyMapError(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


class RootedMap:
    """n: edge count; sigma: ccw rotation as a tuple over 0..2n-1;
    root: the root half-edge (-1 for the empty map)."""

    __slots__ = ("n", "sigma", "root")

    def __init__(self, n: int, sigma: tuple[int, ...], root: int):
        self.n = n
        self.sigma = sigma
        self.root = root

    def __eq__(self, other):
        if not isinstance(other, RootedMap):
            return NotImplemented
        return canonical_form(self) == canonical_form(other)

    def __hash__(self):
        return hash(canonical_form(self))

    def __repr__(self):
        return render_map(self)


EMPTY_MAP = RootedMap(0, (), -1)


def _orbits(perm: Sequence[int]) -> tuple[list[int], int]:
    """The orbit id of each point of perm (a permutation of 0..len-1), ids
    numbered in the order of each orbit's smallest point, and the number of
    orbits."""
    ids = [-1] * len(perm)
    count = 0
    for start in range(len(perm)):
        if ids[start] < 0:
            x = start
            while ids[x] < 0:
                ids[x] = count
                x = perm[x]
            count += 1
    return ids, count


def vertex_cycles(m: RootedMap) -> list[tuple[int, ...]]:
    """The cycles of sigma, each from its smallest half-edge, in that order."""
    seen = [False] * (2 * m.n)
    out = []
    for start in range(2 * m.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = m.sigma[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = m.sigma[x]
        out.append(tuple(cyc))
    return out


def map_defect(m: RootedMap) -> str | None:
    if m.n == 0:
        if m.sigma == () and m.root == -1:
            return None
        return "malformed empty map"
    if m.n < 0:
        return "negative edge count"
    if sorted(m.sigma) != list(range(2 * m.n)):
        return "sigma is not a permutation of the half-edges"
    if not (0 <= m.root < 2 * m.n):
        return "root half-edge out of range"
    seen = [False] * (2 * m.n)
    seen[0] = True
    stack = [0]
    while stack:
        h = stack.pop()
        for nxt in (m.sigma[h], h ^ 1):
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    if not all(seen):
        return "map is not connected"
    v = _orbits(m.sigma)[1]
    f = _orbits([s ^ 1 for s in m.sigma])[1]
    if v - m.n + f != 2:
        return f"genus is not zero (V-E+F = {v - m.n + f})"
    return None


def validate_map(m: RootedMap) -> bool:
    return map_defect(m) is None


def outer_walk(m: RootedMap) -> list[int]:
    """Outer-face corner reps in ccw contour order, ending at the root."""
    if m.n == 0:
        raise EmptyMapError("the empty map has no half-edges")
    walk = []
    h = m.sigma[m.root] ^ 1
    while h != m.root:
        walk.append(h)
        h = m.sigma[h] ^ 1
    walk.append(m.root)
    return walk


def outv(m: RootedMap) -> int:
    """Distinct vertices on the outer face."""
    if m.n == 0:
        return 1
    vid = _orbits(m.sigma)[0]
    return len({vid[h] for h in outer_walk(m)})


def _root_corners(m: RootedMap) -> list[int]:
    """The outer corners of the root vertex in ccw contour order, ending at
    the root corner."""
    vid = _orbits(m.sigma)[0]
    return [h for h in outer_walk(m) if vid[h] == vid[m.root]]


def _last_outer_corners(m: RootedMap) -> list[int]:
    """The last outer corner of each outer vertex in ccw contour order; the
    root corner ends the walk, so the root vertex comes last."""
    vid, nv = _orbits(m.sigma)
    met = [False] * nv
    last = []
    for h in reversed(outer_walk(m)):
        if not met[vid[h]]:
            met[vid[h]] = True
            last.append(h)
    last.reverse()
    return last


def is_one_corner(m: RootedMap) -> bool:
    """The root corner is the only outer corner of the root vertex."""
    return m.n == 0 or len(_root_corners(m)) == 1


@dataclass(frozen=True)
class MapStats:
    outv: int
    bipartite: bool
    white: int | None
    black: int | None
    loopless: bool
    outdeg: int | None
    face: tuple[tuple[int, int], ...] | None


def map_stats(m: RootedMap) -> MapStats:
    if defect := map_defect(m):
        raise InvalidMap(defect)
    if m.n == 0:
        return MapStats(1, True, 0, 1, True, 0, ())
    vid, nv = _orbits(m.sigma)
    loopless = all(vid[h] != vid[h + 1] for h in range(0, 2 * m.n, 2))
    n_outer = len({vid[h] for h in outer_walk(m)})
    # 2-colour the vertices through their half-edges: sigma keeps the colour
    # and alpha flips it; the root vertex is black (colour 0).
    side = [-1] * (2 * m.n)
    side[m.root] = 0
    stack = [m.root]
    while stack:
        h = stack.pop()
        for nxt, c in ((m.sigma[h], side[h]), (h ^ 1, side[h] ^ 1)):
            if side[nxt] < 0:
                side[nxt] = c
                stack.append(nxt)
            elif side[nxt] != c:
                return MapStats(n_outer, False, None, None, loopless, None, None)
    black = len({vid[h] for h in range(2 * m.n) if side[h] == 0})
    fid, nf = _orbits([s ^ 1 for s in m.sigma])
    size = Counter(fid)
    outer = fid[m.root]
    face = Counter(size[f] // 2 for f in range(nf) if f != outer)
    return MapStats(n_outer, True, nv - black, black, loopless, size[outer] // 2,
                    tuple(sorted(face.items())))


# ---------------------------------------------------------------------------
# Canonical form and text format

def _extract(succ: Sequence[int], roots: list[int]) -> list[RootedMap]:
    """For each root, relabel the part of the rotation succ reachable from
    it via rotation and edge flips, in breadth-first order (succ[h], then
    h ^ 1), keeping the pairing h <-> h ^ 1; the root gets label 0.  The
    parts must be disjoint, so one pair of scratch lists serves them all."""
    queued = [False] * len(succ)
    new = [-1] * len(succ)
    out = []
    for root in roots:
        queued[root] = True
        new[root], new[root ^ 1] = 0, 1
        order = [root]
        ne = 1
        for h in order:
            for nxt in (succ[h], h ^ 1):
                if not queued[nxt]:
                    queued[nxt] = True
                    order.append(nxt)
                    if new[nxt] < 0:
                        new[nxt], new[nxt ^ 1] = 2 * ne, 2 * ne + 1
                        ne += 1
        sigma = [0] * (2 * ne)
        for h in order:
            sigma[new[h]] = new[succ[h]]
        out.append(RootedMap(ne, tuple(sigma), 0))
    return out


def canonical_map(m: RootedMap) -> RootedMap:
    """Root-anchored deterministic relabeling; the root becomes 0."""
    if m.n == 0:
        return EMPTY_MAP
    return _extract(m.sigma, [m.root])[0]


def canonical_form(m: RootedMap) -> tuple[int, ...]:
    """Equal tuples exactly for root-preserving isomorphic maps: the edge
    count, then the rotation in canonical labelling."""
    c = canonical_map(m)
    return (c.n, *c.sigma)


def render_map(m: RootedMap) -> str:
    if m.n == 0:
        return "map n=0"
    cycles = "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in vertex_cycles(m))
    return f"map n={m.n} sigma={cycles} root={m.root}"


def parse_map(text: str) -> RootedMap:
    toks = text.split()
    if not toks or toks[0] != "map":
        raise InvalidMap("expected 'map n=...'")
    fields = " ".join(toks[1:])
    mn = re.match(r"n=(\d+)\s*(.*)$", fields)
    if not mn:
        raise InvalidMap("missing n=")
    n = int(mn.group(1))
    rest = mn.group(2)
    if n == 0:
        return EMPTY_MAP
    ms = re.match(r"sigma=((?:\([\d ]*\))+)\s+root=(\d+)$", rest)
    if not ms:
        raise InvalidMap("missing sigma=...(cycles) root=...")
    cycles = [[int(x) for x in cyc.split()] for cyc in re.findall(r"\(([\d ]*)\)", ms.group(1))]
    # Omitted half-edges are fixed points.  In a connected map with n >= 2
    # edges no edge has both halves fixed, so a valid text lists at least
    # n - 1 half-edges; checking that first keeps a huge n from allocating.
    listed = sum(len(vals) for vals in cycles)
    if listed < n - 1:
        raise InvalidMap(f"n={n} needs at least {n - 1} half-edges in sigma, got {listed}")
    sigma = list(range(2 * n))
    for vals in cycles:
        for i, h in enumerate(vals):
            if not 0 <= h < 2 * n:
                raise InvalidMap(f"half-edge {h} out of range")
            sigma[h] = vals[(i + 1) % len(vals)]
    m = RootedMap(n, tuple(sigma), int(ms.group(2)))
    if defect := map_defect(m):
        raise InvalidMap(defect)
    return m


# ---------------------------------------------------------------------------
# One-corner machinery

def _inverse(succ: list[int]) -> list[int]:
    pred = [0] * len(succ)
    for h, s in enumerate(succ):
        pred[s] = h
    return pred


def pi(u: RootedMap) -> RootedMap:
    """Delete the root edge and re-root at the corner its far end stems
    from; an isolated old root vertex disappears."""
    if u.n == 0:
        raise EmptyMapError("pi needs a nonempty one-corner component")
    if u.n == 1:
        return EMPTY_MAP
    succ = list(u.sigma)
    pred = _inverse(succ)
    r = u.root
    a = r ^ 1
    cand = pred[a]
    if cand == r:  # a loop: look past its other half
        cand = pred[r]
    if cand == a:
        raise WouldDisconnect("far end of the root edge carries no other edge")
    for h in (r, a):
        p, nx = pred[h], succ[h]
        succ[p], pred[nx] = nx, p
    out = _extract(succ, [cand])[0]
    if out.n != u.n - 1:
        raise WouldDisconnect("deleting the root edge disconnects the map")
    return out


def attach_root_edge(m: RootedMap, i: int) -> RootedMap:
    """The unique one-corner preimage of m under pi with i outer vertices
    besides the root (0 <= i <= outv(m)).

    i = outv(m) attaches a new pendant root vertex into the root corner;
    smaller i draws the new edge through the outer face to the last outer
    corner of the (outv(m)-i)-th outer vertex, counterclockwise from the
    root corner; i = 0 targets the root vertex itself, yielding a loop
    that encloses the map.
    """
    k = outv(m)
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"i must be in 0..{k}, got {i}")
    if m.n == 0:
        if i == 1:
            return RootedMap(1, (0, 1), 1)  # single edge, pendant root
        return RootedMap(1, (1, 0), 1)      # loop at the lone vertex
    a, b = 2 * m.n, 2 * m.n + 1
    succ = list(m.sigma) + [m.sigma[m.root], b]
    if i == k:
        succ[m.root] = a
    elif i == 0:
        succ[m.root], succ[b] = b, a
    else:
        t = _last_outer_corners(m)[k - i - 1]
        succ[b], succ[t], succ[m.root] = succ[t], b, a
    return RootedMap(m.n + 1, tuple(succ), b)


def decompose(m: RootedMap) -> list[RootedMap]:
    """Split at every outer corner of the root vertex, duplicating it;
    the one-corner components come counterclockwise from the root corner."""
    if m.n == 0:
        raise EmptyMapError("cannot decompose the empty map")
    cuts = _root_corners(m)
    # Each cut o closes the arc of the root rotation that runs from after
    # the previous cut up to o into a vertex of its own.  The arcs are
    # disjoint, so one list holds every closed arc at once.
    succ = list(m.sigma)
    for prev, o in zip([m.root] + cuts, cuts):
        succ[o] = m.sigma[prev]
    comps = _extract(succ, cuts)
    assert sum(c.n for c in comps) == m.n
    return comps


def _glue(comps: list[RootedMap]) -> RootedMap:
    """Merge one-corner components around a shared root vertex,
    counterclockwise, the root corner between the last and the first."""
    sigma: list[int] = []
    roots = []
    for c in comps:
        offset = len(sigma)
        sigma.extend(s + offset for s in c.sigma)
        roots.append(c.root + offset)
    firsts = [sigma[r] for r in roots]
    for j, r in enumerate(roots):
        sigma[r] = firsts[(j + 1) % len(roots)]
    return RootedMap(len(sigma) // 2, tuple(sigma), roots[-1])


def rho(m: RootedMap) -> LabeledTree:
    """Recursive one-corner decomposition tree of a map.

    The root is labeled outv(m); each component contributes a child whose
    root label is overridden by the component's outer vertex count without
    the root vertex."""
    if defect := map_defect(m):
        raise InvalidMap(defect)
    return _rho_rec(m)


def _rho_rec(m: RootedMap) -> LabeledTree:
    if m.n == 0:
        return LabeledTree(1)
    kids = []
    for u in decompose(m):
        sub = _rho_rec(pi(u))
        kids.append(LabeledTree(outv(u) - 1, sub.children))
    return LabeledTree(outv(m), tuple(kids))


def rho_inv(v: LabeledTree) -> RootedMap:
    """Inverse of rho: rebuild components by attach_root_edge and glue them."""
    if not validate_vtree(v).valid:
        raise InvalidInput("not a valid v-tree")
    return _rho_inv_rec(v)


def _rho_inv_rec(v: LabeledTree) -> RootedMap:
    if not v.children:
        return EMPTY_MAP
    comps = []
    for child in v.children:
        sub = LabeledTree(1 + sum(g.label for g in child.children), child.children)
        comps.append(attach_root_edge(_rho_inv_rec(sub), child.label))
    return _glue(comps)


def rho_direct(m: RootedMap) -> LabeledTree:
    """Direct construction of rho by a clockwise contour exploration.

    Walking clockwise from the root corner, the first traversal of an edge
    h toward w labels w with the outer vertex count (root excluded) of the
    one-corner part between h and the next clockwise outer corner g of the
    current vertex.  Both come from one backward walk along the face of h
    (x -> sigma^-1(alpha(x))), started next to h: g is the first half-edge
    met at the current vertex, the half-edges passed before it are the
    part's outer corners besides h, and the label is the number of distinct
    vertices among them.  When that part extends past the far side of the
    edge (g is not the clockwise neighbour of h), the half-edges between g
    and h are detached onto a new copy of the current vertex, so each inner
    face is eventually opened up and the map becomes a tree carrying the
    v-tree labels.  Each step costs the length of its walk and of its
    detached arc; no copy of the map is made.
    """
    if defect := map_defect(m):
        raise InvalidMap(defect)
    if m.n == 0:
        return LabeledTree(1)
    succ = list(m.sigma)
    pred = _inverse(succ)
    vid, nv = _orbits(succ)
    seen_at = [-1] * nv  # vertex -> last step that counted it
    labels = [0] * (2 * m.n)  # far half of a first-traversed edge -> label of its end
    visited = [False] * m.n  # edge -> already traversed
    cur = m.root
    for step in range(2 * m.n):
        if visited[cur >> 1]:
            cur = pred[cur ^ 1]
            continue
        visited[cur >> 1] = True
        h = cur
        v = vid[h]
        value = 0
        g = pred[h ^ 1]
        while vid[g] != v:
            if seen_at[vid[g]] != step:
                seen_at[vid[g]] = step
                value += 1
            g = pred[g ^ 1]
        if pred[h] != g:
            arcp = [succ[g]]
            while succ[arcp[-1]] != h:
                arcp.append(succ[arcp[-1]])
            succ[g] = h
            pred[h] = g
            succ[arcp[-1]] = arcp[0]
            pred[arcp[0]] = arcp[-1]
            for x in arcp:
                vid[x] = nv
            seen_at.append(-1)
            nv += 1
        labels[h ^ 1] = value
        cur = pred[h ^ 1]
    assert cur == m.root and all(visited)

    def read(q: int) -> tuple[LabeledTree, ...]:
        kids = []
        x = succ[q]
        while x != q:
            kids.append(LabeledTree(labels[x ^ 1], read(x ^ 1)))
            x = succ[x]
        return tuple(kids)

    kids = []
    x = succ[m.root]
    while True:
        kids.append(LabeledTree(labels[x ^ 1], read(x ^ 1)))
        if x == m.root:
            break
        x = succ[x]
    return LabeledTree(outv(m), tuple(kids))
