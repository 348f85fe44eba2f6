"""Rooted planar maps as rotation systems on half-edges.

A map with n edges lives on half-edges 0..2n-1; alpha(h) = h XOR 1 swaps the
two halves of an edge, and sigma gives the next half-edge counterclockwise
around its vertex.  Corners are encoded by half-edges: the corner of h is the
gap swept counterclockwise from h to sigma(h).  The face walk on corner
representatives is h -> alpha(sigma(h)); the outer face is the orbit of the
root half-edge, and that orbit visits the outer corners in counterclockwise
contour order.  The empty map (one vertex, no edges) is a distinguished
value with n = 0.

The one-corner machinery lives here: deleting a root edge and re-rooting at
the corner it stemmed from (pi), drawing a new root edge into a map at one
of outv(M)+1 positions (attach_root_edge), splitting a map at the outer
corners of its root vertex (decompose), and the resulting encodings of maps
by v-trees (rho recursively, rho_direct by a contour exploration).
"""

from __future__ import annotations

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

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    def succ_dict(self) -> dict[int, int]:
        return {h: s for h, s in enumerate(self.sigma)}

    def __eq__(self, other):
        if not isinstance(other, RootedMap):
            return NotImplemented
        return canonical_form(self) == canonical_form(other)

    def __hash__(self):
        return hash(canonical_form(self))

    def __repr__(self):
        return render_map(self)


EMPTY_MAP = RootedMap(0, (), -1)


def _cycles(perm: dict[int, int] | tuple[int, ...], domain) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for start in domain:
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        out.append(tuple(cyc))
    return out


def vertex_cycles(m: RootedMap) -> list[tuple[int, ...]]:
    return _cycles(m.sigma, range(2 * m.n))


def vertex_of_map(m: RootedMap) -> dict[int, int]:
    out = {}
    for i, cyc in enumerate(vertex_cycles(m)):
        for h in cyc:
            out[h] = i
    return out


def face_cycles(m: RootedMap) -> list[tuple[int, ...]]:
    """Orbits of h -> alpha(sigma(h)); one per face, listing corner reps."""
    face = {h: m.sigma[h] ^ 1 for h in range(2 * m.n)}
    return _cycles(face, range(2 * m.n))


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
    seen = {0}
    stack = [0]
    while stack:
        h = stack.pop()
        for nxt in (m.sigma[h], h ^ 1):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != 2 * m.n:
        return "map is not connected"
    v = len(vertex_cycles(m))
    f = len(face_cycles(m))
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
    vm = vertex_of_map(m)
    return len({vm[h] for h in outer_walk(m)})


def outv_except_root(m: RootedMap) -> int:
    if m.n == 0:
        return 0
    vm = vertex_of_map(m)
    vs = {vm[h] for h in outer_walk(m)}
    vs.discard(vm[m.root])
    return len(vs)


def is_one_corner(m: RootedMap) -> bool:
    """The root corner is the only outer corner of the root vertex."""
    if m.n == 0:
        return True
    vm = vertex_of_map(m)
    return sum(1 for h in outer_walk(m) if vm[h] == vm[m.root]) == 1


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
    if not validate_map(m):
        raise InvalidMap(map_defect(m))
    if m.n == 0:
        return MapStats(1, True, 0, 1, True, 0, ())
    vm = vertex_of_map(m)
    nv = len(vertex_cycles(m))
    loopless = all(vm[2 * e] != vm[2 * e + 1] for e in range(m.n))
    color = {vm[m.root]: 0}
    stack = [vm[m.root]]
    adj: list[list[int]] = [[] for _ in range(nv)]
    for e in range(m.n):
        a, b = vm[2 * e], vm[2 * e + 1]
        adj[a].append(b)
        adj[b].append(a)
    bipartite = True
    while stack and bipartite:
        x = stack.pop()
        for y in adj[x]:
            if y not in color:
                color[y] = color[x] ^ 1
                stack.append(y)
            elif color[y] == color[x]:
                bipartite = False
                break
    if not bipartite:
        return MapStats(outv(m), False, None, None, loopless, None, None)
    black = sum(1 for c in color.values() if c == 0)
    white = nv - black
    outer = set(outer_walk(m))
    outdeg = len(outer) // 2
    face: dict[int, int] = {}
    for cyc in face_cycles(m):
        if cyc[0] in outer:
            continue
        k = len(cyc) // 2
        face[k] = face.get(k, 0) + 1
    return MapStats(outv(m), True, white, black, loopless, outdeg,
                    tuple(sorted(face.items())))


# ---------------------------------------------------------------------------
# Canonical form and text format

def _extract(succ: dict[int, int], root: int) -> tuple[RootedMap, set[int]]:
    """Relabel the part of succ reachable from root (via rotation and edge
    flips) in traversal order, keeping the half-edge pairing h <-> h^1.
    The new root gets label 0."""
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        h = order[i]
        i += 1
        for nxt in (succ[h], h ^ 1):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    new_id: dict[int, int] = {}
    ne = 0
    for h in order:
        if h not in new_id:
            new_id[h] = 2 * ne
            new_id[h ^ 1] = 2 * ne + 1
            ne += 1
    sigma = [0] * (2 * ne)
    for h in seen:
        sigma[new_id[h]] = new_id[succ[h]]
    return RootedMap(ne, tuple(sigma), new_id[root]), seen


def canonical_map(m: RootedMap) -> RootedMap:
    """Root-anchored deterministic relabeling; the root becomes 0."""
    if m.n == 0:
        return EMPTY_MAP
    out, _ = _extract(m.succ_dict(), m.root)
    return out


def canonical_form(m: RootedMap) -> bytes:
    """Equal byte strings exactly for root-preserving isomorphic maps."""
    c = canonical_map(m)
    return bytes([c.n]) + bytes(c.sigma)


def render_map(m: RootedMap) -> str:
    if m.n == 0:
        return "map n=0"
    parts = []
    for cyc in vertex_cycles(m):
        start = min(cyc)
        i = cyc.index(start)
        parts.append("(" + " ".join(str(h) for h in cyc[i:] + cyc[:i]) + ")")
    parts.sort(key=lambda s: int(s[1:-1].split()[0]))
    return f"map n={m.n} sigma={''.join(parts)} root={m.root}"


def parse_map(text: str) -> RootedMap:
    toks = text.split()
    if not toks or toks[0] != "map":
        raise InvalidMap("expected 'map n=...'")
    fields = " ".join(toks[1:])
    import re

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
    sigma = list(range(2 * n))
    for cyc in re.findall(r"\(([\d ]*)\)", ms.group(1)):
        vals = [int(x) for x in cyc.split()]
        for i, h in enumerate(vals):
            if not 0 <= h < 2 * n:
                raise InvalidMap(f"half-edge {h} out of range")
            sigma[h] = vals[(i + 1) % len(vals)]
    m = RootedMap(n, tuple(sigma), int(ms.group(2)))
    defect = map_defect(m)
    if defect:
        raise InvalidMap(defect)
    return m


# ---------------------------------------------------------------------------
# One-corner machinery

def pi(u: RootedMap) -> RootedMap:
    """Delete the root edge and re-root at the corner its far end stems
    from; an isolated old root vertex disappears."""
    if u.n == 0:
        raise EmptyMapError("pi needs a nonempty one-corner component")
    if u.n == 1:
        return EMPTY_MAP
    succ = u.succ_dict()
    pred = {v: k for k, v in succ.items()}
    r = u.root
    a = r ^ 1
    cand = pred[a]
    while cand in (r, a):
        if cand == a:
            cand = None
            break
        cand = pred[cand]
    if cand is None:
        raise WouldDisconnect("far end of the root edge carries no other edge")

    def delete(h):
        p, nx = pred[h], succ[h]
        del succ[h], pred[h]
        if nx != h:
            succ[p] = nx
            pred[nx] = p

    delete(r)
    delete(a)
    out, reached = _extract(succ, cand)
    if len(reached) != len(succ):
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
    a, b = 2 * m.n, 2 * m.n + 1
    if m.n == 0:
        if i == 1:
            return RootedMap(1, (0, 1), 1)  # single edge, pendant root
        return RootedMap(1, (1, 0), 1)      # loop at the lone vertex
    succ = m.succ_dict()
    orig_next = succ[m.root]
    if i == k:
        succ[m.root] = a
        succ[a] = orig_next
        succ[b] = b
    else:
        vm = vertex_of_map(m)
        walk = outer_walk(m)
        last_rep: dict[int, int] = {}
        for h in walk:
            last_rep[vm[h]] = h
        pos = {h: j for j, h in enumerate(walk)}
        us = sorted(last_rep, key=lambda v: pos[last_rep[v]])
        target_rep = last_rep[us[k - i - 1]]
        succ[b] = succ[target_rep]
        succ[target_rep] = b
        if target_rep == m.root:
            succ[b] = a
            succ[a] = orig_next
        else:
            succ[m.root] = a
            succ[a] = orig_next
    sigma = [0] * (2 * m.n + 2)
    for h, s in succ.items():
        sigma[h] = s
    return RootedMap(m.n + 1, tuple(sigma), b)


def decompose(m: RootedMap) -> list[RootedMap]:
    """Split at every outer corner of the root vertex, duplicating it;
    the one-corner components come counterclockwise from the root corner."""
    if m.n == 0:
        raise EmptyMapError("cannot decompose the empty map")
    succ = m.succ_dict()
    vm = vertex_of_map(m)
    v_root = vm[m.root]
    cuts = [h for h in outer_walk(m) if vm[h] == v_root]
    comps = []
    total_deg = 0
    prev = m.root
    for o in cuts:
        arc = [succ[prev]]
        while arc[-1] != o:
            arc.append(succ[arc[-1]])
        total_deg += len(arc)
        over = dict(succ)
        for x, y in zip(arc, arc[1:]):
            over[x] = y
        over[o] = arc[0]
        comps.append(_extract(over, o)[0])
        prev = o
    assert total_deg == sum(1 for h in vm if vm[h] == v_root)
    assert sum(c.n for c in comps) == m.n
    return comps


def _glue(comps: list[RootedMap]) -> RootedMap:
    """Merge one-corner components around a shared root vertex,
    counterclockwise, the root corner between the last and the first."""
    succ: dict[int, int] = {}
    arcs = []
    offset = 0
    for c in comps:
        for h, s in enumerate(c.sigma):
            succ[h + offset] = s + offset
        r = c.root + offset
        arc = [succ[r]]
        while arc[-1] != r:
            arc.append(succ[arc[-1]])
        arcs.append(arc)
        offset += 2 * c.n
    for j, arc in enumerate(arcs):
        succ[arc[-1]] = arcs[(j + 1) % len(arcs)][0]
    n = offset // 2
    sigma = [0] * (2 * n)
    for h, s in succ.items():
        sigma[h] = s
    return RootedMap(n, tuple(sigma), arcs[-1][-1])


def rho(m: RootedMap) -> LabeledTree:
    """Recursive one-corner decomposition tree of a map.

    The root is labeled outv(m); each component contributes a child whose
    root label is overridden by the component's outer vertex count without
    the root vertex."""
    if not validate_map(m):
        raise InvalidMap(map_defect(m))
    return _rho_rec(m)


def _rho_rec(m: RootedMap) -> LabeledTree:
    if m.n == 0:
        return LabeledTree(1)
    kids = []
    for u in decompose(m):
        sub = _rho_rec(pi(u))
        kids.append(LabeledTree(outv_except_root(u), sub.children))
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
    if not validate_map(m):
        raise InvalidMap(map_defect(m))
    if m.n == 0:
        return LabeledTree(1)
    succ = list(m.sigma)
    pred = [0] * (2 * m.n)
    for h, s in enumerate(succ):
        pred[s] = h
    vid = [0] * (2 * m.n)
    cycles = vertex_cycles(m)
    for v, cyc in enumerate(cycles):
        for h in cyc:
            vid[h] = v
    nv = len(cycles)
    seen_at = [-1] * nv  # vertex -> last step that counted it
    labels: dict[int, int] = {}
    visited: set[int] = set()
    cur = m.root
    for step in range(2 * m.n):
        if cur >> 1 in visited:
            cur = pred[cur ^ 1]
            continue
        visited.add(cur >> 1)
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
    assert cur == m.root and len(visited) == m.n

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
