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
half-edge the id of its vertex or face.  rho and rho_direct need both the
vertex ids and pred, and take them from one walk of the vertices
(`_vertices`), which sets each pred entry as it steps along succ.

The one-corner machinery lives here as three steps that rewire a rotation
list in place: cutting the root vertex at its outer corners into one-corner
components (`_cut`, which glues them back when run on their roots in
reverse), deleting the root edge and re-rooting at the corner its far end
stems from (`_delete_root_edge`), and drawing a new root edge to a chosen
corner (`_attach`).  decompose, pi and attach_root_edge run one step on a
copy of the map and relabel the result; rho (cut and delete) and rho_inv
(glue and attach) run their whole recursion on one list, with no copy,
relabelling or orbit count per level.  rho_direct computes rho's tree by a
contour exploration instead.

A RootedMap is read-only through its properties.  Each kernel that takes
a map from outside (parse_map, rho, rho_direct, map_stats) checks it with
map_defect, and the first successful check marks the map, so each map
object is validated once however many kernels read it; an invalid map is
rejected on every call.
map_defect counts the vertices in its connectivity search and the faces in
one more pass.  rho_inv checks each v-tree label in the pass that reads it.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

from .labeled_trees import LabeledTree
from .lambda_core import InvalidInput


class RootedMap:
    """A map read-only through its properties n (the edge count), sigma
    (the ccw rotation as a tuple over 0..2n-1) and root (the root
    half-edge, -1 for the empty map).  _valid marks a map that a kernel has
    found valid."""

    __slots__ = ("_n", "_sigma", "_root", "_valid")

    def __init__(self, n: int, sigma: tuple[int, ...], root: int):
        self._n = n
        self._sigma = sigma
        self._root = root
        self._valid = False

    @property
    def n(self) -> int:
        return self._n

    @property
    def sigma(self) -> tuple[int, ...]:
        return self._sigma

    @property
    def root(self) -> int:
        return self._root

    def __reduce__(self):
        return RootedMap, (self.n, self.sigma, self.root)

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


def _vertices(succ: list[int]) -> tuple[list[int], int, list[int]]:
    """The vertex ids of succ as _orbits gives them, their number, and the
    inverse of succ, from one walk of its cycles."""
    vid = [-1] * len(succ)
    pred = [0] * len(succ)
    count = 0
    for start in range(len(succ)):
        if vid[start] < 0:
            x = start
            while vid[x] < 0:
                vid[x] = count
                y = succ[x]
                pred[y] = x
                x = y
            count += 1
    return vid, count, pred


def vertex_cycles(m: RootedMap) -> list[tuple[int, ...]]:
    """The cycles of sigma, each from its smallest half-edge, in that order."""
    sigma = m.sigma
    seen = [False] * (2 * m.n)
    out = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = sigma[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = sigma[x]
        out.append(tuple(cyc))
    return out


def map_defect(m: RootedMap) -> str | None:
    n, sigma, root = m.n, m.sigma, m.root
    if n == 0:
        if sigma == () and root == -1:
            return None
        return "malformed empty map"
    if n < 0:
        return "negative edge count"
    if sorted(sigma) != list(range(2 * n)):
        return "sigma is not a permutation of the half-edges"
    if not (0 <= root < 2 * n):
        return "root half-edge out of range"
    # A search from half-edge 0 walks each vertex it reaches once and
    # queues the partners of its half-edges: connected when all 2n are.
    mark = bytearray(2 * n)
    v = 0
    todo = [0]
    for h in todo:
        if not mark[h]:
            v += 1
            while not mark[h]:
                mark[h] = 1
                todo.append(h ^ 1)
                h = sigma[h]
    if len(todo) != 2 * n + 1:
        return "map is not connected"
    f = 0  # faces, the orbits of h -> sigma(h) ^ 1, each unmarked as walked
    for start in range(2 * n):
        if mark[start]:
            f += 1
            h = start
            while mark[h]:
                mark[h] = 0
                h = sigma[h] ^ 1
    if v - n + f != 2:
        return f"genus is not zero (V-E+F = {v - n + f})"
    return None


def validate_map(m: RootedMap) -> bool:
    return map_defect(m) is None


def _check(m: RootedMap) -> None:
    """Raise InvalidInput unless m is valid; mark m once it is found valid."""
    if not m._valid:
        if defect := map_defect(m):
            raise InvalidInput(defect)
        m._valid = True


def outer_walk(m: RootedMap) -> list[int]:
    """Outer-face corner reps in ccw contour order, ending at the root."""
    if m.n == 0:
        raise InvalidInput("the empty map has no half-edges")
    sigma, root = m.sigma, m.root
    walk = []
    h = sigma[root] ^ 1
    while h != root:
        walk.append(h)
        h = sigma[h] ^ 1
    walk.append(root)
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


class MapStats(NamedTuple):
    outv: int
    bipartite: bool
    white: int | None
    black: int | None
    loopless: bool
    outdeg: int | None
    face: tuple[tuple[int, int], ...] | None


def map_stats(m: RootedMap) -> MapStats:
    _check(m)
    if m.n == 0:
        return MapStats(1, True, 0, 1, True, 0, ())
    sigma, root = m.sigma, m.root
    vid, nv = _orbits(sigma)
    loopless = all(vid[h] != vid[h + 1] for h in range(0, 2 * m.n, 2))
    walk = outer_walk(m)
    n_outer = len({vid[h] for h in walk})
    # 2-colour the vertices: walk the half-edges of each coloured vertex
    # and give each partner's vertex the other colour; the root vertex is
    # black (colour 0).
    colour = [-1] * nv
    colour[vid[root]] = 0
    todo = [root]
    for start in todo:
        c = colour[vid[start]] ^ 1
        h = start
        while True:
            w = vid[h ^ 1]
            if colour[w] < 0:
                colour[w] = c
                todo.append(h ^ 1)
            elif colour[w] != c:
                return MapStats(n_outer, False, None, None, loopless, None, None)
            h = sigma[h]
            if h == start:
                break
    black = colour.count(0)
    # the inner faces, the orbits of h -> sigma(h) ^ 1 off the outer walk
    seen = bytearray(len(sigma))
    for h in walk:
        seen[h] = 1
    face: dict[int, int] = {}
    for start in range(len(sigma)):
        size = 0
        h = start
        while not seen[h]:
            seen[h] = 1
            size += 1
            h = sigma[h] ^ 1
        if size:
            face[size // 2] = face.get(size // 2, 0) + 1
    return MapStats(n_outer, True, nv - black, black, loopless, len(walk) // 2,
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


def _numbers(field: str, digits: list[str]) -> list[int]:
    """The numbers written in digits.  int() refuses a text of more digits
    than sys.get_int_max_str_digits() with a plain ValueError, which is an
    InvalidInput of the map text's field here."""
    try:
        return list(map(int, digits))
    except ValueError:
        raise InvalidInput(f"a number in {field} has more digits than int() reads") from None


def parse_map(text: str) -> RootedMap:
    toks = text.split()
    if not toks or toks[0] != "map":
        raise InvalidInput("expected 'map n=...'")
    fields = " ".join(toks[1:])
    mn = re.match(r"n=([0-9]+)\s*(.*)$", fields)
    if not mn:
        raise InvalidInput("missing n=")
    n, = _numbers("n=", [mn.group(1)])
    rest = mn.group(2)
    if n == 0:
        if rest:
            raise InvalidInput(f"unexpected text after n=0: {rest[:40]!r}")
        return EMPTY_MAP
    ms = re.match(r"sigma=((?:\([0-9 ]*\))+)\s+root=([0-9]+)$", rest)
    if not ms:
        raise InvalidInput("missing sigma=...(cycles) root=...")
    cycles = [_numbers("sigma=", cyc.split()) for cyc in re.findall(r"\(([0-9 ]*)\)", ms.group(1))]
    # Omitted half-edges are fixed points.  In a connected map with n >= 2
    # edges no edge has both halves fixed, so a valid text lists at least
    # n - 1 half-edges; checking that first keeps a huge n from allocating.
    listed = sum(len(vals) for vals in cycles)
    if listed < n - 1:
        raise InvalidInput(f"n={n} needs at least {n - 1} half-edges in sigma, got {listed}")
    sigma = list(range(2 * n))
    listed_at = bytearray(2 * n)
    for vals in cycles:
        for h in vals:  # [0-9]+ reads no negative number
            if h >= 2 * n:
                raise InvalidInput(f"half-edge {h} out of range")
            if listed_at[h]:
                raise InvalidInput(f"half-edge {h} listed twice in sigma")
            listed_at[h] = 1
        for h, s in zip(vals, vals[1:] + vals[:1]):
            sigma[h] = s
    root, = _numbers("root=", [ms.group(2)])
    m = RootedMap(n, tuple(sigma), root)
    _check(m)
    return m


# ---------------------------------------------------------------------------
# One-corner machinery

def _inverse(succ: list[int]) -> list[int]:
    pred = [0] * len(succ)
    for h, s in enumerate(succ):
        pred[s] = h
    return pred


def _cut(succ: list[int], hs: list[int]) -> None:
    """Give each hs[j] the successor hs[j - 1] had.  On the outer corners of
    one vertex in contour order, ending at the root, this cuts the vertex
    into one vertex per arc of its rotation, the arc ending at each corner;
    on the roots of components in reverse order it glues their root
    vertices into one, the root corner between the last and the first."""
    firsts = [succ[h] for h in hs]
    for j, h in enumerate(hs):
        succ[h] = firsts[j - 1]


def _delete_root_edge(succ: list[int], pred: list[int], r: int) -> int:
    """Unlink the edge r, r ^ 1 from the rotation and return the corner its
    far end stems from: the half-edge before r ^ 1, looking past r on a
    loop.  That is r ^ 1 itself when the far end carries no other edge."""
    a = r ^ 1
    stem = pred[a]
    if stem == r:
        stem = pred[r]
    for h in (r, a):
        p, nx = pred[h], succ[h]
        succ[p], pred[nx] = nx, p
    return stem


def _attach(succ: list[int], r: int, a: int, t: int) -> None:
    """Draw the edge a, a ^ 1 with a right after r in its rotation and
    a ^ 1 right after t.  r == a starts a vertex for a, t == a ^ 1 one for
    a ^ 1; succ must already hold entries at a and a ^ 1."""
    succ[a], succ[r] = succ[r], a
    succ[a ^ 1], succ[t] = succ[t], a ^ 1


def pi(u: RootedMap) -> RootedMap:
    """Delete the root edge and re-root at the corner its far end stems
    from; an isolated old root vertex disappears."""
    if u.n == 0:
        raise InvalidInput("pi needs a nonempty one-corner component")
    if u.n == 1:
        return EMPTY_MAP
    succ = list(u.sigma)
    stem = _delete_root_edge(succ, _inverse(succ), u.root)
    if stem == u.root ^ 1:
        raise InvalidInput("far end of the root edge carries no other edge")
    out = _extract(succ, [stem])[0]
    if out.n != u.n - 1:
        raise InvalidInput("deleting the root edge disconnects the map")
    return out


def attach_root_edge(m: RootedMap, i: int) -> RootedMap:
    """The unique one-corner preimage of m under pi with i outer vertices
    besides the root (0 <= i <= outv(m)); the new edge is 2n, 2n + 1 and
    the new root 2n + 1.

    i = outv(m) attaches a new pendant root vertex into the root corner;
    smaller i draws the new edge through the outer face to the last outer
    corner of the (outv(m)-i)-th outer vertex, counterclockwise from the
    root corner; i = 0 targets the root vertex itself, yielding a loop
    that encloses the map.
    """
    k = outv(m)
    if not 0 <= i <= k:
        raise InvalidInput(f"i must be in 0..{k}, got {i}")
    a = 2 * m.n
    succ = list(m.sigma) + [a, a + 1]
    r = m.root if m.n else a
    if i == k:
        t = a + 1
    elif i == 0:
        t = r
    else:
        t = _last_outer_corners(m)[k - i - 1]
    _attach(succ, r, a, t)
    return RootedMap(m.n + 1, tuple(succ), a + 1)


def decompose(m: RootedMap) -> list[RootedMap]:
    """Split at every outer corner of the root vertex, duplicating it;
    the one-corner components come counterclockwise from the root corner."""
    if m.n == 0:
        raise InvalidInput("cannot decompose the empty map")
    cuts = _root_corners(m)
    succ = list(m.sigma)
    _cut(succ, cuts)
    comps = _extract(succ, cuts)
    assert sum(c.n for c in comps) == m.n
    return comps


def rho(m: RootedMap) -> LabeledTree:
    """Recursive one-corner decomposition tree of a map.

    The root is labeled outv(m); each component u of decompose(m)
    contributes a child labeled outv(u) - 1 whose children are those of
    rho(pi(u)).  One outer walk of a map gives its cuts and its components'
    labels, since it passes through the components in turn, each part
    ending at its root corner.  A cut arc keeps its vertex id: each arc
    lands in a different component, and an id need only tell apart the
    vertices of one.  Nodes are numbered as found and the tree is built
    bottom-up, without recursion.
    """
    _check(m)
    n = m.n
    if n == 0:
        return LabeledTree(1)
    succ = list(m.sigma)
    vid, nv, pred = _vertices(succ)
    seen_at = [-1] * nv  # vertex -> the last node whose walk counted it
    labels = [0]
    lo = [0] * (n + 1)  # node -> its children's node numbers, lo..hi-1
    hi = [0] * (n + 1)
    todo = [(m.root, 0)]  # (root of a map still to decompose, its node)
    while todo:
        r, node = todo.pop()
        v = vid[r]
        cuts = []
        lo[node] = len(labels)
        count = 0
        h = succ[r] ^ 1
        while True:
            if vid[h] == v:
                cuts.append(h)
                labels.append(count)
                if h == r:
                    break
                count = 0
            elif seen_at[vid[h]] != node:
                seen_at[vid[h]] = node
                count += 1
            h = succ[h] ^ 1
        hi[node] = len(labels)
        first = succ[cuts[-1]]
        for o in cuts:  # _cut(succ, cuts), keeping pred the inverse of succ
            first, succ[o] = succ[o], first
            pred[succ[o]] = o
        for child, o in enumerate(cuts, lo[node]):
            stem = _delete_root_edge(succ, pred, o)
            if stem != o ^ 1:
                todo.append((stem, child))
    assert len(labels) == n + 1  # one root edge deleted per edge of m
    labels[0] = 1 + sum(labels[lo[0]:hi[0]])
    built: list = [None] * len(labels)
    for x in range(len(labels) - 1, -1, -1):
        built[x] = LabeledTree(labels[x], tuple(built[lo[x]:hi[x]]))
    return built[0]


def rho_inv(v: LabeledTree) -> RootedMap:
    """Inverse of rho.

    Each non-root node u, in post-order, becomes the component
    attach_root_edge(M, label(u)), M being the glue of its children's
    components; the root glues its children's components.  Edges get the
    numbers the recursive construction gives them: post-order.  With L the
    last outer corners of M's outer vertices in contour order (M's root
    last) and k = len(L), the attach draws its edge to t = L[k-i-1] and the
    component's list is L[k-i:] plus its new root; a glue's list joins its
    components' lists without their roots, then adds the last root.  The
    lists are links in one array `nxt`, so an attach walks only the prefix
    it drops, and the pass is linear.  Each non-root label is checked
    against 0..k where it is read.
    """
    if v.label != 1 + sum(c.label for c in v.children):
        raise InvalidInput("not a valid v-tree")
    if not v.children:
        return EMPTY_MAP
    succ: list[int] = []
    nxt: list[int] = []
    # per component built: root, head and tail of its list without the
    # root, and its label, the length of that list
    done: list[tuple[int, int, int, int]] = []
    order = []  # pre-order with the children taken last first
    todo = [v]
    while todo:
        node = todo.pop()
        order.append(node)
        todo += node.children
    for node in reversed(order):  # post-order, the root last
        a = len(succ)
        split = len(done) - len(node.children)
        comps = done[split:]
        del done[split:]
        if comps:
            _cut(succ, [c[0] for c in reversed(comps)])
            r = comps[-1][0]
        else:
            r = a  # M is empty: its lone vertex becomes the vertex of a
        if node is v:
            return RootedMap(len(succ) // 2, tuple(succ), r)
        head, k = r, 1
        for _, first, last, label in reversed(comps):
            if label:
                nxt[last] = head
                head = first
                k += label
        i = node.label
        if not 0 <= i <= k:
            raise InvalidInput("not a valid v-tree")
        succ += [a, a + 1]
        nxt += [-1, -1]
        if i == k:
            t = a + 1
        else:
            t = head
            for _ in range(k - i - 1):
                t = nxt[t]
            head = nxt[t]
        _attach(succ, r, a, t)
        done.append((a + 1, head, r, i))


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
    edge (g is not the clockwise neighbour of h), the arc of half-edges
    between g and h is detached onto a new copy of the current vertex, so
    each inner face is eventually opened up and the map becomes a tree
    carrying the v-tree labels.  A detach relinks four pointers; of the two
    vertices it leaves, the smaller gets a fresh id, found by walking both
    in lockstep, so each half-edge changes id only when its vertex at least
    halves and all relabelling costs O(n log n).  No copy of the map is
    made.  The root's label, outv(m), is one more than the sum of its
    children's, as in every v-tree, so the outer face is not walked apart.
    """
    _check(m)
    n, root = m.n, m.root
    if n == 0:
        return LabeledTree(1)
    succ = list(m.sigma)
    vid, nv, pred = _vertices(succ)
    seen_at = [-1] * nv  # vertex -> last step that counted it
    labels = [0] * (2 * n)  # far half of a first-traversed edge -> label of its end
    visited = [False] * n  # edge -> already traversed
    cur = root
    for step in range(2 * n):
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
            first, last = succ[g], pred[h]
            succ[g], pred[h] = h, g
            succ[last], pred[first] = first, last
            x, y = succ[h], succ[first]
            while x != h and y != first:
                x, y = succ[x], succ[y]
            x = small = h if x == h else first
            while True:
                vid[x] = nv
                x = succ[x]
                if x == small:
                    break
            seen_at.append(-1)
            nv += 1
        labels[h ^ 1] = value
        cur = pred[h ^ 1]
    assert cur == root and all(visited)
    children = _read_tree(succ, labels, root)
    return LabeledTree(1 + sum(c.label for c in children), children)


def _read_tree(succ: list[int], labels: list[int], root: int) -> tuple[LabeledTree, ...]:
    """The subtrees below the root vertex once rho_direct has opened the
    map into a tree, in rotation order from the root's successor.

    One walk around the tree's only face, h -> sigma(alpha(h)), passes
    each edge down toward the leaves and later back up; a node is opened
    on the way down and built from the subtrees gathered below it on the
    way up, from an explicit stack.  The node below an edge carries the
    label that rho_direct keeps at the edge's far half.
    """
    down = bytearray(len(succ) // 2)
    stack: list[list[LabeledTree]] = [[]]
    h = start = succ[root]
    while True:
        q = h ^ 1
        if down[h >> 1]:
            kids = stack.pop()
            stack[-1].append(LabeledTree(labels[h], tuple(kids)))
            h = succ[q]
        elif succ[q] == q:  # down to a leaf and straight back up
            stack[-1].append(LabeledTree(labels[q]))
            h = succ[h]
        else:
            down[h >> 1] = 1
            stack.append([])
            h = succ[q]
        if h == start:
            return tuple(stack[0])
