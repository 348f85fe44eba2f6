"""Seeded inputs and text renderers owned by the benchmark.

Everything here is iterative, so that the benchmark can build and print
objects far deeper than the program's own recursive renderers allow. The
program under test only ever receives the text these functions produce.

A v-tree is held as two parallel lists indexed by node id, ``labels`` and
``children``; node 0 is the root and every child has a larger id than its
parent.
"""

from __future__ import annotations

import random


def random_plane_tree(n: int, rng: random.Random) -> list[list[int]]:
    """Uniform plane tree with n edges, by the cycle lemma on a shuffled
    word of n up-steps and n + 1 down-steps."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    low, cut, height = 0, 0, 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    word = (steps[cut:] + steps[:cut])[:-1]
    children: list[list[int]] = [[]]
    stack = [0]
    for step in word:
        if step == 1:
            children.append([])
            children[stack[-1]].append(len(children) - 1)
            stack.append(len(children) - 1)
        else:
            stack.pop()
    return children


def path_length(children: list[list[int]]) -> int:
    """Sum of node depths, which sets the cost of the quadratic kernels."""
    depth = [0] * len(children)
    total = 0
    for v, kids in enumerate(children):
        for c in kids:
            depth[c] = depth[v] + 1
            total += depth[c]
    return total


def vtree_labels(children: list[list[int]], rng: random.Random) -> list[int]:
    """Uniform label at each non-root node u in 0..1 + (sum of child labels);
    the root gets exactly 1 + (sum of child labels)."""
    labels = [0] * len(children)
    for v in range(len(children) - 1, -1, -1):
        top = 1 + sum(labels[c] for c in children[v])
        labels[v] = top if v == 0 else rng.randint(0, top)
    return labels


def random_vtree(n: int, rng: random.Random, draws: int = 9):
    """A random v-tree with n edges of typical depth: of `draws` uniform
    plane trees, the one with the median path length is labelled. Taking
    the median keeps the run time of the quadratic kernels from swinging
    with the seed, since path length is a heavy-tailed quantity."""
    shapes = sorted((random_plane_tree(n, rng) for _ in range(draws)), key=path_length)
    children = shapes[draws // 2]
    return vtree_labels(children, rng), children


def path_vtree(n: int):
    """Root, then a chain of n nodes; every non-root label is 1."""
    children = [[v + 1] for v in range(n)] + [[]]
    return [2] + [1] * n, children


def star_vtree(n: int):
    """Root with n leaf children, each labelled 1."""
    children = [list(range(1, n + 1))] + [[] for _ in range(n)]
    return [n + 1] + [1] * n, children


def render_tree(root, label, children) -> str:
    """``<label>[child,...]`` text, as the lambdamaps CLI reads it, of the
    tree below `root`; `label(v)` and `children(v)` read a node."""
    out: list[str] = []
    stack = [(root, 0)]
    while stack:
        v, i = stack.pop()
        kids = children(v)
        if i == 0:
            out.append(str(label(v)))
            if kids:
                out.append("[")
        if i < len(kids):
            if i:
                out.append(",")
            stack.append((v, i + 1))
            stack.append((kids[i], 0))
        elif kids:
            out.append("]")
    return "".join(out)


def render_vtree(labels: list[int], children: list[list[int]]) -> str:
    return render_tree(0, labels.__getitem__, children.__getitem__)


def render_tree_object(t) -> str:
    """Text of a program-side LabeledTree."""
    return render_tree(t, lambda node: node.label, lambda node: node.children)


def has_zero_label(t) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        if node.label == 0:
            return True
        stack.extend(node.children)
    return False


def render_map_text(n: int, sigma: tuple[int, ...], root: int) -> str:
    """``map n=.. sigma=(..).. root=..`` text: vertex cycles of sigma, each
    started at its least half-edge, in increasing order of that half-edge."""
    if n == 0:
        return "map n=0"
    seen = [False] * (2 * n)
    cycles = []
    for h in range(2 * n):
        if not seen[h]:
            cyc = [h]
            seen[h] = True
            x = sigma[h]
            while x != h:
                cyc.append(x)
                seen[x] = True
                x = sigma[x]
            cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return f"map n={n} sigma={''.join(cycles)} root={root}"


def map_canon(n: int, sigma: tuple[int, ...], root: int) -> tuple[int, ...]:
    """Rotation system relabelled in breadth-first order from the root,
    keeping the pairing h <-> h ^ 1: equal exactly for isomorphic rooted
    maps."""
    if n == 0:
        return ()
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        h = order[i]
        i += 1
        for nxt in (sigma[h], h ^ 1):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    new_id: dict[int, int] = {}
    for h in order:
        if h not in new_id:
            new_id[h] = len(new_id)
            new_id[h ^ 1] = len(new_id)
    out = [0] * (2 * n)
    for h in range(2 * n):
        out[new_id[h]] = new_id[sigma[h]]
    return tuple(out)


def render_skeleton_text(s) -> str:
    """``L`` / ``U(x)`` / ``B(x,y)`` text of a program-side skeleton."""
    out: list[str] = []
    stack: list = [s]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif hasattr(item, "child"):
            out.append("U(")
            stack.extend((")", item.child))
        elif hasattr(item, "left"):
            out.append("B(")
            stack.extend((")", item.right, ",", item.left))
        else:
            out.append("L")
    return "".join(out)
