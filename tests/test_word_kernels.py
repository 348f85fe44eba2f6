"""The skeleton kernels read the pre-order arity word.  The object-walking
kernels they replaced are kept here as their references, on the tree model
of ``reference_kernels``, and each word kernel must equal its reference on
every skeleton up to size 7: the matcher, the structural tests, psi and
phi, reduce_skeleton, unreduce and skeleton_stats.  The generator, which
builds words, must give the words of the tree generator it replaced
(``reference_kernels.tree_gen_lin``) in the same order at every level.  The
edge-connectivity oracle, which reads the word, must likewise equal the
graph oracles it replaced (``reference_kernels.label_connectivity_class``
and ``bridge_connectivity_class``) on each skeleton's diagram as a
multigraph, and ``alpha_equal``, which compares listings, the tree walk
(``reference_kernels.tree_alpha_equal``) on each skeleton's term against
renamings of it.  Each skeleton's term is the listing of its reference
term tree, and makes the round trip that the benchmark's sweep times:
``parse_term(render_term(t))`` is t, alpha-equal to it, and has the
skeleton it came from.

Run as a script (``python tests/test_word_kernels.py 8``) to make the same
comparisons, the generators' included, over every skeleton up to another
size, and the comparisons outside the family over every unary-binary tree
up to 5 leaves.
"""

import sys

from lambdamaps.bijections import (SkeletonStats, _unspine, phi, phi_inv, psi, psi_inv,
                                   skeleton_stats)
from lambdamaps.connectivity import (check_family, check_reduced, edge_connectivity_class,
                                     is_three_connected_skeleton, reduce_skeleton, unreduce)
from lambdamaps.enumeration import gen_reduced_skeletons, gen_skeletons
from lambdamaps.labeled_trees import LabeledTree, parse_labeled_tree
from lambdamaps.lambda_core import (
    InvalidInput,
    ParseError,
    Skeleton,
    Term,
    alpha_equal,
    diagram_of,
    listing_of_word,
    parse_listing,
    parse_skeleton,
    parse_term,
    planar_match,
    render_listing,
    render_skeleton,
    render_term,
    skeleton_of,
    term_of_skeleton,
)
from reference_kernels import (LEAF, Abs, App, Binary, Diagram, LambdaTerm, Leaf, Tree, Unary,
                               Var, bridge_connectivity_class, diagram_graph, iter_unary_binary,
                               label_connectivity_class, leading_chain, term_listing,
                               term_of_listing, tree_alpha_equal, tree_gen_lin, tree_of_word,
                               tree_word, wrap_unary)


# ---------------------------------------------------------------------------
# The object kernels

def _node_span(s):
    return 2 * s.nleaf - 1 + s.nunary


def _ref_match(s, right_first=False):
    """The stack matcher on objects: nodes, parent ids and binder ids by
    pre-order id."""
    size = _node_span(s)
    nodes = [s] * size
    parent = [-1] * size
    binder = [-1] * size
    open_unary = []
    todo = [(0, s, -1)]
    while todo:
        nid, node, up = todo.pop()
        while True:
            nodes[nid] = node
            parent[nid] = up
            kind = type(node)
            if kind is Unary:
                open_unary.append((nid, nid + _node_span(node)))
                up, nid, node = nid, nid + 1, node.child
            elif kind is Binary:
                left = node.left
                right_id = nid + 1 + _node_span(left)
                if right_first:
                    todo.append((nid + 1, left, nid))
                    up, nid, node = nid, right_id, node.right
                else:
                    todo.append((right_id, node.right, nid))
                    up, nid, node = nid, nid + 1, left
            else:
                if not open_unary:
                    raise InvalidInput(f"leaf {nid} has no enclosing unary node")
                unary, end = open_unary.pop()
                if not unary < nid < end:
                    raise InvalidInput(
                        f"nesting violated: unary {unary} paired with leaf {nid} "
                        f"outside its subtree")
                binder[nid] = unary
                break
    if open_unary:
        raise InvalidInput(f"{len(open_unary)} unary nodes left unmatched")
    return nodes, parent, binder


def _ref_planar_match(s, right_first=False):
    binder = _ref_match(s, right_first)[2]
    return {unary: leaf for leaf, unary in enumerate(binder) if unary >= 0}


def _ref_term_of_skeleton(s):
    nodes, _parent, binder = _ref_match(s)
    names = [""] * len(nodes)
    k = 0
    for nid, node in enumerate(nodes):
        if type(node) is Unary:
            k += 1
            names[nid] = f"x{k}"
    out = []
    for nid in range(len(nodes) - 1, -1, -1):
        kind = type(nodes[nid])
        if kind is Leaf:
            out.append(Var(names[binder[nid]]))
        elif kind is Unary:
            out[-1] = Abs(names[nid], out[-1])
        else:
            fun = out.pop()
            out[-1] = App(fun, out[-1])
    return out[0]


def _ref_diagram_of(s):
    _nodes, parent, binder = _ref_match(s, right_first=True)
    vertices = []
    edges = []
    for nid, unary in enumerate(binder):
        if unary >= 0:
            edges.append((parent[nid], unary))
        else:
            vertices.append(nid)
            if nid:
                edges.append((parent[nid], nid))
    return Diagram(tuple(vertices), tuple(edges), 0)


def _deficit(s):
    return s.nleaf - s.nunary


def _ref_check_family(s, level):
    if s.nleaf != s.nunary:
        return False
    strict = level == 2
    stack = [(s, True)]
    while stack:
        node, on_root_chain = stack.pop()
        chain, node = leading_chain(node)
        d = _deficit(node)
        if d < chain or (strict and not on_root_chain and d == chain):
            return False
        if isinstance(node, Binary):
            if isinstance(node.left, Unary):
                return False
            stack.append((node.right, False))
            stack.append((node.left, False))
    return True


def _ref_check_reduced(s):
    if _deficit(s) < 1:
        return False
    stack = [s]
    while stack:
        chain, node = leading_chain(stack.pop())
        if isinstance(node, Binary):
            if isinstance(node.left, Unary) or _deficit(node.right) <= chain:
                return False
            stack.append(node.right)
            stack.append(node.left)
    return True


def _ref_is_three_connected(s):
    _k, node = leading_chain(s)
    if not isinstance(node, Binary) or not isinstance(node.left, Leaf):
        return False
    return _ref_check_reduced(node.right)


def _ref_reduce_skeleton(s):
    _k, node = leading_chain(s)
    if isinstance(node, Leaf):
        raise InvalidInput("skeleton has no binary node")
    if not isinstance(node.left, Leaf):
        raise InvalidInput("left child of the first binary node is not a leaf")
    return node.right


def _ref_unreduce(s):
    d = _deficit(s)
    if d <= 0:
        raise InvalidInput(f"deficit {d} is not positive")
    return wrap_unary(Binary(LEAF, s), d + 1)


def _ref_skeleton_stats(r):
    """The binary nodes of the unreduced skeleton by the kind of their
    right child, and the maximal unary chains of r, each the chain at the
    top of r or of a binary node's child."""
    if not _ref_check_reduced(r):
        raise InvalidInput("not a valid reduced skeleton")
    applv = appla = 0
    stack = [_ref_unreduce(r)]
    while stack:
        node = stack.pop()
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            if isinstance(node.right, Leaf):
                applv += 1
            elif isinstance(node.right, Binary):
                appla += 1
            stack.append(node.left)
            stack.append(node.right)
    uc = {}
    stack = [r]
    while stack:
        k, node = leading_chain(stack.pop())
        if k:
            uc[k] = uc.get(k, 0) + 1
        if isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
    return SkeletonStats(_deficit(r), applv, appla, tuple(sorted(uc.items())))


# The rotation behind psi and phi, recursive as it was.

def _ref_spine(core, shift):
    entries = []
    node = core
    while isinstance(node, Binary):
        _k, rcore = leading_chain(node.right)
        entries.append(LabeledTree(_deficit(node.right) - shift, _ref_spine(rcore, shift)))
        node = node.left
    return tuple(entries)


def _ref_unspine(children, shift):
    if not children:
        return LEAF
    u, rest = children[0], children[1:]
    left = _ref_unspine(rest, shift)
    rcore = _ref_unspine(u.children, shift)
    j = _deficit(rcore) - shift - u.label
    if j < 0:
        raise InvalidInput("label exceeds attainable deficit")
    return Binary(left, wrap_unary(rcore, j))


def _ref_psi(s):
    m, core = leading_chain(s)
    return LabeledTree(m, _ref_spine(core, 0))


def _ref_psi_inv(v):
    return wrap_unary(_ref_unspine(v.children, 0), v.label)


def _ref_phi(r):
    return LabeledTree(_deficit(r) - 1, _ref_spine(leading_chain(r)[1], 1))


def _ref_phi_inv(d):
    core = _ref_unspine(d.children, 1)
    return wrap_unary(core, _deficit(core) - 1 - d.label)


# The printers and the skeleton parser, recursive as they were.

def _ref_render_term(t, level=0, final=True):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        s = f"\\{t.var}.{_ref_render_term(t.body, 0, True)}"
        return s if level == 0 or (level == 2 and final) else f"({s})"
    s = f"{_ref_render_term(t.fun, 1, False)} {_ref_render_term(t.arg, 2, level == 2 or final)}"
    return f"({s})" if level == 2 else s


def _ref_render_skeleton(s):
    if isinstance(s, Leaf):
        return "L"
    if isinstance(s, Unary):
        return f"U({_ref_render_skeleton(s.child)})"
    return f"B({_ref_render_skeleton(s.left)},{_ref_render_skeleton(s.right)})"


class _RefSkeletonParser:
    def __init__(self, text):
        self.s = "".join(text.split())
        self.pos = 0

    def parse(self):
        t = self.rec()
        if self.pos != len(self.s):
            raise ParseError(f"trailing input {self.s[self.pos:]!r}", self.pos)
        return t

    def rec(self):
        s = self.s
        if self.pos >= len(s):
            raise ParseError("unexpected end of input", self.pos)
        c = s[self.pos]
        if c == "L":
            self.pos += 1
            return LEAF
        if c == "U":
            self.expect("U(", 1)
            t = self.rec()
            self.expect(")", 0)
            return Unary(t)
        if c == "B":
            self.expect("B(", 1)
            left = self.rec()
            self.expect(",", 0)
            right = self.rec()
            self.expect(")", 0)
            return Binary(left, right)
        raise ParseError(f"unexpected character {c!r}", self.pos)

    def expect(self, tok, skip):
        self.pos += skip
        want = tok[skip:]
        if not self.s.startswith(want, self.pos):
            raise ParseError(f"expected {want!r}", self.pos)
        self.pos += len(want)


# ---------------------------------------------------------------------------
# The comparisons

def _outcome(fn, *args):
    """The result, a tree given as its skeleton and a term tree as the
    library's term, or the exception's type and message."""
    try:
        got = fn(*args)
    except (ParseError, InvalidInput) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, Tree):
        return Skeleton(tree_word(got))
    return Term(*term_listing(got)) if isinstance(got, LambdaTerm) else got


def _compare_alpha_equal(term, tree):
    """alpha_equal against the tree walk on term's reference tree, in both
    orders, between term and: its names with y prefixed (alpha-equal), and
    its first two atoms' names swapped."""
    word, names = term.word, term.names
    atoms = [i for i, kind in enumerate(k for k in word if k != 2) if kind == 0]
    swapped = list(names)
    if len(atoms) > 1:
        a, b = atoms[:2]
        swapped[a], swapped[b] = names[b], names[a]
    for other in (["y" + x for x in names], swapped):
        t, u = Term(word, other), term_of_listing(word, other)
        assert alpha_equal(term, t) == tree_alpha_equal(tree, u)
        assert alpha_equal(t, term) == tree_alpha_equal(u, tree)
    assert alpha_equal(term, Term(word, ["y" + x for x in names]))


def compare_generators(nmax):
    """The generator's words against the tree generator's, in order, at
    every size up to nmax and every level, the trees filtered by the
    reference structural tests; returns the number of skeletons."""
    count = 0
    for n in range(1, nmax + 1):
        trees = tree_gen_lin(n, n)
        for level, keep in ((1, None), (2, lambda t: _ref_check_family(t, 2)),
                            (3, _ref_is_three_connected)):
            words = [s.word for s in gen_skeletons(n, level)]
            assert words == [tree_word(t) for t in filter(keep, trees)], (n, level)
            count += len(words)
    return count


def _family(nmax):
    """Every connected-family skeleton up to size nmax, with the tree the
    tree generator gives in its place."""
    return [pair for n in range(1, nmax + 1)
            for pair in zip(gen_skeletons(n, 1), tree_gen_lin(n, n), strict=True)]


def compare_on_family(nmax):
    """The generator against the tree generator, every word kernel against
    its reference, the edge-connectivity oracle against the graph oracles
    on the reference diagram, and alpha_equal against the tree walk, on
    every connected-family skeleton up to size nmax, and the kernels that
    take a reduced skeleton on every reduced skeleton up to that size;
    returns the number of connected-family skeletons.  Each term also makes the round trip of the
    benchmark's sweep through its text, against its reference tree."""
    compare_generators(nmax)
    pairs = _family(nmax)
    for s, t in pairs:
        term = term_of_skeleton(s)
        tree = _ref_term_of_skeleton(t)
        assert term == Term(*term_listing(tree))
        again = parse_term(render_term(term))
        assert again == term and alpha_equal(again, term) and skeleton_of(again) == s
        _compare_alpha_equal(again, tree)
        d = _ref_diagram_of(t)
        assert diagram_graph(s) == d
        cls = edge_connectivity_class(diagram_of(s))
        assert cls == label_connectivity_class(d) == bridge_connectivity_class(d), s
        for level in (1, 2):
            assert check_family(s, level) == _ref_check_family(t, level)
        assert is_three_connected_skeleton(s) == _ref_is_three_connected(t)
        assert _outcome(reduce_skeleton, s) == _outcome(_ref_reduce_skeleton, t)
        assert _outcome(unreduce, s) == _outcome(_ref_unreduce, t)
        v = psi(s)
        assert v == _ref_psi(t)
        assert psi_inv(v).word == tree_word(_ref_psi_inv(v)) == s.word
    for r in (r for n in range(2, nmax + 1) for r in gen_reduced_skeletons(n)):
        rt = tree_of_word(r.word)
        assert check_reduced(r) == _ref_check_reduced(rt)
        d = phi(r)
        assert d == _ref_phi(rt)
        assert phi_inv(d).word == tree_word(_ref_phi_inv(d)) == r.word
        assert unreduce(r).word == tree_word(_ref_unreduce(rt))
        assert skeleton_stats(r) == _ref_skeleton_stats(rt)
    return len(pairs)


def test_the_generator_equals_the_tree_generator_to_size_seven():
    assert compare_generators(7) == 27417 + 3015 + 361


def test_word_kernels_equal_the_object_kernels_to_size_seven():
    assert compare_on_family(7) == 27417


def compare_outside_family(nmax):
    """The matcher, the kernels that read it, psi and the structural tests
    against their references on every unary-binary tree with n <= nmax
    leaves and up to n + 1 unary nodes, where the matcher fails in each of
    its three ways and the tests say no; returns the number of trees."""
    failures = set()
    count = 0
    outside = ("InvalidInput", "skeleton is not planar linear normal")
    for n in range(1, nmax + 1):
        for u in range(n + 2):
            for t in iter_unary_binary(n, u):
                count += 1
                s = Skeleton(tree_word(t))
                for right_first in (False, True):
                    got = _outcome(planar_match, s, right_first)
                    assert got == _outcome(_ref_planar_match, t, right_first)
                    if isinstance(got, tuple):
                        failures.add(got[1].split(" ")[0].strip("0123456789") or "unmatched")
                assert _outcome(term_of_skeleton, s) == _outcome(_ref_term_of_skeleton, t)
                # the oracle reads no diagram, but fails where building one does
                want = _outcome(_ref_diagram_of, t)
                if isinstance(want, Diagram):
                    want = label_connectivity_class(want)
                assert _outcome(edge_connectivity_class, diagram_of(s)) == want
                for level in (1, 2):
                    assert check_family(s, level) == _ref_check_family(t, level)
                want = _ref_psi(t) if _ref_check_family(t, 1) else outside
                assert _outcome(psi, s) == want
                assert check_reduced(s) == _ref_check_reduced(t)
                assert is_three_connected_skeleton(s) == _ref_is_three_connected(t)
                assert _outcome(reduce_skeleton, s) == _outcome(_ref_reduce_skeleton, t)
                assert _outcome(unreduce, s) == _outcome(_ref_unreduce, t)
                assert _outcome(skeleton_stats, s) == _outcome(_ref_skeleton_stats, t)
    assert failures == {"leaf", "nesting", "unmatched"}
    return count


def test_matcher_and_structural_tests_equal_the_references_outside_the_family():
    assert compare_outside_family(4) == 4235


def test_word_conversions_invert_each_other():
    for s, t in _family(6):
        word = tree_word(t)
        assert word == s.word
        assert len(word) == _node_span(t) == _node_span(s)
        back = tree_of_word(word)
        assert _ref_render_skeleton(back) == _ref_render_skeleton(t)
        assert tree_word(back) is word


def test_printers_and_skeleton_parser_equal_the_recursive_ones():
    for s, t in _family(6):
        text = render_skeleton(s)
        assert text == _ref_render_skeleton(t)
        assert parse_skeleton(text).word == tree_word(_RefSkeletonParser(text).parse())
        term = term_of_skeleton(s)
        assert render_term(term) == _ref_render_term(term_of_listing(term.word, term.names))
        listing = listing_of_word(s.word)
        assert parse_listing(render_listing(*listing)) == listing
        assert (term.word, term.names) == listing


def test_skeleton_parser_fails_as_the_recursive_one():
    checked = 0
    for s, _t in _family(4):
        text = render_skeleton(s)
        mutants = {text[:i] + text[i + 1:] for i in range(len(text))}
        mutants |= {text[:i] + c + text[i:] for i in range(len(text) + 1) for c in "LUB(),x"}
        for m in mutants:
            got = _outcome(parse_skeleton, m)
            want = _outcome(lambda t: _RefSkeletonParser(t).parse(), m)
            if isinstance(want, tuple):
                assert got == want, m
            else:
                assert got.word == want.word, m
            checked += 1
    assert checked > 2000


def test_unspine_fails_as_the_recursive_one():
    # labels beyond the attainable deficit, which the v-tree and degree-tree
    # validators reject before psi_inv and phi_inv get them
    for text in ["0[5]", "0[0[3],1]", "0[2[0],0]", "0[1[0[0]]]"]:
        kids = parse_labeled_tree(text).children
        for shift in (0, 1):
            want = _outcome(_ref_unspine, kids, shift)
            got = _outcome(_unspine, kids, shift)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert Skeleton(bytes(got)) == want


if __name__ == "__main__":
    print(compare_on_family(int(sys.argv[1])),
          "skeletons: the generator, every word kernel, the connectivity oracle, "
          "alpha_equal and the term text round trip equal their references")
    print(compare_outside_family(5),
          "unary-binary trees to 5 leaves: the matcher, the kernels that read it, psi "
          "and the structural tests equal their references outside the family")
