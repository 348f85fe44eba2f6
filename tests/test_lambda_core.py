import pickle
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from lambdamaps.lambda_core import (
    Abs,
    App,
    Diagram,
    InvalidInput,
    ParseError,
    Skeleton,
    Var,
    _listing_of,
    _listing_scan,
    _term_of_listing,
    _tokenize,
    alpha_equal,
    diagram_of,
    is_normal,
    parse_skeleton,
    parse_term,
    planar_match,
    render_skeleton,
    render_term,
    skeleton_of,
    term_defect,
    term_of_skeleton,
)
from lambdamaps.enumeration import gen_skeletons
from reference_kernels import (LEAF, Binary, Leaf, Unary, iter_unary_binary, preorder, rebuilt,
                               tree_alpha_equal, tree_of_word, tree_word)


# ---------------------------------------------------------------------------
# Parser and printer

def test_parse_identity():
    assert parse_term(r"\x.x") == Abs("x", Var("x"))


def test_parse_nested_application():
    assert parse_term(r"\x.\y.x y") == Abs("x", Abs("y", App(Var("x"), Var("y"))))


def test_parse_unbalanced_paren_offset():
    with pytest.raises(ParseError) as exc:
        parse_term(r"\x.x (\y.y")
    assert "unbalanced parenthesis" in str(exc.value)
    assert exc.value.position == 9


def test_parse_left_assoc_and_grouping():
    assert parse_term("x y z") == App(App(Var("x"), Var("y")), Var("z"))
    assert parse_term("x (y z)") == App(Var("x"), App(Var("y"), Var("z")))


def test_parse_trailing_abstraction_extends_right():
    assert parse_term(r"x \y.y z") == App(Var("x"), Abs("y", App(Var("y"), Var("z"))))


def test_parse_rejects_garbage():
    for bad in ["", "(", "x.", r"\.", r"\x", r"\x.", "x )", "3x"]:
        with pytest.raises(ParseError):
            parse_term(bad)


def test_render_examples():
    assert render_term(Abs("x", Var("x"))) == r"\x.x"
    assert render_term(App(App(Var("x"), Var("y")), Var("z"))) == "x y z"
    assert render_term(App(Var("x"), App(Var("y"), Var("z")))) == "x (y z)"


def test_render_abstraction_in_function_position():
    assert render_term(App(Abs("x", Var("x")), Var("y"))) == r"(\x.x) y"


def test_render_abstraction_nonfinal_argument():
    t = App(App(Var("a"), Abs("x", Var("x"))), Var("b"))
    assert render_term(t) == r"a (\x.x) b"
    assert parse_term(render_term(t)) == t


def test_roundtrip_family_terms():
    for n in range(1, 8):
        skeletons = gen_skeletons(n, 1)
        terms = []
        for sk in skeletons:
            term = term_of_skeleton(sk)
            copy = _ref_term_of_skeleton(tree_of_word(sk.word))
            assert term == copy and hash(term) == hash(copy)
            rebuilt = skeleton_of(term)
            assert rebuilt == sk and hash(rebuilt) == hash(sk)
            assert alpha_equal(parse_term(render_term(term)), term)
            terms.append(term)
        assert len(set(terms)) == len(set(skeletons)) == len(skeletons)


_names = st.sampled_from(["x", "y", "z", "w"])
_terms = st.recursive(
    _names.map(Var),
    lambda sub: st.one_of(
        st.tuples(_names, sub).map(lambda p: Abs(*p)),
        st.tuples(sub, sub).map(lambda p: App(*p)),
    ),
    max_leaves=24,
)


@given(_terms)
def test_roundtrip_random_terms(term):
    assert alpha_equal(parse_term(render_term(term)), term)


def _free(t):
    """The names of the free atoms of t, from the listing scan."""
    return _listing_scan(*_listing_of(t))[2]


def test_free_variables_and_alpha():
    assert _free(parse_term(r"\x.x y")) == {"y"}
    assert alpha_equal(parse_term(r"\x.x"), parse_term(r"\y.y"))
    assert not alpha_equal(parse_term(r"\x.\y.x y"), parse_term(r"\x.\y.y x"))


# ---------------------------------------------------------------------------
# Linearity check, against the recursive check it replaced

def _old_free_variables(t, bound=frozenset()):
    if isinstance(t, Var):
        return set() if t.name in bound else {t.name}
    if isinstance(t, Abs):
        return _old_free_variables(t.body, bound | {t.var})
    return _old_free_variables(t.fun, bound) | _old_free_variables(t.arg, bound)


def _old_count_bound_atoms(term, var):
    if isinstance(term, Var):
        return 1 if term.name == var else 0
    if isinstance(term, App):
        return _old_count_bound_atoms(term.fun, var) + _old_count_bound_atoms(term.arg, var)
    if term.var == var:  # shadowed below
        return 0
    return _old_count_bound_atoms(term.body, var)


def _old_check_linear_closed(term):
    if _old_free_variables(term):
        raise InvalidInput(f"term is not closed: free {sorted(_old_free_variables(term))}")

    def walk(t):
        if isinstance(t, Abs):
            bound = _old_count_bound_atoms(t.body, t.var)
            if bound != 1:
                raise InvalidInput(
                    f"abstraction over {t.var} binds {bound} atoms, not 1")
            walk(t.body)
        elif isinstance(t, App):
            walk(t.fun)
            walk(t.arg)

    walk(term)


def _old_linearity_defect(term):
    """The message the former quadratic check raised, or None."""
    try:
        _old_check_linear_closed(term)
    except InvalidInput as exc:
        return str(exc)
    return None


def _atom_mutants(t, scope=()):
    """t with one atom renamed to another binder in scope or to a free z."""
    if isinstance(t, Var):
        for name in dict.fromkeys(scope + ("z",)):
            if name != t.name:
                yield Var(name)
    elif isinstance(t, Abs):
        for body in _atom_mutants(t.body, scope + (t.var,)):
            yield Abs(t.var, body)
    else:
        for fun in _atom_mutants(t.fun, scope):
            yield App(fun, t.arg)
        for arg in _atom_mutants(t.arg, scope):
            yield App(t.fun, arg)


def _rename_atoms(t, old, new):
    if isinstance(t, Var):
        return Var(new) if t.name == old else t
    if isinstance(t, Abs):
        return Abs(t.var, _rename_atoms(t.body, old, new))
    return App(_rename_atoms(t.fun, old, new), _rename_atoms(t.arg, old, new))


def _shadow_mutants(t, scope=()):
    """t with one binder renamed to the name of an enclosing binder, once
    alone (its atoms turn free) and once with its atoms (the enclosing
    binder loses the atoms under it)."""
    if isinstance(t, Abs):
        for name in dict.fromkeys(scope):
            if name != t.var:
                yield Abs(name, t.body)
                yield Abs(name, _rename_atoms(t.body, t.var, name))
        for body in _shadow_mutants(t.body, scope + (t.var,)):
            yield Abs(t.var, body)
    elif isinstance(t, App):
        for fun in _shadow_mutants(t.fun, scope):
            yield App(fun, t.arg)
        for arg in _shadow_mutants(t.arg, scope):
            yield App(t.fun, arg)


def test_linearity_defect_examples():
    # closed and linear, though not planar
    binders, counts, free, _crossing, atoms = _listing_scan(*_listing_of(parse_term(r"\x.\y.x y")))
    assert (binders, counts, free, atoms) == (["x", "y"], [1, 1], set(), [0, 1])
    assert term_defect(parse_term(r"\x.\y.x x")) == "abstraction over x binds 2 atoms, not 1"
    assert term_defect(parse_term(r"\x.\x.x x")) == "abstraction over x binds 0 atoms, not 1"
    assert term_defect(parse_term("y (x y)")) == "term is not closed: free ['x', 'y']"


def test_linearity_defect_matches_old_check():
    checked = 0
    for n in range(1, 7):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            cases = [term]
            if n <= 4:
                cases += [*_atom_mutants(term), *_shadow_mutants(term)]
            for t in cases:
                old = _old_linearity_defect(t)
                binders, counts, free, crossing, _atoms = _listing_scan(*_listing_of(t))
                assert free == _old_free_variables(t)
                if old is None:
                    # term_defect reports linearity first, planarity after
                    assert not free and counts == [1] * len(binders), render_term(t)
                    assert term_defect(t) in (None, f"term is not planar: {crossing}")
                else:
                    assert term_defect(t) == old, render_term(t)
                checked += 1
    assert checked > 3360


def _binding_scan(t):
    """The walk over term objects that the defect functions made before they
    read listings: the variables of the abstractions in pre-order, the
    number of atoms each one binds, the names of the free atoms, the
    first atom that breaks the stack discipline, as a message, or None, and
    each atom's binder position, or its name when free."""
    binders, counts, free, crossing, atoms = [], [], set(), None, []
    open_binders = {}
    unmatched = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            scope = open_binders.get(x.name)
            if scope:
                b = scope[-1]
                atoms.append(b)
                counts[b] += 1
                if unmatched and unmatched[-1] == b:
                    unmatched.pop()
                elif crossing is None and unmatched:
                    crossing = f"{x.name} is used before {binders[unmatched[-1]]}"
            else:
                atoms.append(x.name)
                free.add(x.name)
        elif isinstance(x, App):
            stack.append(x.arg)
            stack.append(x.fun)
        elif isinstance(x, Abs):
            open_binders.setdefault(x.var, []).append(len(binders))
            unmatched.append(len(binders))
            binders.append(x.var)
            counts.append(0)
            stack.append(x.var)  # popped once the body is done: closes the scope
            stack.append(x.body)
        else:
            open_binders[x].pop()
    return binders, counts, free, crossing, atoms


def _ref_term_defect(t):
    """term_defect by the reference scan."""
    binders, counts, free, crossing, _atoms = _binding_scan(t)
    if free:
        return f"term is not closed: free {sorted(free)}"
    for var, c in zip(binders, counts):
        if c != 1:
            return f"abstraction over {var} binds {c} atoms, not 1"
    if crossing is not None:
        return f"term is not planar: {crossing}"
    return None


def test_defect_functions_equal_the_binding_scan():
    # every unary-binary tree with n <= 4 leaves and n unary nodes, under
    # every naming of its atoms and binders from {x, y}: closed and free,
    # linear and not, planar and crossing, shadowing binders
    checked = 0
    for n in range(1, 5):
        for s in iter_unary_binary(n, n):
            word = tree_word(s)
            for names in product("xy", repeat=2 * n):
                t = _term_of_listing(word, list(names))
                assert _listing_scan(word, list(names)) == _binding_scan(t)
                assert term_defect(t) == _ref_term_defect(t)
                checked += 1
    assert checked == 273380


# ---------------------------------------------------------------------------
# Skeletons

def test_skeleton_of_examples():
    assert render_skeleton(skeleton_of(parse_term(r"\x.x"))) == "U(L)"
    assert render_skeleton(skeleton_of(parse_term(r"\x.\y.x y"))) == "U(U(B(L,L)))"
    assert render_skeleton(skeleton_of(parse_term(r"\x.x (\y.y)"))) == "U(B(L,U(L)))"


def test_skeleton_text_roundtrip():
    for text in ["L", "U(L)", "B(L,L)", "U(B(L,U(L)))", "B(B(L,L),U(L))"]:
        assert render_skeleton(parse_skeleton(text)) == text
    # whitespace carries no significance
    assert render_skeleton(parse_skeleton(" U( B( L , L ) ) ")) == "U(B(L,L))"


def test_skeleton_text_rejects_garbage():
    for bad in ["", "X", "U(", "B(L)", "B(L,L,L)", "LL"]:
        with pytest.raises(ParseError):
            parse_skeleton(bad)


def test_counters():
    s = parse_skeleton("U(B(L,U(L)))")
    assert s.nleaf == 2 and s.nunary == 2


def _recount(s):
    """Node count of a skeleton, by recursion over the subtree."""
    if isinstance(s, Leaf):
        return 1
    if isinstance(s, Unary):
        return 1 + _recount(s.child)
    return 1 + _recount(s.left) + _recount(s.right)


def test_node_span_closed_form():
    for n in range(1, 8):
        for s in gen_skeletons(n, 1):
            assert _node_span(s) == _recount(tree_of_word(s.word))
    for text in ["L", "B(U(L),L)", "U(B(U(L),U(L)))", "B(B(L,U(U(L))),U(B(L,L)))"]:
        for _nid, node, _parent in preorder(tree_of_word(parse_skeleton(text).word)):
            assert _node_span(node) == _recount(node)


def test_preorder_ids():
    s = tree_of_word(parse_skeleton("U(U(B(L,L)))").word)
    kinds = [type(node).__name__ for _i, node, _p in preorder(s)]
    assert kinds == ["Unary", "Unary", "Binary", "Leaf", "Leaf"]


# ---------------------------------------------------------------------------
# Planar matching

def test_planar_match_examples():
    assert planar_match(parse_skeleton("U(U(B(L,L)))")) == {1: 3, 0: 4}
    assert planar_match(parse_skeleton("U(B(L,U(L)))")) == {0: 2, 3: 4}
    with pytest.raises(InvalidInput):
        planar_match(parse_skeleton("U(B(L,L))"))


def test_planar_match_rejects_scope_crossing():
    # balanced word, but the outer unary node would bind a leaf outside
    # its subtree
    with pytest.raises(InvalidInput):
        planar_match(parse_skeleton("U(B(B(L,U(U(L))),L))"))


_PARENTHESES = bytes.maketrans(b"\x00\x01", b")(")


def parenthesis_word(s):
    """Pre-order word: '(' per unary node, ')' per leaf."""
    return s.word.translate(_PARENTHESES, b"\x02").decode()


def test_parenthesis_word():
    assert parenthesis_word(parse_skeleton("U(B(L,U(L)))")) == "()()"
    assert parenthesis_word(parse_skeleton("U(U(B(L,L)))")) == "(())"


def _word_balanced(word: str) -> bool:
    depth = 0
    for c in word:
        depth += 1 if c == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def test_match_success_implies_balanced_word():
    for n in range(1, 5):
        for t in iter_unary_binary(n, n):
            s = Skeleton(tree_word(t))
            try:
                planar_match(s)
            except InvalidInput:
                continue
            assert _word_balanced(parenthesis_word(s))


def test_terms_of_family_skeletons_are_closed():
    for n in range(1, 6):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            assert term_defect(term) is None
            # both contours admit a matching on family skeletons
            assert len(planar_match(sk, right_first=True)) == n


# ---------------------------------------------------------------------------
# Normality

def test_is_normal_examples():
    assert not is_normal(parse_skeleton("U(B(U(L),L))"))
    assert is_normal(parse_skeleton("U(U(B(L,L)))"))
    assert is_normal(parse_skeleton("U(B(L,U(L)))"))


def has_beta_redex(t):
    """True iff some sub-term is an abstraction applied to an argument."""
    if isinstance(t, Var):
        return False
    if isinstance(t, Abs):
        return has_beta_redex(t.body)
    return isinstance(t.fun, Abs) or has_beta_redex(t.fun) or has_beta_redex(t.arg)


def test_is_normal_agrees_with_redex_search():
    for n in range(1, 6):
        for t in iter_unary_binary(n, n):
            s = Skeleton(tree_word(t))
            try:
                term = term_of_skeleton(s)
            except InvalidInput:
                continue
            assert is_normal(s) == (not has_beta_redex(term))


# ---------------------------------------------------------------------------
# Diagrams

def test_diagram_examples():
    d = diagram_of(parse_skeleton("U(L)"))
    assert d.vertices == (0,) and d.edges == ((0, 0),)

    d = diagram_of(parse_skeleton("U(U(B(L,L)))"))
    assert d.vertices == (0, 1, 2)
    assert sorted(tuple(sorted(e)) for e in d.edges) == [
        (0, 1), (0, 2), (1, 2), (1, 2)]

    d = diagram_of(parse_skeleton("U(B(L,U(L)))"))
    assert d.vertices == (0, 1, 3)
    assert sorted(tuple(sorted(e)) for e in d.edges) == [
        (0, 1), (0, 1), (1, 3), (3, 3)]


def test_diagram_size_and_connectivity():
    from lambdamaps.connectivity import ConnectivityClass, edge_connectivity_class

    for n in range(1, 6):
        for t in iter_unary_binary(n, n):
            try:
                d = diagram_of(Skeleton(tree_word(t)))
            except InvalidInput:
                continue
            assert len(d.vertices) == 2 * n - 1
            assert len(d.edges) == 3 * n - 2
            assert edge_connectivity_class(d) != ConnectivityClass.Disconnected


# ---------------------------------------------------------------------------
# Planarity: the stack discipline on the term itself

def _linear_terms(free, k, depth, memo):
    """Every linear term with k abstractions whose free atoms are the names
    in free, each used once.  A binder at depth d binds x<d>.  Each term
    is built once: an application splits its free names between function
    and argument."""
    key = (free, k, depth)
    if key in memo:
        return memo[key]
    out = []
    if k == 0 and len(free) == 1:
        out.append(Var(free[0]))
    if k > 0:
        name = f"x{depth}"
        out += [Abs(name, body) for body in _linear_terms(free + (name,), k - 1, depth + 1, memo)]
    for mask in range(1 << len(free)):
        fun_free = tuple(v for i, v in enumerate(free) if mask >> i & 1)
        arg_free = tuple(v for i, v in enumerate(free) if not mask >> i & 1)
        for k1 in range(k + 1):
            if len(fun_free) + k1 and len(arg_free) + k - k1:
                args = _linear_terms(arg_free, k - k1, depth, memo)
                out += [App(fun, arg) for fun in _linear_terms(fun_free, k1, depth, memo)
                        for arg in args]
    memo[key] = out
    return out


def _is_term_of_its_skeleton(t):
    try:
        return alpha_equal(t, term_of_skeleton(skeleton_of(t)))
    except InvalidInput:
        return False


def test_term_defect_accepts_exactly_the_terms_of_their_skeletons():
    memo = {}
    for n, want in zip(range(1, 6), (1, 4, 32, 336, 4096)):
        terms = _linear_terms((), n, 0, memo)
        planar = 0
        for t in terms:
            _binders, counts, free, _crossing, _atoms = _listing_scan(*_listing_of(t))
            assert not free and counts == [1] * n
            defect = term_defect(t)
            assert (defect is None) == _is_term_of_its_skeleton(t), render_term(t)
            planar += defect is None
        # closed linear terms (OEIS A062980) and planar ones (A000309)
        assert (len(terms), planar) == ((1, 5, 60, 1105, 27120)[n - 1], want)


def test_term_defect_examples():
    assert term_defect(parse_term(r"\x.\y.y x")) is None
    assert term_defect(parse_term(r"\x.\y.x y")) == "term is not planar: x is used before y"
    assert term_defect(parse_term(r"\x.\y.\z.x (y z)")) == \
        "term is not planar: x is used before z"
    # linearity is reported first
    assert term_defect(parse_term(r"\x.\y.x x")) == "abstraction over x binds 2 atoms, not 1"


# ---------------------------------------------------------------------------
# The recursive kernels that the one-walk kernels replaced, kept as their
# reference

class _RefParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def _eof_offset(self) -> int:
        # report unexpected EOF at the start of the last consumed token
        if self.toks:
            return self.toks[min(self.pos, len(self.toks)) - 1][2]
        return 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def parse(self):
        t = self.term()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return t

    def term(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_offset())
        if tok[0] == "\\":
            return self.abstraction()
        return self.application()

    def abstraction(self):
        self.pos += 1  # consume backslash
        tok = self.peek()
        if tok is None or tok[0] != "id":
            raise ParseError("expected variable after '\\'",
                             tok[2] if tok else self._eof_offset())
        name = tok[1]
        self.pos += 1
        tok = self.peek()
        if tok is None or tok[0] != ".":
            raise ParseError("expected '.' after abstraction variable",
                             tok[2] if tok else self._eof_offset())
        self.pos += 1
        return Abs(name, self.term())

    def application(self):
        t = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok[0] in (")",):
                return t
            if tok[0] == "\\":
                # a trailing abstraction extends maximally to the right
                return App(t, self.abstraction())
            if tok[0] in ("id", "("):
                t = App(t, self.atom())
                continue
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_offset())
        if tok[0] == "id":
            self.pos += 1
            return Var(tok[1])
        if tok[0] == "(":
            self.pos += 1
            t = self.term()
            tok = self.peek()
            if tok is None:
                raise ParseError("unbalanced parenthesis", self._eof_offset())
            if tok[0] != ")":
                raise ParseError(f"expected ')', got {tok[1]!r}", tok[2])
            self.pos += 1
            return t
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])


def _ref_parse(text):
    """The term, or the ParseError's message and position."""
    try:
        return _RefParser(text).parse()
    except ParseError as exc:
        return str(exc), exc.position


def _parse(text):
    try:
        return parse_term(text)
    except ParseError as exc:
        return str(exc), exc.position


def _ref_de_bruijn(t, env):
    if isinstance(t, Var):
        for i in range(len(env) - 1, -1, -1):
            if env[i] == t.name:
                return len(env) - 1 - i
        return ("free", t.name)
    if isinstance(t, Abs):
        return ("abs", _ref_de_bruijn(t.body, env + (t.var,)))
    return ("app", _ref_de_bruijn(t.fun, env), _ref_de_bruijn(t.arg, env))


def _ref_alpha_equal(a, b):
    return _ref_de_bruijn(a, ()) == _ref_de_bruijn(b, ())


# The recursive helpers are module-level, as closures that call themselves
# would leave a reference cycle per call and slow the collector down.

def _ref_preorder(s):
    out = []
    _ref_preorder_rec(out, s, -1)
    return out


def _ref_preorder_rec(out, node, parent):
    nid = len(out)
    out.append((nid, node, parent))
    if isinstance(node, Unary):
        _ref_preorder_rec(out, node.child, nid)
    elif isinstance(node, Binary):
        _ref_preorder_rec(out, node.left, nid)
        _ref_preorder_rec(out, node.right, nid)


def _node_span(s):
    """Number of nodes in a subtree (span of pre-order ids): its leaves,
    its unary nodes and its nleaf - 1 binary nodes."""
    return 2 * s.nleaf - 1 + s.nunary


def _ref_planar_match(s, right_first=False):
    match = {}
    open_unary = []
    todo = [(0, s)]
    while todo:
        nid, node = todo.pop()
        if isinstance(node, Unary):
            open_unary.append((nid, nid + _node_span(node)))
            todo.append((nid + 1, node.child))
        elif isinstance(node, Binary):
            left = (nid + 1, node.left)
            right = (nid + 1 + _node_span(node.left), node.right)
            todo += (left, right) if right_first else (right, left)
        else:
            if not open_unary:
                raise InvalidInput(f"leaf {nid} has no enclosing unary node")
            unary, end = open_unary.pop()
            if not unary < nid < end:
                raise InvalidInput(
                    f"nesting violated: unary {unary} paired with leaf {nid} "
                    f"outside its subtree")
            match[unary] = nid
    if open_unary:
        raise InvalidInput(f"{len(open_unary)} unary nodes left unmatched")
    return match


def _ref_term_of_skeleton(s):
    match = _ref_planar_match(s)
    leaf_binder = {leaf: unary for unary, leaf in match.items()}
    names = {nid: f"x{i + 1}" for i, nid in enumerate(sorted(match))}
    return _ref_term_rec(_ref_preorder(s), names, leaf_binder, 0)[0]


def _ref_term_rec(nodes, names, leaf_binder, i):
    nid, node, _ = nodes[i]
    if isinstance(node, Leaf):
        return Var(names[leaf_binder[nid]]), i + 1
    if isinstance(node, Unary):
        body, j = _ref_term_rec(nodes, names, leaf_binder, i + 1)
        return Abs(names[nid], body), j
    fun, j = _ref_term_rec(nodes, names, leaf_binder, i + 1)
    arg, k = _ref_term_rec(nodes, names, leaf_binder, j)
    return App(fun, arg), k


def _ref_diagram_of(s):
    match = _ref_planar_match(s, right_first=True)
    leaf_binder = {leaf: unary for unary, leaf in match.items()}
    vertices = []
    edges = []
    for nid, node, parent in _ref_preorder(s):
        if isinstance(node, Leaf):
            edges.append((parent, leaf_binder[nid]))
        else:
            vertices.append(nid)
            if parent >= 0:
                edges.append((parent, nid))
    return Diagram(tuple(vertices), tuple(edges), 0)


def _outcome(fn, *args):
    """The result, or the InvalidInput message."""
    try:
        return fn(*args)
    except InvalidInput as exc:
        return str(exc)


def test_diagram_of_equals_the_reference_to_size_seven():
    # term_of_skeleton is checked against its reference in
    # test_roundtrip_family_terms
    for n in range(1, 8):
        for s in gen_skeletons(n, 1):
            assert diagram_of(s) == _ref_diagram_of(tree_of_word(s.word))


def test_matcher_equals_the_reference_on_every_unary_binary_tree():
    # inside the connected family and outside it, where the matcher fails
    for n in range(1, 5):
        for t in iter_unary_binary(n, n):
            s = Skeleton(tree_word(t))
            assert preorder(t) == _ref_preorder(t)
            for right_first in (False, True):
                assert _outcome(planar_match, s, right_first) == \
                    _outcome(_ref_planar_match, t, right_first)
            assert _outcome(term_of_skeleton, s) == _outcome(_ref_term_of_skeleton, t)
            assert _outcome(diagram_of, s) == _outcome(_ref_diagram_of, t)


@given(st.text(alphabet="\\.()xy ", max_size=24))
def test_parse_term_equals_the_reference_on_random_text(text):
    assert _parse(text) == _ref_parse(text)


def test_parse_term_equals_the_reference_on_mutated_renderings():
    checked = 0
    for n in range(1, 5):
        for s in gen_skeletons(n, 1):
            text = render_term(term_of_skeleton(s))
            mutants = {text[:i] + text[i + 1:] for i in range(len(text))}
            mutants |= {text[:i] + c + text[i:] for i in range(len(text) + 1) for c in "\\.() "}
            for m in mutants:
                assert _parse(m) == _ref_parse(m), m
                checked += 1
    assert checked > 5000


def _rename_everywhere(t, names):
    """t with every binder and atom x renamed to names.get(x, x); a map
    that is not one-to-one can capture atoms."""
    if isinstance(t, Var):
        return Var(names.get(t.name, t.name))
    if isinstance(t, Abs):
        return Abs(names.get(t.var, t.var), _rename_everywhere(t.body, names))
    return App(_rename_everywhere(t.fun, names), _rename_everywhere(t.arg, names))


@given(_terms, _terms, st.dictionaries(st.sampled_from("xyzw"), st.sampled_from("xyzw")))
def test_alpha_equal_equals_the_reference_on_random_pairs(a, b, names):
    assert alpha_equal(a, b) == _ref_alpha_equal(a, b)
    renamed = _rename_everywhere(a, names)
    assert alpha_equal(a, renamed) == _ref_alpha_equal(a, renamed)


def _words(nmax, umax):
    """The word of every unary-binary tree with at most nmax leaves and at
    most umax unary nodes, nor more than it has leaves."""
    return [tree_word(s) for n in range(1, nmax + 1) for u in range(min(n, umax) + 1)
            for s in iter_unary_binary(n, u)]


def _named(word, names):
    """The term of this listing, kept on it, and the same term built by the
    constructors, which keeps none."""
    t = _term_of_listing(word, list(names))
    return t, rebuilt(t)


def _alpha_outcomes(a, b):
    """alpha_equal on two (cached, constructed) pairs: both cached, and in
    either order one cached and one not, each checked against the tree
    walk; the set of results."""
    seen = set()
    for p, q in ((a[0], b[0]), (a[0], b[1]), (b[0], a[1])):
        got = alpha_equal(p, q)
        assert got == tree_alpha_equal(p, q), (render_term(p), render_term(q))
        seen.add(got)
    return seen


def test_alpha_equal_equals_the_tree_walk_on_every_pair_of_small_namings():
    # every naming from {x, y} of every word with at most 3 atoms and 2
    # abstractions: free atoms, shadowing binders, renamings and captures;
    # every pair of namings of one word
    outcomes = {True: 0, False: 0}
    for word in _words(3, 2):
        slots = len(word) - word.count(2)
        terms = [_named(word, names) for names in product("xy", repeat=slots)]
        for a in terms:
            for b in terms:
                for got in _alpha_outcomes(a, b):
                    outcomes[got] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 10000
    assert _alpha_outcomes(_named(b"\x00", "x"), _named(b"\x01\x00", "xx")) == {False}


def test_alpha_equal_equals_the_tree_walk_to_five_atoms():
    # a seeded sample of words with 3 to 5 atoms and as many abstractions
    # or fewer, each named from {x, y, z} and compared with a renaming of
    # all its names by a bijection (equal when closed), with one name
    # changed, and with a fresh naming
    rng = random.Random(20)
    outcomes = {True: 0, False: 0}
    words = [w for w in _words(5, 5) if w.count(0) >= 3]
    for word in rng.sample(words, 3000):
        slots = len(word) - word.count(2)
        names = [rng.choice("xyz") for _ in range(slots)]
        swap = dict(zip("xyz", rng.sample("xyz", 3)))
        changed = list(names)
        changed[rng.randrange(slots)] = rng.choice("xyz")
        fresh = [rng.choice("xyz") for _ in range(slots)]
        a = _named(word, names)
        for other in ([swap[x] for x in names], changed, fresh):
            for got in _alpha_outcomes(a, _named(word, other)):
                outcomes[got] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000


def test_a_kept_listing_is_the_listing_of_the_constructed_term():
    # every planar term to size 6, and every naming from {x, y} of every
    # word with at most 3 atoms and 3 abstractions
    terms = [term_of_skeleton(s) for n in range(1, 7) for s in gen_skeletons(n, 1)]
    for word in _words(3, 3):
        slots = len(word) - word.count(2)
        terms += [_term_of_listing(word, list(names)) for names in product("xy", repeat=slots)]
    for t in terms:
        copy = rebuilt(t)
        with pytest.raises(AttributeError):
            copy._listing  # a constructed term keeps no listing
        assert t._listing is _listing_of(t)
        assert _listing_of(copy) == _listing_of(t)
        assert copy == t and t == copy and hash(copy) == hash(t)
        assert render_term(copy) == render_term(t)
        assert term_defect(copy) == term_defect(t)
        for back in (pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(copy))):
            assert _listing_of(back) == _listing_of(t)
            assert back == t and hash(back) == hash(t)
    assert len(terms) > 5000


def _ref_fields_equal(a, b):
    """Equality of two terms, type and field by field, by recursion."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Abs):
        return a.var == b.var and _ref_fields_equal(a.body, b.body)
    return _ref_fields_equal(a.fun, b.fun) and _ref_fields_equal(a.arg, b.arg)


@given(_terms, _terms, st.dictionaries(st.sampled_from("xyzw"), st.sampled_from("xyzw")))
def test_term_equality_is_field_equality(a, b, names):
    for other in (b, _rename_everywhere(a, names), _rename_everywhere(b, names)):
        assert (a == other) == _ref_fields_equal(a, other)
        assert (a != other) != (a == other)
        if a == other:
            assert hash(a) == hash(other)


def _old_tokenize(text):
    """The tokenizer before identifier tails were matched by one regular
    expression, kept as its reference."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "\\.()":
            toks.append((c, c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            toks.append(("id", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return toks


def _tokens(tokenize, text):
    """The tokens, or the ParseError's message and position."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


@given(st.text(alphabet="xyé²٣_ 1\\.()\t", max_size=24))
def test_tokenize_equals_the_reference_on_unicode_text(text):
    assert _tokens(_tokenize, text) == _tokens(_old_tokenize, text)


# ---------------------------------------------------------------------------
# Value semantics of terms and skeletons

DEEP = 10_000


def _deep_term(leaf):
    t = Var(leaf)
    for _ in range(DEEP // 2):
        t = Abs("x", App(Var("y"), t))
    return t


def _deep_skeleton(bottom):
    """The skeleton of a tree built by the node constructors."""
    t = tree_of_word(parse_skeleton(bottom).word)
    for _ in range(DEEP // 2):
        t = Unary(Binary(LEAF, t))
    return Skeleton(tree_word(t))


def test_values_of_different_types_are_unequal():
    assert Var("x") != Abs("x", Var("x"))
    assert Abs("x", Var("x")) != Var("x")
    assert Var("x") != "x"
    assert App(Var("x"), Var("y")) != App(Var("x"), Abs("y", Var("y")))
    assert Abs("x", Var("x")) != Abs("y", Var("x"))
    assert parse_skeleton("U(L)") != "U(L)"


def test_deep_terms_compare_and_hash_without_recursion(shallow_recursion):
    t, copy, other = _deep_term("x"), _deep_term("x"), _deep_term("z")
    assert t == copy and not t != copy
    assert t != other and not t == other
    assert hash(t) == hash(copy)
    assert hash(other) != hash(t)


def test_deep_skeletons_compare_and_hash_without_recursion(shallow_recursion):
    s, copy = _deep_skeleton("B(L,U(L))"), _deep_skeleton("B(L,U(L))")
    other = _deep_skeleton("B(U(L),L)")  # the same counts at every node
    assert s == copy and s != other
    assert hash(s) == hash(copy)
    assert hash(other) != hash(s)


def test_render_term_on_a_deep_term(shallow_recursion):
    t = _deep_term("x")
    text = render_term(t)
    assert text == "\\x.y " * (DEEP // 2) + "x"  # a final argument needs no parentheses
    assert parse_term(text) == t
    t = Var("x")
    for _ in range(DEEP - 1):
        t = App(Var("x"), t)  # each application but the top one is an argument
    text = render_term(t)
    assert text == "x (" * (DEEP - 2) + "x x" + ")" * (DEEP - 2)
    assert parse_term(text) == t


def test_render_skeleton_on_a_deep_skeleton(shallow_recursion):
    text = render_skeleton(_deep_skeleton("B(L,U(L))"))
    assert text == "U(B(L," * (DEEP // 2) + "B(L,U(L))" + "))" * (DEEP // 2)


def test_parse_skeleton_on_deep_text(shallow_recursion):
    text = "U(B(L," * (DEEP // 2) + "B(L,U(L))" + "))" * (DEEP // 2)
    s = parse_skeleton(text)
    assert s == _deep_skeleton("B(L,U(L))")
    assert s.nleaf == DEEP // 2 + 2 and s.nunary == DEEP // 2 + 1
    with pytest.raises(ParseError, match=f"expected '\\)' at offset {len(text) - 1}"):
        parse_skeleton(text[:-1] + ",")
