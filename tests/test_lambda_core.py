import pytest
from hypothesis import given, strategies as st

from lambdamaps.lambda_core import (
    Abs,
    App,
    Leaf,
    MatchFailure,
    ParseError,
    Unary,
    Var,
    _node_span,
    alpha_equal,
    diagram_of,
    free_variables,
    has_beta_redex,
    is_normal,
    linearity_defect,
    parenthesis_word,
    parse_skeleton,
    parse_term,
    planar_match,
    preorder,
    render_skeleton,
    render_term,
    skeleton_of,
    term_of_skeleton,
)
from lambdamaps.bijections import InvalidInput
from lambdamaps.enumeration import gen_skeletons, iter_unary_binary


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
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            assert alpha_equal(parse_term(render_term(term)), term)


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


def test_free_variables_and_alpha():
    assert free_variables(parse_term(r"\x.x y")) == {"y"}
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
    assert linearity_defect(parse_term(r"\x.\y.x y")) is None
    assert linearity_defect(parse_term(r"\x.\y.x x")) == "abstraction over x binds 2 atoms, not 1"
    assert linearity_defect(parse_term(r"\x.\x.x x")) == "abstraction over x binds 0 atoms, not 1"
    assert linearity_defect(parse_term("y (x y)")) == "term is not closed: free ['x', 'y']"


def test_linearity_defect_matches_old_check():
    checked = 0
    for n in range(1, 7):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            cases = [term]
            if n <= 4:
                cases += [*_atom_mutants(term), *_shadow_mutants(term)]
            for t in cases:
                assert linearity_defect(t) == _old_linearity_defect(t), render_term(t)
                assert free_variables(t) == _old_free_variables(t)
                checked += 1
    assert checked > 3360


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
    assert s.nleaf == 2 and s.nunary == 2 and s.size() == 2


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
            assert _node_span(s) == _recount(s)
    for text in ["L", "B(U(L),L)", "U(B(U(L),U(L)))", "B(B(L,U(U(L))),U(B(L,L)))"]:
        for _nid, node, _parent in preorder(parse_skeleton(text)):
            assert _node_span(node) == _recount(node)


def test_preorder_ids():
    s = parse_skeleton("U(U(B(L,L)))")
    kinds = [type(node).__name__ for _i, node, _p in preorder(s)]
    assert kinds == ["Unary", "Unary", "Binary", "Leaf", "Leaf"]


# ---------------------------------------------------------------------------
# Planar matching

def test_planar_match_examples():
    assert planar_match(parse_skeleton("U(U(B(L,L)))")) == {1: 3, 0: 4}
    assert planar_match(parse_skeleton("U(B(L,U(L)))")) == {0: 2, 3: 4}
    with pytest.raises(MatchFailure):
        planar_match(parse_skeleton("U(B(L,L))"))


def test_planar_match_rejects_scope_crossing():
    # balanced word, but the outer unary node would bind a leaf outside
    # its subtree
    with pytest.raises(MatchFailure):
        planar_match(parse_skeleton("U(B(B(L,U(U(L))),L))"))


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
        for s in iter_unary_binary(n, n):
            try:
                planar_match(s)
            except MatchFailure:
                continue
            assert _word_balanced(parenthesis_word(s))


def test_terms_of_family_skeletons_are_closed():
    for n in range(1, 6):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            assert free_variables(term) == set()
            # both contours admit a matching on family skeletons
            assert len(planar_match(sk, right_first=True)) == n


# ---------------------------------------------------------------------------
# Normality

def test_is_normal_examples():
    assert not is_normal(parse_skeleton("U(B(U(L),L))"))
    assert is_normal(parse_skeleton("U(U(B(L,L)))"))
    assert is_normal(parse_skeleton("U(B(L,U(L)))"))


def test_is_normal_agrees_with_redex_search():
    for n in range(1, 6):
        for s in iter_unary_binary(n, n):
            try:
                term = term_of_skeleton(s)
            except MatchFailure:
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
        for s in iter_unary_binary(n, n):
            try:
                d = diagram_of(s)
            except MatchFailure:
                continue
            assert len(d.vertices) == 2 * n - 1
            assert len(d.edges) == 3 * n - 2
            assert edge_connectivity_class(d) != ConnectivityClass.Disconnected
