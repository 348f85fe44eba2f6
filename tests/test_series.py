from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lambdamaps.series import (
    check_gf_relation,
    dump_series_tsv,
    f_bipartite,
    f_bipartite_enumerated,
    f_reduced_skeletons_enumerated,
    limit_pmf,
    monomial,
    one,
    pmf_diagnostics,
    solve_zu,
    zero,
)


# ---------------------------------------------------------------------------
# Fixed-point solutions

def test_solve_zu_without_faces():
    n = 5
    z, u = solve_zu(n, 0)
    assert z == monomial(n, 0, 1, 1)  # z = t
    expect = zero(n, 0)
    for j in range(0, n):  # x^(j+1) t^j, x-degree capped at n
        expect = expect + monomial(n, 0, 1, j, j + 1)
    assert u == expect


def test_solve_zu_p1_geometric():
    n = 4
    z, _u = solve_zu(n, 1)
    expect = zero(n, 1)
    for j in range(0, n):
        expect = expect + monomial(n, 1, 1, j + 1, 0, (j,))
    assert z == expect


def test_z_has_no_constant_term():
    z, _ = solve_zu(3, 2)
    assert z.coefficient(0) == 0
    assert all(key[0] >= 1 for key in z.coeffs)


# ---------------------------------------------------------------------------
# The printed closed form

def test_f_bipartite_low_orders():
    f = f_bipartite(4, 2)
    assert f.coefficient(0, 0) == 1
    assert f.coefficient(1, 1) == 1  # one map with one edge
    # the printed system undercounts from t^2 on: 1 against the 2 rooted
    # 2-edge paths
    assert f.coefficient(2, 2) == 1
    assert f_bipartite_enumerated(2, 2).coefficient(2, 2) == 2


def test_printed_form_reported_not_asserted():
    rep = check_gf_relation(4)
    assert rep.identity_ok
    assert not rep.printed_matches
    bad = [c for c in rep.printed_cells if not c.match]
    assert bad and bad[0].key == (2, 2, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# Enumeration-built chain identity

def test_gf_chain_identity():
    rep = check_gf_relation(5)
    assert rep.identity_ok
    assert rep.first_mismatch is None


def test_gf_chain_small_values():
    lhs = f_reduced_skeletons_enumerated(4, 4)
    # size 3: the single reduced skeleton has deficit 2 and no chains
    assert lhs.coefficient(3, 2) == 1
    # size 4: three reduced skeletons
    assert lhs.coefficient(4, 2, (1, 0, 0, 0)) == 1  # chain of length 1
    assert lhs.coefficient(4, 3) == 2
    rhs = f_bipartite_enumerated(2, 4)
    assert rhs.coefficient(1, 1) == 1
    assert rhs.coefficient(2, 1, (1, 0, 0, 0)) == 1
    assert rhs.coefficient(2, 2) == 2


def test_dump_series_tsv():
    text = dump_series_tsv(f_bipartite(2, 1))
    lines = text.strip().split("\n")
    assert lines[0] == "t_deg\tx_deg\tp_multidegree\tcoefficient"
    assert all(len(line.split("\t")) == 4 for line in lines[1:])


# ---------------------------------------------------------------------------
# Series arithmetic

def _random_series(draw_terms):
    s = zero(4, 1)
    for td, xd, pd, num in draw_terms:
        s = s + monomial(4, 1, Fraction(num), td, xd, (pd,))
    return s


_term = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2),
                  st.integers(-3, 3))
_series = st.lists(_term, max_size=6).map(_random_series)


@settings(max_examples=100, deadline=None)
@given(_series, _series, _series)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one(4, 1) == a
    assert a * zero(4, 1) == zero(4, 1)


def test_truncation_drops_high_orders():
    t = monomial(2, 0, 1, 1)
    cube = t * t * t
    assert cube == zero(2, 0)


# ---------------------------------------------------------------------------
# Limit law

def test_limit_pmf_values():
    assert limit_pmf(1) == Fraction(1, 8)
    assert limit_pmf(0) == 0
    assert limit_pmf(2) == Fraction(2, 3) * 6 * Fraction(9, 256)


def test_limit_pmf_partial_sums_monotone():
    partial = Fraction(0)
    prev = Fraction(0)
    for k in range(1, 60):
        partial += limit_pmf(k)
        assert prev < partial <= 1
        prev = partial


def test_limit_pmf_sums_to_one():
    total = sum((limit_pmf(k) for k in range(1, 201)), Fraction(0))
    assert abs(1 - total) < Fraction(1, 10**9)


def test_pmf_diagnostics():
    rep = pmf_diagnostics(200, 4)
    assert rep.sum_defect < 1e-9
    assert rep.tv_on_support < 0.2
    # the full distance is floored by the limit's tail mass beyond n
    tail = 1 - float(sum((limit_pmf(k) for k in range(1, 5)), Fraction(0)))
    assert rep.tv_distance >= tail / 2
