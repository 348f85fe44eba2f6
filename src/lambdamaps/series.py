"""Truncated multivariate formal power series with exact coefficients.

Series live in variables t (the size variable, truncated at a fixed order),
x, and a finite family p_1..p_K; coefficients are integers.  The
module evaluates the announced closed system for bipartite maps

    z = t * (1 + sum_k C(2k-1, k) p_k z^k)
    u = x * (1 + u z)
    f = (1 + u z) * (1 - sum_k p_k z^k * sum_{l=1}^{k-1} u^l z^l C(2k-1, k+l))

exactly as printed, and separately builds both sides of the generating
function identity between reduced skeletons and bipartite maps from the
enumerated objects themselves; the enumeration-vs-enumeration identity is
asserted, while the printed system is only compared and reported (a desk
check shows it undercounting from degree t^2 on).

The limiting outer half-degree law k/3 * C(2k,k) * (3/16)^k is provided
with exact partial sums and an empirical total-variation diagnostic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .lambda_core import InvalidInput, SizeTooLarge


class TruncatedSeries:
    """Polynomial in t, x, p_1..p_K truncated at t-degree and x-degree N.

    Monomial keys are (t_deg, x_deg, p_multidegree); coefficients are
    integers, or Fractions where a caller gives one, and zero coefficients
    are never stored.
    """

    __slots__ = ("trunc", "kmax", "coeffs")

    def __init__(self, trunc: int, kmax: int,
                 coeffs: dict[tuple[int, int, tuple[int, ...]], int] | None = None):
        self.trunc = trunc
        self.kmax = kmax
        self.coeffs = {} if coeffs is None else coeffs

    def _check(self, other: "TruncatedSeries"):
        if self.trunc != other.trunc or self.kmax != other.kmax:
            raise InvalidInput("incompatible truncation parameters")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.trunc, self.kmax, self.coeffs) == \
            (other.trunc, other.kmax, other.coeffs)

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return TruncatedSeries(self.trunc, self.kmax, out)

    def __neg__(self):
        return TruncatedSeries(self.trunc, self.kmax,
                               {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return TruncatedSeries(self.trunc, self.kmax)
            return TruncatedSeries(
                self.trunc, self.kmax,
                {k: c * other for k, c in self.coeffs.items()})
        self._check(other)
        out: dict = {}
        for (t1, x1, p1), c1 in self.coeffs.items():
            for (t2, x2, p2), c2 in other.coeffs.items():
                td, xd = t1 + t2, x1 + x2
                if td > self.trunc or xd > self.trunc:
                    continue
                key = (td, xd, tuple(a + b for a, b in zip(p1, p2)))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return TruncatedSeries(self.trunc, self.kmax, out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (td, xd, pd), c in sorted(self.coeffs.items()):
            mono = []
            if td:
                mono.append(f"t^{td}" if td > 1 else "t")
            if xd:
                mono.append(f"x^{xd}" if xd > 1 else "x")
            for i, d in enumerate(pd):
                if d:
                    mono.append(f"p{i + 1}^{d}" if d > 1 else f"p{i + 1}")
            parts.append(f"{c}*{'*'.join(mono)}" if mono else str(c))
        return " + ".join(parts)


def zero(trunc: int, kmax: int) -> TruncatedSeries:
    return TruncatedSeries(trunc, kmax)


def one(trunc: int, kmax: int) -> TruncatedSeries:
    return monomial(trunc, kmax, 1, 0, 0)


def monomial(trunc: int, kmax: int, coeff: int | Fraction,
             t_deg: int, x_deg: int = 0,
             p_deg: tuple[int, ...] | None = None) -> TruncatedSeries:
    if t_deg > trunc or x_deg > trunc or not coeff:
        return TruncatedSeries(trunc, kmax)
    key = (t_deg, x_deg, p_deg if p_deg is not None else (0,) * kmax)
    return TruncatedSeries(trunc, kmax, {key: coeff})


def _p_var(trunc: int, kmax: int, k: int) -> TruncatedSeries:
    pd = tuple(1 if j == k - 1 else 0 for j in range(kmax))
    return monomial(trunc, kmax, 1, 0, 0, pd)


def solve_zu(n: int, kmax: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Fixed-point solutions of z = t(1 + sum_k C(2k-1,k) p_k z^k) and
    u = x(1 + u z), truncated at t-degree n.  Each iteration gains one
    t-order, so n iterations reach the fixed point."""
    if n < 1 or kmax < 0:
        raise SizeTooLarge("need n >= 1 and kmax >= 0")
    t = monomial(n, kmax, 1, 1)
    x = monomial(n, kmax, 1, 0, 1)
    z = zero(n, kmax)
    for _ in range(n):
        acc = one(n, kmax)
        zk = acc
        for k in range(1, kmax + 1):
            zk = zk * z
            acc = acc + comb(2 * k - 1, k) * _p_var(n, kmax, k) * zk
        z = t * acc
    u = zero(n, kmax)
    for _ in range(n + 1):
        u = x * (one(n, kmax) + u * z)
    return z, u


MAX_GF_ORDER = 8


def f_bipartite(n: int, kmax: int) -> TruncatedSeries:
    """The printed closed form for the bipartite generating function,
    evaluated verbatim (the inner sum runs over l = 1..k-1), for n in
    1..MAX_GF_ORDER and kmax in 0..MAX_GF_ORDER (n = kmax = 8 takes about a
    second)."""
    if not (1 <= n <= MAX_GF_ORDER and 0 <= kmax <= MAX_GF_ORDER):
        raise SizeTooLarge(f"N must be in 1..{MAX_GF_ORDER} and K in 0..{MAX_GF_ORDER}, "
                           f"got N={n}, K={kmax}")
    z, u = solve_zu(n, kmax)
    zs = [one(n, kmax)]  # zs[k] = z^k and uzs[l] = u^l z^l, each computed once
    uzs = [zs[0]]
    for k in range(1, kmax + 1):
        zs.append(zs[-1] * z)
        uzs.append(uzs[-1] * u * z)
    inner = zero(n, kmax)
    for k in range(1, kmax + 1):
        lsum = zero(n, kmax)
        for l in range(1, k):
            lsum = lsum + comb(2 * k - 1, k + l) * uzs[l]
        inner = inner + _p_var(n, kmax, k) * zs[k] * lsum
    return (one(n, kmax) + u * z) * (one(n, kmax) - inner)


# ---------------------------------------------------------------------------
# Enumeration-built series and the chain identity

def _clip(d: dict[int, int], kmax: int) -> tuple[int, ...]:
    return tuple(d.get(k, 0) for k in range(1, kmax + 1))


def _counted(trunc: int, kmax: int, keys) -> TruncatedSeries:
    """The series whose coefficient at each monomial key is the number of
    times keys yields it; keys beyond the truncation are dropped, as
    monomial drops them."""
    counts: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for key in keys:
        if key[0] <= trunc and key[1] <= trunc:
            counts[key] = counts.get(key, 0) + 1
    return TruncatedSeries(trunc, kmax, counts)


def f_bipartite_enumerated(n: int, kmax: int) -> TruncatedSeries:
    """Sum of t^edges x^outdeg prod p_k^face_k over bipartite maps."""
    from .enumeration import gen_bipartite_maps
    from .planar_maps import map_stats

    return _counted(n, kmax, ((m_edges, st.outdeg, _clip(dict(st.face), kmax))
                              for m_edges in range(0, n + 1)
                              for st in map(map_stats, gen_bipartite_maps(m_edges))))


def f_reduced_skeletons_enumerated(n: int, kmax: int) -> TruncatedSeries:
    """Sum of t^size x^ex prod p_k^uc_k over reduced skeletons, the size
    being that of the 3-connected skeleton they reduce."""
    from .bijections import skeleton_stats
    from .enumeration import gen_reduced_skeletons

    return _counted(n, kmax, ((size, st.ex, _clip(dict(st.uc), kmax))
                              for size in range(2, n + 1)
                              for st in map(skeleton_stats, gen_reduced_skeletons(size))))


class GfCell(NamedTuple):
    key: tuple[int, int, tuple[int, ...]]
    enumerated: int
    printed: int
    match: bool


class GfReport(NamedTuple):
    identity_ok: bool
    first_mismatch: str | None
    printed_cells: tuple[GfCell, ...]
    printed_matches: bool


def check_gf_relation(n_max: int) -> GfReport:
    """Assert coefficientwise that the reduced-skeleton series equals
    t^2 * x * (bipartite series), both built from enumeration; also report
    cell-by-cell how the printed closed form compares (not asserted)."""
    if not 2 <= n_max <= 6:
        raise SizeTooLarge("n_max must be in 2..6")
    kmax = n_max
    lhs = f_reduced_skeletons_enumerated(n_max, kmax)
    fb = f_bipartite_enumerated(n_max, kmax)
    rhs = monomial(n_max, kmax, 1, 2, 1) * fb
    identity_ok = lhs == rhs
    first = None
    if not identity_ok:
        keys = sorted(set(lhs.coeffs) | set(rhs.coeffs))
        for key in keys:
            a = lhs.coeffs.get(key, 0)
            b = rhs.coeffs.get(key, 0)
            if a != b:
                first = f"coefficient at {key}: skeletons {a}, maps {b}"
                break
    printed = f_bipartite(n_max, kmax)
    cells = []
    all_match = True
    for key in sorted(set(fb.coeffs) | set(printed.coeffs)):
        a = fb.coeffs.get(key, 0)
        b = printed.coeffs.get(key, 0)
        ok = a == b
        all_match = all_match and ok
        cells.append(GfCell(key, a, b, ok))
    return GfReport(identity_ok, first, tuple(cells), all_match)


def dump_series_tsv(s: TruncatedSeries) -> str:
    lines = ["t_deg\tx_deg\tp_multidegree\tcoefficient"]
    for (td, xd, pd), c in sorted(s.coeffs.items()):
        pstr = ",".join(str(d) for d in pd) if pd else "-"
        lines.append(f"{td}\t{xd}\t{pstr}\t{c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Limiting outer half-degree distribution

def limit_pmf(k: int) -> Fraction:
    """Limiting probability that the outer half-degree of a large uniform
    bipartite map equals k."""
    if k < 1:
        return Fraction(0)
    return Fraction(k, 3) * comb(2 * k, k) * Fraction(3, 16) ** k


class PmfReport(NamedTuple):
    sum_defect: float
    tv_distance: float
    tv_on_support: float


def pmf_diagnostics(k_max: int, n_empirical: int) -> PmfReport:
    """How far the exact partial sum of the limit law up to k_max falls
    short of 1 (sum_defect), plus two total-variation distances against
    the outer half-degree distribution over the bipartite maps with
    n_empirical edges.

    tv_distance compares with the full limit law; since the outer
    half-degree of an n-edge map is at most n, this is always at least the
    limit's tail mass beyond n (about 0.29 at n = 6), no matter how well
    the shapes agree.  tv_on_support compares with the limit law
    conditioned on 1..n_empirical and measures the shape agreement that
    can actually converge at enumerable sizes.
    """
    from .enumeration import gen_bipartite_maps
    from .planar_maps import map_stats

    partial = sum((limit_pmf(k) for k in range(1, k_max + 1)), Fraction(0))
    counts: dict[int, int] = {}
    total = 0
    for m in gen_bipartite_maps(n_empirical):
        d = map_stats(m).outdeg
        counts[d] = counts.get(d, 0) + 1
        total += 1
    tv = Fraction(0)
    for k in range(1, k_max + 1):
        emp = Fraction(counts.get(k, 0), total)
        tv += abs(emp - limit_pmf(k))
    tv += 1 - partial  # limit mass beyond k_max, where the empirical law is 0
    support_mass = sum((limit_pmf(k) for k in range(1, n_empirical + 1)),
                       Fraction(0))
    tv_cond = Fraction(0)
    for k in range(1, n_empirical + 1):
        emp = Fraction(counts.get(k, 0), total)
        tv_cond += abs(emp - limit_pmf(k) / support_mass)
    return PmfReport(float(1 - partial), float(tv / 2), float(tv_cond / 2))
