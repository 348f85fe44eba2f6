"""Command-line front-end: enumeration, conversion, verification suites,
statistics and series reports.

Exit codes: 0 on success (all checks passed), 1 on verification failure,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import enumeration, series
from .bijections import (
    InvalidInput,
    degree_tree_stats,
    phi,
    phi_inv,
    psi,
    psi_inv,
    skeleton_stats,
)
from .connectivity import (
    ConnectivityClass,
    check_family,
    edge_connectivity_class,
    is_three_connected_skeleton,
    reduce_skeleton,
    unreduce,
)
from .enumeration import (
    bipartite_maps_formula,
    gen_bipartite_maps,
    gen_loopless_maps,
    gen_maps,
    gen_reduced_skeletons,
    gen_skeletons,
    gen_trees,
    maps_formula,
    render_count_table,
)
from .labeled_trees import (
    parse_labeled_tree,
    render_labeled_tree,
    validate_degree_tree,
    validate_vtree,
)
from .lambda_core import (
    Skeleton,
    alpha_equal,
    diagram_of,
    is_normal,
    linearity_defect,
    parse_skeleton,
    parse_term,
    render_skeleton,
    render_term,
    skeleton_of,
    term_of_skeleton,
)
from .planar_maps import (
    attach_root_edge,
    canonical_form,
    canonical_map,
    is_one_corner,
    map_stats,
    outv,
    outv_except_root,
    parse_map,
    pi,
    render_map,
    rho,
    rho_direct,
    rho_inv,
)


# ---------------------------------------------------------------------------
# Conversions (the skeleton is the hub)

def to_skeleton(kind: str, text: str) -> Skeleton:
    if kind == "term":
        term = parse_term(text)
        if defect := linearity_defect(term):
            raise InvalidInput(defect)
        return skeleton_of(term)
    if kind == "skeleton":
        return parse_skeleton(text)
    if kind == "vtree":
        return psi_inv(parse_labeled_tree(text))
    if kind == "dtree":
        return unreduce(phi_inv(parse_labeled_tree(text)))
    if kind == "map":
        return psi_inv(rho_direct(parse_map(text)))
    raise InvalidInput(f"unknown object kind {kind!r}")


def from_skeleton(kind: str, s: Skeleton) -> str:
    if kind == "term":
        return render_term(term_of_skeleton(s))
    if kind == "skeleton":
        return render_skeleton(s)
    if kind == "vtree":
        return render_labeled_tree(psi(s))
    if kind == "dtree":
        return render_labeled_tree(phi(reduce_skeleton(s)))
    if kind == "map":
        return render_map(canonical_map(rho_inv(psi(s))))
    raise InvalidInput(f"unknown object kind {kind!r}")


def convert(from_kind: str, to_kind: str, text: str) -> str:
    return from_skeleton(to_kind, to_skeleton(from_kind, text))


# ---------------------------------------------------------------------------
# Stats

def _detect_kind(text: str) -> str:
    t = text.strip()
    if t.startswith("map"):
        return "map"
    if t and t[0] in "LUB":
        return "skeleton"
    if t and (t[0].isdigit()):
        return "tree"
    return "term"


def stats_lines(text: str, kind: str | None) -> list[str]:
    kind = kind or _detect_kind(text)
    out = []
    if kind == "map":
        m = parse_map(text)
        st = map_stats(m)
        out.append(f"edges\t{m.n}")
        out.append(f"outv\t{st.outv}")
        out.append(f"loopless\t{'yes' if st.loopless else 'no'}")
        out.append(f"bipartite\t{'yes' if st.bipartite else 'no'}")
        if st.bipartite:
            out.append(f"white\t{st.white}")
            out.append(f"black\t{st.black}")
            out.append(f"outdeg\t{st.outdeg}")
            out.append(f"face\t{dict(st.face)}")
        out.append(f"one-corner\t{'yes' if is_one_corner(m) else 'no'}")
        out.append(f"canonical\t{canonical_form(m).hex()}")
        return out
    if kind in ("term", "skeleton"):
        if kind == "term":
            term = parse_term(text)
            if defect := linearity_defect(term):
                raise InvalidInput(defect)
            s = skeleton_of(term)
        else:
            s = parse_skeleton(text)
        out.append(f"size\t{s.nleaf}")
        out.append(f"unary\t{s.nunary}")
        out.append(f"normal\t{'yes' if is_normal(s) else 'no'}")
        f1 = check_family(s, 1)
        f2 = check_family(s, 2) if f1 else False
        f3 = is_three_connected_skeleton(s) if f1 else False
        out.append(f"connected-family\t{'yes' if f1 else 'no'}")
        out.append(f"2-connected\t{'yes' if f2 else 'no'}")
        out.append(f"3-connected\t{'yes' if f3 else 'no'}")
        if f3:
            st = skeleton_stats(reduce_skeleton(s))
            out.append(f"ex\t{st.ex}")
            out.append(f"applv\t{st.applv}")
            out.append(f"appla\t{st.appla}")
            out.append(f"uc\t{dict(st.uc)}")
        return out
    if kind in ("tree", "vtree", "dtree"):
        t = parse_labeled_tree(text)
        if kind in ("tree", "dtree") and validate_degree_tree(t):
            st = degree_tree_stats(t)
            out.append("degree-tree\tvalid")
            out.append(f"rlabel\t{st.rlabel}")
            out.append(f"lnode\t{st.lnode}")
            out.append(f"znode\t{st.znode}")
            out.append(f"edge\t{dict(st.edge)}")
        elif kind == "dtree":
            out.append("degree-tree\tinvalid")
        if kind in ("tree", "vtree"):
            chk = validate_vtree(t)
            out.append(f"v-tree\t{'valid' if chk.valid else 'invalid'}")
            if chk.valid:
                out.append(f"positive\t{'yes' if chk.positive else 'no'}")
                out.append(f"size\t{t.edge_count()}")
                out.append(f"root-label\t{t.label}")
        return out
    raise InvalidInput(f"unknown object kind {kind!r}")


# ---------------------------------------------------------------------------
# Verification suites

class _Suite:
    def __init__(self):
        self.lines: list[str] = []
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str):
        if ok:
            self.lines.append(f"ok {name} {detail}")
        else:
            self.failed += 1
            self.lines.append(f"FAIL {name} {detail}")

    def summary(self) -> tuple[bool, list[str]]:
        total = len(self.lines)
        if self.failed:
            tail = f"{self.failed} check(s) failed ({total - self.failed}/{total})"
        else:
            tail = f"all checks passed ({total}/{total})"
        return self.failed == 0, self.lines + [tail]


def _suite_roundtrip(s: _Suite, nmax: int):
    bad = total = 0
    for n in range(1, nmax + 1):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            total += 1
            if not alpha_equal(parse_term(render_term(term)), term):
                bad += 1
    s.check("roundtrip.term-text", bad == 0, f"sizes<={nmax} ({total} terms)")
    bad = total = 0
    for n in range(2, nmax + 1):
        for r in gen_reduced_skeletons(n):
            total += 1
            if phi_inv(phi(r)) != r:
                bad += 1
    s.check("roundtrip.phi", bad == 0, f"sizes<={nmax} ({total} reduced skeletons)")
    bad = total = 0
    for n in range(1, nmax + 1):
        for sk in gen_skeletons(n, 1):
            total += 1
            if psi_inv(psi(sk)) != sk:
                bad += 1
    s.check("roundtrip.psi", bad == 0, f"sizes<={nmax} ({total} skeletons)")
    bad = total = 0
    for m_edges in range(0, min(nmax, 5) + 1):
        for m in gen_maps(m_edges):
            total += 1
            if canonical_form(rho_inv(rho(m))) != canonical_form(m):
                bad += 1
    s.check("roundtrip.rho", bad == 0, f"edges<={min(nmax, 5)} ({total} maps)")
    bad = total = 0
    for n in range(1, min(nmax, 5) + 1):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            total += 1
            back = parse_term(convert("map", "term", convert("term", "map", render_term(term))))
            if not alpha_equal(back, term):
                bad += 1
    s.check("roundtrip.term-map-term", bad == 0,
            f"sizes<={min(nmax, 5)} ({total} terms)")


def _suite_oracle(s: _Suite, nmax: int):
    bad = total = 0
    for n in range(1, nmax + 1):
        for sk in gen_skeletons(n, 1):
            total += 1
            cls = edge_connectivity_class(diagram_of(sk))
            if check_family(sk, 2) != (cls >= ConnectivityClass.Two):
                bad += 1
            if n >= 2 and is_three_connected_skeleton(sk) != (cls == ConnectivityClass.ThreePlus):
                bad += 1
    s.check("oracle.connectivity", bad == 0, f"sizes<={nmax} ({total} skeletons)")
    bad = total = 0
    for m_edges in range(0, min(nmax, 5) + 1):
        for m in gen_maps(m_edges):
            total += 1
            t = rho(m)
            if rho_direct(m) != t or t.label != outv(m):
                bad += 1
    s.check("oracle.rho-direct", bad == 0, f"edges<={min(nmax, 5)} ({total} maps)")
    bad = total = 0
    for m_edges in range(0, min(nmax - 1, 4) + 1):
        bigger = [u for u in gen_maps(m_edges + 1) if is_one_corner(u)]
        preimages: dict[bytes, list[bytes]] = {}
        for u in bigger:
            preimages.setdefault(canonical_form(pi(u)), []).append(canonical_form(u))
        for m in gen_maps(m_edges):
            total += 1
            built = sorted(
                canonical_form(attach_root_edge(m, i)) for i in range(outv(m) + 1))
            found = sorted(preimages.get(canonical_form(m), []))
            if built != found:
                bad += 1
            for i in range(outv(m) + 1):
                u = attach_root_edge(m, i)
                if outv_except_root(u) != i or not is_one_corner(u):
                    bad += 1
    s.check("oracle.preimages", bad == 0, f"edges<={min(nmax - 1, 4)} ({total} maps)")


def _suite_counts(s: _Suite, nmax: int):
    expected_m = [1, 2, 9, 54, 378, 2916, 24057]
    bad = 0
    details = []
    for n in range(1, min(nmax, 7) + 1):
        c1 = len(gen_skeletons(n, 1))
        if c1 != expected_m[n - 1] or c1 != maps_formula(n - 1):
            bad += 1
        if n - 1 <= 6:
            if len(gen_maps(n - 1)) != c1:
                bad += 1
        details.append(f"{c1}")
    s.check("counts.connected", bad == 0,
            f"sizes<={min(nmax, 7)} [{', '.join(details)}]")
    bad = 0
    for n in range(1, min(nmax, 7) + 1):
        if n - 1 > 6:
            continue
        if len(gen_skeletons(n, 2)) != len(gen_loopless_maps(n - 1)):
            bad += 1
    s.check("counts.2-connected", bad == 0, f"sizes<={min(nmax, 7)}")
    bad = 0
    for n in range(2, min(nmax, 7) + 1):
        if n - 2 > 6:
            continue
        c3 = len(gen_skeletons(n, 3))
        cb = len(gen_bipartite_maps(n - 2))
        if c3 != cb:
            bad += 1
        f = bipartite_maps_formula(n - 2)
        if f is not None and f != cb:
            bad += 1
    s.check("counts.3-connected", bad == 0, f"sizes<={min(nmax, 7)}")
    bad = 0
    for n in range(1, nmax + 1):
        vt = {render_labeled_tree(t) for t in gen_trees(n - 1, "vtree_positive")}
        im = {render_labeled_tree(psi(sk)) for sk in gen_skeletons(n, 2)}
        if vt != im:
            bad += 1
    s.check("counts.psi-2conn-image", bad == 0, f"sizes<={nmax}")
    bad = 0
    for m_edges in range(0, min(nmax - 1, 5) + 1):
        vt = {render_labeled_tree(t) for t in gen_trees(m_edges, "vtree_positive")}
        im = {render_labeled_tree(rho(m)) for m in gen_loopless_maps(m_edges)}
        if vt != im:
            bad += 1
    s.check("counts.rho-loopless-image", bad == 0, f"edges<={min(nmax - 1, 5)}")


def _suite_stats(s: _Suite, nmax: int):
    shifts = []
    bad = 0
    for n in range(1, min(nmax - 2, 4) + 1):
        try:
            rep = enumeration.compare_stat_multisets(n)
            shifts.append(rep.abstraction_shift)
        except AssertionError as exc:
            bad += 1
            s.check(f"stats.multisets.n{n}", False, str(exc))
    ok = bad == 0 and len(set(shifts)) <= 1
    s.check("stats.multisets", ok,
            f"n<={min(nmax - 2, 4)} shift={sorted(set(shifts))}")


def _suite_gf(s: _Suite, nmax: int):
    rep = series.check_gf_relation(min(nmax, 6))
    s.check("gf.chain-identity", rep.identity_ok,
            rep.first_mismatch or f"t<={min(nmax, 6)}")
    s.check("gf.printed-form", True,
            ("matches enumeration" if rep.printed_matches
             else "printed system deviates from enumeration (reported, not asserted)"))
    partial = sum((series.limit_pmf(k) for k in range(1, 201)), start=Fraction(0))
    s.check("gf.pmf-sum", abs(1 - partial) < Fraction(1, 10**9),
            f"defect={float(1 - partial):.2e}")
    n_emp = min(nmax - 1, 6)
    rep2 = series.pmf_diagnostics(200, n_emp)
    s.check("gf.pmf-tv", rep2.tv_on_support < 0.2,
            f"n={n_emp} tv-on-support={rep2.tv_on_support:.3f} "
            f"(full tv={rep2.tv_distance:.3f}, floored by the tail mass)")


def run_verify(suite: str, nmax: int) -> tuple[bool, list[str]]:
    s = _Suite()
    if suite in ("roundtrip", "all"):
        _suite_roundtrip(s, nmax)
    if suite in ("oracle", "all"):
        _suite_oracle(s, nmax)
    if suite in ("counts", "all"):
        _suite_counts(s, nmax)
    if suite in ("stats", "all"):
        _suite_stats(s, nmax)
    if suite in ("gf", "all"):
        _suite_gf(s, nmax)
    return s.summary()


# ---------------------------------------------------------------------------
# Enumeration listings

_FAMILIES = ("s1", "s2", "s3", "rs", "map", "map-loopless", "map-bipartite",
             "dtree", "vtree", "vtree-pos")


def enumerate_family(family: str, size: int) -> list[str]:
    if family in ("s1", "s2", "s3"):
        level = int(family[1])
        return sorted(render_skeleton(s) for s in gen_skeletons(size, level))
    if family == "rs":
        return sorted(render_skeleton(s) for s in gen_reduced_skeletons(size))
    if family == "map":
        return sorted(render_map(m) for m in gen_maps(size))
    if family == "map-loopless":
        return sorted(render_map(m) for m in gen_loopless_maps(size))
    if family == "map-bipartite":
        return sorted(render_map(m) for m in gen_bipartite_maps(size))
    if family == "dtree":
        return sorted(render_labeled_tree(t) for t in gen_trees(size, "degree"))
    if family == "vtree":
        return sorted(render_labeled_tree(t) for t in gen_trees(size, "vtree"))
    if family == "vtree-pos":
        return sorted(render_labeled_tree(t) for t in gen_trees(size, "vtree_positive"))
    raise InvalidInput(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lambdamaps",
        description="planar linear normal lambda terms, labeled trees and "
                    "rooted planar maps")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list or count a family")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--count", action="store_true")

    p = sub.add_parser("convert", help="convert between object kinds")
    kinds = ("term", "skeleton", "vtree", "dtree", "map")
    p.add_argument("--from", dest="from_kind", required=True, choices=kinds)
    p.add_argument("--to", dest="to_kind", required=True, choices=kinds)
    p.add_argument("input", nargs="?")
    p.add_argument("--file")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True,
                   choices=("roundtrip", "oracle", "counts", "stats", "gf", "all"))
    p.add_argument("--max-size", dest="max_size", required=True, type=int)

    p = sub.add_parser("stats", help="print the statistics of one object")
    p.add_argument("input", nargs="?")
    p.add_argument("--file")
    p.add_argument("--kind", choices=("term", "skeleton", "map", "vtree", "dtree"))

    p = sub.add_parser("table", help="emit the count table as TSV")
    p.add_argument("--max-size", dest="max_size", required=True, type=int)

    p = sub.add_parser("gf", help="dump the printed bipartite series as TSV")
    p.add_argument("--N", dest="n", required=True, type=int)
    p.add_argument("--K", dest="k", required=True, type=int)

    return ap


def _read_input(args) -> str:
    if args.file:
        with open(args.file) as fh:
            return fh.read().strip()
    if args.input is None:
        raise InvalidInput("missing input (inline argument or --file)")
    return args.input


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.verb == "enumerate":
            items = enumerate_family(args.family, args.size)
            if args.count:
                print(len(items))
            else:
                for line in items:
                    print(line)
            return 0
        if args.verb == "convert":
            print(convert(args.from_kind, args.to_kind, _read_input(args)))
            return 0
        if args.verb == "verify":
            ok, lines = run_verify(args.suite, args.max_size)
            for line in lines:
                print(line)
            return 0 if ok else 1
        if args.verb == "stats":
            for line in stats_lines(_read_input(args), args.kind):
                print(line)
            return 0
        if args.verb == "table":
            sys.stdout.write(render_count_table(enumeration.count_table(args.max_size)))
            return 0
        if args.verb == "gf":
            sys.stdout.write(series.dump_series_tsv(series.f_bipartite(args.n, args.k)))
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
