"""Acceptance suite: every headline claim at desk scale, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines and timings.
"""

import subprocess
import sys
import time
from fractions import Fraction

from lambdamaps.bijections import degree_tree_stats, phi, phi_inv, psi, psi_inv, skeleton_stats
from lambdamaps.connectivity import (
    ConnectivityClass,
    check_family,
    edge_connectivity_class,
    is_three_connected_skeleton,
)
from lambdamaps.enumeration import (
    bipartite_maps_formula,
    compare_stat_multisets,
    gen_bipartite_maps,
    gen_loopless_maps,
    gen_maps,
    gen_reduced_skeletons,
    gen_skeletons,
    gen_trees,
    maps_formula,
)
from lambdamaps.labeled_trees import render_labeled_tree
from lambdamaps.lambda_core import diagram_of
from lambdamaps.planar_maps import (
    attach_root_edge,
    canonical_form,
    is_one_corner,
    outv,
    outv_except_root,
    pi,
    rho,
    rho_direct,
    rho_inv,
)
from lambdamaps.series import check_gf_relation, limit_pmf, pmf_diagnostics


def _report(num: int, desc: str, budget_s: float, fn):
    t0 = time.time()
    try:
        detail = fn()
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL ({time.time() - t0:.1f}s): {desc}")
        raise
    elapsed = time.time() - t0
    extra = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:.1f}s): {desc}{extra}")
    assert elapsed <= budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_count_identity_3connected():
    def run():
        expected = [1, 1, 3, 12, 56]
        for n, want in zip(range(2, 7), expected):
            c3 = len(gen_skeletons(n, 3))
            b = len(gen_bipartite_maps(n - 2))
            assert c3 == b == want, (n, c3, b, want)
            f = bipartite_maps_formula(n - 2)
            if f is not None:
                assert f == b
        return "sizes 2..6 = [1, 1, 3, 12, 56]"

    _report(1, "3-connected terms equinumerous with bipartite maps", 120, run)


def test_criterion_02_count_identity_connected():
    def run():
        expected = [1, 2, 9, 54, 378, 2916]
        for n, want in zip(range(1, 7), expected):
            c1 = len(gen_skeletons(n, 1))
            m = len(gen_maps(n - 1))
            assert c1 == m == want == maps_formula(n - 1), (n, c1, m, want)
            c2 = len(gen_skeletons(n, 2))
            lo = len(gen_loopless_maps(n - 1))
            assert c2 == lo, (n, c2, lo)
        return "sizes 1..6 = [1, 2, 9, 54, 378, 2916]; 2-connected = loopless"

    _report(2, "connected terms equinumerous with maps "
            "(generator checked against the permutation scan to 5 edges)",
            600, run)


def test_criterion_03_roundtrips():
    def run():
        count = 0
        for n in range(2, 7):
            for r in gen_reduced_skeletons(n):
                assert phi_inv(phi(r)) == r
                count += 1
        for n in range(1, 7):
            for s in gen_skeletons(n, 1):
                assert psi_inv(psi(s)) == s
                count += 1
        for n in range(0, 6):
            for m in gen_maps(n):
                assert canonical_form(rho_inv(rho(m))) == canonical_form(m)
                count += 1
        return f"{count} round trips, zero failures"

    _report(3, "phi, psi and rho invert exhaustively", 300, run)


def test_criterion_04_rho_direct_agrees():
    def run():
        count = 0
        for n in range(0, 6):
            for m in gen_maps(n):
                assert rho_direct(m) == rho(m)
                count += 1
        return f"{count} maps, zero mismatches"

    _report(4, "the direct exploration equals the recursive decomposition", 300, run)


def test_criterion_05_root_label_law():
    def run():
        for n in range(0, 6):
            for m in gen_maps(n):
                assert rho(m).label == outv(m)
        return "root label = outer vertex count, edges <= 5"

    _report(5, "root label law", 300, run)


def test_criterion_06_restriction_laws():
    def run():
        for n in range(1, 7):
            want = {render_labeled_tree(t) for t in gen_trees(n - 1, "vtree_positive")}
            got = {render_labeled_tree(psi(s)) for s in gen_skeletons(n, 2)}
            assert want == got, n
        for n in range(0, 6):
            want = {render_labeled_tree(t) for t in gen_trees(n, "vtree_positive")}
            got = {render_labeled_tree(rho(m)) for m in gen_loopless_maps(n)}
            assert want == got, n
        return "psi(2-connected) and rho(loopless) are exactly the positive v-trees"

    _report(6, "restriction laws", 300, run)


def test_criterion_07_characterization_vs_graph_oracle():
    def run():
        count = 0
        for n in range(1, 7):
            for s in gen_skeletons(n, 1):
                cls = edge_connectivity_class(diagram_of(s))
                assert check_family(s, 2) == (cls >= ConnectivityClass.Two), s
                if n >= 2:
                    assert is_three_connected_skeleton(s) == \
                        (cls == ConnectivityClass.ThreePlus), s
                count += 1
        return (f"{count} skeletons, zero disagreements (single-atom term "
                "vacuous at level 3 by convention)")

    _report(7, "structural characterizations match brute-force edge connectivity",
            600, run)


def test_criterion_08_preimage_completeness():
    def run():
        for n in range(0, 5):
            preimages = {}
            for u in gen_maps(n + 1):
                if is_one_corner(u):
                    preimages.setdefault(canonical_form(pi(u)), []).append(
                        canonical_form(u))
            for m in gen_maps(n):
                built = sorted(canonical_form(attach_root_edge(m, i))
                               for i in range(outv(m) + 1))
                assert built == sorted(preimages.get(canonical_form(m), []))
                assert len(set(built)) == outv(m) + 1
                for i in range(outv(m) + 1):
                    u = attach_root_edge(m, i)
                    assert outv_except_root(u) == i
        return "all one-corner preimages recovered, maps <= 4 edges"

    _report(8, "attach_root_edge builds exactly the pi-preimages", 300, run)


def test_criterion_09_statistics_transfer():
    def run():
        shifts = set()
        for n in range(1, 5):
            rep = compare_stat_multisets(n)
            shifts.add(rep.abstraction_shift)
        assert shifts == {2}, shifts
        for n in range(2, 7):
            for r in gen_reduced_skeletons(n):
                s = skeleton_stats(r)
                d = degree_tree_stats(phi(r))
                assert (s.applv, s.appla, s.uc) == (d.lnode, d.znode, d.edge)
                assert s.ex == d.rlabel + 1
        return "joint multisets equal for n <= 4; abstraction shift constant = 2"

    _report(9, "statistics transfer between trees, maps and skeletons", 300, run)


def test_criterion_10_generating_function_relation():
    def run():
        rep = check_gf_relation(6)
        assert rep.identity_ok, rep.first_mismatch
        mismatched = sum(1 for c in rep.printed_cells if not c.match)
        return (f"enumeration identity exact to t^6; printed closed form "
                f"deviates in {mismatched} cells (reported, not asserted)")

    _report(10, "reduced-skeleton series equals t^2 * bipartite series", 300, run)


def test_criterion_11_limit_distribution():
    def run():
        total = sum((limit_pmf(k) for k in range(1, 201)), Fraction(0))
        assert abs(1 - total) < Fraction(1, 10**9)
        rep = pmf_diagnostics(200, 6)
        assert rep.tv_on_support < 0.2, rep
        return (f"partial sum defect {rep.sum_defect:.1e}; tv on support "
                f"{rep.tv_on_support:.3f} at n=6 (full tv {rep.tv_distance:.3f}, "
                f"floored by the limit's tail mass beyond outdeg 6)")

    _report(11, "limiting outer half-degree law", 300, run)


def test_criterion_12_cli_contract():
    def run():
        def cli(*args):
            return subprocess.run([sys.executable, "-m", "lambdamaps", *args],
                                  capture_output=True, text=True)

        p = cli("enumerate", "--family", "s1", "--size", "3", "--count")
        assert p.returncode == 0 and p.stdout == "9\n", p.stdout
        p = cli("convert", "--from", "term", "--to", "map", r"\x.\y.x y")
        assert p.returncode == 0 and p.stdout == "map n=1 sigma=(0)(1) root=0\n"
        p = cli("verify", "--suite", "roundtrip", "--max-size", "5")
        assert p.returncode == 0
        lines = p.stdout.rstrip("\n").split("\n")
        assert lines[-1].startswith("all checks passed")
        assert all(line.startswith("ok ") for line in lines[:-1])
        p = cli("verify", "--suite", "all", "--max-size", "5")
        assert p.returncode == 0, p.stdout + p.stderr
        assert p.stdout.rstrip("\n").split("\n")[-1].startswith("all checks passed")
        return "three documented invocations byte-exact; full verify exits 0"

    _report(12, "command-line contract", 900, run)
