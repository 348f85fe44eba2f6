"""Acceptance suite: every headline claim at desk scale, one line each.

Criteria 1-11 run named checks from `lambdamaps.checks`, the registry that
`lambdamaps verify` also drives, at the size cap given in CRITERIA.
Criterion 12 runs the command line.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion PASS/FAIL
lines and timings.
"""

import subprocess
import sys
import time

from lambdamaps.checks import CHECKS, _run

# (number, description, time budget in seconds, nmax, check names)
CRITERIA = (
    (1, "3-connected terms equinumerous with bipartite maps", 120, 6,
     ("counts.3-connected",)),
    (2, "connected terms equinumerous with maps "
        "(generator checked against the permutation scan to 5 edges)", 600, 6,
     ("counts.connected", "counts.2-connected")),
    (3, "phi, psi and rho invert exhaustively", 300, 6,
     ("roundtrip.phi", "roundtrip.psi", "roundtrip.rho", "roundtrip.term-text",
      "roundtrip.term-map-term")),
    (4, "the direct exploration equals the recursive decomposition", 300, 6,
     ("oracle.rho-direct",)),
    (5, "root label law", 300, 6, ("oracle.rho-direct",)),
    (6, "restriction laws", 300, 6,
     ("counts.psi-2conn-image", "counts.rho-loopless-image")),
    (7, "structural characterizations match brute-force edge connectivity", 600, 6,
     ("oracle.connectivity",)),
    (8, "attach_root_edge builds exactly the pi-preimages", 300, 6,
     ("oracle.preimages",)),
    (9, "statistics transfer between trees, maps and skeletons", 300, 6,
     ("stats.multisets",)),
    (10, "reduced-skeleton series equals t^2 * bipartite series", 300, 6,
     ("gf.chain-identity", "gf.printed-form")),
    # nmax 7 so that gf.pmf-tv compares against the maps with 6 edges
    (11, "limiting outer half-degree law", 300, 7, ("gf.pmf-sum", "gf.pmf-tv")),
)


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


def _criterion(num: int):
    number, desc, budget_s, nmax, names = CRITERIA[num - 1]
    assert number == num
    index = {name: i for i, (name, *_row) in enumerate(CHECKS)}

    def run():
        details = []
        for name in names:
            # a fn that several checks share reports each of them
            ok, detail = _run(CHECKS[index[name]][1], nmax)[index[name]]
            assert ok, f"{name} {detail}"
            details.append(f"{name} {detail}")
        return "; ".join(details)

    _report(num, desc, budget_s, run)


def test_every_check_is_in_a_criterion():
    covered = {name for *_row, names in CRITERIA for name in names}
    names = [name for name, *_row in CHECKS]
    assert covered <= set(names)
    assert [name for name in names if name not in covered] == []


def test_criterion_01_count_identity_3connected():
    _criterion(1)


def test_criterion_02_count_identity_connected():
    _criterion(2)


def test_criterion_03_roundtrips():
    _criterion(3)


def test_criterion_04_rho_direct_agrees():
    _criterion(4)


def test_criterion_05_root_label_law():
    _criterion(5)


def test_criterion_06_restriction_laws():
    _criterion(6)


def test_criterion_07_characterization_vs_graph_oracle():
    _criterion(7)


def test_criterion_08_preimage_completeness():
    _criterion(8)


def test_criterion_09_statistics_transfer():
    _criterion(9)


def test_criterion_10_generating_function_relation():
    _criterion(10)


def test_criterion_11_limit_distribution():
    _criterion(11)


def test_criterion_12_cli_contract():
    def run():
        def cli(*args):
            return subprocess.run([sys.executable, "-m", "lambdamaps", *args],
                                  capture_output=True, text=True)

        p = cli("enumerate", "--family", "s1", "--size", "3", "--count")
        assert p.returncode == 0 and p.stdout == "9\n", p.stdout
        p = cli("convert", "--from", "term", "--to", "map", r"\x.\y.y x")
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
