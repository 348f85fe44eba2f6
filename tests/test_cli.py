import inspect
import marshal
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lambdamaps import checks, cli, enumeration, lambda_core
from lambdamaps.cli import convert, from_word, main, run_verify, stats_lines, to_word
from lambdamaps.enumeration import gen_maps, gen_skeletons, gen_trees
from lambdamaps.labeled_trees import render_labeled_tree
from lambdamaps.planar_maps import render_map
from lambdamaps.lambda_core import alpha_equal, parse_term, render_term, term_of_skeleton


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "lambdamaps", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# Documented invocations

def test_enumerate_count_documented():
    code, out, _err = run_cli("enumerate", "--family", "s1", "--size", "3", "--count")
    assert code == 0
    assert out == "9\n"


def test_convert_term_to_map_documented():
    code, out, _err = run_cli("convert", "--from", "term", "--to", "map",
                              r"\x.\y.y x")
    assert code == 0
    assert out == "map n=1 sigma=(0)(1) root=0\n"


def test_verify_roundtrip_documented():
    code, out, _err = run_cli("verify", "--suite", "roundtrip", "--max-size", "5")
    assert code == 0
    assert out == (
        "ok roundtrip.term-text sizes<=5 (444 terms)\n"
        "ok roundtrip.phi sizes<=5 (17 reduced skeletons)\n"
        "ok roundtrip.psi sizes<=5 (444 skeletons)\n"
        "ok roundtrip.rho edges<=5 (3360 maps)\n"
        "ok roundtrip.term-map-term sizes<=5 (444 terms)\n"
        "all checks passed (5/5)\n")


# ---------------------------------------------------------------------------
# Behavior

def test_count_equals_listing_length(capsys):
    for size, want in ((2, 9), (5, 2916)):
        assert main(["enumerate", "--family", "vtree", "--size", str(size)]) == 0
        listing = capsys.readouterr().out.rstrip("\n").split("\n")
        assert main(["enumerate", "--family", "vtree", "--size", str(size), "--count"]) == 0
        count = int(capsys.readouterr().out)
        assert count == len(listing) == want
        assert listing == sorted(listing)


def test_count_renders_and_sorts_nothing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("--count rendered or sorted the family")

    for attr in ("render_skeleton", "render_map", "render_labeled_tree", "sorted"):
        monkeypatch.setattr(cli, attr, refuse, raising=False)
    counts = {"s1": 9, "s2": 3, "s3": 1, "rs": 1, "map": 54, "map-loopless": 13,
              "map-bipartite": 12, "dtree": 12, "vtree": 54, "vtree-pos": 13}
    for family, want in counts.items():
        assert main(["enumerate", "--family", family, "--size", "3", "--count"]) == 0
        assert capsys.readouterr().out == f"{want}\n"
    # the patch reaches the listing
    with pytest.raises(AssertionError):
        main(["enumerate", "--family", "map", "--size", "3"])


def test_enumerate_all_families(capsys):
    for family in ("s1", "s2", "s3", "rs", "map", "map-loopless",
                   "map-bipartite", "dtree", "vtree", "vtree-pos"):
        assert main(["enumerate", "--family", family, "--size", "2", "--count"]) == 0
        capsys.readouterr()


def test_convert_chains():
    assert convert("term", "vtree", r"\x.\y.y x") == "2[1]"
    assert convert("vtree", "map", "2[1]") == "map n=1 sigma=(0)(1) root=0"
    assert convert("map", "skeleton", "map n=1 sigma=(0)(1) root=0") == "U(U(B(L,L)))"
    assert convert("skeleton", "dtree", "U(U(B(L,L)))") == "0"
    assert convert("dtree", "skeleton", "0") == "U(U(B(L,L)))"
    assert convert("term", "dtree", r"\x.\y.\z.z (y x)") == "1[0]"
    assert convert("dtree", "term", "1[0]") == r"\x1.\x2.\x3.x3 (x2 x1)"


def _through_hub(from_kind, to_kind, text):
    """convert by way of the word hub, or the error it raises."""
    try:
        return from_word(to_kind, to_word(from_kind, text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _direct(from_kind, to_kind, text):
    try:
        return convert(from_kind, to_kind, text)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_direct_vtree_map_routes_equal_the_hub_route():
    vtrees = [render_labeled_tree(t) for e in range(7) for t in gen_trees(e, "vtree")]
    maps = [render_map(m) for e in range(6) for m in gen_maps(e)]
    assert len(vtrees) > 20000 and len(maps) == 3360
    for text in vtrees:
        assert _direct("vtree", "map", text) == _through_hub("vtree", "map", text)
    for text in maps:
        assert _direct("map", "vtree", text) == _through_hub("map", "vtree", text)


def test_direct_vtree_map_routes_fail_as_the_hub_route(capsys):
    bad_vtrees = ["2[0]", "1[1]", "0", "3[1,0", "2[1]x", "", "a"]
    bad_maps = ["map n=1 sigma=(0 1 2) root=0", "map n=1 sigma=(0)(1) root=2",
                "map n=2 sigma=(0 2 1 3) root=0", "map n=2 sigma=(0)(1)(2)(3) root=0",
                "map n=1", "map"]
    cases = [("vtree", "map", t) for t in bad_vtrees] + [("map", "vtree", t) for t in bad_maps]
    for from_kind, to_kind, text in cases:
        got = _direct(from_kind, to_kind, text)
        assert got == _through_hub(from_kind, to_kind, text)
        assert main(["convert", "--from", from_kind, "--to", to_kind, text]) == 2
        assert capsys.readouterr().err == f"error: {got.split(': ', 1)[1]}\n"
    assert _direct("vtree", "map", "2[0]") == "InvalidInput: not a valid v-tree"


# One object as a term, a v-tree and a map, in the texts convert writes.
_ONE_OBJECT = {
    "term": r"\x1.\x2.\x3.x3 \x4.x4 (x2 x1)",
    "vtree": "3[2[2[1]]]",
    "map": "map n=3 sigma=(0 2)(1 4)(3 5) root=0",
}


def test_convert_builds_no_term_or_skeleton_object(monkeypatch):
    def refuse(*args):
        raise AssertionError("a term or skeleton object was built")

    builders = (lambda_core.Term, lambda_core.Skeleton)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lambdamaps":
            for attr, value in list(vars(module).items()):
                if any(value is b for b in builders):
                    monkeypatch.setattr(module, attr, refuse)
    for a, text in _ONE_OBJECT.items():
        for b, want in _ONE_OBJECT.items():
            if a != b:
                assert convert(a, b, text) == want
    # the patch reaches the builders: skeleton texts still use them
    with pytest.raises(AssertionError):
        convert("term", "skeleton", _ONE_OBJECT["term"])


def test_convert_roundtrip_via_map():
    for n in range(1, 5):
        for sk in gen_skeletons(n, 1):
            term = term_of_skeleton(sk)
            out = convert("map", "term", convert("term", "map", render_term(term)))
            assert alpha_equal(parse_term(out), term)


def test_convert_roundtrip_of_a_star_degree_tree():
    # 10**5 leaves: phi_inv, unreduce, reduce_skeleton and phi cut and
    # prefix the word, so no direction builds a node per leaf
    k = 10**5
    text = f"{k}[{','.join(['0'] * k)}]"
    assert convert("term", "dtree", convert("dtree", "term", text)) == text


def test_convert_rejects_nonlinear_terms():
    code, _out, err = run_cli("convert", "--from", "term", "--to", "map",
                              r"\x.\y.x x")
    assert code == 2
    assert "binds" in err
    code, _out, err = run_cli("convert", "--from", "term", "--to", "map", "x y")
    assert code == 2
    assert "not closed" in err


def test_convert_and_stats_reject_non_planar_terms(capsys):
    # linear, but not the term of its own skeleton: it used to come back
    # silently as the planar term of that skeleton
    cases = [
        (["convert", "--from", "term", "--to", "term", r"\x.\y.x y"], "x is used before y"),
        (["convert", "--from", "term", "--to", "term", r"\x.\y.\z.x (y z)"],
         "x is used before z"),
        (["stats", "--kind", "term", r"\x.\y.x y"], "x is used before y"),
    ]
    for argv, why in cases:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: term is not planar: {why}\n"


def test_deep_term_text_exits_2(capsys):
    # the recursive parser raised RecursionError on this input
    assert main(["convert", "--from", "term", "--to", "term", "\\x." * 3000]) == 2
    assert capsys.readouterr().err == "error: unexpected end of input at offset 8999\n"
    assert main(["convert", "--from", "term", "--to", "term", "(" * 3000 + "x" + ")" * 3000]) == 2
    assert capsys.readouterr().err == "error: term is not closed: free ['x']\n"


def test_usage_errors_exit_2():
    code, _out, _err = run_cli("enumerate", "--family", "bogus", "--size", "2")
    assert code == 2
    code, _out, _err = run_cli("enumerate", "--family", "s1", "--size", "99",
                               "--count")
    assert code == 2
    code, _out, _err = run_cli("nonsense")
    assert code == 2
    code, _out, _err = run_cli("convert", "--from", "term", "--to", "map",
                               r"\x.x (\y.y")
    assert code == 2


def test_non_ascii_digits_are_bad_input(capsys):
    # "²" passed str.isdigit() in the tree parser and in the kind
    # detection, and then int() raised a builtin ValueError
    for text in ("²", "١"):
        with pytest.raises(lambda_core.ParseError):
            stats_lines(text, None)
    with pytest.raises(lambda_core.ParseError, match="expected a label at offset 2"):
        convert("vtree", "map", "1[²]")
    for argv, error in ((["stats", "²"], "unexpected character '²' at offset 0"),
                        (["convert", "--from", "vtree", "--to", "map", "1[²]"],
                         "expected a label at offset 2")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_non_ascii_digits_in_a_map_are_bad_input(capsys):
    # parse_map read its numbers with "\d", which matches every Unicode
    # digit, so this text was the one-edge map
    text = "map n=\u0661 sigma=(\u0660)(\u0661) root=\u0660"
    for argv in (["stats", text], ["convert", "--from", "map", "--to", "vtree", text]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: missing n=\n")
    code, out, err = run_cli("stats", text)
    assert (code, out, err) == (2, "", "error: missing n=\n")


def test_vtree_with_huge_labels_is_bad_input(capsys):
    # each text passes the root check; its huge labels below the root are
    # refused before a chain as long as one is written
    for text in ("100000000000000000001[100000000000000000000]",
                 "1[0[100000000000000000000]]"):
        for to in ("term", "map", "skeleton"):
            assert main(["convert", "--from", "vtree", "--to", to, text]) == 2
            assert capsys.readouterr() == ("", "error: not a valid v-tree\n")
    code, out, err = run_cli("convert", "--from", "vtree", "--to", "term",
                             "100000000000000000001[100000000000000000000]")
    assert (code, out, err) == (2, "", "error: not a valid v-tree\n")


def test_numbers_longer_than_int_reads_are_bad_input(capsys, too_many_digits):
    # int() refused them with a builtin ValueError, which the error line
    # printed as "Exceeds the limit (4300 digits) ..."
    big = too_many_digits
    label = f"label of {len(big)} digits is longer than int() reads"
    for argv, error in (
            (["stats", big], f"{label} at offset 0"),
            (["convert", "--from", "vtree", "--to", "map", f"2[{big}]"], f"{label} at offset 2"),
            (["stats", f"map n={big} sigma=(0) root=0"], "a number in n= has more digits"),
            (["convert", "--from", "map", "--to", "vtree", f"map n=1 sigma=(0 {big}) root=0"],
             "a number in sigma= has more digits"),
            (["stats", f"map n=1 sigma=(0)(1) root={big}"], "a number in root= has more digits")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_stats_map_with_huge_edge_count(capsys):
    # Rejected before sigma is allocated: the text lists one half-edge only.
    assert main(["stats", "map n=1000000000000000000 sigma=(0) root=0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # Omitted half-edges are fixed points, so these short texts stay valid.
    for text, edges, canonical in (("map n=3 sigma=(0 2 4) root=0", "3", "03020104030005"),
                                   ("map n=1 sigma=() root=0", "1", "010001")):
        assert main(["stats", text]) == 0
        record = dict(line.split("\t") for line in capsys.readouterr()[0].splitlines())
        assert record["edges"] == edges
        assert record["canonical"] == canonical


def test_map_text_with_trailing_or_repeated_fields_exits_2(capsys):
    # Text after n=0 used to be ignored, and a half-edge listed twice kept
    # its last successor; both parsed as valid maps.
    for argv in (["stats", "map n=0 junk"],
                 ["stats", "map n=0 sigma=(0 1) root=0"],
                 ["convert", "--from", "map", "--to", "vtree", "map n=1 sigma=(0 1)(1 0) root=1"],
                 ["convert", "--from", "map", "--to", "vtree", "map n=1 sigma=(0 0) root=1"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_stats_map_with_200_edges(capsys):
    # A star: one vertex with the 200 even half-edges, the odd ones are
    # leaves.  Above 128 edges each canonical field takes the hex width of
    # 2n - 1 = 399, three digits.
    text = "map n=200 sigma=(" + " ".join(str(2 * i) for i in range(200)) + ") root=0"
    assert main(["stats", text]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    record = dict(line.split("\t") for line in out.splitlines())
    assert record["edges"] == "200"
    assert len(record["canonical"]) == 3 * 401
    assert record["canonical"].startswith("0c8" + "002")
    # At 128 edges, 2n - 1 = 255 still takes two digits.
    assert main(["stats", "map n=128 sigma=(" + " ".join(str(2 * i) for i in range(128)) + ") root=0"]) == 0
    record = dict(line.split("\t") for line in capsys.readouterr()[0].splitlines())
    assert len(record["canonical"]) == 2 * 257


def test_gf_rejects_orders_out_of_range(capsys):
    for n, k in (("0", "1"), ("9", "1"), ("1", "9"), ("100000000000000", "100000000000000")):
        assert main(["gf", "--N", n, "--K", k]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["gf", "--N", "1", "--K", "0"]) == 0
    assert capsys.readouterr().out.startswith("t_deg\tx_deg\tp_multidegree\tcoefficient\n")


def test_stats_output():
    lines = stats_lines("map n=1 sigma=(0)(1) root=0", None)
    record = dict(line.split("\t") for line in lines)
    assert record["edges"] == "1"
    assert record["bipartite"] == "yes"
    assert record["outdeg"] == "1"
    assert record["canonical"] == "010001"  # lowercase hex of (n, sigma)
    lines = stats_lines(r"\x.\y.y x", None)
    record = dict(line.split("\t") for line in lines)
    assert record["3-connected"] == "yes"  # the size-2 degenerate element
    assert record["ex"] == "1"
    lines = stats_lines(r"\x.x (\y.y)", None)
    record = dict(line.split("\t") for line in lines)
    assert record["connected-family"] == "yes"
    assert record["2-connected"] == "no"  # closed sub-term
    lines = stats_lines("2[1]", "vtree")
    record = dict(line.split("\t") for line in lines)
    assert record["v-tree"] == "valid"
    assert record["positive"] == "yes"


def test_file_input(tmp_path):
    f = tmp_path / "term.txt"
    f.write_text("\\x.\\y.y x\n")
    code, out, _err = run_cli("convert", "--from", "term", "--to", "map",
                              "--file", str(f))
    assert code == 0
    assert out == "map n=1 sigma=(0)(1) root=0\n"


def test_table_and_gf_commands(capsys):
    assert main(["table", "--max-size", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family\tn\tcount\tformula\tmatch\n")
    assert main(["gf", "--N", "2", "--K", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t_deg\tx_deg\tp_multidegree\tcoefficient\n")


def test_run_verify_all_small():
    ok, lines = run_verify("all", 3)
    assert ok
    assert lines == [
        "ok roundtrip.term-text sizes<=3 (12 terms)",
        "ok roundtrip.phi sizes<=3 (2 reduced skeletons)",
        "ok roundtrip.psi sizes<=3 (12 skeletons)",
        "ok roundtrip.rho edges<=3 (66 maps)",
        "ok roundtrip.term-map-term sizes<=3 (12 terms)",
        "ok oracle.connectivity sizes<=3 (12 skeletons)",
        "ok oracle.rho-direct edges<=3 (66 maps)",
        "ok oracle.preimages edges<=2 (12 maps)",
        "ok counts.connected sizes<=3 [1, 2, 9]",
        "ok counts.2-connected sizes<=3",
        "ok counts.3-connected sizes<=3",
        "ok counts.psi-2conn-image sizes<=3",
        "ok counts.rho-loopless-image edges<=2",
        "ok stats.multisets n<=1 shift=[2]",
        "ok gf.chain-identity t<=3",
        "ok gf.printed-form printed system deviates from enumeration "
        "(reported, not asserted)",
        "ok gf.pmf-sum defect=8.28e-25",
        "ok gf.pmf-tv n=2 tv-on-support=0.137 (full tv=0.734, floored by the tail mass)",
        "all checks passed (18/18)",
    ]


def test_verify_rejects_max_size_out_of_range(capsys):
    for suite, max_size in (("stats", "0"), ("roundtrip", "0"), ("all", "1"),
                            ("all", "9")):
        assert main(["verify", "--suite", suite, "--max-size", max_size]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: max size must be in 2..8, got {max_size}\n"


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("max_size", [2, 3, 4, 5])
def test_verify_small_sizes_match_the_stored_lines(capsys, max_size):
    # the caps min(nmax, 5), nmax - 1 and nmax - 2 take other branches below
    # the sizes the stored size-6, 7 and 8 lines cover
    assert main(["verify", "--suite", "all", "--max-size", str(max_size)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (DATA / f"verify_max{max_size}.txt").read_text()
    assert captured.err == ""


def test_a_kernel_that_raises_on_a_family_object_fails_its_checks(monkeypatch):
    # a broken matcher raised InvalidInput out of verify, which then exited 2
    # as if the input were bad; the matcher runs inside listing_of_word,
    # which both checks call by name and cli through lambda_core
    from lambdamaps import lambda_core
    from lambdamaps.lambda_core import InvalidInput

    def broken(_word):
        raise InvalidInput("leaf 1 has no enclosing unary node")

    monkeypatch.setattr(lambda_core, "listing_of_word", broken)
    monkeypatch.setattr(checks, "listing_of_word", broken)
    ok, lines = run_verify("roundtrip", 3)
    assert not ok
    detail = "raised InvalidInput: leaf 1 has no enclosing unary node"
    assert lines[0] == f"FAIL roundtrip.term-text {detail}"
    assert lines[4] == f"FAIL roundtrip.term-map-term {detail}"
    assert lines[-1] == "2 check(s) failed (3/5)"
    assert_no_child_left()


def test_checks_keeps_no_cache_of_its_own():
    # the rho images and the gf report were lru caches here, which the
    # queue, a fixture and the tests had to know about; rows that share
    # work share one fn instead, so no result of a working kernel can hide
    # a broken one
    own = [name for name, f in vars(checks).items()
           if hasattr(f, "cache_clear") and f.__module__ == checks.__name__]
    assert own == []
    assert "lru_cache" not in Path(checks.__file__).read_text()


def _failed(out: str) -> list[str]:
    """The names of the checks that verify printed FAIL for."""
    return [line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")]


@pytest.mark.parametrize("name, kernel", [
    ("roundtrip.rho", "rho"),
    ("roundtrip.rho", "rho_inv"),
    ("oracle.rho-direct", "rho"),
    ("oracle.rho-direct", "rho_direct"),
    ("oracle.preimages", "pi"),
    ("oracle.preimages", "attach_root_edge"),
    ("counts.psi-2conn-image", "psi"),
    ("counts.rho-loopless-image", "rho"),
    ("stats.multisets", "skeleton_stats"),
    ("stats.multisets", "degree_tree_stats"),
])
def test_a_kernel_that_raises_on_one_object_fails_the_check_that_calls_it(
        monkeypatch, capsys, name, kernel):
    # each of these checks once raised InvalidInput out of verify, which
    # exited 2 as if the input were bad; in the check's suite no other check
    # calls checks' binding of the kernel.  The three rho checks share one
    # fn, so a fault fails all three, and the suite prints only its own
    from lambdamaps.lambda_core import InvalidInput

    original = getattr(checks, kernel)
    calls = []

    def broken(*args):
        calls.append(args)
        if len(calls) == 1:
            raise InvalidInput("a fault on the first object")
        return original(*args)

    monkeypatch.setattr(checks, kernel, broken)
    assert main(["verify", "--suite", name.split(".")[0], "--max-size", "4"]) == 1
    captured = capsys.readouterr()
    assert _failed(captured.out) == [name]
    assert captured.err == ""
    assert_no_child_left()


def test_a_kernel_that_raises_no_value_error_fails_its_check(monkeypatch, capsys):
    # an exception that is not a ValueError escaped main with a traceback
    def broken(_s):
        raise IndexError("list index out of range")

    monkeypatch.setattr(checks, "psi", broken)
    assert main(["verify", "--suite", "counts", "--max-size", "4"]) == 1
    captured = capsys.readouterr()
    assert ("FAIL counts.psi-2conn-image raised IndexError: list index out of range"
            in captured.out.splitlines())
    assert _failed(captured.out) == ["counts.psi-2conn-image"]
    assert captured.err == ""
    assert_no_child_left()


def _mutant(fn, old: str, new: str):
    """fn with the one occurrence of old in its source replaced by new,
    compiled over a copy of its module's namespace."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def test_a_reduced_test_that_admits_too_much_fails_checks_and_is_not_bad_input(
        monkeypatch, capsys):
    # phi then builds labelled trees that degree_tree_stats rejects, and
    # stats.multisets raised that InvalidInput out of verify, which printed
    # one error line and exited 2
    from lambdamaps import connectivity

    monkeypatch.setattr(connectivity, "_reduced", _mutant(
        connectivity._reduced, "return right > chain", "return right >= chain"))
    assert main(["verify", "--suite", "all", "--max-size", "6"]) == 1
    captured = capsys.readouterr()
    assert _failed(captured.out) == ["roundtrip.phi", "oracle.connectivity", "counts.3-connected",
                                     "stats.multisets", "gf.chain-identity"]
    assert captured.err == ""
    assert_no_child_left()


def test_a_loopless_test_that_skips_edge_zero_fails_the_rho_loopless_check(
        monkeypatch, capsys):
    # this mutant of map_stats passed verify, and only a generator test
    # caught it: the loopless image is compared with the loop rule's maps,
    # and map_stats now has to call exactly those maps loopless
    from lambdamaps import planar_maps

    monkeypatch.setattr(checks, "map_stats", _mutant(
        planar_maps.map_stats, "range(0, 2 * m.n, 2)", "range(2, 2 * m.n, 2)"))
    assert main(["verify", "--suite", "counts", "--max-size", "4"]) == 1
    captured = capsys.readouterr()
    assert _failed(captured.out) == ["counts.rho-loopless-image"]
    assert captured.err == ""
    assert_no_child_left()


def test_a_fault_in_a_shared_fn_fails_each_of_its_rows_alike(monkeypatch, capsys):
    # the three rho checks run as one fn, so rho_direct raising fails all
    # three with one detail, not oracle.rho-direct alone; every other line
    # is the stored one
    from lambdamaps.lambda_core import InvalidInput

    def broken(_m):
        raise InvalidInput("a fault on the first map")

    monkeypatch.setattr(checks, "rho_direct", broken)
    assert main(["verify", "--suite", "all", "--max-size", "4"]) == 1
    out, err = capsys.readouterr()
    shared = ["roundtrip.rho", "oracle.rho-direct", "counts.rho-loopless-image"]
    stored = (DATA / "verify_max4.txt").read_text().splitlines()[:-1]
    assert out.splitlines() == [
        *(f"FAIL {line.split()[1]} raised InvalidInput: a fault on the first map"
          if line.split()[1] in shared else line for line in stored),
        f"3 check(s) failed ({len(stored) - 3}/{len(stored)})"]
    assert err == ""
    assert_no_child_left()


# ---------------------------------------------------------------------------
# verify's worker processes

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_leaves_no_worker_process(capsys):
    assert main(["verify", "--suite", "all", "--max-size", "3"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_max3.txt").read_text()
    assert_no_child_left()


def test_every_check_returns_a_bool_and_a_str_that_marshal_carries():
    # a worker writes its results with marshal, which raises on most other
    # types, so such a check would end its worker before it reported
    results = {}
    for fn in dict.fromkeys(fn for _name, fn, *_row in checks.CHECKS):
        results.update(checks._run(fn, 3))
    assert sorted(results) == list(range(len(checks.CHECKS)))
    for i, result in results.items():
        name = checks.CHECKS[i][0]
        ok, detail = result
        assert type(ok) is bool and type(detail) is str, name
        assert ok, (name, detail)
        assert marshal.loads(marshal.dumps(result)) == result, name


def _replace_fns(monkeypatch, fn_of):
    """Give each check a fn of its own that calls fn_of(its name), keeping
    the rest of its row, so that each check is an entry of its own."""
    def own(fn):
        return lambda nmax: fn(nmax)

    monkeypatch.setattr(checks, "CHECKS", tuple((name, own(fn_of(name)), *row)
                                                for name, _fn, *row in checks.CHECKS))


@pytest.mark.skipif(checks._workers(2) < 2, reason="needs a worker process")
def test_checks_raising_in_the_caller_and_a_worker_each_print_a_fail_line(monkeypatch, capsys):
    # verify re-raised only the earlier of the two exceptions and exited 2
    caller = os.getpid()
    last = checks.CHECKS[-1][0]

    def check(name):
        def run(_nmax):
            if os.getpid() != caller:
                # a worker raises on each check it takes, after the caller
                # has raised on the last check
                time.sleep(0.5)
                raise ValueError("the earlier check")
            if name == last:
                raise ValueError("the later check")
            time.sleep(0.02)  # a worker takes a check meanwhile
            return True, ""
        return run

    _replace_fns(monkeypatch, check)
    assert main(["verify", "--suite", "all", "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    failed = _failed(out)
    assert failed[-1] == last and f"FAIL {last} raised ValueError: the later check" in lines
    in_worker = failed[:-1]
    assert in_worker
    for name in in_worker:
        assert f"FAIL {name} raised ValueError: the earlier check" in lines
    total = len(checks.CHECKS)
    assert lines[-1] == f"{len(failed)} check(s) failed ({total - len(failed)}/{total})"
    assert_no_child_left()


@pytest.mark.skipif(checks._workers(2) < 2, reason="needs a worker process")
def test_verify_reports_a_parse_error_raised_in_a_worker(monkeypatch, capsys):
    # the worker's FAIL line carries the error's message and offset, as
    # the line of the same check raising on one CPU does
    caller = os.getpid()
    text = r"\x.\y.(y x"
    with pytest.raises(lambda_core.ParseError) as raised:
        parse_term(text)

    def check(_nmax):
        if os.getpid() != caller:
            parse_term(text)
        time.sleep(0.05)  # a worker takes a check meanwhile
        return True, ""

    _replace_fns(monkeypatch, lambda _name: check)
    assert main(["verify", "--suite", "all", "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    in_worker = _failed(out)
    assert in_worker
    for name in in_worker:
        assert f"FAIL {name} raised ParseError: {raised.value}" in out.splitlines()
    assert_no_child_left()

    def check_of(name):
        def run(_nmax):
            if name in in_worker:
                parse_term(text)
            return True, ""
        return run

    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    _replace_fns(monkeypatch, check_of)
    assert main(["verify", "--suite", "all", "--max-size", "3"]) == 1
    assert capsys.readouterr() == (out, "")


def test_verify_on_one_cpu_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert main(["verify", "--suite", "all", "--max-size", "4"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_max4.txt").read_text()


def test_an_interrupt_in_the_caller_kills_and_reaps_the_workers(monkeypatch):
    caller = os.getpid()

    def check(_nmax):
        if os.getpid() == caller:
            time.sleep(0.2)  # a worker takes a check meanwhile
            raise KeyboardInterrupt
        time.sleep(60)
        return True, ""

    _replace_fns(monkeypatch, lambda _name: check)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verify("gf", 3)
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


@pytest.mark.skipif(checks._workers(2) < 2, reason="needs a worker process")
def test_a_worker_that_dies_fails_the_run(monkeypatch):
    caller = os.getpid()

    def check(_nmax):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.2)  # a worker takes a check meanwhile
        return True, ""

    _replace_fns(monkeypatch, lambda _name: check)
    ok, lines = run_verify("gf", 3)
    assert ok is False
    lost = [line for line in lines if line.startswith("FAIL ")]
    assert lost
    for line in lost:
        name = line.split()[1]
        assert line == f"FAIL {name} its worker process ended before it reported"
    total = len(lines) - 1
    assert lines[-1] == f"{len(lost)} check(s) failed ({total - len(lost)}/{total})"
    assert_no_child_left()


# ---------------------------------------------------------------------------
# verify's schedule

def _caches() -> set:
    """The lru caches of the generators."""
    return {f for f in vars(enumeration).values() if hasattr(f, "cache_clear")}


def _filled_by(run) -> set:
    """The caches that run() fills when it starts with all of them empty."""
    for cache in _caches():
        cache.cache_clear()
    run()
    return {cache for cache in _caches() if cache.cache_info().currsize}


# The queue entries at --max-size 8 on two CPUs, heaviest first, as chosen
# by their measured seconds (BENCH_30.json).
MEASURED_SCHEDULE = [
    ["roundtrip.term-text"],
    ["roundtrip.psi"],
    ["oracle.connectivity"],
    ["counts.psi-2conn-image"],
    ["roundtrip.phi"],
    ["stats.multisets"],
    ["roundtrip.rho", "oracle.rho-direct", "counts.rho-loopless-image"],
    ["counts.connected"],
    ["counts.2-connected"],
    ["roundtrip.term-map-term"],
    ["oracle.preimages"],
    ["gf.chain-identity", "gf.printed-form"],
    ["gf.pmf-tv"],
    ["counts.3-connected"],
    ["gf.pmf-sum"],
]


def _selected(suite: str) -> list[int]:
    return [i for i, (name, *_row) in enumerate(checks.CHECKS)
            if suite in ("all", name.split(".", 1)[0])]


def test_the_rows_give_the_measured_schedule():
    entries = checks._entries(_selected("all"))
    assert [[checks.CHECKS[i][0] for i in entry] for entry in entries] == MEASURED_SCHEDULE
    for suite in ("all", *checks.SUITES):
        queued = [i for entry in checks._entries(_selected(suite)) for i in entry]
        assert sorted(queued) == _selected(suite)


def test_groups_and_shared_caches_are_the_checks_that_read_them():
    # rows that share a fn are one entry, in every suite
    for suite in ("all", *checks.SUITES):
        fns = [{checks.CHECKS[i][1] for i in entry} for entry in checks._entries(_selected(suite))]
        assert all(len(entry_fns) == 1 for entry_fns in fns), suite
        assert len(set().union(*fns)) == len(fns), suite
    # run alone on empty caches, a check fills the generator caches it reads
    fills = {fill for *_row, generators in checks.CHECKS for fill in generators}
    cache_of = {fill: _filled_by(lambda: fill(4)) for fill in fills}
    assert all(len(caches) == 1 for caches in cache_of.values())
    generated = set().union(*cache_of.values())
    for name, fn, _seconds, generators in checks.CHECKS:
        filled = _filled_by(lambda: fn(4))
        assert filled & generated == set().union(*map(cache_of.get, generators)), name


PREFILLED = {"gf": (), "roundtrip": ("_words",), "all": ("_words", "_map_cache")}


@pytest.mark.parametrize("suite", PREFILLED)
def test_prefill_fills_the_generator_caches_of_two_or_more_entries(suite):
    # --suite gf reads the words in one entry, to size 6 alone: filling
    # them to the size cap before it forks cost it 1.97 s against 0.41 s
    expected = set().union(*(_filled_by(lambda: getattr(checks, fill)(4))
                             for fill in PREFILLED[suite]))
    filled = _filled_by(lambda: checks._prefill(checks._entries(_selected(suite)), 4))
    assert filled == expected


@pytest.mark.parametrize("cpus", [1, 2, 8])  # 8: more processes than cores
@pytest.mark.parametrize("suite", checks.SUITES)
def test_a_suite_prints_its_lines_of_the_full_run(monkeypatch, capsys, suite, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
    stored = (DATA / "verify_max4.txt").read_text().splitlines()[:-1]
    lines = [line for line in stored if line.split()[1].split(".")[0] == suite]
    assert main(["verify", "--suite", suite, "--max-size", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == lines + [f"all checks passed ({len(lines)}/{len(lines)})"]
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_reports_a_check_queued_late_but_early_in_check_order(monkeypatch, capsys,
                                                                    cpus):
    # verify raised the first exception in CHECKS order and exited 2, so
    # one check's fault hid the others and read as bad input.  Now every
    # raising check prints its own FAIL line: the raising checks are the one
    # queued last and every check after it in CHECKS order, one of which is
    # queued before it
    names = [name for name, *_row in checks.CHECKS]
    last_entry = [names[i] for i in checks._entries(_selected("all"))[-1]]
    raising = names[names.index(last_entry[0]):]
    assert set(raising) - set(last_entry)

    def check(name):
        def run(_nmax):
            time.sleep(0.01)  # on two CPUs, the worker takes checks meanwhile
            if name in raising:
                raise ValueError(f"{name} failed")
            return True, ""
        return run

    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
    _replace_fns(monkeypatch, check)
    assert main(["verify", "--suite", "all", "--max-size", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        *(f"FAIL {name} raised ValueError: {name} failed" if name in raising else f"ok {name} "
          for name in names),
        f"{len(raising)} check(s) failed ({len(names) - len(raising)}/{len(names)})"]
    assert err == ""
    assert_no_child_left()
