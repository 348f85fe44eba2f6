"""Command-line front-end: enumeration, conversion, verification, statistics
and series reports.

Exit codes: 0 on success (all checks passed), 1 on verification failure,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from . import enumeration, series
from .bijections import (
    degree_tree_stats,
    phi,
    phi_inv,
    skeleton_stats,
    vtree_of_word,
    word_of_vtree,
)
from .checks import SUITES, run_verify
from .connectivity import (
    check_family,
    is_three_connected_skeleton,
    reduce_skeleton,
    unreduce,
)
from .enumeration import (
    gen_bipartite_maps,
    gen_loopless_maps,
    gen_maps,
    gen_reduced_skeletons,
    gen_skeletons,
    gen_trees,
    render_count_table,
)
from .labeled_trees import (
    parse_labeled_tree,
    render_labeled_tree,
    validate_degree_tree,
    validate_vtree,
)
from .lambda_core import (
    InvalidInput,
    Skeleton,
    _listing_defect,
    is_normal,
    listing_of_word,
    parse_listing,
    parse_skeleton,
    render_listing,
    render_skeleton,
)
from .planar_maps import (
    canonical_form,
    canonical_map,
    is_one_corner,
    map_stats,
    parse_map,
    render_map,
    rho_direct,
    rho_inv,
)


# ---------------------------------------------------------------------------
# Conversions (the pre-order arity word is the hub)

def to_word(kind: str, text: str) -> bytes:
    """The pre-order arity word of the skeleton an object text stands for.

    A term is read as a listing and checked on it; a v-tree or a map goes
    through psi_inv on the word.  Only skeleton and degree-tree texts build
    a skeleton object, which is read for its word at once.
    """
    if kind == "term":
        word, names = parse_listing(text)
        if defect := _listing_defect(word, names):
            raise InvalidInput(defect)
        return word
    if kind == "skeleton":
        return parse_skeleton(text).word
    if kind == "vtree":
        return word_of_vtree(parse_labeled_tree(text))
    if kind == "dtree":
        return unreduce(phi_inv(parse_labeled_tree(text))).word
    if kind == "map":
        return word_of_vtree(rho_direct(parse_map(text)))
    raise InvalidInput(f"unknown object kind {kind!r}")


def from_word(kind: str, word: bytes) -> str:
    """The text of the object of this kind that a pre-order arity word
    stands for; inverse of to_word."""
    if kind == "term":
        return render_listing(*listing_of_word(word))
    if kind == "skeleton":
        return render_skeleton(Skeleton(word))
    if kind == "vtree":
        return render_labeled_tree(vtree_of_word(word))
    if kind == "dtree":
        return render_labeled_tree(phi(reduce_skeleton(Skeleton(word))))
    if kind == "map":
        return render_map(canonical_map(rho_inv(vtree_of_word(word))))
    raise InvalidInput(f"unknown object kind {kind!r}")


def convert(from_kind: str, to_kind: str, text: str) -> str:
    """Convert text through the word hub, except between v-trees and maps,
    which rho_inv and rho_direct join directly: the hub would add psi_inv
    and then psi, which together are the identity on v-trees."""
    if from_kind == "vtree" and to_kind == "map":
        return render_map(canonical_map(rho_inv(parse_labeled_tree(text))))
    if from_kind == "map" and to_kind == "vtree":
        return render_labeled_tree(rho_direct(parse_map(text)))
    return from_word(to_kind, to_word(from_kind, text))


# ---------------------------------------------------------------------------
# Stats

def _detect_kind(text: str) -> str:
    t = text.strip()
    if t.startswith("map"):
        return "map"
    if t and t[0] in "LUB":
        return "skeleton"
    if t and t[0] in "0123456789":
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
        # Two lowercase hex digits per field up to 128 edges, wider above.
        width = max(2, len(f"{2 * m.n - 1:x}"))
        out.append(f"canonical\t{''.join(f'{x:0{width}x}' for x in canonical_form(m))}")
        return out
    if kind in ("term", "skeleton"):
        s = Skeleton(to_word(kind, text))
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
# Enumeration listings

_FAMILIES = ("s1", "s2", "s3", "rs", "map", "map-loopless", "map-bipartite",
             "dtree", "vtree", "vtree-pos")


def family_members(family: str, size: int) -> tuple[Sequence, Callable[..., str]]:
    """The generated objects of a family and the function that renders
    one: --count counts the objects, a listing renders and sorts them."""
    if family in ("s1", "s2", "s3"):
        return gen_skeletons(size, int(family[1])), render_skeleton
    if family == "rs":
        return gen_reduced_skeletons(size), render_skeleton
    if family == "map":
        return gen_maps(size), render_map
    if family == "map-loopless":
        return gen_loopless_maps(size), render_map
    if family == "map-bipartite":
        return gen_bipartite_maps(size), render_map
    if family == "dtree":
        return gen_trees(size, "degree"), render_labeled_tree
    if family == "vtree":
        return gen_trees(size, "vtree"), render_labeled_tree
    if family == "vtree-pos":
        return gen_trees(size, "vtree_positive"), render_labeled_tree
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
                   choices=(*SUITES, "all"))
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
            members, render = family_members(args.family, args.size)
            if args.count:
                print(len(members))
            else:
                for line in sorted(map(render, members)):
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
