"""The named checks behind `lambdamaps verify` and the acceptance suite.

Each row of CHECKS is ``(name, fn, seconds, derived_cache,
generator_caches)``: ``fn(nmax)`` checks one claim exhaustively up to the
size cap nmax and returns ``(ok, detail)``; the rest weigh it and name the
caches it reads.  The suite of a check is the part of its name before the
first dot.

The checks share no mutable state, so `run_verify` runs them on every
usable CPU: one forked process per CPU, the caller included, takes the next
entry from a shared queue until none is left.  The checks that read one
derived cache form one entry, so that one process fills it; every other
check is an entry of its own; the entries go heaviest first by summed
seconds.  Before it forks, the caller fills the generator caches that
checks of two or more entries read (the skeleton cache holds the words of
each size, not the smaller pairs built on the way), and copy-on-write
shares them.  The lines come out in CHECKS order whatever the order the
checks finish in.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NoReturn

from .bijections import degree_tree_stats, phi, phi_inv, psi, psi_inv, skeleton_stats
from .connectivity import (ConnectivityClass, check_family, edge_connectivity_class,
                           is_three_connected_skeleton)
from .enumeration import (MAX_SKELETON_SIZE, bipartite_maps_formula,
                          compare_stat_multisets, gen_bipartite_maps, gen_loopless_maps,
                          gen_maps, gen_reduced_skeletons, gen_skeletons, gen_trees,
                          maps_formula)
from .labeled_trees import LabeledTree, render_labeled_tree
from .lambda_core import (InvalidInput, Skeleton, SizeTooLarge, alpha_equal, diagram_of,
                          listing_of_word, parse_listing, parse_term, render_listing,
                          render_term, term_of_skeleton)
from .planar_maps import (RootedMap, attach_root_edge, canonical_form, is_one_corner, outv,
                          pi, rho, rho_direct, rho_inv)
from .series import check_gf_relation, limit_pmf, pmf_diagnostics

# Connected terms of size 1..7 (= rooted maps with 0..6 edges) and
# 3-connected terms of size 2..7 (= bipartite maps with 0..5 edges).
CONNECTED_COUNTS = (1, 2, 9, 54, 378, 2916, 24057)
THREE_CONNECTED_COUNTS = (1, 1, 3, 12, 56, 288)

# The rho checks run on the maps with at most this many edges.
RHO_MAX_EDGES = 5


def _skeletons(nmax: int) -> list[Skeleton]:
    """Every connected-family skeleton of size 1..nmax."""
    return [s for n in range(1, nmax + 1) for s in gen_skeletons(n, 1)]


@lru_cache(maxsize=None)
def _rho_images(e: int) -> tuple[LabeledTree, ...]:
    """rho of every map in gen_maps(e), in the same order, computed once
    for the three checks that read it."""
    return tuple(map(rho, gen_maps(e)))


def _maps(emax: int) -> list[tuple[RootedMap, LabeledTree]]:
    """Every rooted planar map with 0..emax edges, with its rho image."""
    return [pair for e in range(emax + 1) for pair in zip(gen_maps(e), _rho_images(e))]


def _bad(claim, objects) -> int:
    """How many of objects claim fails on.  A kernel that raises ValueError
    on one of them fails the claim there, so that verify prints FAIL and
    exits 1 instead of stopping at the first such object."""
    bad = 0
    for x in objects:
        try:
            bad += not claim(x)
        except ValueError:
            bad += 1
    return bad


def _text_roundtrips(s: Skeleton) -> bool:
    """The text of the term of s parses back to that very term, names
    included, which implies that the two are alpha-equal.  The term is
    compared as its listing (pre-order word and names), which the printer
    writes and the parser reads, so no term object is built."""
    listing = listing_of_word(s.word)
    return parse_listing(render_listing(*listing)) == listing


def _term_text(nmax: int) -> tuple[bool, str]:
    sks = _skeletons(nmax)
    bad = _bad(_text_roundtrips, sks)
    return bad == 0, f"sizes<={nmax} ({len(sks)} terms)"


def _phi_roundtrip(nmax: int) -> tuple[bool, str]:
    rs = [r for n in range(2, nmax + 1) for r in gen_reduced_skeletons(n)]
    bad = _bad(lambda r: phi_inv(phi(r)) == r, rs)
    return bad == 0, f"sizes<={nmax} ({len(rs)} reduced skeletons)"


def _psi_roundtrip(nmax: int) -> tuple[bool, str]:
    sks = _skeletons(nmax)
    bad = _bad(lambda s: psi_inv(psi(s)) == s, sks)
    return bad == 0, f"sizes<={nmax} ({len(sks)} skeletons)"


def _rho_roundtrip(nmax: int) -> tuple[bool, str]:
    emax = min(nmax, RHO_MAX_EDGES)
    pairs = _maps(emax)
    bad = sum(canonical_form(rho_inv(t)) != canonical_form(m) for m, t in pairs)
    return bad == 0, f"edges<={emax} ({len(pairs)} maps)"


def _term_map_term(nmax: int) -> tuple[bool, str]:
    from .cli import convert  # imported here because cli imports this module

    def back_and_forth(s: Skeleton) -> bool:
        term = term_of_skeleton(s)
        back = convert("map", "term", convert("term", "map", render_term(term)))
        return alpha_equal(parse_term(back), term)

    sks = _skeletons(min(nmax, 5))
    bad = _bad(back_and_forth, sks)
    return bad == 0, f"sizes<={min(nmax, 5)} ({len(sks)} terms)"


def _connectivity_agrees(s: Skeleton) -> bool:
    cls = edge_connectivity_class(diagram_of(s))
    if check_family(s, 2) != (cls >= ConnectivityClass.Two):
        return False
    return s.nleaf < 2 or is_three_connected_skeleton(s) == (cls == ConnectivityClass.ThreePlus)


def _connectivity(nmax: int) -> tuple[bool, str]:
    """The structural 2- and 3-connectivity tests agree with the diagram's
    edge connectivity; the one-atom term is vacuous at level 3."""
    sks = _skeletons(nmax)
    bad = _bad(_connectivity_agrees, sks)
    return bad == 0, f"sizes<={nmax} ({len(sks)} skeletons)"


def _rho_direct(nmax: int) -> tuple[bool, str]:
    """rho_direct equals rho, and the root label is the outer vertex count."""
    emax = min(nmax, RHO_MAX_EDGES)
    pairs = _maps(emax)
    bad = sum(rho_direct(m) != t or t.label != outv(m) for m, t in pairs)
    return bad == 0, f"edges<={emax} ({len(pairs)} maps)"


def _preimages(nmax: int) -> tuple[bool, str]:
    """attach_root_edge(m, i) for i in 0..outv(m) are outv(m) + 1 distinct
    one-corner maps with i outer vertices besides the root, and they are
    exactly the maps that pi sends to m."""
    emax = min(nmax - 1, 4)
    bad = total = 0
    for e in range(emax + 1):
        preimages: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for u in gen_maps(e + 1):
            if is_one_corner(u):
                preimages.setdefault(canonical_form(pi(u)), []).append(canonical_form(u))
        for m in gen_maps(e):
            total += 1
            attached = [attach_root_edge(m, i) for i in range(outv(m) + 1)]
            built = sorted(canonical_form(u) for u in attached)
            bad += (built != sorted(preimages.get(canonical_form(m), []))
                    or len(set(built)) != len(attached))
            bad += sum(outv(u) - 1 != i or not is_one_corner(u)
                       for i, u in enumerate(attached))
    return bad == 0, f"edges<={emax} ({total} maps)"


def _connected_counts(nmax: int) -> tuple[bool, str]:
    counts = [len(gen_skeletons(n, 1)) for n in range(1, min(nmax, 7) + 1)]
    bad = sum(c != CONNECTED_COUNTS[n - 1] or c != maps_formula(n - 1)
              or c != len(gen_maps(n - 1)) for n, c in enumerate(counts, start=1))
    return bad == 0, f"sizes<={min(nmax, 7)} [{', '.join(map(str, counts))}]"


def _two_connected_counts(nmax: int) -> tuple[bool, str]:
    bad = sum(len(gen_skeletons(n, 2)) != len(gen_loopless_maps(n - 1))
              for n in range(1, min(nmax, 7) + 1))
    return bad == 0, f"sizes<={min(nmax, 7)}"


def _three_connected_counts(nmax: int) -> tuple[bool, str]:
    bad = 0
    for n in range(2, min(nmax, 7) + 1):
        c3 = len(gen_skeletons(n, 3))
        cb = len(gen_bipartite_maps(n - 2))
        f = bipartite_maps_formula(n - 2)
        bad += c3 != cb or c3 != THREE_CONNECTED_COUNTS[n - 2] or (f is not None and f != cb)
    return bad == 0, f"sizes<={min(nmax, 7)}"


def _positive_vtrees(e: int) -> set[str]:
    return {render_labeled_tree(t) for t in gen_trees(e, "vtree_positive")}


def _psi_image(nmax: int) -> tuple[bool, str]:
    """psi sends the 2-connected skeletons onto the positive v-trees."""
    bad = sum(_positive_vtrees(n - 1) != {render_labeled_tree(psi(s)) for s in gen_skeletons(n, 2)}
              for n in range(1, nmax + 1))
    return bad == 0, f"sizes<={nmax}"


def _rho_image(nmax: int) -> tuple[bool, str]:
    """rho sends the loopless maps onto the positive v-trees."""
    emax = min(nmax - 1, 5)
    bad = 0
    for e in range(emax + 1):
        # both generators give the canonical labelling with root 0, so the
        # rotation names the map
        loopless = {m.sigma for m in gen_loopless_maps(e)}
        image = {render_labeled_tree(t) for m, t in zip(gen_maps(e), _rho_images(e))
                 if m.sigma in loopless}
        bad += image != _positive_vtrees(e)
    return bad == 0, f"edges<={emax}"


def _stat_multisets(nmax: int) -> tuple[bool, str]:
    """Joint statistics of degree trees, bipartite maps and reduced
    skeletons agree, the abstraction shift is 2, and phi carries each
    reduced skeleton's statistics to its degree tree."""
    nstat = min(nmax - 2, 4)
    shifts = []
    faults = []
    for n in range(1, nstat + 1):
        try:
            shifts.append(compare_stat_multisets(n).abstraction_shift)
        except AssertionError as exc:
            faults.append(f"n{n}: {exc}")
    for r in (r for n in range(2, nmax + 1) for r in gen_reduced_skeletons(n)):
        s, d = skeleton_stats(r), degree_tree_stats(phi(r))
        if (s.applv, s.appla, s.uc, s.ex) != (d.lnode, d.znode, d.edge, d.rlabel + 1):
            faults.append(f"statistics of {r!r} differ from its degree tree's")
            break
    ok = not faults and all(shift == 2 for shift in shifts)
    return ok, "; ".join([f"n<={nstat} shift={sorted(set(shifts))}", *faults])


@lru_cache(maxsize=None)
def _gf_report(tmax: int):
    """One check_gf_relation run (about a second at t^6) for two checks."""
    return check_gf_relation(tmax)


def _chain_identity(nmax: int) -> tuple[bool, str]:
    rep = _gf_report(min(nmax, 6))
    return rep.identity_ok, rep.first_mismatch or f"t<={min(nmax, 6)}"


def _printed_form(nmax: int) -> tuple[bool, str]:
    """The printed closed form is compared and reported, never asserted."""
    if _gf_report(min(nmax, 6)).printed_matches:
        return True, "matches enumeration"
    return True, "printed system deviates from enumeration (reported, not asserted)"


def _pmf_sum(_nmax: int) -> tuple[bool, str]:
    partial = sum((limit_pmf(k) for k in range(1, 201)), start=Fraction(0))
    return abs(1 - partial) < Fraction(1, 10**9), f"defect={float(1 - partial):.2e}"


def _pmf_tv(nmax: int) -> tuple[bool, str]:
    n = min(nmax - 1, 6)
    rep = pmf_diagnostics(200, n)
    return rep.tv_on_support < 0.2, (f"n={n} tv-on-support={rep.tv_on_support:.3f} "
                                     f"(full tv={rep.tv_distance:.3f}, floored by the tail mass)")


def _map_cache(nmax: int) -> None:
    """Fill gen_maps' cache to the rho checks' edge cap."""
    for e in range(min(nmax, RHO_MAX_EDGES) + 1):
        gen_maps(e)


# The seconds are the queue entries' medians at --max-size 8 on two CPUs
# (BENCH_19.json), an entry of several checks split evenly among them.
CHECKS = (
    ("roundtrip.term-text", _term_text, 14.056, None, (_skeletons,)),
    ("roundtrip.phi", _phi_roundtrip, 0.461, None, (_skeletons,)),
    ("roundtrip.psi", _psi_roundtrip, 10.262, None, (_skeletons,)),
    ("roundtrip.rho", _rho_roundtrip, 0.117, _rho_images, (_map_cache,)),
    ("roundtrip.term-map-term", _term_map_term, 0.123, None, (_skeletons,)),
    ("oracle.connectivity", _connectivity, 16.863, None, (_skeletons,)),
    ("oracle.rho-direct", _rho_direct, 0.117, _rho_images, (_map_cache,)),
    ("oracle.preimages", _preimages, 0.082, None, (_map_cache,)),
    ("counts.connected", _connected_counts, 0.239, None, (_skeletons, _map_cache)),
    ("counts.2-connected", _two_connected_counts, 0.117, None, (_skeletons,)),
    ("counts.3-connected", _three_connected_counts, 0.04, None, (_skeletons,)),
    ("counts.psi-2conn-image", _psi_image, 2.373, None, (_skeletons,)),
    ("counts.rho-loopless-image", _rho_image, 0.117, _rho_images, (_map_cache,)),
    ("stats.multisets", _stat_multisets, 0.586, None, (_skeletons,)),
    ("gf.chain-identity", _chain_identity, 0.076, _gf_report, (_skeletons,)),
    ("gf.printed-form", _printed_form, 0.075, _gf_report, (_skeletons,)),
    ("gf.pmf-sum", _pmf_sum, 0.005, None, ()),
    ("gf.pmf-tv", _pmf_tv, 0.064, None, ()),
)

SUITES = tuple(dict.fromkeys(name.split(".", 1)[0] for name, *_row in CHECKS))


def _entries(indices: list[int]) -> list[list[int]]:
    """The queue entries of the checks at indices, heaviest first, each as
    CHECKS indices: one per derived cache, holding the checks that read
    it, and one for each other check."""
    entries: dict = {}
    for i in indices:
        entries.setdefault(CHECKS[i][3] or i, []).append(i)
    return sorted(entries.values(), key=lambda entry: -sum(CHECKS[i][2] for i in entry))


def _prefill(entries: list[list[int]], nmax: int) -> None:
    """Fill each generator cache that checks of two or more entries read;
    one entry alone may read less of it (`--suite gf`: skeletons to 6)."""
    readers = Counter(fill for entry in entries
                      for fill in dict.fromkeys(f for i in entry for f in CHECKS[i][4]))
    for fill, nentries in readers.items():
        if nentries > 1:
            fill(nmax)


def _workers(nentries: int) -> int:
    """How many processes run nentries queue entries: one per usable CPU
    and at most one per entry; only the caller where the platform cannot
    fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(nentries, cpus)


def _take_checks(queue: int, entries: list[list[int]], nmax: int) -> dict:
    """Run the checks of the entries whose positions this process reads
    from the queue, one byte each, until the queue is empty.  Maps the
    CHECKS index of each check run to ``(ok, detail)`` or to the exception
    the check raised; a check that raises stops nothing else."""
    results: dict = {}
    while position := os.read(queue, 1):
        for i in entries[position[0]]:
            try:
                results[i] = CHECKS[i][1](nmax)
            except Exception as exc:
                results[i] = exc
    return results


def _worker(queue: int, out: int, entries: list[list[int]], nmax: int) -> NoReturn:
    """A forked worker: take checks, pickle the results into the pipe out,
    and exit without returning into the caller's stack."""
    code = 1
    try:
        data = pickle.dumps(_take_checks(queue, entries, nmax))
        with os.fdopen(out, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _run_checks(indices: list[int], nmax: int) -> dict:
    """Run the checks at indices on up to one process per usable CPU; the
    caller is one of them.  Returns what `_take_checks` returns, merged
    over the processes.  Every worker is reaped before this returns or
    raises."""
    entries = _entries(indices)
    nproc = _workers(len(entries))
    if nproc > 1:
        _prefill(entries, nmax)
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(entries))))
    os.close(feed)
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> the read end of its result pipe
    finished = False
    try:
        for _ in range(nproc - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the ones started share the checks
                os.close(out)
                os.close(into)
                break
            if pid == 0:
                _worker(queue, into, entries, nmax)
            os.close(into)
            children[pid] = os.fdopen(out, "rb")
        results = _take_checks(queue, entries, nmax)
        for pipe in children.values():
            data = pipe.read()
            if data:  # empty when the worker died before it reported
                results.update(pickle.loads(data))
        finished = True
    finally:
        os.close(queue)
        for pid, pipe in children.items():
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def run_verify(suite: str, nmax: int) -> tuple[bool, list[str]]:
    """Run the checks of one suite, or of all, up to size nmax.

    Returns whether every check passed, and one ``ok``/``FAIL`` line per
    check followed by a summary line.  Raises before any check runs when
    the suite is unknown or nmax is outside 2..MAX_SKELETON_SIZE.  When
    checks raise, the exception of the first of them in CHECKS order is
    raised again here, ahead of any check missing because a worker died;
    one raised in a worker process comes without the worker's frames, which
    a run on one CPU (``taskset -c 0``) shows.
    """
    if suite != "all" and suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}")
    if not 2 <= nmax <= MAX_SKELETON_SIZE:
        raise SizeTooLarge(f"max size must be in 2..{MAX_SKELETON_SIZE}, got {nmax}")
    selected = [i for i, (name, *_row) in enumerate(CHECKS)
                if suite in ("all", name.split(".", 1)[0])]
    results = _run_checks(selected, nmax)
    for i in selected:
        if isinstance(results.get(i), Exception):
            raise results[i]
    lines = []
    for i in selected:
        name = CHECKS[i][0]
        if i not in results:
            raise RuntimeError(f"a verify worker process ended before it reported {name}")
        ok, detail = results[i]
        lines.append(f"{'ok' if ok else 'FAIL'} {name} {detail}")
    total = len(lines)
    failed = sum(line.startswith("FAIL") for line in lines)
    if failed:
        tail = f"{failed} check(s) failed ({total - failed}/{total})"
    else:
        tail = f"all checks passed ({total}/{total})"
    return failed == 0, lines + [tail]
