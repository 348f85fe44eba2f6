"""The named checks behind `lambdamaps verify` and the acceptance suite.

Each row of CHECKS is ``(name, fn, seconds, generator_caches)``:
``fn(nmax)`` checks one claim exhaustively up to the size cap nmax and
returns ``(ok, detail)``; the rest weigh it and name the generator caches
it reads.  Rows that share work share their fn, which then returns one
``(ok, detail)`` per row, in CHECKS order, and runs once for all of them.
The suite of a check is the part of its name before the first dot.  A fn
that raises fails each of its rows, with ``raised <type>: <message>`` as
the detail, so a fault of a kernel is a failed check, never bad input.

The checks share no mutable state, so `run_verify` runs them on every
usable CPU: one forked process per CPU, the caller included, takes the next
entry from a shared queue until none is left.  The rows of one fn form one
entry, and the entries go heaviest first by summed seconds.  Before it
forks, the caller fills the generator caches that two or more entries read
(the word cache holds the words of each size, not the smaller pairs built
on the way), and copy-on-write shares them.  Each worker writes its
``(ok, detail)`` pairs to the caller with marshal, so a check returns a
bool and a str.  The lines come out in CHECKS order whatever the order the
checks finish in.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys
from collections import Counter
from fractions import Fraction
from typing import NoReturn

from .bijections import (degree_tree_stats, phi, phi_inv, psi, skeleton_stats, vtree_of_word,
                         word_of_vtree)
from .connectivity import (ConnectivityClass, edge_connectivity_class, in_family,
                           is_three_connected_skeleton)
from .enumeration import (MAX_SKELETON_SIZE, _connected_words, bipartite_maps_formula,
                          compare_stat_multisets, gen_bipartite_maps, gen_loopless_maps,
                          gen_maps, gen_reduced_skeletons, gen_skeletons, gen_trees,
                          maps_formula)
from .labeled_trees import render_labeled_tree
from .lambda_core import (InvalidInput, Skeleton, SizeTooLarge, listing_of_word, parse_listing,
                          render_listing)
from .planar_maps import (attach_root_edge, canonical_form, is_one_corner, map_stats, outv, pi,
                          rho, rho_direct, rho_inv)
from .series import check_gf_relation, limit_pmf, pmf_diagnostics

# Connected terms of size 1..7 (= rooted maps with 0..6 edges) and
# 3-connected terms of size 2..7 (= bipartite maps with 0..5 edges).
CONNECTED_COUNTS = (1, 2, 9, 54, 378, 2916, 24057)
THREE_CONNECTED_COUNTS = (1, 1, 3, 12, 56, 288)

# The rho checks run on the maps with at most this many edges.
RHO_MAX_EDGES = 5


def _words(nmax: int) -> list[bytes]:
    """The word of every connected-family skeleton of size 1..nmax."""
    return [w for n in range(1, nmax + 1) for w in _connected_words(n)]


def _text_roundtrips(word: bytes) -> bool:
    """The text of the term of the word parses back to that very term,
    names included, which implies that the two are alpha-equal.  The term
    is compared as its listing (pre-order word and names), which the
    printer writes and the parser reads, so no term object is built."""
    listing = listing_of_word(word)
    return parse_listing(render_listing(*listing)) == listing


def _term_text(nmax: int) -> tuple[bool, str]:
    words = _words(nmax)
    bad = sum(not _text_roundtrips(w) for w in words)
    return bad == 0, f"sizes<={nmax} ({len(words)} terms)"


def _phi_roundtrip(nmax: int) -> tuple[bool, str]:
    rs = [r for n in range(2, nmax + 1) for r in gen_reduced_skeletons(n)]
    bad = sum(phi_inv(phi(r)) != r for r in rs)
    return bad == 0, f"sizes<={nmax} ({len(rs)} reduced skeletons)"


def _psi_roundtrip(nmax: int) -> tuple[bool, str]:
    words = _words(nmax)
    bad = sum(word_of_vtree(vtree_of_word(w)) != w for w in words)
    return bad == 0, f"sizes<={nmax} ({len(words)} skeletons)"


def _term_map_term(nmax: int) -> tuple[bool, str]:
    """A term's text goes to its map and back to the same listing."""
    from .cli import convert  # imported here because cli imports this module

    def back_and_forth(word: bytes) -> bool:
        listing = listing_of_word(word)
        back = convert("map", "term", convert("term", "map", render_listing(*listing)))
        return parse_listing(back) == listing

    words = _words(min(nmax, 5))
    bad = sum(not back_and_forth(w) for w in words)
    return bad == 0, f"sizes<={min(nmax, 5)} ({len(words)} terms)"


def _connectivity_agrees(word: bytes) -> bool:
    cls = edge_connectivity_class(word)
    if in_family(word, 2) != (cls >= ConnectivityClass.Two):
        return False
    return (word.count(0) < 2
            or is_three_connected_skeleton(Skeleton(word)) == (cls == ConnectivityClass.ThreePlus))


def _connectivity(nmax: int) -> tuple[bool, str]:
    """The structural 2- and 3-connectivity tests agree with the diagram's
    edge connectivity; the one-atom term is vacuous at level 3."""
    words = _words(nmax)
    bad = sum(not _connectivity_agrees(w) for w in words)
    return bad == 0, f"sizes<={nmax} ({len(words)} skeletons)"


def _positive_vtrees(e: int) -> set[str]:
    return {render_labeled_tree(t) for t in gen_trees(e, "vtree_positive")}


def _rho_checks(nmax: int) -> tuple[tuple[bool, str], ...]:
    """roundtrip.rho: rho_inv inverts rho.  oracle.rho-direct: rho_direct
    equals rho, and the root label is the outer vertex count.
    counts.rho-loopless-image: rho sends the loopless maps onto the
    positive v-trees, and map_stats calls exactly those maps loopless.

    One phase per edge count maps rho over that size's maps and runs the
    three checks on the images, which are dropped before the next size."""
    emax, lmax = min(nmax, RHO_MAX_EDGES), min(nmax - 1, 5)
    inverted = direct = image = total = 0
    for e in range(emax + 1):
        maps = gen_maps(e)
        images = list(map(rho, maps))
        total += len(maps)
        # gen_maps builds each map canonical, so (m.n, *m.sigma) is its
        # canonical form; rho_inv's map is not, and is relabelled
        inverted += sum(canonical_form(rho_inv(t)) != (m.n, *m.sigma)
                        for m, t in zip(maps, images))
        direct += sum(rho_direct(m) != t or t.label != outv(m) for m, t in zip(maps, images))
        if e <= lmax:
            # both generators give the canonical labelling with root 0, so
            # the rotation names the map
            loopless = {m.sigma for m in gen_loopless_maps(e)}
            image += (_positive_vtrees(e) != {render_labeled_tree(t) for m, t in zip(maps, images)
                                               if m.sigma in loopless}
                      or any(map_stats(m).loopless != (m.sigma in loopless) for m in maps))
    return ((inverted == 0, f"edges<={emax} ({total} maps)"),
            (direct == 0, f"edges<={emax} ({total} maps)"),
            (image == 0, f"edges<={lmax}"))


def _preimages(nmax: int) -> tuple[bool, str]:
    """attach_root_edge(m, i) for i in 0..outv(m) are outv(m) + 1 distinct
    one-corner maps with i outer vertices besides the root, and they are
    exactly the maps that pi sends to m."""
    emax = min(nmax - 1, 4)
    bad = total = 0
    for e in range(emax + 1):
        preimages: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        # gen_maps builds its maps canonical and pi relabels from the new
        # root as canonical_map does, so the rotation names each of those
        # maps; attach_root_edge's maps are rooted at 2n + 1 and relabelled
        for u in gen_maps(e + 1):
            if is_one_corner(u):
                preimages.setdefault(pi(u).sigma, []).append((u.n, *u.sigma))
        for m in gen_maps(e):
            total += 1
            attached = [attach_root_edge(m, i) for i in range(outv(m) + 1)]
            built = sorted(canonical_form(u) for u in attached)
            bad += (built != sorted(preimages.get(m.sigma, []))
                    or len(set(built)) != len(attached))
            bad += sum(outv(u) - 1 != i or not is_one_corner(u)
                       for i, u in enumerate(attached))
    return bad == 0, f"edges<={emax} ({total} maps)"


def _connected_counts(nmax: int) -> tuple[bool, str]:
    counts = [len(_connected_words(n)) for n in range(1, min(nmax, 7) + 1)]
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


def _psi_image(nmax: int) -> tuple[bool, str]:
    """psi sends the 2-connected skeletons onto the positive v-trees."""
    bad = sum(_positive_vtrees(n - 1) != {render_labeled_tree(psi(s)) for s in gen_skeletons(n, 2)}
              for n in range(1, nmax + 1))
    return bad == 0, f"sizes<={nmax}"


def _stat_multisets(nmax: int) -> tuple[bool, str]:
    """Joint statistics of degree trees, bipartite maps and reduced
    skeletons agree, the abstraction shift is 2, and phi carries each
    reduced skeleton's statistics to its degree tree."""
    nstat = min(nmax - 2, 4)
    shifts = [compare_stat_multisets(n).abstraction_shift for n in range(1, nstat + 1)]
    faults = []
    for r in (r for n in range(2, nmax + 1) for r in gen_reduced_skeletons(n)):
        s, d = skeleton_stats(r), degree_tree_stats(phi(r))
        if (s.applv, s.appla, s.uc, s.ex) != (d.lnode, d.znode, d.edge, d.rlabel + 1):
            faults.append(f"statistics of {r!r} differ from its degree tree's")
            break
    ok = not faults and all(shift == 2 for shift in shifts)
    return ok, "; ".join([f"n<={nstat} shift={sorted(set(shifts))}", *faults])


def _gf_checks(nmax: int) -> tuple[tuple[bool, str], ...]:
    """gf.chain-identity and gf.printed-form, from one check_gf_relation
    run (about a second at t^6).  The printed closed form is compared and
    reported, never asserted."""
    tmax = min(nmax, 6)
    rep = check_gf_relation(tmax)
    printed = ("matches enumeration" if rep.printed_matches
               else "printed system deviates from enumeration (reported, not asserted)")
    return (rep.identity_ok, rep.first_mismatch or f"t<={tmax}"), (True, printed)


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


# The seconds are each check's time in one verify --suite all --max-size 8
# run on two CPUs (BENCH_30.json), an entry of several checks split evenly
# among them.
CHECKS = (
    ("roundtrip.term-text", _term_text, 4.885, (_words,)),
    ("roundtrip.phi", _phi_roundtrip, 0.282, (_words,)),
    ("roundtrip.psi", _psi_roundtrip, 3.207, (_words,)),
    ("roundtrip.rho", _rho_checks, 0.045, (_map_cache,)),
    ("roundtrip.term-map-term", _term_map_term, 0.053, (_words,)),
    ("oracle.connectivity", _connectivity, 1.209, (_words,)),
    ("oracle.rho-direct", _rho_checks, 0.045, (_map_cache,)),
    ("oracle.preimages", _preimages, 0.042, (_map_cache,)),
    ("counts.connected", _connected_counts, 0.120, (_words, _map_cache)),
    ("counts.2-connected", _two_connected_counts, 0.060, (_words,)),
    ("counts.3-connected", _three_connected_counts, 0.028, (_words,)),
    ("counts.psi-2conn-image", _psi_image, 0.966, (_words,)),
    ("counts.rho-loopless-image", _rho_checks, 0.045, (_map_cache,)),
    ("stats.multisets", _stat_multisets, 0.275, (_words,)),
    ("gf.chain-identity", _gf_checks, 0.021, (_words,)),
    ("gf.printed-form", _gf_checks, 0.021, (_words,)),
    ("gf.pmf-sum", _pmf_sum, 0.003, ()),
    ("gf.pmf-tv", _pmf_tv, 0.033, ()),
)

SUITES = tuple(dict.fromkeys(name.split(".", 1)[0] for name, *_row in CHECKS))


def _entries(indices: list[int]) -> list[list[int]]:
    """The queue entries of the checks at indices, heaviest first, each as
    CHECKS indices: one per fn, holding its rows."""
    entries: dict = {}
    for i in indices:
        entries.setdefault(CHECKS[i][1], []).append(i)
    return sorted(entries.values(), key=lambda entry: -sum(CHECKS[i][2] for i in entry))


def _prefill(entries: list[list[int]], nmax: int) -> None:
    """Fill each generator cache that checks of two or more entries read;
    one entry alone may read less of it (`--suite gf`: words to 6)."""
    readers = Counter(fill for entry in entries
                      for fill in dict.fromkeys(f for i in entry for f in CHECKS[i][3]))
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


def _run(fn, nmax: int) -> dict:
    """Run fn once and map the CHECKS index of each of its rows to its
    ``(ok, detail)``.  When fn raises an Exception, each of its rows fails,
    with the exception's type and message as its detail, and nothing else
    stops: fn's input is only its size, which run_verify has checked, so no
    exception of a check is bad input."""
    rows = [i for i, row in enumerate(CHECKS) if row[1] is fn]
    try:
        got = fn(nmax)
        return dict(zip(rows, got if len(rows) > 1 else [got], strict=True))
    except Exception as exc:
        return dict.fromkeys(rows, (False, f"raised {type(exc).__name__}: {exc}"))


def _take_checks(queue: int, entries: list[list[int]], nmax: int) -> dict:
    """Run the entries whose positions this process reads from the queue,
    one byte each, until the queue is empty.  Maps the CHECKS index of each
    row of those entries to its ``(ok, detail)`` from `_run`; the rows of
    the entry's fn that the suite did not select are left out."""
    results: dict = {}
    while position := os.read(queue, 1):
        entry = entries[position[0]]
        ran = _run(CHECKS[entry[0]][1], nmax)
        results.update((i, ran[i]) for i in entry)
    return results


def _worker(queue: int, out: int, entries: list[list[int]], nmax: int) -> NoReturn:
    """A forked worker: take checks, marshal the results into the pipe out,
    and exit without returning into the caller's stack."""
    code = 1
    try:
        data = marshal.dumps(_take_checks(queue, entries, nmax))
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
                results.update(marshal.loads(data))
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
    the suite is unknown or nmax is outside 2..MAX_SKELETON_SIZE.  A check
    that raises fails: its line reads ``FAIL <name> raised <type>:
    <message>``, on any number of CPUs.  A check whose worker process
    ended before it reported fails too.
    """
    if suite != "all" and suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}")
    if not 2 <= nmax <= MAX_SKELETON_SIZE:
        raise SizeTooLarge(f"max size must be in 2..{MAX_SKELETON_SIZE}, got {nmax}")
    selected = [i for i, (name, *_row) in enumerate(CHECKS)
                if suite in ("all", name.split(".", 1)[0])]
    results = _run_checks(selected, nmax)
    lines = []
    for i in selected:
        ok, detail = results.get(i, (False, "its worker process ended before it reported"))
        lines.append(f"{'ok' if ok else 'FAIL'} {CHECKS[i][0]} {detail}")
    total = len(lines)
    failed = sum(line.startswith("FAIL") for line in lines)
    if failed:
        tail = f"{failed} check(s) failed ({total - failed}/{total})"
    else:
        tail = f"all checks passed ({total}/{total})"
    return failed == 0, lines + [tail]
