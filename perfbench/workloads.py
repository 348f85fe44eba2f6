"""The three workloads: set-up (untimed) and one closed-loop pass (timed).

Each workload calls the program one operation at a time, checks each
result, and records per operation its time and outcome in a `Tally`.
Program functions are always looked up as module attributes at call time,
so that a traced run, which rebinds them, sees every call.
"""

from __future__ import annotations

import io
import random
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from lambdamaps import bijections, cli, connectivity, enumeration, lambda_core, planar_maps

import inputs

HERE = Path(__file__).resolve().parent


class Tally:
    """Outcomes of one pass. `labels[i]` names operation i; a traced run
    tags its spans with the current operation id through `recorder`."""

    def __init__(self, workload: str, recorder=None):
        self.workload = workload
        self.recorder = recorder
        self.labels: list[tuple] = []
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.records: list[str] = []
        self.rows: list[tuple] = []

    def begin(self, label: tuple) -> None:
        if self.recorder is not None:
            self.recorder.current_op = len(self.labels)
        self.labels.append(label)

    def fail(self, label: tuple, what: str, kind: str, text: str, command: str) -> None:
        """One failed operation: workload, shape, size, operation, what went
        wrong, and the input as text the CLI reads back."""
        self.failed += 1
        shape, size, op = label
        self.records.append(
            f"FAIL {self.workload} shape={shape} size={size} op={op} {what}\n"
            f"  input ({kind}): {text}\n  try: {command}")


# ---------------------------------------------------------------------------
# verify: the user's end-to-end command, from a cold process

def setup_verify(seed: int, tiny: bool):
    max_size = 3 if tiny else 6
    expected = (HERE / f"verify_max{max_size}.txt").read_text()
    return ["verify", "--suite", "all", "--max-size", str(max_size)], expected


def run_verify(state, tally: Tally) -> None:
    argv, expected = state
    label = ("command", int(argv[-1]), "verify")
    tally.begin(label)
    tally.attempted += 1
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
        what = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # a raised exception is a failed operation
        what = f"{type(exc).__name__}: {exc}"
    tally.op_times.append(perf_counter() - t0)
    if what is None and out.getvalue() != expected:
        what = "stdout differs from the stored lines"
    if what:
        tally.fail(label, what, "argv", " ".join(argv), "lambdamaps " + " ".join(argv))


# ---------------------------------------------------------------------------
# sweep: every small object once, generation in set-up

def setup_sweep(seed: int, tiny: bool):
    edges, size = (3, 4) if tiny else (6, 7)
    return enumeration.gen_maps(edges), enumeration.gen_skeletons(size, 1)


def _check_map(m) -> str | None:
    t = planar_maps.rho(m)
    if planar_maps.rho_direct(m) != t:
        return "rho_direct differs from rho"
    back = planar_maps.rho_inv(t)
    if inputs.map_canon(back.n, back.sigma, back.root) != inputs.map_canon(m.n, m.sigma, m.root):
        return "rho_inv(rho(m)) is not m"
    st = planar_maps.map_stats(m)
    if st.outv != t.label:
        return "map_stats outv differs from the v-tree root label"
    if st.loopless == inputs.has_zero_label(t):
        return "map_stats loopless disagrees with the v-tree's positivity"
    return None


def _check_skeleton(s) -> str | None:
    if bijections.psi_inv(bijections.psi(s)) != s:
        return "psi_inv(psi(s)) is not s"
    term = lambda_core.term_of_skeleton(s)
    again = lambda_core.parse_term(lambda_core.render_term(term))
    if not lambda_core.alpha_equal(again, term) or lambda_core.skeleton_of(again) != s:
        return "term text does not round-trip"
    cls = connectivity.edge_connectivity_class(lambda_core.diagram_of(s))
    if connectivity.check_family(s, 2) != (cls >= connectivity.ConnectivityClass.Two):
        return "check_family(s, 2) disagrees with the connectivity oracle"
    if s.nleaf >= 2 and connectivity.is_three_connected_skeleton(s) != (
            cls == connectivity.ConnectivityClass.ThreePlus):
        return "3-connected test disagrees with the connectivity oracle"
    return None


def run_sweep(state, tally: Tally) -> None:
    maps, skeletons = state
    objects = [("map", m.n, m, _check_map) for m in maps]
    objects += [("skeleton", s.nleaf, s, _check_skeleton) for s in skeletons]
    for shape, size, obj, check in objects:
        label = (shape, size, "check")
        tally.begin(label)
        tally.attempted += 1
        t0 = perf_counter()
        try:
            what = check(obj)
        except Exception as exc:  # a raised exception is a failed operation
            what = f"{type(exc).__name__}: {exc}"
        tally.op_times.append(perf_counter() - t0)
        if what:
            if shape == "map":
                text = inputs.render_map_text(obj.n, obj.sigma, obj.root)
                command = f"lambdamaps convert --from map --to vtree '{text}'"
            else:
                text = inputs.render_skeleton_text(obj)
                command = f"lambdamaps stats --kind skeleton '{text}'"
            tally.fail(label, what, shape, text, command)


# ---------------------------------------------------------------------------
# large: few huge v-trees, no generator

# Two random trees per size halve the share of run time and peak memory
# that depends on which trees the seed draws.
RANDOM_TREES_PER_SIZE = 2
LARGE_SIZES = {
    "random": (200, 400, 800, 1600, 3200),
    "path": (200, 400, 800, 1600),
    "star": (200, 400, 800, 1600),
}
TINY_SIZES = {"random": (20, 40), "path": (20, 40), "star": (20, 40)}

# Defects the seed code already shows on these inputs: (least size in
# edges, operation or None for any, exception type, message fragment). A
# cell that raises one of these is reported as a known defect; once fixed,
# the cell must return the right output instead. The recursive parsers and
# kernels exceed the default recursion limit on every path from 400 edges
# and every star from 800, and on the deepest random trees of 3200 edges.
KNOWN_DEFECTS = (
    (400, None, RecursionError, ""),
    (128, "stats", ValueError, "bytes must be in range(0, 256)"),
)


def known_defect(size: int, op: str, exc: BaseException) -> bool:
    return any(
        size >= least and (o is None or o == op) and isinstance(exc, etype) and frag in str(exc)
        for least, o, etype, frag in KNOWN_DEFECTS)


def setup_large(seed: int, tiny: bool):
    rng = random.Random(seed)
    objects = []
    for shape, sizes in (TINY_SIZES if tiny else LARGE_SIZES).items():
        for n in sizes:
            if shape == "random":
                trees = [inputs.random_vtree(n, rng) for _ in range(RANDOM_TREES_PER_SIZE)]
            elif shape == "path":
                trees = [inputs.path_vtree(n)]
            else:
                trees = [inputs.star_vtree(n)]
            objects += [(shape, n, inputs.render_vtree(labels, children), labels[0], 0 not in labels)
                        for labels, children in trees]
    return objects


def _large_cell(tally: Tally, shape: str, size: int, op: str, kind: str,
                text: str, command: str, run):
    """Time one operation; `run` returns (value, problem or None)."""
    label = (shape, size, op)
    tally.begin(label)
    tally.attempted += 1
    t0 = perf_counter()
    try:
        value, what = run()
        exc = None
    except Exception as err:  # a raised exception is a failed operation
        value, what, exc = None, None, err
    dt = perf_counter() - t0
    if exc is not None and known_defect(size, op, exc):
        tally.known += 1
        status = f"known defect: {type(exc).__name__}"
        tally.records.append(
            f"KNOWN {tally.workload} shape={shape} size={size} op={op} "
            f"{type(exc).__name__}: {exc}\n  input ({kind}): {text}\n  try: {command}")
        value = None
    elif exc is not None:
        what = f"{type(exc).__name__}: {exc}"
        tally.records.append("".join(traceback.format_exception(exc)[-6:]))
    if exc is None and what is None:
        tally.op_times.append(dt)
        status = "ok"
    elif what is not None:
        tally.fail(label, what, kind, text, command)
        status = f"FAIL: {what}"[:60]
        value = None
    tally.rows.append((shape, size, op, dt, status))
    return value


def _equal(got, want, what: str):
    return got, None if got == want else what


def run_large(state, tally: Tally) -> None:
    for shape, n, text, root_label, positive in state:
        def map_roundtrip():
            mtext = cli.convert("vtree", "map", text)
            back = cli.convert("map", "vtree", mtext)
            return mtext, None if back == text else "vtree -> map -> vtree changed the tree"

        mtext = _large_cell(tally, shape, n, "map-roundtrip", "vtree", text,
                            f"lambdamaps convert --from vtree --to map '{text}'", map_roundtrip)
        if mtext is None:
            for op in ("rho-direct", "stats"):
                tally.rows.append((shape, n, op, 0.0, "blocked: no map text"))
        else:
            def rho_direct():
                m = planar_maps.parse_map(mtext)
                direct = inputs.render_tree_object(planar_maps.rho_direct(m))
                recursive = inputs.render_tree_object(planar_maps.rho(m))
                if recursive != text:
                    return None, "rho(m) is not the input v-tree"
                return _equal(direct, recursive, "rho_direct differs from rho")

            def stats():
                lines = cli.stats_lines(mtext, None)
                want = [f"edges\t{n}", f"outv\t{root_label}",
                        f"loopless\t{'yes' if positive else 'no'}"]
                return _equal(lines[:3], want, "stats lines disagree with the v-tree")

            _large_cell(tally, shape, n, "rho-direct", "map", mtext,
                        f"lambdamaps convert --from map --to vtree '{mtext}'", rho_direct)
            _large_cell(tally, shape, n, "stats", "map", mtext,
                        f"lambdamaps stats '{mtext}'", stats)

        def term_roundtrip():
            ttext = cli.convert("vtree", "term", text)
            back = cli.convert("term", "vtree", ttext)
            return ttext, None if back == text else "vtree -> term -> vtree changed the tree"

        _large_cell(tally, shape, n, "term-roundtrip", "vtree", text,
                    f"lambdamaps convert --from vtree --to term '{text}'", term_roundtrip)


WORKLOADS = {
    "verify": (setup_verify, run_verify),
    "sweep": (setup_sweep, run_sweep),
    "large": (setup_large, run_large),
}
