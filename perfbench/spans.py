"""Span recorder for the traced run; the untraced runs never import it.

`install` wraps each function in `TRACED` and rebinds the wrapper under
every name that any `lambdamaps` module holds for it, since `cli` and
`enumeration` import with ``from ... import``. Each call appends one span:
function, start, end, parent span, operation id and whether it raised.
Spans stay in flat arrays until `write`.

A function that calls itself through its module global (such as
`render_labeled_tree`) is wrapped only at its outermost call: the wrapper
puts the original back in the module for the duration of the call, so the
recursion runs at the same depth as untraced and meets the same recursion
limit.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter
from types import CodeType

TRACED = {
    "enumeration": ("gen_maps", "gen_skeletons", "gen_trees", "gen_reduced_skeletons"),
    "planar_maps": ("rho", "rho_direct", "rho_inv", "decompose", "pi", "attach_root_edge",
                    "map_stats", "canonical_form", "canonical_map", "validate_map",
                    "parse_map", "render_map"),
    "lambda_core": ("term_of_skeleton", "planar_match", "diagram_of", "parse_term",
                    "render_term", "skeleton_of", "alpha_equal", "is_normal"),
    "bijections": ("psi", "psi_inv", "phi", "phi_inv"),
    "connectivity": ("edge_connectivity_class", "check_family", "is_three_connected_skeleton"),
    "labeled_trees": ("validate_vtree", "parse_labeled_tree", "render_labeled_tree"),
    "series": ("check_gf_relation", "pmf_diagnostics"),
    "cli": ("run_verify", "convert", "stats_lines"),
}

# Reported on `large` as time at the largest random size over the next one.
DOUBLING = ("planar_maps.rho", "planar_maps.rho_direct", "planar_maps.rho_inv",
            "lambda_core.term_of_skeleton", "lambda_core.parse_term", "bijections.psi_inv")


def metric_names() -> list[str]:
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
    names += [f"{module}.{kind}" for module in TRACED for kind in ("self_s", "errors")]
    names += [f"{q}.doubling" for q in DOUBLING]
    return names + ["trace.overhead", "trace.unattributed_s"]


def _names_in(code: CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _names_in(const)
    return names


class Recorder:
    def __init__(self):
        self.functions: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.opened = perf_counter()
        self.closed = self.opened

    def wrap(self, module, name: str, original):
        fid = len(self.functions)
        self.functions.append(f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
        fn, parent, op, raised, start, end, stack = (
            self.fn, self.parent, self.op, self.raised, self.start, self.end, self.stack)
        code = getattr(original, "__wrapped__", original).__code__
        self_recursive = name in _names_in(code)
        depth = [0]

        def wrapper(*args, **kwargs):
            sid = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            raised.append(0)
            end.append(0.0)
            stack.append(sid)
            if self_recursive:
                depth[0] += 1
                if depth[0] == 1:
                    setattr(module, name, original)
            start.append(perf_counter())
            try:
                return original(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
                if self_recursive:
                    depth[0] -= 1
                    if depth[0] == 0:
                        setattr(module, name, wrapper)

        wrapper.__name__ = name
        wrapper.__doc__ = original.__doc__
        return wrapper

    def close(self) -> None:
        self.closed = perf_counter()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tfunction\tstart_s\tend_s\traised\n")
            for i in range(len(self.fn)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.functions[self.fn[i]]}\t"
                          f"{self.start[i] - self.opened:.9f}\t{self.end[i] - self.opened:.9f}\t"
                          f"{self.raised[i]}\n")

    def metrics(self, labels: list[tuple]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics, and a table of inclusive seconds per function
        and (shape, size) for the random family of `large`."""
        nspans = len(self.fn)
        covered = [0.0] * nspans
        root_total = 0.0
        for i in range(nspans):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur
            else:
                root_total += dur
        calls = [0] * len(self.functions)
        self_s = [0.0] * len(self.functions)
        errors: dict[str, int] = {}
        for i in range(nspans):
            f = self.fn[i]
            calls[f] += 1
            self_s[f] += self.end[i] - self.start[i] - covered[i]
            module = self.functions[f].split(".")[0]
            errors[module] = errors.get(module, 0) + self.raised[i]
        out: dict[str, float] = {}
        module_self: dict[str, float] = {}
        for f, q in enumerate(self.functions):
            out[f"{q}.calls"] = calls[f]
            out[f"{q}.self_s"] = self_s[f]
            module = q.split(".")[0]
            module_self[module] = module_self.get(module, 0.0) + self_s[f]
        for module in TRACED:
            out[f"{module}.self_s"] = module_self.get(module, 0.0)
            out[f"{module}.errors"] = errors.get(module, 0)
        table, doubling = self._doubling(labels)
        out.update(doubling)
        out["trace.unattributed_s"] = self.closed - self.opened - root_total
        return out, table

    def _doubling(self, labels: list[tuple]):
        """Inclusive time of each DOUBLING function in the random family,
        per size; ratio of the two largest sizes (0 where not measured)."""
        wanted = {self.functions.index(q): q for q in DOUBLING if q in self.functions}
        incl: dict[tuple[str, int], float] = {}
        for i in range(len(self.fn)):
            f = self.fn[i]
            if f not in wanted or self.op[i] < 0 or labels[self.op[i]][0] != "random":
                continue
            p = self.parent[i]
            while p >= 0 and self.fn[p] != f:
                p = self.parent[p]
            if p < 0:  # outermost call of this function
                key = (wanted[f], labels[self.op[i]][1])
                incl[key] = incl.get(key, 0.0) + self.end[i] - self.start[i]
        sizes = sorted({label[1] for label in labels if label[0] == "random"})
        table, out = [], {}
        for q in DOUBLING:
            row = [incl.get((q, n), 0.0) for n in sizes]
            table.append(f"{q:30s} " + " ".join(f"{t:9.4f}" for t in row))
            ratio = row[-1] / row[-2] if len(row) >= 2 and row[-2] > 0 else 0.0
            out[f"{q}.doubling"] = ratio
        if sizes:
            table.insert(0, f"{'random family, inclusive s':30s} "
                            + " ".join(f"{n:9d}" for n in sizes))
        return table, out


def install() -> Recorder:
    rec = Recorder()
    modules = [m for name, m in sys.modules.items()
               if name == "lambdamaps" or name.startswith("lambdamaps.")]
    for short, functions in TRACED.items():
        home = sys.modules[f"lambdamaps.{short}"]
        for name in functions:
            original = getattr(home, name)
            wrapper = rec.wrap(home, name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    return rec
