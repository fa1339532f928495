"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``bdcoords`` modules from outside
the package.  ``from .x import y`` binds ``y`` separately in every consumer
module, so a function is rebound in every loaded ``bdcoords`` namespace that
holds it (for example ``flags.det_raw`` and ``multilinear.det_raw``).
``Flag.__init__`` is wrapped on the class, so the determinant it runs for its
own independence check is a child of the ``flags.Flag`` span.

Spans (name, start, end, parent) stay in memory in flat arrays while the run
goes and are reduced when it ends: a span's self time is its duration minus
the durations of its direct children (one thread, so children never
overlap).  ``halfplane.axis_data`` and ``halfplane.fourth_point`` are only
counted; their time stays in the self time of the span that called them.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

SPANS = (
    ("cli", "main"),
    ("verification", "run_triple_ratio"),
    ("verification", "run_double_ratio"),
    ("bd", "bd_vector"),
    ("bd", "closed_leaf_report"),
    ("bd", "polytope_membership"),
    ("bd", "slice_membership"),
    ("bd", "realize_slice"),
    ("surfaces", "assemble_surface"),
    ("surfaces", "develop_pants"),
    ("surfaces", "solve_twist"),
    ("veronese", "veronese_flag"),
    ("flags", "triple_ratio"),
    ("flags", "double_ratio"),
)
COUNTED = (("halfplane", "axis_data"), ("halfplane", "fourth_point"))
DET_MODES = ("exact", "float")
FLAG_SPANS = ("flags.triple_ratio", "flags.double_ratio", "flags.Flag")
TRACED = (           # the per-layer metrics ``Tracer.reduce`` returns, in order
    "veronese.veronese_flag.calls", "veronese.veronese_flag.busy_ms",
    "veronese.flags_per_point",
    "flags.triple_ratio.calls", "flags.triple_ratio.self_ms",
    "flags.double_ratio.calls", "flags.double_ratio.self_ms",
    "flags.Flag.calls", "flags.degenerate_raised",
    "multilinear.det_raw.calls.exact", "multilinear.det_raw.calls.float",
    "multilinear.det_raw.busy_ms.exact", "multilinear.det_raw.busy_ms.float",
    "multilinear.dets_per_invariant",
    "surfaces.assemble_surface.calls", "surfaces.assemble_surface.busy_ms",
    "surfaces.develop_pants.calls", "surfaces.solve_twist.calls",
    "surfaces.solve_twist.busy_ms", "surfaces.assemblies_per_realize",
    "halfplane.axis_data.calls", "halfplane.fourth_point.calls",
    "bd.bd_vector.self_ms", "bd.closed_leaf_report.busy_ms",
    "bd.polytope_membership.busy_ms", "bd.realize_slice.self_ms",
    "verification.run_triple_ratio.busy_ms", "verification.run_triple_ratio.cases",
    "verification.run_double_ratio.busy_ms", "verification.run_double_ratio.cases",
    "cli.main.self_ms",
)


def _point_key(p):
    """A projective point as a hashable affine value (None at infinity)."""
    if p.b == 0:
        return None
    x = p.a / p.b
    return x if p.mode == "exact" else float(f"{x:.12g}")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self._open: list[int] = []
        self.raised: Counter = Counter()     # (span name, exception type) -> count
        self.cases: Counter = Counter()      # suite span name -> cases run
        self.counted: Counter = Counter()    # counted-only function -> calls
        self.op_points: set = set()          # distinct (point, n) of the current op
        self.points = 0                      # sum over finished ops of len(op_points)
        self._patches: list = []
        self._call = self._make_call()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _make_call(self):
        """``call(name id, fn, args, kwargs)``: run fn inside a new span.

        A closure over the span arrays, so the per-call cost stays small.
        """
        start, end, names, parents, open_ = (self.start, self.end, self.name,
                                             self.parent, self._open)
        raised, labels, clock = self.raised, self.names, time.perf_counter_ns

        def call(nid, fn, args, kwargs):
            idx = len(start)
            parents.append(open_[-1] if open_ else -1)
            names.append(nid)
            end.append(0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[(labels[nid], type(exc).__name__)] += 1
                raise
            finally:
                end[idx] = clock()
                open_.pop()
        return call

    def end_op(self):
        self.points += len(self.op_points)
        self.op_points.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        nid, call = self.name_id(name), self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        return traced

    def _suite_span(self, name, fn):
        nid, call, cases = self.name_id(name), self._call, self.cases

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            report = call(nid, fn, args, kwargs)
            cases[name] += report.cases
            return report
        return traced

    def _flag_span(self, name, fn):
        nid, call, points = self.name_id(name), self._call, self.op_points

        @functools.wraps(fn)
        def traced(p, n):
            points.add((_point_key(p), n))
            return call(nid, fn, (p, n), {})
        return traced

    def _det_span(self, fn):
        ids = {mode: self.name_id(f"multilinear.det_raw.{mode}") for mode in DET_MODES}
        call = self._call

        @functools.wraps(fn)
        def traced(rows, mode):
            return call(ids[mode], fn, (rows, mode), {})
        return traced

    def _counter(self, name, fn):
        counted = self.counted

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return counting

    # -- installation -------------------------------------------------------

    def _rebind(self, modules, original, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self, package, modules: dict):
        """Wrap the traced functions in every loaded bdcoords namespace.

        ``modules`` maps short names (``"bd"``, ``"flags"``, ...) to the
        loaded submodules; ``package`` is ``bdcoords`` itself.
        """
        spaces = [package, *modules.values()]
        for short, fname in SPANS:
            orig = getattr(modules[short], fname)
            name = f"{short}.{fname}"
            if short == "verification":
                wrapped = self._suite_span(name, orig)
            elif name == "veronese.veronese_flag":
                wrapped = self._flag_span(name, orig)
            else:
                wrapped = self._span(name, orig)
            self._rebind(spaces, orig, wrapped)
        det_raw = modules["multilinear"].det_raw
        self._rebind(spaces, det_raw, self._det_span(det_raw))
        for short, fname in COUNTED:
            orig = getattr(modules[short], fname)
            self._rebind(spaces, orig, self._counter(f"{short}.{fname}", orig))
        flag_cls = modules["flags"].Flag
        init = flag_cls.__init__
        self._patches.append((flag_cls, "__init__", init))
        flag_init = self._span("flags.Flag", init)
        flag_cls.__init__ = flag_init

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def snapshot(self) -> dict:
        """State at the end of the count window (see ``reduce``)."""
        return {"spans": len(self.start), "raised": Counter(self.raised),
                "cases": Counter(self.cases), "counted": Counter(self.counted),
                "points": self.points}

    def reduce(self, window: dict, ops: int) -> dict:
        """Per-layer metrics.

        Counts and count ratios cover the ops before ``window`` was taken
        (the first ``Workload.count_ops`` ops), which are the same ops in
        every run of one seed, so they repeat exactly.  Times cover all ``ops`` ops of the run and are
        reported in ms per op.
        """
        k = len(self.names)
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        busy = np.bincount(name, weights=dur, minlength=k) / 1e6 / max(ops, 1)
        self_ = np.bincount(name, weights=dur - child, minlength=k) / 1e6 / max(ops, 1)
        w = window["spans"]
        wname, wparent = name[:w], parent[:w]
        calls = np.bincount(wname, minlength=k)

        def nid(n):
            return self._ids.get(n, -1)

        def count(n):
            return int(calls[nid(n)]) if nid(n) >= 0 else 0

        def ms(table, n):
            return float(table[nid(n)]) if nid(n) >= 0 else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        # determinants whose parent span is an invariant
        parent_name = np.where(wparent >= 0, name[np.maximum(wparent, 0)], -1)
        invariant_ids = [nid("flags.triple_ratio"), nid("flags.double_ratio")]
        det_ids = [nid(f"multilinear.det_raw.{m}") for m in DET_MODES]
        in_invariant = np.isin(parent_name, invariant_ids) & np.isin(wname, det_ids)
        invariants = count("flags.triple_ratio") + count("flags.double_ratio")

        # assemblies inside a realize_slice span, at any depth
        realize = nid("bd.realize_slice")
        anc = wparent.copy()
        under_realize = np.zeros(w, dtype=bool)
        while (anc >= 0).any():
            under_realize |= (anc >= 0) & (name[np.maximum(anc, 0)] == realize)
            anc = np.where(anc >= 0, parent[np.maximum(anc, 0)], -1)
        assemblies = int(np.count_nonzero(
            under_realize & (wname == nid("surfaces.assemble_surface"))))

        raised = window["raised"]
        out = {
            "veronese.veronese_flag.calls": count("veronese.veronese_flag"),
            "veronese.veronese_flag.busy_ms": ms(busy, "veronese.veronese_flag"),
            "veronese.flags_per_point": ratio(count("veronese.veronese_flag"),
                                              window["points"]),
            "flags.triple_ratio.calls": count("flags.triple_ratio"),
            "flags.triple_ratio.self_ms": ms(self_, "flags.triple_ratio"),
            "flags.double_ratio.calls": count("flags.double_ratio"),
            "flags.double_ratio.self_ms": ms(self_, "flags.double_ratio"),
            "flags.Flag.calls": count("flags.Flag"),
            "flags.degenerate_raised": sum(raised[(n, "DegenerateFlagError")]
                                           for n in FLAG_SPANS),
            "multilinear.dets_per_invariant": ratio(int(np.count_nonzero(in_invariant)),
                                                    invariants),
            "surfaces.assemble_surface.calls": count("surfaces.assemble_surface"),
            "surfaces.assemble_surface.busy_ms": ms(busy, "surfaces.assemble_surface"),
            "surfaces.develop_pants.calls": count("surfaces.develop_pants"),
            "surfaces.solve_twist.calls": count("surfaces.solve_twist"),
            "surfaces.solve_twist.busy_ms": ms(busy, "surfaces.solve_twist"),
            "surfaces.assemblies_per_realize": ratio(assemblies,
                                                     count("bd.realize_slice")),
            "halfplane.axis_data.calls": window["counted"]["halfplane.axis_data"],
            "halfplane.fourth_point.calls": window["counted"]["halfplane.fourth_point"],
            "bd.bd_vector.self_ms": ms(self_, "bd.bd_vector"),
            "bd.closed_leaf_report.busy_ms": ms(busy, "bd.closed_leaf_report"),
            "bd.polytope_membership.busy_ms": ms(busy, "bd.polytope_membership"),
            "bd.realize_slice.self_ms": ms(self_, "bd.realize_slice"),
            "verification.run_triple_ratio.busy_ms": ms(busy,
                                                         "verification.run_triple_ratio"),
            "verification.run_triple_ratio.cases":
                window["cases"]["verification.run_triple_ratio"],
            "verification.run_double_ratio.busy_ms": ms(busy,
                                                         "verification.run_double_ratio"),
            "verification.run_double_ratio.cases":
                window["cases"]["verification.run_double_ratio"],
            "cli.main.self_ms": ms(self_, "cli.main"),
        }
        for mode in DET_MODES:
            out[f"multilinear.det_raw.calls.{mode}"] = count(f"multilinear.det_raw.{mode}")
            out[f"multilinear.det_raw.busy_ms.{mode}"] = ms(busy,
                                                            f"multilinear.det_raw.{mode}")
        return {name: out[name] for name in TRACED}
