"""Span recorder for traced benchmark runs.

The recorder wraps public functions of the maxentgames modules from the
outside: each wrapper replaces the function under its name in every
``maxentgames.*`` namespace that holds it (``vertices`` is bound in
``constraints``, ``maxent``, ``verify``, ``cli`` and the package itself), so
calls between modules are recorded too.  No program file changes.

A span is (id, parent id, op id, name, start, end, outcome).  Spans stay in
memory and are written once, when the run ends.  A span's self time is its
duration minus the time its direct children cover; calls run on one thread,
so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get spans, in reporting order.
SPANNED = [
    ("constraints", "vertices"),
    ("constraints", "hull_interior"),
    ("maxent", "solve"),
    ("maxent", "natural_tilt"),
    ("verify", "verify_saddle"),
    ("verify", "lp_game_value"),
    ("_simplex", "solve_lp"),
    ("divergence", "equalizer_check"),
    ("derived", "capacity_solve"),
    ("derived", "blahut_arimoto"),
    ("cli", "main"),
    ("cli", "parse_spec"),
]

# LossModel subclasses whose per-call methods are counted without spans;
# they run thousands of times per solve, so a span each would swamp the trace.
COUNTED_CLASSES = ["BrierModel", "LogModel", "ZeroOneModel", "QuadraticModel",
                   "BregmanModel"]
COUNTED_METHODS = ["bayes_act", "loss_vector"]

# SaddlePoint.method of a solve that raised, by model kind
FAILED_METHOD = {"brier": "brier-enum", "log": "log-newton",
                 "zero_one": "zero-one-enum"}
SOLVE_METHODS = ["brier-enum", "log-newton", "log-face", "zero-one-enum",
                 "frank-wolfe"]


class Span:
    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "outcome", "info")

    def __init__(self, sid, parent, op, name, t0):
        self.sid, self.parent, self.op, self.name, self.t0 = sid, parent, op, name, t0
        self.t1 = t0
        self.outcome = "ok"
        self.info = None


class Recorder:
    """Holds spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self.active = False
        self._seen: set = set()   # (T, tau) keys enumerated in the current op
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the spanned functions and counted methods of `package`."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod_name, fn_name in SPANNED:
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._span_wrapper(f"{mod_name.lstrip('_')}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._undo.append((mod, fn_name, original))
        losses = sys.modules[f"{package.__name__}.losses"]
        for cls_name in COUNTED_CLASSES:
            cls = getattr(losses, cls_name)
            for meth in COUNTED_METHODS:
                if meth in cls.__dict__:
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._count_wrapper(f"losses.{meth}.calls", original))
                    self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        perf = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1].sid if self.stack else -1
            span = Span(len(self.spans), parent, self.op, name, perf())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                span.info = self._describe_failure(name, args)
                raise
            else:
                span.info = self._describe(name, args, result)
                return result
            finally:
                span.t1 = perf()
                self.stack.pop()
        return spanned

    # -- per-span details ---------------------------------------------------

    def _vertex_info(self, g, points: int) -> dict:
        key = (g.statistic.matrix.shape, g.statistic.matrix.tobytes(), g.tau.tobytes())
        repeat = key in self._seen
        self._seen.add(key)
        return {"points": points, "repeat": repeat}

    def _describe(self, name, args, result):
        if name == "constraints.vertices":
            return self._vertex_info(args[0], int(result.m))
        if name == "maxent.solve":
            return {"method": result.method}
        if name == "maxent.natural_tilt":
            return {"method": result.method}
        if name in ("derived.capacity_solve", "derived.blahut_arimoto"):
            return {"iterations": int(result.iterations)}
        return None

    def _describe_failure(self, name, args):
        if name == "maxent.solve":
            return {"method": FAILED_METHOD.get(getattr(args[0], "kind", ""),
                                                "frank-wolfe")}
        if name == "constraints.vertices":
            return self._vertex_info(args[0], 0)   # raised Infeasible: no points
        return None

    # -- operation bracketing -----------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen = set()
        self.active = True

    def end_op(self) -> None:
        self.active = False

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.t1 - s.t0
        return [(s.t1 - s.t0) - child[s.sid] for s in self.spans]

    def metrics(self, overhead_frac: float, speeds: dict) -> dict:
        """Per-layer metrics named <module>.<function>.<quantity>.

        Self times are scaled to reference speed by their op's speed factor.
        """
        selfs = [st / speeds[s.op] for s, st in zip(self.spans, self.self_times())]
        by_name: dict = defaultdict(list)
        for s, st in zip(self.spans, selfs):
            by_name[s.name].append((s, st))

        def calls(name):
            return len(by_name[name])

        def self_s(name):
            return float(sum(st for _, st in by_name[name]))

        def failures(name, allowed=()):
            return sum(1 for s, _ in by_name[name]
                       if s.outcome != "ok" and s.outcome not in allowed)

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        vx = by_name["constraints.vertices"]
        put("constraints.vertices.calls", len(vx), "count")
        put("constraints.vertices.self_s", self_s("constraints.vertices"), "s")
        put("constraints.vertices.points", sum(s.info["points"] for s, _ in vx), "count")
        repeats = sum(1 for s, _ in vx if s.info["repeat"])
        put("constraints.vertices.repeat_frac", repeats / len(vx) if vx else 0.0, "ratio")
        put("constraints.hull_interior.calls", calls("constraints.hull_interior"), "count")
        put("constraints.hull_interior.self_s", self_s("constraints.hull_interior"), "s")

        per_method = defaultdict(float)
        for s, st in by_name["maxent.solve"]:
            per_method[s.info["method"]] += st
        for method in SOLVE_METHODS:
            put(f"maxent.solve.{method}.self_s", per_method[method], "s")
        put("maxent.solve.max_iter", sum(1 for s, _ in by_name["maxent.solve"]
                                         if s.outcome == "MaxIterExceeded"), "count")
        put("maxent.solve.newton_divergence", sum(1 for s, _ in by_name["maxent.solve"]
                                                  if s.outcome == "NewtonDivergence"), "count")

        tilts = by_name["maxent.natural_tilt"]
        put("maxent.natural_tilt.calls", len(tilts), "count")
        put("maxent.natural_tilt.self_s", self_s("maxent.natural_tilt"), "s")
        games = sum(1 for s, _ in tilts if s.outcome == "ok" and s.info["method"] == "matrix-game")
        put("maxent.natural_tilt.matrix_game_frac", games / len(tilts) if tilts else 0.0, "ratio")
        put("maxent.natural_tilt.failures", failures("maxent.natural_tilt"), "count")

        for meth in COUNTED_METHODS:
            put(f"losses.{meth}.calls", self.counts[f"losses.{meth}.calls"], "count")

        put("verify.verify_saddle.calls", calls("verify.verify_saddle"), "count")
        put("verify.verify_saddle.self_s", self_s("verify.verify_saddle"), "s")
        put("verify.lp_game_value.calls", calls("verify.lp_game_value"), "count")
        put("verify.lp_game_value.self_s", self_s("verify.lp_game_value"), "s")
        put("verify.lp_game_value.failures", failures("verify.lp_game_value"), "count")
        # an infeasible LP is a valid answer (hull_interior relies on it)
        put("simplex.solve_lp.calls", calls("simplex.solve_lp"), "count")
        put("simplex.solve_lp.self_s", self_s("simplex.solve_lp"), "s")
        put("simplex.solve_lp.failures", failures("simplex.solve_lp", ("Infeasible",)), "count")

        put("divergence.equalizer_check.calls", calls("divergence.equalizer_check"), "count")
        put("divergence.equalizer_check.self_s", self_s("divergence.equalizer_check"), "s")

        caps = by_name["derived.capacity_solve"]
        put("derived.capacity_solve.calls", len(caps), "count")
        put("derived.capacity_solve.self_s", self_s("derived.capacity_solve"), "s")
        put("derived.capacity_solve.iterations",
            sum(s.info["iterations"] for s, _ in caps if s.outcome == "ok"), "count")
        bas = by_name["derived.blahut_arimoto"]
        put("derived.blahut_arimoto.self_s", self_s("derived.blahut_arimoto"), "s")
        put("derived.blahut_arimoto.iterations",
            sum(s.info["iterations"] for s, _ in bas if s.outcome == "ok"), "count")

        put("cli.main.self_s", self_s("cli.main"), "s")
        put("cli.parse_spec.self_s", self_s("cli.parse_spec"), "s")
        put("trace.overhead_frac", overhead_frac, "ratio")
        return out

    def per_op_self(self) -> dict:
        """{op id: {span name or solve method: self seconds}}."""
        table: dict = defaultdict(lambda: defaultdict(float))
        for s, st in zip(self.spans, self.self_times()):
            key = s.name
            if s.name == "maxent.solve":
                key = f"maxent.solve.{s.info['method']}"
            table[s.op][key] += st
        return table

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, st in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.t0, "end": s.t1, "self": st, "outcome": s.outcome,
                    "info": s.info,
                }) + "\n")
