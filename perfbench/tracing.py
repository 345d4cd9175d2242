"""Spans around calls into the traceschemes modules, recorded from outside.

A :class:`Tracer` replaces the public entry points of each module with
thin wrappers that record a span (name, start, end, parent span, pass and
task) and a few exact counts taken from the returned objects.  Nothing in
the package itself changes: the wrappers are installed into every
``traceschemes`` namespace that holds the function (``from .x import f``
makes copies of the reference) and removed again by :meth:`uninstall`.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from statistics import median

CONSTRUCT_SPANS = {
    "trivial_ts": "construct.trivial",
    "pg_lines": "construct.pg_lines",
    "ag_lines": "construct.ag_lines",
    "hermitian_unital": "construct.hermitian",
    "inversive_plane": "construct.inversive",
    "greedy_packing_ts": "construct.greedy",
    "extend_design": "construct.extend",
}
EXHAUSTIVE_SPANS = ("verify.ts_exhaustive", "verify.ipps", "verify.ipps_star", "verify.cff")
CLI_SUBCOMMANDS = ("construct", "verify", "check-witness", "stats", "own-subsets", "bound", "trace")


def _ts_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")
    return "verify.ts_certified" if mode == "certified" else "verify.ts_exhaustive"


def _outcome_attrs(out) -> dict:
    return {"work": out.work, "verdict": out.verdict}


def _blocks_attrs(out) -> dict:
    system = out[0] if isinstance(out, tuple) else out
    return {"blocks": system.m}


def _search_attrs(out) -> dict:
    return {"nodes": out.nodes_explored, "complete": out.complete}


def _trace_attrs(out) -> dict:
    return {"completed": type(out).__name__ != "TraceBlocked"}


# (module, function, span name or name function, attrs from result, attrs from args)
WRAPPED = [
    ("core", "parse_set_system", "core.parse", None,
     lambda args, kwargs: {"bytes": len(args[0].encode())}),
    ("core", "render_set_system", "core.render", None, None),
    ("core", "new_set_system", "core.new_set_system", None, None),
    ("core", "enumerate_own_subsets", "core.own_subsets", None, None),
    ("gf", "gf", "gf.build", None, None),
    *[("construct", fn, span, _blocks_attrs, None) for fn, span in CONSTRUCT_SPANS.items()],
    ("verify", "verify_ts", _ts_span, _outcome_attrs, None),
    ("verify", "verify_ipps", "verify.ipps", _outcome_attrs, None),
    ("verify", "verify_ipps_star", "verify.ipps_star", _outcome_attrs, None),
    ("verify", "verify_cff", "verify.cff", _outcome_attrs, None),
    ("verify", "check_witness", "verify.witness_check", None, None),
    ("verify", "render_witness", "verify.witness_io", None, None),
    ("verify", "parse_witness", "verify.witness_io", None, None),
    ("bounds", "bound_report", "bounds.report", None, None),
    ("oracle", "exhaustive_optimal", "oracle.search", _search_attrs, None),
    ("oracle", "cross_check_bounds", "oracle.cross_check", None, None),
    ("oracle", "ts_violation_from_cff_failure", "oracle.trace_ts", _trace_attrs, None),
    ("oracle", "ipps_violation_from_missing_own_subsets", "oracle.trace_ipps", _trace_attrs, None),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "unit", "task", "attrs")

    def __init__(self, id, name, start, end, parent, unit, task, attrs):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.unit, self.task, self.attrs = parent, unit, task, attrs

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.unit, self.task, self.attrs]


class Tracer:
    """Records spans; ``unit`` is "setup" or a pass number, ``task`` a task index."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: object = "setup"
        self.task: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs: dict | None = None) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None,
                    self.unit, self.task, attrs or {})
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def adopt(self, child_spans: list[list], parent: Span) -> None:
        """Append spans dumped by a traced child process under ``parent``."""
        base = len(self.spans)
        for sid, name, start, end, par, _unit, _task, attrs in child_spans:
            self.spans.append(Span(base + sid, name, start, end,
                                   parent.id if par is None else base + par,
                                   self.unit, self.task, attrs))

    def _wrap(self, fn, span_name, result_attrs, arg_attrs):
        tracer = self

        def wrapper(*args, **kwargs):
            name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
            span = tracer.open(name, arg_attrs(args, kwargs) if arg_attrs else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if result_attrs:
                span.attrs.update(result_attrs(out))
            return out

        return wrapper

    def install(self) -> None:
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "traceschemes" or name.startswith("traceschemes.")]
        for module, fn_name, span_name, result_attrs, arg_attrs in WRAPPED:
            original = getattr(sys.modules[f"traceschemes.{module}"], fn_name)
            wrapper = self._wrap(original, span_name, result_attrs, arg_attrs)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def layer_metrics(spans: list[Span], traced_passes: list[int],
                  exit_mismatch: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-module metrics from the spans of one traced run.

    A ``*_s`` metric is the self time of its spans in the set-up plus the
    median over traced passes of their self time in one pass; counts are
    summed the same way and are exact.  Rates and fractions use every
    traced span.  ``cli.*_s`` are median child-process wall times.
    """
    own = self_times(spans)
    by_unit: dict[object, list[Span]] = defaultdict(list)
    for s in spans:
        by_unit[s.unit].append(s)

    def per_run(value_of) -> float:
        setup = value_of(by_unit.get("setup", []))
        return setup + median(value_of(by_unit.get(p, [])) for p in traced_passes)

    def self_s(*names):
        return per_run(lambda ss: sum(own[s.id] for s in ss if s.name in names))

    def count(attr, *names):
        return per_run(lambda ss: sum(s.attrs.get(attr, 0) for s in ss if s.name in names))

    traced = [s for p in traced_passes for s in by_unit.get(p, [])] + by_unit.get("setup", [])

    def frac(test, *names):
        hits = [test(s.attrs) for s in traced if s.name in names]
        return sum(hits) / len(hits) if hits else 0.0

    def rate(attr, *names):
        secs = sum(own[s.id] for s in traced if s.name in names)
        return sum(s.attrs.get(attr, 0) for s in traced if s.name in names) / secs if secs else 0.0

    def child_wall(name):
        walls = [s.end - s.start for s in traced if s.name == name]
        return median(walls) if walls else 0.0

    out: dict[str, tuple[float, str]] = {}
    for span in EXHAUSTIVE_SPANS:
        key = span.replace("_exhaustive", "")
        out[f"{span}_s"] = (self_s(span), "s")
        out[f"{key}_work"] = (count("work", span), "count")
    out["verify.work_per_s"] = (rate("work", *EXHAUSTIVE_SPANS), "1/s")
    out["verify.ts_certified_s"] = (self_s("verify.ts_certified"), "s")
    out["verify.certified_decisive_frac"] = (
        frac(lambda a: a.get("verdict") == "holds", "verify.ts_certified"), "ratio")
    out["verify.witness_check_s"] = (self_s("verify.witness_check"), "s")
    out["verify.witness_io_s"] = (self_s("verify.witness_io"), "s")
    out["oracle.trace_ts_s"] = (self_s("oracle.trace_ts"), "s")
    out["oracle.trace_ipps_s"] = (self_s("oracle.trace_ipps"), "s")
    out["oracle.trace_completed_frac"] = (
        frac(lambda a: a.get("completed", False), "oracle.trace_ts", "oracle.trace_ipps"), "ratio")
    out["oracle.search_s"] = (self_s("oracle.search"), "s")
    out["oracle.search_nodes"] = (count("nodes", "oracle.search"), "count")
    out["oracle.nodes_per_s"] = (rate("nodes", "oracle.search"), "1/s")
    out["oracle.search_complete_frac"] = (
        frac(lambda a: a.get("complete", False), "oracle.search"), "ratio")
    out["bounds.report_s"] = (self_s("bounds.report"), "s")
    out["core.parse_s"] = (self_s("core.parse"), "s")
    out["core.parse_bytes"] = (count("bytes", "core.parse"), "bytes")
    out["core.render_s"] = (self_s("core.render"), "s")
    out["core.new_set_system_s"] = (self_s("core.new_set_system"), "s")
    out["core.own_subsets_s"] = (self_s("core.own_subsets"), "s")
    for span in CONSTRUCT_SPANS.values():
        out[f"{span}_s"] = (self_s(span), "s")
    out["construct.blocks"] = (count("blocks", *CONSTRUCT_SPANS.values()), "count")
    out["gf.build_s"] = (self_s("gf.build"), "s")
    out["cli.startup_s"] = (child_wall("cli.startup"), "s")
    for sub in CLI_SUBCOMMANDS:
        name = "cli." + sub.replace("-", "_")
        out[f"{name}_s"] = (child_wall(name), "s")
    out["cli.exit_mismatch"] = (float(exit_mismatch), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
