"""Spans around the calls between numlam's modules, for the traced run.

A traced pass swaps selected module attributes for wrappers defined here, so
spans come from the benchmark's own files and numlam stays untouched.  Each
span is (name, start, end, parent index).  Only the names through which one
module calls another are wrapped, never a recursive call within a module.
The wrappers are removed again after each traced pass, so untraced passes in
the same process run the plain code.

A span's self time is its duration minus the durations of its children.  Per
layer metrics sum the self times of the spans that belong to the layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

# Names through which one numlam module calls another: (span, module, attribute).
# A span is named after the calling module; its time belongs to the callee.
PATCHES = (
    ("harness.eq_case", "numlam.harness", "eq_case"),
    ("report.beta_eta_normalize", "numlam.report", "beta_eta_normalize"),
    ("report.alpha_eq", "numlam.report", "alpha_eq"),
    ("report.pretty", "numlam.report", "pretty"),
    ("reduction.beta_normalize", "numlam.reduction", "beta_normalize"),
    ("reduction.substitute", "numlam.reduction", "substitute"),
    ("numerals.mk_pair", "numlam.numerals", "mk_pair"),
    ("parser.mk_pair", "numlam.parser", "mk_pair"),
    ("parser.substitute", "numlam.parser", "substitute"),
)

# The benchmark's own calls into numlam's exported names.
API_NAMES = (
    "parse_term", "pretty", "head_reduce", "substitute", "alpha_eq",
    "check_successor", "check_predecessor", "check_zero_test",
    "check_definable", "spz_from_k",
)

# Span name -> the self-time metric it adds to.
SELF_METRIC = {
    "pass": "trace.unattributed_s",
    "check_successor": "harness.self_s",
    "check_predecessor": "harness.self_s",
    "check_zero_test": "harness.self_s",
    "check_definable": "harness.self_s",
    "spz_from_k": "harness.self_s",
    "harness.eq_case": "report.self_s",
    # beta_eta_normalize minus its beta_normalize child is the eta pass
    "report.beta_eta_normalize": "reduction.eta_s",
    # beta_normalize minus its substitute children is the redex search
    "reduction.beta_normalize": "reduction.beta_s",
    "head_reduce": "reduction.head_s",
    "report.alpha_eq": "terms.alpha_eq_s",
    "alpha_eq": "terms.alpha_eq_s",
    "reduction.substitute": "terms.substitute_s",
    "parser.substitute": "terms.substitute_s",
    "substitute": "terms.substitute_s",
    "numerals.mk_pair": "terms.mk_pair_s",
    "parser.mk_pair": "terms.mk_pair_s",
    "system.numeral": "numerals.build_s",
    "parse_term": "parser.parse_s",
    "report.pretty": "parser.pretty_s",
    "pretty": "parser.pretty_s",
}

# Self-time metrics of numlam's own modules; their sum over the traced pass
# time is the trace coverage.  The benchmark's own code between calls is not.
MODULE_TIMES = sorted(set(SELF_METRIC.values()) - {"trace.unattributed_s"})

# Work counts taken in every traced pass, and the node counts that only the
# counting pass takes.
COUNTS = (
    "terms.substitute_calls", "terms.mk_pair_calls", "reduction.beta_steps",
    "reduction.eta_steps", "reduction.head_steps", "numerals.built", "parser.chars",
)
NODE_COUNTS = ("terms.substitute_nodes", "reduction.peak_nodes", "numerals.nodes")


class Tracer:
    """Collects spans and work counts for one traced pass."""

    def __init__(self, numlam, sizes: bool = False):
        self.numlam = numlam
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack = [-1]
        # Node counts walk whole terms and cost as much as the reduction
        # itself, so they are taken only in a counting pass that is not timed.
        self._size = getattr(numlam, "size", None) if sizes else None
        if sizes and self._size is None:
            self.absent.add("size")

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters, each run after the wrapped call returned ----------------

    def _count_substitute(self, args, result):
        self.counts["terms.substitute_calls"] += 1
        if self._size is not None:
            self.counts["terms.substitute_nodes"] += self._size(result)

    def _count_mk_pair(self, args, result):
        self.counts["terms.mk_pair_calls"] += 1

    def _count_normalize(self, args, result):
        self.counts["reduction.beta_steps"] += getattr(result, "steps", 0)
        self.counts["reduction.eta_steps"] += getattr(result, "eta_steps", 0)

    def _count_head(self, args, result):
        trace = result.trace
        self.counts["reduction.head_steps"] += trace.length
        if self._size is None:
            return
        states = getattr(trace, "states", None)
        if states is None:
            self.absent.add("head_reduce.trace.states")
            states = (args[0], trace.final)
        peak = max(self._size(s) for s in states)
        self.counts["reduction.peak_nodes"] = max(self.counts["reduction.peak_nodes"], peak)

    def _count_numeral(self, args, result):
        self.counts["numerals.built"] += 1
        if self._size is not None:
            self.counts["numerals.nodes"] += self._size(result)

    def _count_parse(self, args, result):
        self.counts["parser.chars"] += len(args[0])

    def _count_pretty(self, args, result):
        self.counts["parser.chars"] += len(result)

    def _counter_for(self, name):
        return {
            "reduction.substitute": self._count_substitute,
            "parser.substitute": self._count_substitute,
            "substitute": self._count_substitute,
            "numerals.mk_pair": self._count_mk_pair,
            "parser.mk_pair": self._count_mk_pair,
            "report.beta_eta_normalize": self._count_normalize,
            "head_reduce": self._count_head,
            "parse_term": self._count_parse,
            "pretty": self._count_pretty,
            "report.pretty": self._count_pretty,
        }.get(name)

    # -- installing the wrappers -------------------------------------------

    def api(self):
        """The benchmark's view of numlam with every call wrapped.  A name
        that no longer exists is recorded as absent and left out."""
        api = SimpleNamespace()
        for name in API_NAMES:
            fn = getattr(self.numlam, name, None)
            if fn is None:
                self.absent.add(name)
                continue
            setattr(api, name, self.wrap(name, fn, self._counter_for(name)))
        api.numeral_system = self._numeral_system
        return api

    def _numeral_system(self, system):
        try:
            numeral = self.wrap("system.numeral", system.numeral, self._count_numeral)
            return dataclasses.replace(system, numeral=numeral)
        except (AttributeError, TypeError):
            self.absent.add("system.numeral")
            return system

    @contextmanager
    def patched(self):
        """Swap the cross-module names for wrappers; restore them on exit."""
        saved = []
        try:
            for span, module_name, attr in PATCHES:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.add(span)
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add(span)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span, fn, self._counter_for(span)))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def root(self):
        """The span covering a whole pass; every other span descends from it."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ("pass", start, end, -1)


def self_times(spans) -> dict[str, float]:
    """Sum each metric's self time: a span's duration less its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        metric = SELF_METRIC[name]
        totals[metric] = totals.get(metric, 0.0) + seconds
    return totals


def pass_layers(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    times = self_times(spans)
    out = {metric: times.get(metric, 0.0) for metric in MODULE_TIMES}
    out["trace.unattributed_s"] = times.get("trace.unattributed_s", 0.0)
    for name in COUNTS + NODE_COUNTS:
        out[name] = counts.get(name, 0)
    parse_print = out["parser.parse_s"] + out["parser.pretty_s"]
    out["parser.chars_per_s"] = out["parser.chars"] / parse_print if parse_print else 0.0
    case_ms = sorted(
        (end - start) * 1e3 for name, start, end, _ in spans if name == "harness.eq_case"
    )
    out["report.cases"] = len(case_ms)
    out["report.case_ms.p50"] = statistics.median(case_ms) if case_ms else 0.0
    out["report.case_ms.p99"] = _percentile(case_ms, 0.99)
    out["report.case_ms.max"] = case_ms[-1] if case_ms else 0.0
    pass_s = sum(end - start for name, start, end, _ in spans if name == "pass")
    out["trace.pass_s"] = pass_s
    covered = sum(out[m] for m in MODULE_TIMES)
    out["trace.coverage_pct"] = 100.0 * covered / pass_s if pass_s else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if ".case_ms." in metric:
        return "ms"
    return "count"


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
