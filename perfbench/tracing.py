"""Spans and counts for the traced run, and the per-layer metrics made from them.

A span has a name, a start, an end and a parent span. Spans and counts
are kept in memory and written out once, when the run ends. Each
top-level span is a unit (one operation, or one sample drawn in
set-up); a per-layer metric is the median over the units in which its
layer did any work, and 0 when no unit touched the layer.

With tracing off the benchmark uses NullTracer, whose spans are one
shared no-op context manager, and no stoclang function is wrapped.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

# name → (unit, how the per-unit value is made from spans and counts)
#   ("span", s)      total time of the spans named s inside the unit
#   ("sum", c)       sum of the counts named c
#   ("max", c)       largest count named c
#   ("ratio", c, d)  sum of c over sum of d
PER_LAYER = {
    "sampling.draw_sample_s": ("s", ("span", "sampling.draw_sample")),
    "sampling.letters": ("count", ("sum", "sampling.letters")),
    "sampling.build_trie_s": ("s", ("span", "sampling.build_trie")),
    "sampling.trie_nodes": ("count", ("sum", "sampling.trie_nodes")),
    "sampling.factor_set_s": ("s", ("span", "sampling.factor_set")),
    "sampling.factors": ("count", ("max", "sampling.factors")),
    "learner.dees_s": ("s", ("span", "learner.dees")),
    "learner.build_system_s": ("s", ("span", "learner.build_system")),
    "learner.solve_feasibility_s": ("s", ("span", "learner.solve_feasibility")),
    "learner.lp_solves": ("count", ("sum", "learner.lp_solves")),
    "learner.lp_rows": ("count", ("sum", "learner.lp_rows")),
    "learner.lp_rows_useful_share": (
        "ratio", ("ratio", "learner.lp_rows_useful", "learner.lp_rows")),
    "learner.states": ("count", ("sum", "learner.states")),
    "simplex.solve_lp_s": ("s", ("span", "simplex.solve_lp")),
    "simplex.tableau_cells": ("count", ("max", "simplex.tableau_cells")),
    "rationalize.exactify_s": ("s", ("span", "rationalize.exactify_ma")),
    "rationalize.recovered_share": (
        "ratio", ("ratio", "rationalize.recovered", "rationalize.parameters")),
    "normalize.init_s": ("s", ("span", "normalize.init")),
    "automata.certificate_s": ("s", ("span", "automata.certificate")),
    "normalize.pr_sample_s": ("s", ("span", "normalize.pr_sample")),
    "normalize.nodes": ("count", ("sum", "normalize.nodes")),
    "normalize.neg_mass_s": ("s", ("span", "normalize.neg_mass")),
    "experiment.l1_on_ball_s": ("s", ("span", "experiment.l1_on_ball")),
}


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def note(self, name: str, value: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # each span: [name, start, end, parent index or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # counts per unit: unit id → name → list of values
        self.counts: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.absent: list[str] = []
        self._last_unit: int | None = None
        # objects handed over by wrappers, measured after the timed part
        self.pending: list[tuple[str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        if parent is None:
            self._last_unit = sid
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def unit(self) -> int | None:
        """The current top-level span, or the last one once it has closed."""
        return self._stack[0] if self._stack else self._last_unit

    def note(self, name: str, value: float) -> None:
        self.counts[self.unit()][name].append(value)

    def _units(self) -> dict[int, dict[str, float]]:
        """Per unit: total duration of each span name inside it."""
        root: list[int] = []
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, parent) in enumerate(self.spans):
            root.append(sid if parent is None else root[parent])
            out[root[sid]][name] += end - start
        return out

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total inclusive time and total self time.

        Self time is a span's duration minus its children's; children
        run one after the other in this single-threaded benchmark.
        """
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, parent) in enumerate(self.spans):
            out[name]["total_s"] += end - start
            out[name]["self_s"] += end - start - child_total[sid]
        return dict(out)

    def per_layer(self) -> dict[str, dict]:
        units = self._units()
        metrics = {}
        for name, (unit, (kind, *src)) in PER_LAYER.items():
            values = []
            for uid in units:
                counts = self.counts.get(uid, {})
                if kind == "span":
                    if src[0] in units[uid]:
                        values.append(units[uid][src[0]])
                elif kind == "ratio":
                    den = sum(counts.get(src[1], ()))
                    if den:
                        values.append(sum(counts.get(src[0], ())) / den)
                elif src[0] in counts:
                    agg = sum if kind == "sum" else max
                    values.append(agg(counts[src[0]]))
            metrics[name] = {"value": statistics.median(values) if values else 0,
                             "unit": unit}
        return metrics

    def dump(self, path, extra: dict) -> None:
        doc = {**extra,
               "absent": self.absent,
               "span_times": self.self_times(),
               "spans": [{"name": n, "start": s, "end": e, "parent": p}
                         for n, s, e, p in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# metrics that read from each wrapped function; reported absent if it is gone
_WRAPPED_METRICS = {
    "build_system": ("learner.build_system_s", "learner.lp_rows",
                     "learner.lp_rows_useful_share"),
    "solve_feasibility": ("learner.solve_feasibility_s",),
    "solve_lp": ("simplex.solve_lp_s", "learner.lp_solves", "simplex.tableau_cells"),
    "build_trie": ("sampling.build_trie_s", "sampling.trie_nodes"),
    "absolute_convergence_certificate": ("automata.certificate_s",),
    "factor_set": ("sampling.factor_set_s", "sampling.factors"),
}


def install(tracer: Tracer) -> None:
    """Wrap the functions that dees and NormalizedSeries call across modules.

    Each wrapper opens a span and records counts; objects whose sizes
    take time to measure (tries, systems) are handed over in
    tracer.pending and measured by settle() after the timed part.
    """
    from stoclang import learner, normalize, sampling

    def wrap(owner, attr: str, span_name: str, after=None):
        target = getattr(owner, attr, None)
        if target is None:
            tracer.absent.extend(_WRAPPED_METRICS[attr])
            return

        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                result = target(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def after_system(args, system):
        tracer.note("learner.lp_rows", len(system.rows))
        tracer.pending.append(("system", system))

    def after_lp(args, result):
        m, n = args[0].shape
        tracer.note("learner.lp_solves", 1)
        # the phase-1 tableau: m + 1 rows over n structural, m artificial and one rhs column
        tracer.note("simplex.tableau_cells", (m + 1) * (n + m + 1))

    wrap(learner, "build_system", "learner.build_system", after_system)
    wrap(learner, "solve_feasibility", "learner.solve_feasibility")
    wrap(learner, "solve_lp", "simplex.solve_lp", after_lp)
    wrap(learner, "build_trie", "sampling.build_trie",
         lambda args, trie: tracer.pending.append(("trie", trie)))
    wrap(normalize, "absolute_convergence_certificate", "automata.certificate")
    wrap(sampling.EmpiricalTrie, "factor_set", "sampling.factor_set",
         lambda args, fact: tracer.note("sampling.factors", len(fact)))


def settle(tracer) -> None:
    """Measure what the wrappers handed over during the last operation."""
    if not tracer.enabled:
        return
    for kind, obj in tracer.pending:
        if kind == "trie":
            nodes, stack = 0, [obj.root]
            while stack:
                node = stack.pop()
                nodes += 1
                stack.extend(node.children.values())
            tracer.note("sampling.trie_nodes", nodes)
        else:
            useful = {(r.coeffs, r.target) for r in obj.rows
                      if r.target != 0 or any(r.coeffs)}
            tracer.note("learner.lp_rows_useful", len(useful))
    tracer.pending.clear()
