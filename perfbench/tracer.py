"""Outside-in tracing: wrap the layers' functions where their callers look them up.

A span records (id, name, request, parent id, start, end); the request is the
name of the group being processed.  Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the time covered by the root spans.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

STRUCTURE_ORACLES = (
    "derived_subgroup",
    "lower_central_last",
    "hypercentre",
    "centralizer",
    "normalizer",
    "p_residual",
    "p_prime_residual",
    "sylow_subgroup",
    "pi_elements_subgroup",
    "is_direct_product_p",
    "q_r_elements_commute",
    "commutator_subgroup_of",
    "derived_of",
    "has_central_hall",
    "has_normal_abelian_hall",
)

# (metric, unit, better, kind, source): kind "self" sums the self time of the
# spans named by source, "calls" counts those spans, "count" reads a counter.
LAYER_METRICS = [
    ("corpus.parse_s", "s", "lower", "self", "corpus.parse"),
    ("group.build_s", "s", "lower", "self", "group.build"),
    ("group.elements", "count", "lower", "count", "group.elements"),
    ("group.i_mul_calls", "count", "lower", "count", "group.i_mul_calls"),
    ("structure.classes_s", "s", "lower", "self", "structure.classes"),
    ("structure.class_count", "count", "lower", "count", "structure.class_count"),
    *itertools.chain.from_iterable(
        [
            (f"structure.{o}.self_s", "s", "lower", "self", f"structure.{o}"),
            (f"structure.{o}.calls", "count", "lower", "calls", f"structure.{o}"),
        ]
        for o in STRUCTURE_ORACLES
    ),
    ("chardeg.class_algebra_s", "s", "lower", "self", "chardeg.class_algebra"),
    ("chardeg.coeff_entries", "count", "lower", "count", "chardeg.coeff_entries"),
    ("chardeg.matrix_calls", "count", "lower", "calls", "chardeg.matrix"),
    ("chardeg.matrix_s", "s", "lower", "self", "chardeg.matrix"),
    ("chardeg.eigensplit_s", "s", "lower", "self", "chardeg.eigensplit"),
    ("modmat.rref_s", "s", "lower", "self", "modmat.rref"),
    ("modmat.rref_calls", "count", "lower", "calls", "modmat.rref"),
    ("modmat.rref_cells", "count", "lower", "count", "modmat.rref_cells"),
    ("modmat.nullspace_calls", "count", "lower", "calls", "modmat.nullspace"),
    ("modmat.solve_right_s", "s", "lower", "self", "modmat.solve_right"),
    ("modmat.minimal_polynomial_s", "s", "lower", "self", "modmat.minimal_polynomial"),
    ("modmat.poly_roots_s", "s", "lower", "self", "modmat.poly_roots"),
    ("metrics.u_pi_s", "s", "lower", "self", "metrics.u_pi"),
    ("metrics.s_pi_s", "s", "lower", "self", "metrics.s_pi"),
    ("criteria.self_s", "s", "lower", "self", "criteria"),
    ("criteria.verdicts", "count", "higher", "count", "criteria.verdicts"),
    ("report.self_s", "s", "lower", "self", "report"),
    ("report.serialize_s", "s", "lower", "self", "report.serialize"),
    ("report.bytes", "bytes", "lower", "count", "report.bytes"),
]

# measured by the traced run itself rather than read from spans: the tracer's
# own cost (traced minus untraced verify pass, both scaled to the reference
# speed), and the scale factor (see speed.py) while the traced set-up and
# verify pass ran, by which their raw span times convert to reference seconds
RUN_METRICS = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.speed", "ratio", "higher"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [len(self.spans), name, self.request, self._stack[-1] if self._stack else None, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """A span around the block; a request, when given, tags it and its children."""
        if request is not None:
            self.request = request
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def self_times(self) -> dict[str, float]:
        covered: dict[int, float] = defaultdict(float)
        for sid, _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, _, start, end in self.spans:
            out[name] += end - start - covered[sid]
        return out

    def root_time(self) -> float:
        return sum(end - start for _, _, _, parent, start, end in self.spans if parent is None)

    def layer_metrics(self) -> dict[str, float | int]:
        self_s = self.self_times()
        calls = Counter(name for _, name, *_ in self.spans)
        out: dict[str, float | int] = {}
        for metric, _, _, kind, source in LAYER_METRICS:
            if kind == "self":
                out[metric] = self_s.get(source, 0.0)
            elif kind == "calls":
                out[metric] = calls[source]
            else:
                out[metric] = self.counts[source]
        return out

    # -- wrapping --------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def traced(self, fn, name: str, count=None):
        """fn wrapped in a span; count(args, result) returns counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return wrapper

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the degclass layers; undo with restore()."""
        from degclass import chardeg, corpus, criteria, group, metrics, modmat, report, structure

        self.wrap(corpus, "build_group", "group.build", lambda a, r: {"group.elements": r.order})

        i_mul = group.Group.i_mul
        calls = self.counts

        def counted_i_mul(g, i, j):
            calls["group.i_mul_calls"] += 1
            return i_mul(g, i, j)

        self.patch(group.Group, "i_mul", counted_i_mul)

        classes = self.traced(
            structure.conjugacy_classes, "structure.classes", lambda a, r: {"structure.class_count": len(r)}
        )
        self.patch(structure, "conjugacy_classes", classes)
        self.patch(criteria, "conjugacy_classes", classes)
        for oracle in STRUCTURE_ORACLES:
            self.wrap(structure, oracle, f"structure.{oracle}")

        self.wrap(
            chardeg, "class_algebra", "chardeg.class_algebra", lambda a, r: {"chardeg.coeff_entries": len(r.coefficients)}
        )
        self.wrap(chardeg.ClassAlgebraData, "matrix", "chardeg.matrix")
        self.wrap(chardeg, "degrees_from_class_algebra", "chardeg.eigensplit")

        self.wrap(modmat, "rref", "modmat.rref", lambda a, r: {"modmat.rref_cells": int(np.prod(np.shape(a[0])))})
        for fn in ("nullspace", "solve_right", "minimal_polynomial", "poly_roots"):
            self.wrap(modmat, fn, f"modmat.{fn}")

        self.wrap(metrics, "u_pi", "metrics.u_pi")
        self.wrap(metrics, "s_pi_size", "metrics.s_pi")

        self.wrap(report, "run_all_criteria", "criteria", lambda a, r: {"criteria.verdicts": len(r)})
        self.wrap(report, "run_report", "report")
        text = self.traced(report.Report.text.fget, "report.serialize", lambda a, r: {"report.bytes": len(r.encode("utf-8"))})
        self.patch(report.Report, "text", property(text))

        group_data = report.GroupData

        def tagged_group_data(g, name="G"):
            self.request = name
            return group_data(g, name)

        self.patch(report, "GroupData", tagged_group_data)
