"""Outside-in span recorder: times calls into chowcheck's layers without
changing chowcheck.

Each target is wrapped where callers look it up: the module attribute
(and every other ``chowcheck.*`` module attribute bound to the same
object, such as ``runner.parse_poly`` for ``poly.parse_poly``), the
class attribute for methods, and the ``runner.CHECKS`` entries for
check kinds.  A target that no longer exists is a configuration error,
so that a refactor cannot silently empty a layer.

Spans are kept in memory as ``Span`` objects and written as JSON lines
at the end.  A span's self time is its duration minus the time covered
by its direct children.  A span runs from ``start`` to ``end``, the
wrapped call; counting its attributes (shape, nonzeros) runs from
``end`` to ``post`` and is charged to nobody, so a parent's self time
does not include the recorder's own counting.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field


class TargetMissing(LookupError):
    """A wrapped target does not exist in the code under test."""


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    post: float = 0.0
    attrs: dict = field(default_factory=dict)


def _cells_of(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    rows = len(matrix)
    return rows * (len(matrix[0]) if rows else 0)


def _cells(args, kwargs, result):
    return {"cells": _cells_of(args, kwargs)}


def _modular_rank_attrs(args, kwargs, result):
    return {"cells": _cells_of(args, kwargs), "certified": bool(result.certified)}


def _span_rows_attrs(args, kwargs, result):
    rows, monos, _ = result
    return {"cells": len(rows) * len(monos),
            "nnz": sum(1 for row in rows for x in row if x)}


# (span name, module, attribute path, attribute function or None)
FUNCTION_TARGETS = [
    ("exactla.modular_rank", "chowcheck.exactla", "modular_rank", _modular_rank_attrs),
    ("exactla.rank", "chowcheck.exactla", "rank", _cells),
    ("exactla.hermite_normal_form", "chowcheck.exactla", "hermite_normal_form", None),
    ("exactla.minimal_multiple_in_lattice", "chowcheck.exactla",
     "minimal_multiple_in_lattice", None),
    ("modrank.rank_mod", "chowcheck.modrank", "rank_mod", _cells),
    ("jacobian.span_rows", "chowcheck.jacobian", "HypersurfaceRing.span_rows",
     _span_rows_attrs),
    ("jacobian.ideal_rank", "chowcheck.jacobian", "HypersurfaceRing.ideal_rank", None),
    ("jacobian.quotient_dim", "chowcheck.jacobian", "HypersurfaceRing.quotient_dim", None),
    ("jacobian.piece", "chowcheck.jacobian", "HypersurfaceRing.piece", None),
    ("jacobian.HypersurfaceRing", "chowcheck.jacobian", "HypersurfaceRing.__init__", None),
    ("jacobian.GradedPiece", "chowcheck.jacobian", "GradedPiece.__init__", None),
    ("jacobian.reduce_vector", "chowcheck.jacobian", "GradedPiece.reduce_vector", None),
    ("jacobian.multiplication_map", "chowcheck.jacobian", "multiplication_map", None),
    ("characters.character_spectrum", "chowcheck.characters", "character_spectrum", None),
    ("curves.restrict_to_line", "chowcheck.curves", "restrict_to_line", None),
    ("curves.binary_form_cycle", "chowcheck.curves", "binary_form_cycle", None),
    ("curves.hyperplane_relations", "chowcheck.curves", "hyperplane_relations", None),
    ("curves.minimal_equivalence_order", "chowcheck.curves",
     "minimal_equivalence_order", None),
    ("poly.parse_poly", "chowcheck.poly", "parse_poly", None),
    ("poly.substitute", "chowcheck.poly", "substitute", None),
    ("poly.exact_divide", "chowcheck.poly", "exact_divide", None),
    ("scenario.parse_scenario", "chowcheck.scenario", "parse_scenario", None),
    ("report.render_machine", "chowcheck.report", "Report.render_machine", None),
]

# The pencil layer is every public function of chowcheck.pencil, under one name.
PENCIL_FUNCTIONS = [
    "default_scenario", "blowup_quotient", "verify_blowup_factorization",
    "membership_identity", "tangent_identity", "verify_tangent_lines",
    "verify_concurrency", "tower_at_lambda", "concurrency_at_lambda",
    "hyperelliptic_data", "verify_hyperelliptic_condition",
    "report_degenerate_parameters", "scenario_steps",
]


def _resolve(module, path):
    obj = importlib.import_module(module)
    owner = obj
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            raise TargetMissing(f"{module}.{path} does not exist; "
                                "update the benchmark's span targets")
    return owner, path.rsplit(".", 1)[-1], obj


class Recorder:
    """Holds spans for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.kinds = []
        self.op = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, func, attrs):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span = Span(len(self.spans), stack[-1] if stack else None,
                        self.op, name, time.perf_counter())
            self.spans.append(span)
            stack.append(span.id)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            span.post = time.perf_counter()
            return result
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapped):
        """Rebind every chowcheck module attribute that is ``original``."""
        for modname, module in list(sys.modules.items()):
            if modname != "chowcheck" and not modname.startswith("chowcheck."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def install(self):
        if self._patches:
            raise RuntimeError("recorder is already installed")
        targets = [(name, module, path, attrs)
                   for name, module, path, attrs in FUNCTION_TARGETS]
        targets += [("pencil", "chowcheck.pencil", fn, None)
                    for fn in PENCIL_FUNCTIONS]
        resolved = [(name, *_resolve(module, path), attrs)
                    for name, module, path, attrs in targets]
        runner = importlib.import_module("chowcheck.runner")
        checks = getattr(runner, "CHECKS", None)
        if not checks:
            raise TargetMissing("chowcheck.runner.CHECKS is missing or empty")
        for name, owner, attr, original, attrs in resolved:
            wrapped = self._wrap(name, original, attrs)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)
        self.kinds = sorted(checks)
        for kind, func in list(checks.items()):
            checks[kind] = self._wrap(f"runner.check.{kind}", func, None)
            self._patches.append((checks, kind, func))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Map span id -> duration minus the time its direct children cover,
    attribute counting included.  Children of one span run one after
    another in a single thread, so their intervals do not overlap."""
    child_time = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                       + span.post - span.start)
    return {span.id: span.end - span.start - child_time.get(span.id, 0.0)
            for span in spans}


def layer_metrics(spans, op_seconds, kinds):
    """Per-layer counts and times for the spans of one op.

    ``op_seconds`` is the op's wall time, the base of ``trace.coverage``;
    ``kinds`` are the registered check kinds, each reported even when the
    op ran none of them.
    """
    selfs = self_times(spans)
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.name)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def total_attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def hit_ratio(name, miss_child):
        """Share of calls that did no work below them: a cache hit."""
        spans_ = by_name.get(name, ())
        if not spans_:
            return 0.0
        hits = sum(1 for s in spans_ if miss_child not in children.get(s.id, ()))
        return hits / len(spans_)

    m = {}
    mr = "exactla.modular_rank"
    m[f"{mr}.calls"] = calls(mr)
    m[f"{mr}.self_s"] = self_s(mr)
    m[f"{mr}.cells"] = total_attr(mr, "cells")
    m[f"{mr}.certified_ratio"] = (total_attr(mr, "certified") / calls(mr)
                                  if calls(mr) else 0.0)
    for name in ("modrank.rank_mod", "exactla.rank"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.cells"] = total_attr(name, "cells")
    sr = "jacobian.span_rows"
    m[f"{sr}.calls"] = calls(sr)
    m[f"{sr}.self_s"] = self_s(sr)
    m[f"{sr}.cells"] = total_attr(sr, "cells")
    m[f"{sr}.nnz"] = total_attr(sr, "nnz")
    for name in ("jacobian.ideal_rank", "jacobian.reduce_vector",
                 "exactla.hermite_normal_form"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["jacobian.quotient_dim.calls"] = calls("jacobian.quotient_dim")
    m["jacobian.quotient_dim.hit_ratio"] = hit_ratio("jacobian.quotient_dim",
                                                     "jacobian.ideal_rank")
    m["jacobian.piece.calls"] = calls("jacobian.piece")
    m["jacobian.piece.hit_ratio"] = hit_ratio("jacobian.piece", "jacobian.GradedPiece")
    m["jacobian.GradedPiece.builds"] = calls("jacobian.GradedPiece")
    m["jacobian.GradedPiece.self_s"] = self_s("jacobian.GradedPiece")
    m["jacobian.HypersurfaceRing.builds"] = calls("jacobian.HypersurfaceRing")
    for name in ("jacobian.multiplication_map", "characters.character_spectrum",
                 "exactla.minimal_multiple_in_lattice", "curves.restrict_to_line",
                 "curves.binary_form_cycle", "curves.hyperplane_relations",
                 "curves.minimal_equivalence_order", "pencil", "poly.parse_poly",
                 "poly.substitute", "poly.exact_divide", "scenario.parse_scenario",
                 "report.render_machine"):
        m[f"{name}.self_s"] = self_s(name)
    for kind in kinds:
        name = f"runner.check.{kind}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.total_s"] = sum(s.end - s.start for s in by_name.get(name, ()))
    top = sum(s.end - s.start for s in spans if s.parent is None)
    m["trace.coverage"] = top / op_seconds if op_seconds > 0 else 0.0
    return m
