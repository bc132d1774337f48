"""The benchmark's span targets exist in the code under test.

``perfbench/spans.py`` wraps named functions, methods and ``runner.CHECKS``
entries, and a missing one makes a traced benchmark run exit 2.  These
tests make a refactor that drops a target fail here as well.
"""

import json
import sys
from math import comb
from pathlib import Path

import pytest

from chowcheck import jacobian, runner
from chowcheck.poly import PolyRing, parse_poly

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402


def test_every_span_target_resolves():
    recorder = spans.Recorder()
    originals = dict(runner.CHECKS)
    recorder.install()
    try:
        assert recorder.kinds == sorted(originals)
    finally:
        recorder.uninstall()
    assert runner.CHECKS == originals


def test_declared_check_kinds_are_registered():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kinds = {m["name"].split(".")[2] for m in declared["per_layer"]
             if m["name"].startswith("runner.check.")}
    assert len(kinds) == 20
    assert kinds <= set(runner.CHECKS)


# the span_rows span reads its cells and nonzeros off the returned rows:
# a slice has one row per (source monomial, partial) pair and one column
# per monomial, and each row holds every term of its partial, an integer
# that is never zero, in a column of its own
@pytest.mark.parametrize("text, names", [
    ("x0*x1^4 + x1*x2^4 + x2*x0^4 + x3^5", ("x0", "x1", "x2", "x3")),
    ("1/2*x0^3 + 2/3*x1^3 + x2^3 - 5/7*x0*x1*x2", ("x0", "x1", "x2")),
], ids=["shioda-quintic", "rational-cubic"])
def test_span_rows_attributes_are_the_slice_counts(text, names):
    hring = jacobian.HypersurfaceRing(
        parse_poly(text, PolyRing.rationals(names)))
    n, e = len(names), hring.degree - 1
    terms = sum(len(part.terms) for part in hring.partials)
    for k in (0, e, hring.socle_degree + 1):
        sources = comb(k - e + n - 1, n - 1) if k >= e else 0
        attrs = spans._span_rows_attrs((hring, k), {}, hring.span_rows(k))
        assert attrs == {"cells": sources * n * comb(k + n - 1, n - 1),
                         "nnz": sources * terms}
