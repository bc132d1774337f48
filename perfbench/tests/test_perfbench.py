"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import pytest

import dense
import run
import spans


def test_generator_is_reproducible_per_seed():
    assert dense.generate(7) == dense.generate(7)
    assert dense.generate(7) != dense.generate(8)


@pytest.mark.parametrize("degree, count", [(4, 35), (5, 56)])
def test_dense_form_has_every_monomial_with_a_nonzero_coefficient(degree, count):
    text = dense.scenario_text(3, degree)
    poly = next(line for line in text.splitlines() if line.startswith("poly = "))
    terms = poly[len("poly = "):].replace(" - ", " + ").lstrip("-").split(" + ")
    assert len(terms) == count == len(dense.monomials(4, degree))
    assert all(1 <= int(term.split("*", 1)[0]) <= dense.MAX_COEFF for term in terms)


def test_closed_form_hilbert_tables():
    assert dense.closed_form_hilbert(4) == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert dense.closed_form_hilbert(5) == [1, 4, 10, 20, 31, 40, 44, 40, 31, 20,
                                            10, 4, 1]


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7] (counting until 7.5) and leaf [8, 9];
    # mid holds inner [2, 5]
    s = [spans.Span(0, None, 1, "outer", 0.0, 10.0, 10.0),
         spans.Span(1, 0, 1, "mid", 1.0, 7.0, 7.5),
         spans.Span(2, 1, 1, "inner", 2.0, 5.0, 5.0),
         spans.Span(3, 0, 1, "leaf", 8.0, 9.0, 9.0)]
    assert spans.self_times(s) == {0: 10.0 - 6.5 - 1.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_recorder_nests_spans_on_a_toy_call():
    recorder = spans.Recorder()

    def inner(x):
        return x + 1

    inner_w = recorder._wrap("inner", inner, lambda a, k, r: {"arg": a[0]})

    def outer():
        return inner_w(1) + inner_w(2)

    assert recorder._wrap("outer", outer, None)() == 5
    top, first, second = recorder.spans
    assert (top.parent, first.parent, second.parent) == (None, 0, 0)
    assert [first.attrs, second.attrs] == [{"arg": 1}, {"arg": 2}]
    selfs = spans.self_times(recorder.spans)
    covered = (first.post - first.start) + (second.post - second.start)
    assert selfs[0] == pytest.approx(top.end - top.start - covered)
    assert 0 <= selfs[0] <= top.end - top.start


def test_missing_target_is_a_configuration_error():
    with pytest.raises(spans.TargetMissing):
        spans._resolve("json", "no_such_function")


GOLDEN = run.GOLDEN / "quartic-family.machine"


def test_one_byte_change_to_a_machine_report_fails_the_op():
    golden = GOLDEN.read_bytes()
    expected = {"quartic-family": golden}
    assert run.check_op("quartic-family", [("quartic-family", 1, golden)], expected) == []
    at = golden.index(b"declared quadratic")
    changed = golden[:at] + b"D" + golden[at + 1:]
    problems = run.check_op("quartic-family", [("quartic-family", 1, changed)], expected)
    assert problems == ["quartic-family: machine report differs from the expected one"]


def test_wrong_exit_code_or_failing_steps_fail_the_op():
    golden = GOLDEN.read_bytes()
    assert run.failed_steps(golden.decode()) == ["check.09"]
    problems = run.check_op("quartic-family", [("quartic-family", 0, golden)], {})
    assert problems == ["quartic-family: exit 0, expected 1"]
    problems = run.check_op("shioda", [("shioda", 0, golden)], {})
    assert problems == ["shioda: failed steps ['check.09'], expected []"]


def test_generated_report_must_show_the_closed_form():
    table = dense.closed_form_hilbert(4)
    good = ("check.02.value.dimensions = "
            + " ".join(map(str, table)) + "\nsummary.failed = 0\n").encode()
    bad = good.replace(b" 19 ", b" 18 ")
    closed = {"d4": table}
    assert run.check_op("dense-generic", [("d4", 0, good)], {}, closed) == []
    assert run.check_op("dense-generic", [("d4", 0, bad)], {}, closed) != []
