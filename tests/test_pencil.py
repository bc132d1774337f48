from fractions import Fraction

import pytest

from chowcheck import pencil
from chowcheck.poly import parse_poly, substitute
from chowcheck.report import StepResult

COMPUTED_QUOTIENT = "2*lam*t^2 - 18*lam*t + 2*t^2 + 36*lam - 18*t + 36"
EXPECTED_WITNESS = "lam*t^2 - 2*t^2 + 27*lam - 12*t + 54"


def _clone(scn, **overrides):
    fields = ("ambient_ring", "family", "lines", "blowup_ring", "substitution",
              "blowup_factor", "strict_transform", "tower_ring", "points",
              "tangent_table", "concurrency_point", "declared_quadratic",
              "closed_form", "cycle_signature", "citations")
    kwargs = {f: getattr(scn, f) for f in fields}
    kwargs.update(overrides)
    return pencil.PencilScenario(**kwargs)


def test_blowup_factorization_passes(cubic_pencil):
    step = pencil.verify_blowup_factorization(cubic_pencil)
    assert step.passed
    assert step.witness is None
    assert any("divides exactly" in d for d in step.details)


def test_membership_and_tangent_identities(cubic_pencil):
    for i in (1, 2, 3):
        assert pencil.membership_identity(cubic_pencil, i).passed
        assert pencil.tangent_identity(cubic_pencil, i).passed
    assert pencil.verify_tangent_lines(cubic_pencil).passed


def test_concurrency_passes_generically(cubic_pencil):
    step = pencil.verify_concurrency(cubic_pencil)
    assert step.passed
    assert any("pairwise distinct" in d for d in step.details)


def test_concurrency_degenerates_at_lambda_zero(cubic_pencil):
    step = pencil.concurrency_at_lambda(cubic_pencil, 0)
    assert step.status == "degenerate"
    assert any("coincide" in d for d in step.details)


def test_concurrency_holds_on_generic_slice(cubic_pencil):
    assert pencil.concurrency_at_lambda(cubic_pencil, 2).passed
    assert pencil.concurrency_at_lambda(cubic_pencil, Fraction(-5, 7)).passed


def test_tower_relations():
    ring = pencil.tower_at_lambda(2)
    w = parse_poly("w", ring)
    a = parse_poly("a", ring)
    assert (w * w + w + ring.one()).is_zero()
    assert (a ** 3 + 2 * ring.one()).is_zero()
    nil = pencil.tower_at_lambda(0)
    assert parse_poly("a^3", nil).is_zero()
    assert not parse_poly("a^2", nil).is_zero()


def test_hyperelliptic_condition_fails_with_pinned_witness(cubic_pencil):
    step = pencil.verify_hyperelliptic_condition(cubic_pencil)
    assert step.status == "fail"
    blow = cubic_pencil.blowup_ring
    assert step.witness == parse_poly(EXPECTED_WITNESS, blow)
    assert "evaluation divides exactly by t, lam, and lam - 1" in step.details
    assert "closed form satisfies A*num + B*den == 0" in step.details
    joined = "\n".join(step.details)
    assert "computed quotient:" in joined
    assert "declared quadratic:" in joined


def test_hyperelliptic_data_pins_the_quotient(cubic_pencil):
    value, quotient, declared, diff = pencil.hyperelliptic_data(cubic_pencil)
    blow = cubic_pencil.blowup_ring
    assert quotient == parse_poly(COMPUTED_QUOTIENT, blow)
    assert not diff.is_zero()
    assert diff == quotient - declared
    back = parse_poly("t * lam * (lam - 1)", blow) * quotient
    assert back == value


def test_hyperelliptic_step_is_data_driven(cubic_pencil):
    # with the computed quotient declared instead, the same check passes
    blow = cubic_pencil.blowup_ring
    quadratic = parse_poly(COMPUTED_QUOTIENT, blow)
    lam = parse_poly("lam", blow)
    coeff_a = parse_poly("2*t^2 - 18*t + 36", blow)
    coeff_b = quadratic - lam * coeff_a
    fixed = _clone(cubic_pencil, declared_quadratic=quadratic,
                   closed_form=(-coeff_b, coeff_a))
    step = pencil.verify_hyperelliptic_condition(fixed)
    assert step.passed


def test_factorization_fails_on_perturbed_transform(cubic_pencil):
    blow = cubic_pencil.blowup_ring
    bumped = cubic_pencil.strict_transform + parse_poly("z^3", blow)
    broken = _clone(cubic_pencil, strict_transform=bumped)
    step = pencil.verify_blowup_factorization(broken)
    assert step.status == "fail"
    assert step.witness == parse_poly("-z^3", blow)


def test_tangent_check_fails_on_wrong_coefficient(cubic_pencil):
    table = [list(row) for row in cubic_pencil.tangent_table]
    table[0][0] = table[0][0] * 2
    broken = _clone(cubic_pencil, tangent_table=table)
    step = pencil.tangent_identity(broken, 1)
    assert step.status == "fail"
    assert not step.witness.is_zero()
    agg = pencil.verify_tangent_lines(broken)
    assert agg.status == "fail"


def test_membership_fails_off_the_cubic(cubic_pencil):
    tower = cubic_pencil.tower_ring
    one = tower.one()
    points = list(cubic_pencil.points)
    points[0] = (one, one, tower.zero())
    broken = _clone(cubic_pencil, points=points)
    step = pencil.membership_identity(broken, 1)
    assert step.status == "fail"
    assert not step.witness.is_zero()


def test_degenerate_parameter_report(cubic_pencil):
    out = pencil.report_degenerate_parameters(cubic_pencil)
    assert out == [
        ("t = -3/2", "lam(t) = 0"),
        ("t = 3", "lam(t) = 0"),
        ("5*t^2 - 24*t - 9 = 0",
         "lam(t) = 1 (no rational t; discriminant 756)"),
        ("t^2 - 18*t + 9 = 0",
         "pole of lam(t) (no rational t; discriminant 288)"),
        ("t = 0", "deformation vanishes; the family degenerates"),
        ("t = infinity", "boundary of the parameter line"),
    ]


def test_scenario_steps_order_and_statuses(cubic_pencil):
    steps = pencil.scenario_steps(cubic_pencil)
    assert [s.name for s in steps] == [
        "blowup_factorization", "tangent_lines", "concurrency",
        "hyperelliptic_condition"]
    assert [s.status for s in steps] == ["pass", "pass", "pass", "fail"]
    assert all(s.citation for s in steps)


def test_failing_step_requires_witness(cubic_pencil):
    with pytest.raises(ValueError):
        StepResult("broken", "pencil", "fail", "cite")
    with pytest.raises(ValueError):
        StepResult("broken", "pencil", "fail", "cite",
                   witness=cubic_pencil.blowup_ring.zero())
    degenerate = StepResult("coincident", "pencil", "degenerate", "cite")
    assert degenerate.witness is None and not degenerate.passed


def test_scenario_validation(cubic_pencil):
    amb = cubic_pencil.ambient_ring
    with pytest.raises(ValueError):
        _clone(cubic_pencil,
               family=cubic_pencil.family + parse_poly("t*x0^3", amb))
    with pytest.raises(ValueError):
        _clone(cubic_pencil,
               lines=[parse_poly("x0*x1", amb)] + cubic_pencil.lines[1:])


def test_cycle_signature(cubic_pencil):
    assert cubic_pencil.cycle_signature == (2, -2, 0)


def test_blowup_quotient_matches_manual_substitution(cubic_pencil):
    blow = cubic_pencil.blowup_ring
    image = substitute(cubic_pencil.family, cubic_pencil.substitution, blow)
    assert image == cubic_pencil.blowup_factor * pencil.blowup_quotient(cubic_pencil)
