"""Symbolic verification of a pencil of plane cubics inside a quartic family.

The scenario packages a deformed quartic family, a coordinate change
that blows up a line, a declared cubic strict transform, tangent lines
at three marked points, their common point, and a closed-form parameter
condition.  Every step is a polynomial identity in exact arithmetic,
returned as a :class:`~chowcheck.report.StepResult` of kind ``pencil``:
each either reduces to zero or fails with the nonzero residual as its
witness.  The concurrency check may also report "degenerate" when the
identities hold but tangent lines coincide.  Nothing here is
tolerance-based.

``default_scenario`` parses the eight texts a ``[pencil]`` section may
replace (the four lines, the strict transform, the declared quadratic,
and the closed form's numerator and denominator) from one table of
defaults merged with the section's texts.  Every step cites "scenario
declared data"; a scenario check renames it and cites its own ``cite=``.

The tangent computations run in a tower that adjoins a primitive cube
root of unity ``w`` and a cube root ``a`` of ``-lam``; choosing the
branch ``a**3 = -lam`` fixes one of the three marked points, and the
``w``-rotation built into the other two covers the remaining branches.
"""

from __future__ import annotations

from fractions import Fraction

from . import curves
from .poly import (NotDivisible, PolyParseError, PolyRing, exact_divide,
                   parse_poly, partial_derivative, substitute)
from .report import InputError, StepResult


class PencilScenario:
    """Declared data of the family, its blow-up, and the tangent geometry.

    The constructor raises InputError for lines that are not linear
    forms, a family that is not quartic in x0..x3, a declared quadratic
    that is not linear in lam, and a closed form with a zero denominator.
    """

    __slots__ = ("ambient_ring", "family", "lines", "blowup_ring",
                 "substitution", "blowup_factor", "strict_transform",
                 "tower_ring", "points", "tangent_table", "concurrency_point",
                 "declared_quadratic", "closed_form", "cycle_signature")

    def __init__(self, ambient_ring, family, lines, blowup_ring, substitution,
                 blowup_factor, strict_transform, tower_ring, points,
                 tangent_table, concurrency_point, declared_quadratic,
                 closed_form, cycle_signature):
        for line in lines:
            if line.total_degree() != 1 or not line.is_homogeneous():
                raise InputError("lines must be linear forms")
        for tpow, xdeg in _family_degrees(family, ambient_ring):
            if xdeg != 4:
                raise InputError(
                    f"family is not quartic in the coordinates at t^{tpow}")
        if declared_quadratic.total_degree(("lam",)) > 1:
            raise InputError("declared quadratic must be linear in lam")
        if closed_form[1].is_zero():
            raise InputError("closed form has a zero denominator")
        self.ambient_ring = ambient_ring
        self.family = family
        self.lines = list(lines)
        self.blowup_ring = blowup_ring
        self.substitution = dict(substitution)
        self.blowup_factor = blowup_factor
        self.strict_transform = strict_transform
        self.tower_ring = tower_ring
        self.points = [tuple(p) for p in points]
        self.tangent_table = [tuple(row) for row in tangent_table]
        self.concurrency_point = tuple(concurrency_point)
        self.declared_quadratic = declared_quadratic
        self.closed_form = tuple(closed_form)
        self.cycle_signature = tuple(cycle_signature)


def _family_degrees(family, ring):
    """(t-power, coordinate degree) pairs occurring in the family."""
    ti = ring.index["t"]
    seen = {}
    for exps, _ in family.terms.items():
        xdeg = sum(e for i, e in enumerate(exps) if i != ti)
        seen.setdefault(exps[ti], set()).add(xdeg)
    return [(tp, xdeg) for tp, degs in sorted(seen.items()) for xdeg in degs]


# the texts a [pencil] section may replace, by key: the four lines in the
# ambient ring x0..x3, t, the rest in the blow-up ring x, y, z, lam, t
_DEFAULTS = {
    "line0": "x1 - x2",
    "line1": "x0 - x3",
    "line2": "x1 + x3",
    "line3": "x0 - x2",
    "strict_transform": ("x^3 + lam*y^3 + z^2*x + lam^3*z^2*y + lam*t*z"
                         " * (x + y + (lam - 1)*z) * (x - y + (lam + 1)*z)"),
    "declared_quadratic": "lam*(t^2 - 18*t + 9) + 4*t^2 - 6*t - 18",
    "closed_form_num": "-(4*t^2 - 6*t - 18)",
    "closed_form_den": "t^2 - 18*t + 9",
}


def default_scenario(overrides=None):
    """The built-in quartic family with all declared comparison data, the
    texts of ``overrides`` (a ``[pencil]`` section, by key) in place of
    the defaults.

    The family is x0^4 + x1^4 - x2^4 - x3^4 + 2*t*prod(lines).  A text
    that does not parse raises InputError naming its key.
    """
    texts = {**_DEFAULTS, **(overrides or {})}
    amb = PolyRing.rationals(("x0", "x1", "x2", "x3", "t"))
    blow = PolyRing.rationals(("x", "y", "z", "lam", "t"))

    def parse(key, ring):
        try:
            return parse_poly(texts[key], ring)
        except PolyParseError as exc:
            raise InputError(f"bad [pencil] {key}: {exc}") from None

    lines = [parse(f"line{i}", amb) for i in range(4)]
    family = parse_poly("2*t", amb)
    for line in lines:
        family = family * line
    family = parse_poly("x0^4 + x1^4 - x2^4 - x3^4", amb) + family
    strict = parse("strict_transform", blow)
    declared_quadratic = parse("declared_quadratic", blow)
    closed_form = (parse("closed_form_num", blow),
                   parse("closed_form_den", blow))
    substitution = {
        "x0": parse_poly("x + z", blow),
        "x1": parse_poly("y + lam*z", blow),
        "x2": parse_poly("y - lam*z", blow),
        "x3": parse_poly("x - z", blow),
    }
    blowup_factor = parse_poly("8*z", blow)

    tower = PolyRing.tower(("x", "y", "z", "lam", "t"), "lam")
    a = parse_poly("a", tower)
    w = parse_poly("w", tower)
    one = tower.one()
    zero = tower.zero()
    lam = parse_poly("lam", tower)
    t = parse_poly("t", tower)
    points = [(a, one, zero), (a * w, one, zero), (a * w * w, one, zero)]
    tangent_table = []
    for i in range(3):
        rot = (w * w) ** i
        tangent_table.append((
            3 * a * a * rot,
            3 * lam,
            lam * t * (a * a * rot - one),
        ))
    concurrency = (-lam * t, t, 3 * one)
    return PencilScenario(amb, family, lines, blow, substitution,
                          blowup_factor, strict, tower, points, tangent_table,
                          concurrency, declared_quadratic, closed_form,
                          cycle_signature=(2, -2, 0))


def _step(name, status, details, witness=None):
    """A pencil identity's verdict.  A scenario check renames it and
    replaces this citation with its own."""
    return StepResult(name, "pencil", status, "scenario declared data",
                      details=details, witness=witness)


def blowup_quotient(scenario):
    """(family after substitution) / blow-up factor, exactly."""
    image = substitute(scenario.family, scenario.substitution,
                       scenario.blowup_ring)
    return exact_divide(image, scenario.blowup_factor)


def verify_blowup_factorization(scenario):
    """Check the family factors through the declared strict transform."""
    quotient = blowup_quotient(scenario)
    diff = quotient - scenario.strict_transform
    if diff.is_zero():
        return _step("blowup_factorization", "pass",
                     ["substituted family divides exactly by the declared factor",
                      "quotient equals the declared strict transform"])
    return _step("blowup_factorization", "fail",
                 ["quotient differs from the declared strict transform"], diff)


def _eval_at(scenario, f, point):
    coords = dict(zip(("x", "y", "z"), point))
    return substitute(f, coords, scenario.tower_ring)


def membership_identity(scenario, index):
    """The index-th marked point (1-based) lies on the cubic."""
    point = scenario.points[index - 1]
    residual = _eval_at(scenario, scenario.strict_transform, point)
    name = f"membership_{index}"
    if residual.is_zero():
        return _step(name, "pass", [f"point {index} lies on the cubic"])
    return _step(name, "fail", [f"point {index} does not lie on the cubic"],
                 residual)


def tangent_identity(scenario, index):
    """Gradient at the index-th marked point matches the declared table row."""
    point = scenario.points[index - 1]
    declared = scenario.tangent_table[index - 1]
    name = f"tangent_{index}"
    for var, dec in zip(("x", "y", "z"), declared):
        grad = partial_derivative(scenario.strict_transform, var)
        diff = _eval_at(scenario, grad, point) - dec
        if not diff.is_zero():
            return _step(name, "fail", [f"gradient {var}-coefficient at point "
                                        f"{index} differs from the table"], diff)
    return _step(name, "pass",
                 [f"gradient at point {index} matches the declared tangent"])


def verify_tangent_lines(scenario):
    """Marked points lie on the cubic and gradients match the table."""
    details = []
    for i in range(1, len(scenario.points) + 1):
        for step in (membership_identity(scenario, i),
                     tangent_identity(scenario, i)):
            if not step.passed:
                return _step("tangent_lines", "fail", details + step.details,
                             step.witness)
            details.extend(step.details)
    return _step("tangent_lines", "pass", details)


def _pairwise_distinct(rows):
    """Projective distinctness of coefficient rows via 2x2 minors."""
    coincident = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            r, s = rows[i], rows[j]
            minors = [r[p] * s[q] - r[q] * s[p]
                      for p in range(3) for q in range(p + 1, 3)]
            if all(m.is_zero() for m in minors):
                coincident.append((i + 1, j + 1))
    return coincident


def verify_concurrency(scenario, tangent_table=None, point=None):
    """All tangent lines vanish at the declared point and stay distinct."""
    table = scenario.tangent_table if tangent_table is None else tangent_table
    point = scenario.concurrency_point if point is None else point
    details = []
    for i, row in enumerate(table, start=1):
        value = sum((c * p for c, p in zip(row, point)),
                    row[0].ring.zero())
        if not value.is_zero():
            return _step("concurrency", "fail", details + [
                f"tangent {i} does not pass through the point"], value)
        details.append(f"tangent {i} passes through the declared point")
    coincident = _pairwise_distinct(table)
    if coincident:
        pairs = ", ".join(f"{i} = {j}" for i, j in coincident)
        return _step("concurrency", "degenerate",
                     details + [f"tangent lines coincide: {pairs}"])
    details.append("tangent lines are pairwise distinct")
    return _step("concurrency", "pass", details)


def tower_at_lambda(value):
    """Tower ring with the cube parameter frozen to a rational value.

    For value 0 the generator ``a`` becomes nilpotent; that ring is only
    used to report the degeneration of the tangent configuration.
    """
    value = Fraction(value)
    names = ("x", "y", "z", "t", "w", "a")
    zero = (0,) * len(names)
    wexp = tuple(1 if n == "w" else 0 for n in names)
    repl_a = {} if value == 0 else {zero: -value}
    return PolyRing(names, reductions={
        "w": (2, {zero: Fraction(-1), wexp: Fraction(-1)}),
        "a": (3, repl_a),
    })


def concurrency_at_lambda(scenario, value):
    """Concurrency check on the slice lam = value (degenerations allowed)."""
    value = Fraction(value)
    ring = tower_at_lambda(value)
    assign = {"lam": value}
    table = [tuple(substitute(c, assign, ring) for c in row)
             for row in scenario.tangent_table]
    point = tuple(substitute(c, assign, ring)
                  for c in scenario.concurrency_point)
    return verify_concurrency(scenario, tangent_table=table, point=point)


def _univariate_in(p, name):
    """Coefficient list of a polynomial supported on one variable."""
    ring = p.ring
    i = ring.index[name]
    coeffs = []
    for exps, c in p.terms.items():
        for j, e in enumerate(exps):
            if e and j != i:
                raise InputError(f"polynomial involves {ring.names[j]!r}")
        k = exps[i]
        if len(coeffs) <= k:
            coeffs.extend([Fraction(0)] * (k + 1 - len(coeffs)))
        coeffs[k] += c
    return coeffs


def hyperelliptic_data(scenario):
    """Exact pieces of the parameter-condition computation.

    Returns (value, quotient, declared, difference): the cubic evaluated
    at the common point, the quotient after the three exact divisions by
    t, lam, lam - 1, the declared quadratic, and their difference.
    """
    ring = scenario.blowup_ring
    point = {"x": parse_poly("-lam*t", ring), "y": parse_poly("t", ring),
             "z": parse_poly("3", ring)}
    value = substitute(scenario.strict_transform, point, ring)
    quotient = value
    for divisor in ("t", "lam", "lam - 1"):
        quotient = exact_divide(quotient, parse_poly(divisor, ring))
    declared = scenario.declared_quadratic
    return value, quotient, declared, quotient - declared


def verify_hyperelliptic_condition(scenario):
    """Divide the point evaluation down to a quadratic and compare.

    Also checks the declared closed form: writing the declared quadratic
    as lam*A + B, the solution lam(t) = num/den must satisfy the
    polynomial identity A*num + B*den == 0.
    """
    name = "hyperelliptic_condition"
    try:
        _, quotient, declared, diff = hyperelliptic_data(scenario)
    except NotDivisible as exc:
        return _step(name, "fail", ["an exact division failed"], exc.remainder)
    details = ["evaluation divides exactly by t, lam, and lam - 1"]
    ring = scenario.blowup_ring
    lam = parse_poly("lam", ring)
    coeff_a = partial_derivative(declared, "lam")
    coeff_b = declared - lam * coeff_a
    num, den = scenario.closed_form
    identity = coeff_a * num + coeff_b * den
    if not identity.is_zero():
        return _step(name, "fail", details + [
            "closed form fails its defining identity"], identity)
    details.append("closed form satisfies A*num + B*den == 0")
    if diff.is_zero():
        return _step(name, "pass",
                     details + ["quotient equals the declared quadratic"])
    return _step(name, "fail", details + [
        "quotient does not equal the declared quadratic",
        f"computed quotient: {quotient.to_text()}",
        f"declared quadratic: {declared.to_text()}"], diff)


def report_degenerate_parameters(scenario):
    """Rational parameter values (or conditions) where the setup degenerates.

    Lists t with lam(t) = 0, the conditions for lam(t) = 1 and for the
    pole of lam(t) (with discriminants when no rational root exists),
    plus the t = 0 and t = infinity boundary flags.
    """
    num, den = scenario.closed_form
    out = []

    def quadratic_report(poly, reason):
        coeffs = _univariate_in(poly, "t")
        roots, residuals = curves.rational_roots(coeffs)
        for root, _ in sorted(roots):
            out.append((f"t = {root}", reason))
        for res, _, _ in residuals:
            if len(res) == 3:
                disc = res[1] ** 2 - 4 * res[0] * res[2]
                out.append((f"{poly.to_text()} = 0",
                            f"{reason} (no rational t; discriminant {disc})"))
            else:
                out.append((f"{poly.to_text()} = 0",
                            f"{reason} (no rational t)"))

    quadratic_report(-num, "lam(t) = 0")
    quadratic_report(den - num, "lam(t) = 1")
    quadratic_report(den, "pole of lam(t)")
    out.append(("t = 0", "deformation vanishes; the family degenerates"))
    out.append(("t = infinity", "boundary of the parameter line"))
    return out


def scenario_steps(scenario):
    """All four identity checks, in declaration order."""
    return [
        verify_blowup_factorization(scenario),
        verify_tangent_lines(scenario),
        verify_concurrency(scenario),
        verify_hyperelliptic_condition(scenario),
    ]
