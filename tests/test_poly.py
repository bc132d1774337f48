import random
import time
from fractions import Fraction
from importlib import resources
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from chowcheck import jacobian, pencil, poly
from chowcheck.poly import (NotDivisible, PolyParseError, PolyRing,
                            ProjectivePoint, SparsePoly,
                            check_parametrization, enumerate_monomials,
                            exact_divide, grevlex_key, monomial_mul,
                            multiplicity_at_point, parse_poly,
                            partial_derivative, substitute)
from chowcheck.report import InputError
from chowcheck.runner import run_scenario
from chowcheck.scenario import parse_scenario
from oracles import factor_parse_poly, loop_exact_divide, loop_substitute

XY = PolyRing.rationals(("x", "y"))
XYZ = PolyRing.rationals(("x", "y", "z"))


def test_parse_round_trip():
    for text in ("x^4 + 2*x*y^3 - 1/2", "x", "-x + y", "3", "-5/7",
                 "x*y*x*y", "2*x^2*y - y + 1"):
        f = parse_poly(text, XY)
        assert parse_poly(f.to_text(), XY) == f


def test_parse_parentheses_and_powers():
    f = parse_poly("(x + y)^2 * (x - y)", XY)
    g = parse_poly("x^3 + x^2*y - x*y^2 - y^3", XY)
    assert f == g
    assert parse_poly("-(x + y) + x", XY) == parse_poly("-y", XY)
    assert parse_poly("((x))", XY) == parse_poly("x", XY)
    assert parse_poly("2*(x + 1)^3", XY).total_degree() == 3


def test_parse_rational_coefficients():
    f = parse_poly("1/2*x + 1/3*y", XY)
    assert f.terms[(1, 0)] == Fraction(1, 2)
    assert f.terms[(0, 1)] == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["x +", "x + + y", "x^", "(x", "x)", "x^y",
                                 "q + x", "1/0", "", "x 2", "x^-2",
                                 "x + - - y", "x - +y"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(PolyParseError) as info:
        parse_poly(bad, XY)
    assert isinstance(info.value.position, int)
    assert 0 <= info.value.position <= len(bad)


def test_parse_signed_term_after_binary_operator():
    assert parse_poly("x + -2*y", XY) == parse_poly("x - 2*y", XY)
    assert parse_poly("x - -2*y", XY) == parse_poly("x + 2*y", XY)
    assert parse_poly("x - -y^2 + -1/2", XY) == parse_poly("x + y^2 - 1/2", XY)


def test_scenario_poly_line_with_signed_terms():
    text = (
        "[scenario]\nname = signed\n"
        "[ring]\nvariables = x0 x1 x2 x3\n"
        "poly = x0^4 + x1^4 + x2^4 + x3^4 + -1*x0^2*x1^2 - -1*x2^2*x3^2\n"
        "[checks]\n"
        'check hilbert expect="1 4 10 16 19 16 10 4 1" cite="declared table"\n'
        'check smooth cite="declared smooth"\n')
    report = run_scenario(parse_scenario(text))
    assert [s.status for s in report.steps] == ["pass", "pass"]
    assert report.exit_code == 0


def _random_poly(ring, rng, degree, homogeneous=False):
    terms = {}
    monos = enumerate_monomials(ring.nvars, degree)
    if homogeneous:
        pool = monos
    else:
        pool = [m for d in range(degree + 1)
                for m in enumerate_monomials(ring.nvars, d)]
    for m in rng.sample(pool, k=min(len(pool), rng.randrange(1, 6))):
        terms[m] = Fraction(rng.randrange(-9, 10) or 1, rng.randrange(1, 4))
    monomial = ring.monomial
    out = ring.zero()
    for e, c in terms.items():
        out = out + monomial(e, c)
    return out


def test_ring_laws_on_random_polynomials():
    rng = random.Random(123)
    for _ in range(20):
        f = _random_poly(XYZ, rng, 3)
        g = _random_poly(XYZ, rng, 3)
        h = _random_poly(XYZ, rng, 2)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == XYZ.zero()


def test_euler_identity_for_homogeneous_polynomials():
    rng = random.Random(2718)
    for _ in range(50):
        degree = rng.randrange(1, 6)
        f = _random_poly(XYZ, rng, degree, homogeneous=True)
        euler = XYZ.zero()
        for name in XYZ.names:
            euler = euler + XYZ.variable(name) * partial_derivative(f, name)
        assert euler == f.scale(degree)


def test_exact_divide():
    f = parse_poly("x^2 - y^2", XY)
    g = parse_poly("x - y", XY)
    q = exact_divide(f, g)
    assert q == parse_poly("x + y", XY)
    assert q * g == f
    with pytest.raises(NotDivisible) as info:
        exact_divide(parse_poly("x^2 + y^2", XY), g)
    assert not info.value.remainder.is_zero()


def test_exact_divide_refuses_a_ring_with_rewrite_rules():
    # in the tower w * w is stored as -w - 1, whose leading term w does not
    # divide though w divides w * w: leading-term division would stop with
    # the false remainder -1, so the ring is refused by name
    w = parse_poly("w", TOWER)
    assert w * w == parse_poly("-w - 1", TOWER)
    with pytest.raises(InputError, match=r"refused in PolyRing\(\('x', 'y', "
                       r"'z', 'lam', 't', 'w', 'a'\)\): .* "
                       r"rewrite rules for w, a$"):
        exact_divide(w * w, w)


def test_substitute_across_rings():
    target = PolyRing.rationals(("s", "u"))
    f = parse_poly("x^2 + y*z", XYZ)
    image = substitute(f, {"x": parse_poly("s", target),
                           "y": parse_poly("u", target),
                           "z": parse_poly("s + u", target)}, target)
    assert image == parse_poly("s^2 + u*s + u^2", target)
    with pytest.raises(ValueError):
        substitute(f, {"x": parse_poly("s", target)}, target)


def test_tower_relations():
    tower = PolyRing.tower(("x", "lam", "t"), "lam")
    w = parse_poly("w", tower)
    a = parse_poly("a", tower)
    lam = parse_poly("lam", tower)
    one = tower.one()
    assert w * w * w == one
    assert w * w + w + one == tower.zero()
    assert a * a * a == -lam
    assert (a * w) ** 3 == -lam
    assert ((a * w * w) ** 3) == -lam


def test_homogeneity_in_subset_of_variables():
    f = parse_poly("x^2*z + y^2*z + z^3", XYZ)
    assert f.is_homogeneous()
    g = parse_poly("x^2 + y^2*z", XYZ)
    assert not g.is_homogeneous()
    assert not g.is_homogeneous(("y",))
    h = parse_poly("x^2*z + x^2", XYZ)
    assert h.is_homogeneous(("x",))


def test_multiplicity_at_point():
    # nodal cubic: double point at (0 : 0 : 1)
    f = parse_poly("y^2*z - x^3 - x^2*z", XYZ)
    assert multiplicity_at_point(f, (0, 0, 1), ("x", "y", "z")) == 2
    assert multiplicity_at_point(f, (-1, 0, 1), ("x", "y", "z")) == 1
    assert multiplicity_at_point(f, (1, 1, 1), ("x", "y", "z")) == 0
    with pytest.raises(ValueError):
        multiplicity_at_point(f, (0, 0, 2), ("x", "y", "z"))


def test_multiplicity_with_symbolic_parameter():
    ring = PolyRing.rationals(("x", "y", "z", "t"))
    f = parse_poly("y^2*z - x^3 + t*z^3", ring)
    # generic parameter: the point is on the curve only at t = 0, where it
    # is smooth; for symbolic t the dehomogenised polynomial has a constant
    assert multiplicity_at_point(f, (0, 0, 1), ("x", "y", "z")) == 0


def test_check_parametrization():
    f = parse_poly("x*z - y^2", XYZ)
    target = PolyRing.rationals(("s", "u"))
    ok, witness = check_parametrization(
        f, {"x": parse_poly("s^2", target), "y": parse_poly("s*u", target),
            "z": parse_poly("u^2", target)}, target)
    assert ok and witness is None
    ok, witness = check_parametrization(
        f, {"x": parse_poly("s^2", target), "y": parse_poly("s*u", target),
            "z": parse_poly("u^2 + 1", target)}, target)
    assert not ok and witness == parse_poly("s^2", target)


def test_projective_point_normalisation():
    assert ProjectivePoint((2, 4)) == ProjectivePoint((1, 2))
    assert ProjectivePoint((0, 3, 6)).coords == (0, 1, 2)
    assert hash(ProjectivePoint((2, 4))) == hash(ProjectivePoint((1, 2)))
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0))


def test_leading_term_and_text():
    f = parse_poly("x*y + x^2", XY)
    e, c = f.leading_term()
    assert e == (2, 0) and c == 1
    assert parse_poly("0", XY).is_zero()
    assert parse_poly("x - x", XY).to_text() == "0"


def _sorted_monomials(nvars, degree):
    """The former enumeration, kept as an oracle: every tuple of the
    degree, then sorted by ``grevlex_key``, largest first."""
    out = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            fill(prefix + (e,), remaining - e, slots - 1)

    fill((), degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return out


@pytest.mark.parametrize("nvars", range(1, 6))
def test_monomials_come_in_grevlex_order_without_a_sort(nvars):
    for degree in range(11):
        monos = enumerate_monomials(nvars, degree)
        assert monos == _sorted_monomials(nvars, degree)
        assert len(monos) == comb(degree + nvars - 1, nvars - 1)
    with pytest.raises(ValueError):
        enumerate_monomials(0, 1)
    with pytest.raises(ValueError):
        enumerate_monomials(nvars, -1)


def test_integral_coefficients_are_stored_as_int():
    f = parse_poly("2/4*x^2 + 3*y - 1/3*x*y", XY)
    assert f.terms == {(2, 0): Fraction(1, 2), (0, 1): 3, (1, 1): Fraction(-1, 3)}
    assert type(f.terms[(0, 1)]) is int
    g = f * XY.constant(Fraction(6))
    assert g.terms == {(2, 0): 3, (0, 1): 18, (1, 1): -2}
    assert all(type(c) is int for c in g.terms.values())
    assert all(type(c) is int for c in f.scale(Fraction(6, 1)).terms.values())
    assert all(type(c) is int for c in (f + f.scale(-1)).terms.values())
    assert type(partial_derivative(f, "x").terms[(1, 0)]) is int
    assert type(XY.constant("4/2").terms[(0, 0)]) is int
    assert type(XY.monomial((1, 0), Fraction(-3, 1)).terms[(1, 0)]) is int
    assert f.coefficient((5, 5)) == 0 and f.coefficient((0, 1)) == 3
    tower = PolyRing.tower(("x", "lam"), "lam")
    assert all(type(c) is int for _, repl in tower.reductions.values()
               for c in repl.values())


def test_a_float_is_refused():
    f = parse_poly("x + y", XY)
    for bad in (0.5, 0.1, 2.0, float("nan")):
        with pytest.raises(TypeError):
            XY.constant(bad)
        with pytest.raises(TypeError):
            XY.monomial((1, 0), bad)
        with pytest.raises(TypeError):
            f.scale(bad)
        with pytest.raises(TypeError):
            ProjectivePoint((1, bad))
    # exact inputs of every accepted kind still go through
    assert XY.constant("1/2") == XY.constant(Fraction(1, 2))
    assert ProjectivePoint(("1/2", 1)) == ProjectivePoint((1, 2))


def _bundled(name):
    return parse_scenario(resources.files("chowcheck.scenarios")
                          .joinpath(name).read_text(encoding="utf-8"))


def _seeded_dense_quartic(seed):
    rng = random.Random(seed)
    return " + ".join(f"{rng.choice((-1, 1)) * rng.randint(1, 9)}*"
                      + "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)
                      for m in enumerate_monomials(4, 4))


def test_floating_point_never_enters_a_coefficient(monkeypatch):
    """Every coefficient ever stored is an int or a non-integral Fraction."""
    seen = []
    init = SparsePoly.__init__

    def checked(self, ring, terms):
        seen.extend(terms.values())
        bad = [c for c in terms.values()
               if not (type(c) is int
                       or type(c) is Fraction and c.denominator != 1)]
        assert not bad, f"stored coefficients {bad!r}"
        init(self, ring, terms)

    monkeypatch.setattr(SparsePoly, "__init__", checked)
    shioda = run_scenario(_bundled("shioda.scn"))
    assert shioda.exit_code == 0
    family = run_scenario(_bundled("quartic_family.scn"))
    assert [s.name for s in family.failed_steps()] == \
        ["pencil parameter condition"]
    p3 = PolyRing.rationals(("x0", "x1", "x2", "x3"))
    dense = jacobian.HypersurfaceRing(parse_poly(_seeded_dense_quartic(1), p3))
    assert jacobian.is_smooth_artinian(dense)
    assert jacobian.hilbert_function(dense) == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    plane = PolyRing.rationals(("x0", "x1", "x2"))
    rational = jacobian.HypersurfaceRing(
        parse_poly("1/2*x0^3 + 2/3*x1^3 + x2^3 - 5/7*x0*x1*x2", plane))
    assert jacobian.macaulay_pairing_check(rational, 1)
    assert jacobian.functional_kernel_map(rational, parse_poly("x0", plane),
                                          rational.degree - 1)[0]
    # both kinds of coefficient were seen, so the guard is not vacuous
    assert any(type(c) is int for c in seen)
    assert any(type(c) is Fraction for c in seen)


# ------------------------------------------- oracles of the symbolic layers
#
# ``tests/oracles.py`` keeps the factor-by-factor parser, the substitution
# that expands every term and the division that rebuilds its polynomials
# for every quotient term; the folded, zero-skipping and in-place routes
# of the package must agree with them term for term, coefficient types
# included.

TOWER = pencil.default_scenario().tower_ring


def _same(f, g):
    return (f.ring == g.ring and f.terms == g.terms
            and {e: type(c) for e, c in f.terms.items()}
            == {e: type(c) for e, c in g.terms.items()})


def _outcome(call, *args):
    """("ok", result) of a call, or ("error", exception type name,
    message, position, remainder) of the parse or division error it
    raised."""
    try:
        return "ok", call(*args)
    except (PolyParseError, NotDivisible) as exc:
        return ("error", type(exc).__name__, str(exc),
                getattr(exc, "position", None),
                getattr(exc, "remainder", None))


def _agree(new, old):
    if new[0] == "ok" and old[0] == "ok":
        return _same(new[1], old[1])
    return new == old


def _texts(names):
    number = st.one_of(st.integers(0, 30).map(str),
                       st.tuples(st.integers(0, 12), st.integers(1, 9))
                       .map(lambda nd: f"{nd[0]}/{nd[1]}"))
    power = st.tuples(st.sampled_from(names), st.integers(0, 7)).map(
        lambda ve: ve[0] if ve[1] == 1 else f"{ve[0]}^{ve[1]}")

    def expressions(factor):
        term = st.lists(factor, min_size=1, max_size=4).map("*".join)
        signed = st.tuples(st.sampled_from(["", "-"]), term).map("".join)
        rest = st.lists(st.tuples(st.sampled_from([" + ", " - "]), signed),
                        max_size=3)
        return st.tuples(st.sampled_from(["", "-", "+"]), term, rest).map(
            lambda t: t[0] + t[1] + "".join(op + s for op, s in t[2]))

    group = st.deferred(lambda: st.tuples(
        expressions(st.one_of(number, power, group)), st.integers(0, 2)).map(
        lambda ge: f"({ge[0]})" + ("" if ge[1] == 1 else f"^{ge[1]}")))
    return expressions(st.one_of(number, number, power, power, group))


_PARSE_RINGS = [(XYZ, ("x", "y", "z")),
                (TOWER, ("x", "y", "lam", "w", "a", "w", "a"))]


@pytest.mark.parametrize("ring, names", _PARSE_RINGS, ids=["rational", "tower"])
@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_folded_parser_matches_the_factor_parser(ring, names, data):
    text = data.draw(_texts(names))
    assert _same(parse_poly(text, ring), factor_parse_poly(text, ring))
    # the same text spoiled: cut short, or with a stray character put in
    cut = data.draw(st.integers(0, len(text)))
    stray = data.draw(st.sampled_from("()^*/+- x"))
    for bad in (text[:cut], text[:cut] + stray + text[cut:]):
        assert _agree(_outcome(parse_poly, bad, ring),
                      _outcome(factor_parse_poly, bad, ring)), bad


@pytest.mark.parametrize("ring", [XYZ, TOWER], ids=["rational", "tower"])
@pytest.mark.parametrize("text", [
    "7", "-3/6*x*x^2", "+x - -2/4*y + z", "0*x + 0", "2*x*0*y",
    "((x + 1)^2 - (x - 1)^2)^2 * 1/8", "x^0*(y)^0", "-(-(x))"])
def test_folded_parser_on_chosen_texts(ring, text):
    assert _same(parse_poly(text, ring), factor_parse_poly(text, ring))


@pytest.mark.parametrize("ring", [XYZ, TOWER], ids=["rational", "tower"])
@pytest.mark.parametrize("bad", ["x^", "2/0", "2^3", "x*", ")", "x^y",
                                 "(2^3)", "2/x", "x + + y", "1/2/3", "(x"])
def test_malformed_text_fails_as_in_the_factor_parser(ring, bad):
    new = _outcome(parse_poly, bad, ring)
    assert new[0] == "error"
    assert new == _outcome(factor_parse_poly, bad, ring)


@pytest.mark.parametrize("name", ["w", "a"])
def test_a_tower_power_is_rewritten_once_per_degree(name, monkeypatch):
    # the rewrite merges equal monomials, so w^n costs about n rewrites;
    # without the merge it grew by about 1.5 a power, so a budget on the
    # rewrites fails fast instead of hanging
    exps = [0] * TOWER.nvars
    calls = [0]

    def budgeted(e1, e2):
        calls[0] += 1
        assert calls[0] < 20000, "rewrites grow faster than the degree"
        return monomial_mul(e1, e2)

    for n in (200, 1000):
        exps[TOWER.index[name]] = n
        expected = parse_poly(name, TOWER) ** n
        monkeypatch.setattr(poly, "monomial_mul", budgeted)
        for build in (lambda: TOWER.monomial(exps),
                      lambda: parse_poly(f"{name}^{n}", TOWER)):
            calls[0] = 0
            start = time.perf_counter()
            assert build() == expected
            assert time.perf_counter() - start < 0.1
        monkeypatch.undo()


def _polys(ring, names, max_degree=3, max_terms=5):
    term = st.tuples(
        st.lists(st.integers(0, max_degree), min_size=len(names),
                 max_size=len(names)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))

    def build(terms):
        f = ring.zero()
        for degrees, c in terms:
            exps = [0] * ring.nvars
            for name, e in zip(names, degrees):
                exps[ring.index[name]] += e
            f = f + ring.monomial(exps, c)
        return f
    return st.lists(term, max_size=max_terms).map(build)


BLOW = pencil.default_scenario().blowup_ring
_TOWER_NAMES = ("x", "y", "z", "lam", "t", "w", "a")


def _assignments(target, names):
    value = st.one_of(
        st.just(0), st.just(target.zero()),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
        _polys(target, names, max_degree=2, max_terms=3))
    return st.fixed_dictionaries({}, optional={
        name: value for name in ("x", "y", "z")})


@pytest.mark.parametrize("target, names", [
    (BLOW, ("x", "y", "z", "lam", "t")), (TOWER, _TOWER_NAMES)],
    ids=["rational", "tower"])
@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_substitution_matches_the_expanding_loop(target, names, data):
    f = data.draw(_polys(BLOW, ("x", "y", "z", "lam", "t")))
    assignment = data.draw(_assignments(target, names))
    assert _same(substitute(f, assignment, target),
                 loop_substitute(f, assignment, target))


def test_substitution_at_the_pencil_points_matches_the_expanding_loop():
    scn = pencil.default_scenario()
    cubic = scn.strict_transform
    forms = [cubic] + [partial_derivative(cubic, v) for v in ("x", "y", "z")]
    for point in scn.points:
        assignment = dict(zip(("x", "y", "z"), point))
        for f in forms:
            assert _same(substitute(f, assignment, TOWER),
                         loop_substitute(f, assignment, TOWER))
    assert _same(substitute(scn.family, scn.substitution, BLOW),
                 loop_substitute(scn.family, scn.substitution, BLOW))


@pytest.mark.parametrize("ring, names", [
    (XYZ, ("x", "y", "z")), (TOWER, _TOWER_NAMES)], ids=["rational", "tower"])
@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(data=st.data())
def test_division_matches_the_rebuilding_loop(ring, names, data):
    g = data.draw(_polys(ring, names, max_degree=2, max_terms=3))
    assume(g)
    q = data.draw(_polys(ring, names, max_degree=2, max_terms=4))
    r = data.draw(st.one_of(st.just(ring.zero()),
                            _polys(ring, names, max_degree=2, max_terms=2)))
    f = q * g + r
    if ring.reductions:
        # leading terms decide divisibility only without rewrites: in the
        # tower, w divides w^2 = -1 - w, yet the loop stops at -1, so
        # division there is refused
        with pytest.raises(InputError, match="rewrite rules"):
            exact_divide(f, g)
        return
    new = _outcome(exact_divide, f, g)
    assert _agree(new, _outcome(loop_exact_divide, f, g))
    if not r:
        assert new[0] == "ok" and new[1] == q


@pytest.mark.parametrize("ring", [XYZ, TOWER], ids=["rational", "tower"])
def test_a_failed_division_carries_the_loops_remainder(ring):
    cases = [("x^2 + y^2", "x - y"), ("x^3*y + 1/2*z", "x*y + z"),
             ("x^2*w + a^2 + y", "x + a")]
    for f, g in cases:
        if not set("wa") <= set(ring.names) and "w" in f:
            continue
        f, g = parse_poly(f, ring), parse_poly(g, ring)
        if ring.reductions:
            # refused before any remainder is formed
            with pytest.raises(InputError, match="rewrite rules"):
                exact_divide(f, g)
            continue
        new = _outcome(exact_divide, f, g)
        assert new[0] == "error" and new[1] == "NotDivisible"
        assert new == _outcome(loop_exact_divide, f, g)
        assert new[4] and _same(new[4], _outcome(loop_exact_divide, f, g)[4])
