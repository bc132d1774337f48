import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from chowcheck import curves
from chowcheck.poly import PolyRing, ProjectivePoint, parse_poly

PLANE = PolyRing.rationals(("x0", "x1", "x2"))
Z1 = parse_poly("x0*x1^4 + x1*x2^4 + x2*x0^4", PLANE)

Z2_RING = PolyRing.rationals(("x1", "x2", "x3", "t"))
Z2 = parse_poly("x1*x2^4 + x3^5 + t*x3*x1^4", Z2_RING)

Z1_LABELS = {ProjectivePoint(c).coords: n
             for n, c in (("P", (0, 1, 0)), ("Q", (0, 0, 1)), ("R", (1, 0, 0)))}
Z2_LABELS = {ProjectivePoint(c).coords: n
             for n, c in (("P", (1, 0, 0)), ("Q", (0, 1, 0)))}


def _sections(curve, plane, labels):
    """The section cycles of ``curve`` that ``hyperplane_relations``
    reads, by line variable."""
    return lambda line: curves.section_cycle(curve, line, plane, labels)


def _coeffs(*values):
    return [Fraction(v) for v in values]


def test_squarefree_decomposition_known():
    # (u - 1)^2 (u - 2) = u^3 - 4u^2 + 5u - 2
    out = curves.squarefree_decomposition(_coeffs(-2, 5, -4, 1))
    assert out == [([Fraction(-2), Fraction(1)], 1),
                   ([Fraction(-1), Fraction(1)], 2)]
    # square-free input comes back whole and monic
    out = curves.squarefree_decomposition(_coeffs(-2, 0, 2))
    assert out == [([Fraction(-1), Fraction(0), Fraction(1)], 1)]
    assert curves.squarefree_decomposition(_coeffs(7)) == []


def test_squarefree_decomposition_reconstructs_input():
    rng = random.Random(77)
    for _ in range(20):
        roots = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
        mults = [rng.randrange(1, 4) for _ in roots]
        coeffs = [Fraction(1)]
        for root, mult in zip(roots, mults):
            for _ in range(mult):
                coeffs = ([Fraction(0)] + coeffs[:]
                          if False else _mul_linear(coeffs, root))
        out = curves.squarefree_decomposition(coeffs)
        rebuilt = [Fraction(1)]
        for part, mult in out:
            for _ in range(mult):
                rebuilt = _mul_poly(rebuilt, part)
        lead = coeffs[-1] / rebuilt[-1]
        assert [c * lead for c in rebuilt] == coeffs


def _mul_linear(coeffs, root):
    # multiply by (u - root)
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] -= c * root
    return out


def _mul_poly(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_simple():
    roots, residuals = curves.rational_roots(_coeffs(1, -5, 6))
    assert sorted(roots) == [(Fraction(1, 3), 1), (Fraction(1, 2), 1)]
    assert residuals == []


def test_rational_roots_with_certified_residual():
    # (u^2 + 1)(u - 2)
    roots, residuals = curves.rational_roots(_coeffs(-2, 1, -2, 1))
    assert roots == [(Fraction(2), 1)]
    assert len(residuals) == 1
    coeffs, mult, certified = residuals[0]
    assert coeffs == (Fraction(1), Fraction(0), Fraction(1))
    assert mult == 1 and certified


def test_rational_roots_zero_root_and_multiplicity():
    # u^2 (u - 3)^2
    roots, residuals = curves.rational_roots(_coeffs(0, 0, 9, -6, 1))
    assert sorted(roots) == [(Fraction(0), 2), (Fraction(3), 2)]
    assert residuals == []


def test_rational_roots_uncertified_quartic_residual():
    # u^4 + u + 1 has no rational roots and degree > 3
    roots, residuals = curves.rational_roots(_coeffs(1, 1, 0, 0, 1))
    assert roots == []
    assert len(residuals) == 1
    assert not residuals[0][2]


# roots that are zero, integral, small fractions, or 25-digit fractions
_roots = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25), st.integers(1, 10 ** 6)))


@st.composite
def _eisenstein(draw):
    """Coefficients of a degree 2-4 integer polynomial, Eisenstein at 2
    (odd lead, even middle, constant 2 mod 4), so with no rational root."""
    degree = draw(st.integers(2, 4))
    middle = draw(st.lists(st.integers(-4, 4), min_size=degree - 1,
                           max_size=degree - 1))
    return ([2 * (2 * draw(st.integers(-3, 3)) + 1)] + [2 * c for c in middle]
            + [2 * draw(st.integers(0, 3)) + 1])


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(_roots, st.integers(1, 3)), max_size=4),
       st.lists(st.tuples(_eisenstein(), st.integers(1, 2)), max_size=2),
       st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 9)))
def test_roots_and_squarefree_parts_match_sympy(roots, factors, scale):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    expr = rational(scale)
    for root, mult in roots:
        expr *= (x - rational(Fraction(root))) ** mult
    for coeffs, mult in factors:
        expr *= sum(c * x ** k for k, c in enumerate(coeffs)) ** mult
    poly = sympy.Poly(expr, x, domain="QQ")
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

    got, residuals = curves.rational_roots(coeffs)
    want = sympy.roots(poly, filter="Q")
    assert sorted(got) == sorted((Fraction(int(r.p), int(r.q)), m)
                                 for r, m in want.items())
    rebuilt = sympy.Integer(1)
    for root, mult in got:
        rebuilt *= (x - rational(root)) ** mult
    for res, mult, certified in residuals:
        assert res[-1] > 0 and all(type(c) is Fraction for c in res)
        assert certified == (len(res) <= 4)
        rebuilt *= sum(rational(c) * x ** k for k, c in enumerate(res)) ** mult
    assert sympy.degree(rebuilt, x) == poly.degree()
    assert sympy.div(poly, sympy.Poly(rebuilt, x, domain="QQ"))[1].is_zero

    _, parts = sympy.sqf_list(poly)
    want_parts = sorted(
        (tuple(Fraction(int(c.p), int(c.q)) for c in reversed(part.monic().all_coeffs())), m)
        for part, m in parts)
    assert sorted((tuple(g), m) for g, m in
                  curves.squarefree_decomposition(coeffs)) == want_parts


def test_restrict_to_line():
    g, remaining = curves.restrict_to_line(Z1, "x2", PLANE.names)
    assert remaining == ("x0", "x1")
    assert g == parse_poly("x0*x1^4", PLANE)
    with pytest.raises(curves.LineIsComponent):
        curves.restrict_to_line(parse_poly("x2*x0^4", PLANE), "x2",
                                PLANE.names)


def test_restrict_requires_parameter_elimination():
    with pytest.raises(curves.ParameterNotEliminated):
        curves.restrict_to_line(Z2, "x2", ("x1", "x2", "x3"))
    g, _ = curves.restrict_to_line(Z2, "x3", ("x1", "x2", "x3"))
    assert g == parse_poly("x1*x2^4", Z2_RING)


def test_binary_form_cycle_degree_conservation():
    ring = PolyRing.rationals(("u", "v"))
    # u^2 v (u^2 + v^2): one rational double point, the v factor, a conic
    g = parse_poly("u^4*v + u^2*v^3", ring)
    cycle = curves.binary_form_cycle(g, ring.names)
    assert cycle.total_degree() == 5
    assert len(cycle.residual_factors) == 1
    got = dict(zip((p.coords for p in cycle.points), cycle.multiplicities))
    assert got[(0, 1)] == 2
    assert got[(1, 0)] == 1


def test_divisor_cycle_validation():
    p = ProjectivePoint((0, 1))
    with pytest.raises(ValueError):
        curves.DivisorCycle([p], [1, 2])
    with pytest.raises(ValueError):
        curves.DivisorCycle([p], [0])


def test_hyperplane_relations_on_plane_quintic():
    lattice = curves.hyperplane_relations(
        ("x0", "x2", "x1"), _sections(Z1, PLANE.names, Z1_LABELS))
    assert lattice.point_basis == ["P", "Q", "R"]
    rows = lattice.relations
    assert rows == [[3, 1, -4], [1, -4, 3]]
    for row in rows:
        assert sum(row) == 0
    assert lattice.cycles[0] == {"P": 4, "Q": 1}
    assert lattice.cycles[1] == {"P": 1, "R": 4}
    assert lattice.cycles[2] == {"Q": 4, "R": 1}


def test_equivalence_orders_and_their_lcm():
    lattice1 = curves.hyperplane_relations(
        ("x0", "x2", "x1"), _sections(Z1, PLANE.names, Z1_LABELS))
    found1 = curves.minimal_equivalence_order(lattice1, "P", "Q")
    assert found1.order == 13

    lattice2 = curves.hyperplane_relations(
        ("x3", "x1"), _sections(Z2, ("x1", "x2", "x3"), Z2_LABELS))
    found2 = curves.minimal_equivalence_order(lattice2, "P", "Q")
    assert found2.order == 4

    assert lcm(found1.order, found2.order) == 52


def test_equivalence_order_unknown_label():
    lattice = curves.hyperplane_relations(
        ("x0", "x2"), _sections(Z1, PLANE.names, Z1_LABELS))
    with pytest.raises(curves.UnknownLabel):
        curves.minimal_equivalence_order(lattice, "P", "nope")


def test_nonrational_intersection_is_refused():
    curve = parse_poly("x0^3 + x1^3 + x1*x2^2 + x2^3", PLANE)
    # restriction to x1 = 0 is x0^3 + x2^3 = (x0 + x2)(x0^2 - x0 x2 + x2^2)
    with pytest.raises(curves.NonRationalIntersection):
        curves.hyperplane_relations(("x1",), _sections(curve, PLANE.names, {}))


def test_relation_lattice_rejects_unbalanced_rows():
    with pytest.raises(ValueError):
        curves.RelationLattice(["P", "Q"], [[1, 0]])
    with pytest.raises(ValueError):
        curves.RelationLattice(["P", "Q"], [[1, -1, 0]])


def test_restriction_cycles_conserve_degree_randomly():
    rng = random.Random(4242)
    degree = 5
    for _ in range(15):
        terms = []
        for _ in range(6):
            e0 = rng.randrange(0, degree + 1)
            e1 = rng.randrange(0, degree + 1 - e0)
            e2 = degree - e0 - e1
            c = rng.randrange(-4, 5)
            if c:
                terms.append(f"{c}*x0^{e0}*x1^{e1}*x2^{e2}")
        if not terms:
            continue
        f = parse_poly(" + ".join(terms).replace("+ -", "- "), PLANE)
        if f.is_zero():
            continue
        try:
            g, remaining = curves.restrict_to_line(f, "x2", PLANE.names)
        except curves.LineIsComponent:
            continue
        cycle = curves.binary_form_cycle(g, remaining)
        assert cycle.total_degree() == g.total_degree(remaining)
