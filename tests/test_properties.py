"""Hypothesis properties of the exact and modular layers, with sympy oracles.

Every property runs derandomized with few examples, so the suite stays
deterministic and fast.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from chowcheck import characters, exactla, jacobian, modrank
from chowcheck.poly import (NotDivisible, PolyRing, enumerate_monomials,
                            exact_divide, parse_poly, partial_derivative,
                            substitute)
from oracles import block_spectrum

XY = PolyRing.rationals(("x", "y"))
TERNARY = PolyRing.rationals(("x", "y", "z"))
QUATERNARY = PolyRing.rationals(("x0", "x1", "x2", "x3"))

DETERMINISTIC = settings(derandomize=True, max_examples=25, deadline=None,
                         database=None)


def _matrices(max_side=6, bound=20):
    return st.integers(1, max_side).flatmap(lambda ncols: st.lists(
        st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols),
        min_size=1, max_size=max_side))


@DETERMINISTIC
@given(_matrices(), st.sampled_from([2, 3, 5, 7, modrank.DEFAULT_PRIME]))
def test_modular_rank_never_exceeds_rational_rank(matrix, p):
    rows, _ = exactla.integer_rows(matrix)
    assert modrank.rank_mod(rows, p) <= exactla.rank(matrix)


def _rational_matrices(max_side=5):
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 10))
    return st.integers(1, max_side).flatmap(lambda ncols: st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols),
        min_size=1, max_size=max_side))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_rational_matrices(), st.sampled_from([None, 2, 3, 5, 7, 1000003]),
       st.booleans())
def test_the_rank_rule_matches_sympy(matrix, prime, loose):
    # entries with denominators 1..10, so each small prime divides some;
    # ``full`` is min(rows, cols) or the looser max(rows, cols)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    rows, cols = len(matrix), len(matrix[0])
    if rows > 2:
        matrix[-1] = [x - 2 * y for x, y in zip(matrix[0], matrix[1])]
    full = max(rows, cols) if loose else min(rows, cols)
    exact = sympy.Matrix(matrix).rank()
    result = jacobian._rank(matrix, full, prime)
    assert (result.rank, result.full) == (exact, full)
    # the certificate is taken exactly when the rank mod p of the rows,
    # each scaled by its common denominator, reaches ``full``
    certified = False
    if prime is not None:
        scaled = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
                  for row in matrix]
        modular = DomainMatrix.from_list(
            scaled, sympy.ZZ).convert_to(GF(prime)).rank()
        assert modular <= exact
        certified = modular == full
    assert result.mode == (f"modular(p={prime})" if certified else "exact")
    # the proof is the certificate that closed the rank
    assert result.proof.prime == (prime if certified else None)
    assert result.proof.rank == exact


@DETERMINISTIC
@given(_matrices())
def test_hermite_normal_form_is_idempotent(matrix):
    hnf = exactla.hermite_normal_form(matrix)
    assert exactla.hermite_normal_form(hnf) == hnf


_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
_coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def _term_text(exps, coeff):
    factors = [str(abs(coeff))]
    for name, e in zip(XY.names, exps):
        if e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return ("-" if coeff < 0 else "") + "*".join(factors)


@DETERMINISTIC
@given(st.dictionaries(_monomials, _coefficients, max_size=5))
def test_text_form_parses_back(terms):
    f = XY.zero()
    for exps, coeff in terms.items():
        f = f + XY.monomial(exps, coeff)
    assert parse_poly(f.to_text(), XY) == f


@DETERMINISTIC
@given(st.lists(st.tuples(st.sampled_from("+-"), _monomials, _coefficients),
                min_size=1, max_size=5))
def test_signed_terms_parse_to_their_sum(terms):
    # every term carries its own sign, also after a binary operator:
    # "x + -2*y", "x - -2*y"
    text, expected = "", XY.zero()
    for i, (op, exps, coeff) in enumerate(terms):
        term = XY.monomial(exps, coeff)
        if i == 0:
            text, expected = _term_text(exps, coeff), term
        else:
            text += f" {op} {_term_text(exps, coeff)}"
            expected = expected + term if op == "+" else expected - term
    f = parse_poly(text, XY)
    assert f == expected
    assert parse_poly(f.to_text(), XY) == f


def _form(ring, degree, coeffs):
    f = ring.zero()
    for exps, c in zip(enumerate_monomials(ring.nvars, degree), coeffs):
        f = f + ring.monomial(exps, c)
    return f


@pytest.mark.parametrize("ring", [TERNARY, QUATERNARY], ids=["ternary", "quaternary"])
def test_smooth_cubics_have_palindromic_tables(ring):
    ncoeffs = len(enumerate_monomials(ring.nvars, 3))

    @DETERMINISTIC
    @given(st.lists(st.integers(-5, 5), min_size=ncoeffs, max_size=ncoeffs))
    def check(coeffs):
        f = _form(ring, 3, coeffs)
        assume(not f.is_zero() and f.total_degree() == 3)
        hring = jacobian.HypersurfaceRing(f)
        assume(jacobian.is_smooth_artinian(hring))
        table = jacobian.hilbert_function(hring)
        assert table == table[::-1]
        assert sum(table) == 2 ** ring.nvars

    check()


def _standard_monomial_counts(hring, top):
    """Hilbert table of the Jacobian quotient from a sympy Groebner basis."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(hring.ring.names)

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                   for exps, c in p.terms.items())

    basis = sympy.groebner([to_sympy(p) for p in hring.partials], *gens,
                           order="grevlex")
    leading = [sympy.Poly(g, *gens).monoms(order="grevlex")[0]
               for g in basis.exprs]
    return [sum(1 for m in enumerate_monomials(hring.nvars, k)
                if not any(all(a <= b for a, b in zip(lm, m)) for lm in leading))
            for k in range(top + 1)]


@pytest.mark.parametrize("nvars, degree, seed", [
    (3, 3, 1), (3, 4, 2), (3, 5, 3), (4, 3, 4), (4, 3, 5),
])
def test_hilbert_table_matches_sympy_groebner(nvars, degree, seed):
    ring = TERNARY if nvars == 3 else QUATERNARY
    rng = random.Random(seed)
    monos = enumerate_monomials(ring.nvars, degree)
    f = _form(ring, degree, [rng.randrange(-4, 5) for _ in monos])
    hring = jacobian.HypersurfaceRing(f)
    top = hring.socle_degree + 1
    assert jacobian.hilbert_function(hring) + [hring.quotient_dim(top)] == \
        _standard_monomial_counts(hring, top)


# ------------------------------------------------ closed forms of smooth rings
#
# A ring whose degree-(sigma+1) certificate closes reads its Hilbert
# function and character spectra from closed forms.  Both are compared
# here against elimination (``ideal_rank`` and the character blocks,
# which never read the certificate) and against the sympy Groebner
# oracle, on random forms with and without a diagonal symmetry.

def _eliminated_table(hring, top):
    return [len(enumerate_monomials(hring.nvars, k)) - hring.ideal_rank(k)
            for k in range(top + 1)]


def _assert_routes_agree(hring, sigma):
    """Closed form (when certified) equals elimination and sympy; returns
    whether the closed form was used.  Under the trivial automorphism
    the spectrum is the eliminated dimension in character 0."""
    top = hring.socle_degree + 1
    table = jacobian.hilbert_function(hring) + [hring.quotient_dim(top)]
    eliminated = _eliminated_table(hring, top)
    assert table == eliminated
    assert table == _standard_monomial_counts(hring, top)
    for k in range(top + 1):
        spectrum = characters.character_spectrum(hring, sigma, k)
        if sigma.modulus == 1:
            assert spectrum.histogram == ({0: eliminated[k]} if eliminated[k] else {})
        else:
            assert spectrum.histogram == block_spectrum(hring, sigma, k)
    closed = hring.smoothness_certificate().certified
    assert (hring.dimension_route() != "elimination") == closed
    if closed:
        assert table == jacobian.complete_intersection_hilbert(
            hring.nvars, hring.degree) + [0]
    return closed


_SHAPES = [(3, 3), (3, 4), (4, 3)]


@st.composite
def _symmetric_forms(draw):
    """A form with its Fermat terms and an eigenvector of a diagonal symmetry.

    With modulus N = d*m and exponents r + m*k_i, every x_i^d has the
    character d*r, and so does each monomial with sum k_i a_i = 0 mod d.
    """
    nvars, degree = draw(st.sampled_from(_SHAPES))
    m = draw(st.integers(1, 2))
    modulus = degree * m
    r = draw(st.integers(0, modulus - 1))
    ks = draw(st.lists(st.integers(0, degree - 1), min_size=nvars,
                       max_size=nvars))
    ring = TERNARY if nvars == 3 else QUATERNARY
    monos = [e for e in enumerate_monomials(nvars, degree)
             if sum(k * a for k, a in zip(ks, e)) % degree == 0]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                           max_size=len(monos)))
    f = ring.zero()
    for e, c in zip(monos, coeffs):
        if max(e) == degree:
            c = c or 1
        f = f + ring.monomial(e, c)
    return f, characters.DiagonalAutomorphism([r + m * k for k in ks], modulus)


def test_closed_forms_match_elimination_with_a_symmetry():
    closed = []

    @DETERMINISTIC
    @given(_symmetric_forms())
    def check(form):
        f, sigma = form
        hring = jacobian.HypersurfaceRing(f)
        closed.append(_assert_routes_agree(hring, sigma))

    check()
    assert sum(closed) >= 20


def test_closed_forms_match_elimination_without_a_symmetry():
    closed = []

    @DETERMINISTIC
    @given(st.sampled_from(_SHAPES), st.randoms(use_true_random=False))
    def check(shape, rng):
        nvars, degree = shape
        ring = TERNARY if nvars == 3 else QUATERNARY
        monos = enumerate_monomials(nvars, degree)
        f = _form(ring, degree, [rng.randrange(-4, 5) for _ in monos])
        assume(f.total_degree() == degree)
        hring = jacobian.HypersurfaceRing(f)
        closed.append(_assert_routes_agree(
            hring, characters.DiagonalAutomorphism((0,) * nvars, 1)))

    check()
    assert sum(closed) >= 20


# ------------------------------------------- SparsePoly arithmetic vs sympy
#
# Coefficients are ints when integral and Fractions otherwise; these
# properties check the arithmetic itself against sympy, in a plain
# rational ring and in the tower Q(w, a) with w^2 + w + 1 = 0 and
# a^3 = -lam.

TOWER = PolyRing.tower(("x", "lam"), "lam")
_RINGS = {"rational": TERNARY, "tower": TOWER}
_exact_coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def _polys(draw, ring, max_terms=4, max_exp=3):
    monos = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    terms = draw(st.lists(st.tuples(monos, _exact_coefficients),
                          max_size=max_terms))
    f = ring.zero()
    for exps, c in terms:
        f = f + ring.monomial(exps, c)
    return f


def _sympy_setup(ring):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(ring.names)
    named = dict(zip(ring.names, gens))
    # lex with a and w first: w^2 and a^3 lead, and the two relations
    # have coprime leading terms, so they are a Groebner basis and the
    # remainder is the normal form with w-degree <= 1, a-degree <= 2
    order = sorted(gens, key=lambda g: str(g) not in ("a", "w"))
    relations = ([named["w"] ** 2 + named["w"] + 1,
                  named["a"] ** 3 + named["lam"]]
                 if ring.reductions else [])

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(g ** e for g, e in zip(gens, exps)))
                    for exps, c in p.terms.items()), sympy.Integer(0))

    def normal(expr):
        expr = sympy.expand(expr)
        if relations:
            expr = sympy.reduced(expr, relations, *order, order="lex")[1]
        return sympy.Poly(expr, *gens)

    def agree(p, expr):
        assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                   for c in p.terms.values())
        assert sympy.Poly(to_sympy(p), *gens) == normal(expr)

    return sympy, to_sympy, agree


@pytest.mark.parametrize("name", sorted(_RINGS))
def test_ring_arithmetic_matches_sympy(name):
    ring = _RINGS[name]
    sympy, to_sympy, agree = _sympy_setup(ring)

    @DETERMINISTIC
    @given(_polys(ring), _polys(ring), st.integers(0, 3))
    def check(f, g, n):
        sf, sg = to_sympy(f), to_sympy(g)
        agree(f + g, sf + sg)
        agree(f - g, sf - sg)
        agree(f * g, sf * sg)
        agree(f ** n, sf ** n)
        for var in ("x", ring.names[1]):
            agree(partial_derivative(f, var), sympy.diff(sf, sympy.Symbol(var)))

    check()


@pytest.mark.parametrize("name", sorted(_RINGS))
def test_substitute_matches_sympy(name):
    ring = _RINGS[name]
    sympy, to_sympy, agree = _sympy_setup(ring)

    @DETERMINISTIC
    @given(_polys(ring), _polys(ring, max_terms=3, max_exp=2),
           _exact_coefficients)
    def check(f, h, c):
        x, other = sympy.Symbol("x"), sympy.Symbol(ring.names[1])
        sf, sh = to_sympy(f), to_sympy(h)
        agree(substitute(f, {"x": h}, ring), sf.subs(x, sh))
        agree(substitute(f, {"x": h, ring.names[1]: c}, ring),
              sf.subs({x: sh, other: sympy.Rational(c.numerator, c.denominator)},
                      simultaneous=True))

    check()


@DETERMINISTIC
@given(_polys(TERNARY), _polys(TERNARY))
def test_exact_divide_matches_sympy(f, g):
    assume(not g.is_zero())
    sympy, to_sympy, agree = _sympy_setup(TERNARY)
    gens = sympy.symbols(TERNARY.names)
    agree(exact_divide(f * g, g), to_sympy(f))
    # by a single divisor the remainder is zero exactly when g divides f
    quotient, remainder = sympy.div(to_sympy(f), to_sympy(g), *gens)
    if remainder == 0:
        agree(exact_divide(f, g), quotient)
    else:
        with pytest.raises(NotDivisible) as info:
            exact_divide(f, g)
        assert not info.value.remainder.is_zero()
