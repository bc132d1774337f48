import importlib.util
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chowcheck import characters, exactla, jacobian, modrank
from chowcheck.poly import (PolyRing, enumerate_monomials, parse_poly,
                            monomial_mul)
from chowcheck.report import InputError
from chowcheck.runner import ScenarioContext, run_check, run_scenario
from chowcheck.scenario import parse_scenario
from oracles import (WholeMap, block_pieces, block_spectrum, fraction_rref,
                     listed_ideal_rank, listed_piece, listed_uniform_bound,
                     is_surjective, macaulay_rows, map_matrix,
                     pieces_left_kernel_via_duality, pieces_map_surjectivity,
                     tuple_dict_rows)

P3 = PolyRing.rationals(("x0", "x1", "x2", "x3"))

FERMAT_QUARTIC_DIMS = [1, 4, 10, 16, 19, 16, 10, 4, 1]
FERMAT_QUINTIC_DIMS = [1, 4, 10, 20, 31, 40, 44, 40, 31, 20, 10, 4, 1]


def test_fermat_quartic_hilbert(fermat_quartic):
    assert fermat_quartic.socle_degree == 8
    table = jacobian.hilbert_function(fermat_quartic)
    assert table == FERMAT_QUARTIC_DIMS
    assert sum(table) == 3 ** 4
    assert table == table[::-1]
    assert fermat_quartic.quotient_dim(4) == 19
    assert fermat_quartic.quotient_dim(8) == 1
    assert fermat_quartic.quotient_dim(9) == 0


def test_mixed_sign_quartic_has_same_table(mixed_quartic):
    assert jacobian.hilbert_function(mixed_quartic) == FERMAT_QUARTIC_DIMS


def test_fermat_quintic_hilbert():
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^5 + x1^5 + x2^5 + x3^5", P3))
    table = jacobian.hilbert_function(hring)
    assert table == FERMAT_QUINTIC_DIMS
    assert sum(table) == 4 ** 4


def test_quintic_symmetric_route_agrees(quintic_sym):
    # the closed form that the certificate opens agrees with elimination
    assert jacobian.hilbert_function(quintic_sym) == FERMAT_QUINTIC_DIMS
    for k in (4, 5, 6):
        assert quintic_sym.quotient_dim(k) == quintic_sym._eliminated_dim(k)


def test_monomial_ideal_detection(fermat_quartic, quintic_sym):
    assert fermat_quartic.is_monomial_ideal
    gens = fermat_quartic.monomial_generators()
    assert sorted(gens) == sorted(
        tuple(3 if i == j else 0 for i in range(4)) for j in range(4))
    assert not quintic_sym.is_monomial_ideal
    with pytest.raises(jacobian.IdealNotMonomial):
        quintic_sym.monomial_generators()


def test_generic_route_agrees_with_monomial_route(fermat_quartic):
    for k in (3, 4, 5):
        monomial = fermat_quartic.ideal_rank(k)
        generic = exactla.rank(fermat_quartic.span_rows(k)[0])
        assert monomial == generic


def test_certified_rank_agrees_with_exact_elimination():
    # a slice of full rank mod p is proven by it (the bumpy quartic's up
    # to degree 5), any other takes the rank of the lifted piece
    bumpy = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    nodal = jacobian.HypersurfaceRing(parse_poly(NODAL_CUBIC, TERNARY))
    for hring, degrees in ((bumpy, range(3, 8)), (nodal, range(7))):
        for k in degrees:
            assert hring.ideal_rank(k) == exactla.rank(hring.span_rows(k)[0])
    assert sorted(bumpy._pieces) == [6, 7]
    assert sorted(nodal._pieces) == [4, 5, 6]


def test_every_slice_row_reduces_to_zero():
    # a lifted piece is verified by A * N = 0: every generator row m * d_iF
    # of the slice has normal form 0
    bumpy = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    nodal = jacobian.HypersurfaceRing(parse_poly(NODAL_CUBIC, TERNARY))
    for hring, k in ((bumpy, 6), (nodal, 4)):
        rows, monos, _ = hring.span_rows(k)
        piece = hring.piece(k)
        assert piece.dim == len(monos) - exactla.rank(rows)
        for row in rows:
            terms = {m: x for m, x in zip(monos, row) if x}
            assert not any(piece.reduce_vector(terms))


def test_smoothness(fermat_quartic):
    assert jacobian.is_smooth_artinian(fermat_quartic)
    cone = jacobian.HypersurfaceRing(parse_poly("x0^4", P3))
    result = jacobian.is_smooth_artinian(cone)
    assert not result and result.rank < result.full
    bumpy = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    modular = jacobian.is_smooth_artinian(bumpy)
    assert modular.ok and modular.mode.startswith("modular")
    exact = jacobian.is_smooth_artinian(bumpy, prime=None)
    assert exact.ok and exact.mode == "exact"


def test_ring_constructor_validation():
    with pytest.raises(InputError):
        jacobian.HypersurfaceRing(parse_poly("x0^2 + x1", P3))
    with pytest.raises(InputError):
        jacobian.HypersurfaceRing(parse_poly("x0", P3))
    with pytest.raises(InputError):
        jacobian.HypersurfaceRing(parse_poly("0", P3))


def test_uniform_bound(fermat_quartic, mixed_quartic, quintic_sym):
    for hring in (fermat_quartic, mixed_quartic):
        bound, per_variable, _ = jacobian.uniform_mult_rank_bound(hring, 3)
        assert bound == 13
        assert per_variable == [13, 13, 13, 13]
    with pytest.raises(jacobian.IdealNotMonomial):
        jacobian.uniform_mult_rank_bound(quintic_sym, 3)


@pytest.mark.parametrize("text, names", [
    ("x0^4 + x1^4 - x2^4 - x3^4", "x0 x1 x2 x3"),
    ("x0^4 + x1^4", "x0 x1 x2 x3"),
    ("x0^5 + x1^3*x2^2", "x0 x1 x2"),
    ("x0^3 + x1^3 + x2^3", "x0 x1 x2"),
], ids=["quartic-family", "singular-quartic", "mixed-quintic", "fermat-cubic"])
def test_uniform_bound_counts_what_the_listing_counts(text, names):
    # smooth and singular monomial ideals, below and above sigma
    hring = jacobian.HypersurfaceRing(
        parse_poly(text, PolyRing.rationals(tuple(names.split()))))
    for b in range(14):
        bound, per_variable, _ = jacobian.uniform_mult_rank_bound(hring, b)
        assert per_variable == listed_uniform_bound(hring, b)
        assert bound == min(per_variable)


@st.composite
def _monomial_forms(draw):
    """Forms in x0..x(n-1), n in 1..4, of degree 2..5, whose terms have
    disjoint supports, so that every partial is one term or zero: a
    monomial Jacobian ideal.  A variable in no term, or a term in several
    variables, makes the form singular."""
    n, degree = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    ring = PolyRing.rationals(tuple(f"x{i}" for i in range(n)))
    order = draw(st.permutations(range(n)))
    blocks = [[order[0]]]
    for i in order[1:]:
        if draw(st.booleans()):
            blocks.append([])
        blocks[-1].append(i)
    kept = [block for block in blocks if draw(st.booleans())] or blocks[:1]
    f = ring.zero()
    for block in kept:
        block = block[:degree]
        cuts = sorted(draw(st.lists(st.integers(1, degree - 1), unique=True,
                                    min_size=len(block) - 1,
                                    max_size=len(block) - 1)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
        exps = [0] * n
        for i, x in zip(block, parts):
            exps[i] = x
        c = Fraction(draw(st.integers(-9, 9).filter(bool)),
                     draw(st.integers(1, 4)))
        f = f + ring.monomial(tuple(exps), c)
    return f


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_monomial_forms())
@example(parse_poly("x0^4 + x1^4", P3))
@example(parse_poly("x0^2*x1^2 + x2^4 + x3^4", P3))
def test_monomial_ideal_rank_counts_what_the_listing_counts(f):
    hring = jacobian.HypersurfaceRing(f)
    assert hring.is_monomial_ideal
    for k in range(41):
        assert hring.ideal_rank(k) == listed_ideal_rank(hring, k)


# quartic-family's ring, a singular quartic and a singular plane cubic:
# their standard monomials, found by code, are those the listing finds
@pytest.mark.parametrize("text, names", [
    ("x0^4 + x1^4 - x2^4 - x3^4", ("x0", "x1", "x2", "x3")),
    ("x0^4 + x1^4", ("x0", "x1", "x2", "x3")),
    ("x0^3 + x1^3", ("x0", "x1", "x2")),
], ids=["quartic-family", "singular-quartic", "binary-cubic"])
def test_monomial_pieces_are_the_listed_standard_monomials(text, names):
    hring = jacobian.HypersurfaceRing(
        parse_poly(text, PolyRing.rationals(names)))
    assert hring.is_monomial_ideal
    for k in range(hring.socle_degree + 3):
        piece = hring.piece(k)
        assert (piece.representatives, piece.normal_forms) == \
            listed_piece(hring, k)
        assert all(type(x) is int for form in piece.normal_forms for x in form)
        with pytest.raises(TypeError):
            piece.normal_forms[0][0] = 0


def test_degrees_above_the_socle_list_no_monomials(mixed_quartic, monkeypatch):
    # the ring is proven smooth, so R vanishes above sigma = 8 and a degree
    # far above it is answered without listing its monomials
    listed = []
    enumerate_all = jacobian.enumerate_monomials

    def recording(nvars, degree):
        listed.append(degree)
        return enumerate_all(nvars, degree)

    monkeypatch.setattr(jacobian, "enumerate_monomials", recording)
    g = parse_poly("x0^2*x1^2", mixed_quartic.ring)
    for b in (8, 9, 60):
        bound = jacobian.uniform_mult_rank_bound(mixed_quartic, b)
        assert bound[:2] == (0, [0, 0, 0, 0])
        result, subspace_dim, _ = jacobian.functional_kernel_map(
            mixed_quartic, g, b)
        assert (result.rank, result.full, subspace_dim) == (0, 0, 18)
    assert max(listed, default=0) <= mixed_quartic.socle_degree + 1


def test_socle_pairing(fermat_quartic):
    for k in range(9):
        result = jacobian.macaulay_pairing_check(fermat_quartic, k)
        assert result.ok
        assert result.full == FERMAT_QUARTIC_DIMS[k]
    cone = jacobian.HypersurfaceRing(parse_poly("x0^4", P3))
    with pytest.raises(jacobian.SocleNotOneDimensional):
        jacobian.macaulay_pairing_check(cone, 4)


def test_multiplication_map_shapes(fermat_quartic):
    mmap = jacobian.multiplication_map(fermat_quartic, 1, 3)
    assert mmap.left_dim == 4 and mmap.right_dim == 16
    assert mmap.target_dim == 19
    result = is_surjective(map_matrix(mmap), mmap.target_dim)
    assert result.ok and result.rank == 19


def left_kernel(mmap):
    """Exact basis of {u : u * v == 0 for every v}, brute force: the
    oracle for the duality route.

    Stacks the conditions for all right basis vectors and coordinates of
    the target, then takes the exact kernel.
    """
    matrix, rows = map_matrix(mmap), []
    for v in range(mmap.right_dim):
        for i in range(mmap.target_dim):
            rows.append([matrix[i][u * mmap.right_dim + v]
                         for u in range(mmap.left_dim)])
    if not rows:
        return []
    return exactla.kernel_basis(rows)


def test_left_kernel_brute_force_and_duality_agree(fermat_quartic,
                                                   mixed_quartic):
    for hring in (fermat_quartic, mixed_quartic):
        mmap = jacobian.multiplication_map(hring, 1, 3)
        assert left_kernel(mmap) == []
        surj, pairing = jacobian.left_kernel_via_duality(hring, 1, 3)
        assert surj and pairing
        assert surj.rank == surj.full


def test_duality_route_rejects_overflow(fermat_quartic):
    with pytest.raises(ValueError):
        jacobian.left_kernel_via_duality(fermat_quartic, 5, 4)


def test_quintic_duality_at_three_three(quintic_sym):
    surj, pairing = jacobian.left_kernel_via_duality(quintic_sym, 3, 3,
                                                     prime=1000003)
    assert surj and pairing
    assert surj.rank == 20
    assert pairing.rank == 20


def test_duality_asks_for_the_socle_before_building_a_map(monkeypatch):
    built = []
    multiplication_map = jacobian.multiplication_map

    def counting(hring, a, b, quotient_by=None):
        built.append((a, b))
        return multiplication_map(hring, a, b, quotient_by=quotient_by)

    monkeypatch.setattr(jacobian, "multiplication_map", counting)
    # a cone: singular, so the step takes the exact pieces
    cone = jacobian.HypersurfaceRing(
        parse_poly("x0*x1^4 + x1*x2^4 + x2*x0^4", P3))
    with pytest.raises(jacobian.SocleNotOneDimensional):
        jacobian.left_kernel_via_duality(cone, 3, 3)
    assert built == []


def test_functional_kernel_map(fermat_quartic, mixed_quartic, monkeypatch):
    subspaces = []
    multiplication_map = jacobian.multiplication_map

    def recording(hring, a, b, quotient_by=None):
        subspaces.append(quotient_by)
        return multiplication_map(hring, a, b, quotient_by=quotient_by)

    monkeypatch.setattr(jacobian, "multiplication_map", recording)
    for hring in (fermat_quartic, mixed_quartic):
        g = parse_poly("x0^2*x1^2", hring.ring)
        result, subspace_dim, class_nonzero = jacobian.functional_kernel_map(
            hring, g, 3)
        assert result.rank == 4
        assert result.full == 4
        assert subspace_dim == 18
        assert result.ok
        assert class_nonzero
        # off half the socle degree W is all of R_3, and the map is onto
        # without being built
        cubic = parse_poly("x0^2*x1", hring.ring)
        assert not jacobian.functional_kernel_map(hring, cubic, 3)[2]
    # one map per ring, on the kernel of the functional, whose basis holds
    # ints
    assert [len(s) for s in subspaces] == [18, 18]
    assert all(type(x) is int for s in subspaces for vec in s for x in vec)


def test_a_form_off_half_the_socle_degree_pairs_to_zero(fermat_quartic):
    # h * g lies outside the socle degree, so every socle coordinate is 0
    # and W is all of R_a, on monomial and exact block pieces alike
    for hring, g, b in ((fermat_quartic, "x0^2*x1", 3),
                        (_cubic_surface(), "x0", 1)):
        g = parse_poly(g, P3)
        result, subspace_dim, class_nonzero = jacobian.functional_kernel_map(
            hring, g, b)
        a = g.total_degree()
        assert not class_nonzero
        assert subspace_dim == hring.quotient_dim(a)
        assert result.full == hring.quotient_dim(a + b) == result.rank


def test_graded_piece_reduction(fermat_quartic):
    piece = fermat_quartic.piece(4)
    assert piece.dim == 19
    # an ideal element reduces to zero
    x0 = (1, 0, 0, 0)
    cube = (3, 0, 0, 0)
    ideal_elem = {monomial_mul(x0, cube): Fraction(4)}
    assert all(c == 0 for c in piece.reduce_vector(ideal_elem))
    # a representative reduces to a unit vector
    rep = piece.representatives[0]
    coords = piece.reduce_vector({rep: Fraction(1)})
    assert coords.count(Fraction(0)) == piece.dim - 1
    assert Fraction(1) in coords


def test_graded_piece_reduction_generic_route():
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    piece = hring.piece(4)
    assert piece.dim == 19
    # partial derivative times a variable lies in the ideal
    partial = hring.partials[0]
    shifted = {monomial_mul((1, 0, 0, 0), e): c
               for e, c in partial.terms.items()}
    assert all(c == 0 for c in piece.reduce_vector(shifted))


def test_random_smooth_forms_have_palindromic_tables():
    rng = random.Random(314159)
    for degree, total in ((4, 81), (5, 256)):
        f = _random_dense_form(rng, degree)
        hring = jacobian.HypersurfaceRing(f)
        if not jacobian.is_smooth_artinian(hring):
            pytest.skip("random form happened to be singular")
        table = jacobian.hilbert_function(hring)
        assert table == table[::-1]
        assert sum(table) == total


def _random_dense_form(rng, degree):
    f = parse_poly(
        " + ".join(f"x{i}^{degree}" for i in range(4)), P3)
    for m in enumerate_monomials(4, degree):
        if max(m) == degree:
            continue
        if rng.random() < 0.2:
            f = f + P3.monomial(m, Fraction(rng.randrange(-3, 4)))
    return f


SHIODA = "x0*x1^4 + x1*x2^4 + x2*x0^4 + x3^5"
SHIODA_SYMMETRY = ((16, 61, 1, 0), 65)


def _shioda_ring():
    return jacobian.HypersurfaceRing(parse_poly(SHIODA, P3))


def _bound_fields(result):
    return (result.bound, result.strict_bound, result.kept, result.kept_strict,
            result.middle.histogram, [o.histogram for o in result.outer])


def test_each_degree_is_eliminated_once_per_ring(monkeypatch):
    sigma = characters.DiagonalAutomorphism(*SHIODA_SYMMETRY)
    k = 6
    probe = {(1, 2, 3, 0): Fraction(2), (0, 0, 0, 6): Fraction(-1, 3)}
    fresh_table = jacobian.hilbert_function(_shioda_ring())
    fresh_piece = _shioda_ring().piece(k)
    fresh_spectrum = characters.character_spectrum(_shioda_ring(), sigma, k)
    fresh_bound = characters.picard_upper_bound(_shioda_ring(), sigma)

    lifts, span_builds, slice_builds = Counter(), Counter(), Counter()
    square_builds = Counter()
    lift = jacobian.HypersurfaceRing._lift
    span_rows = jacobian.HypersurfaceRing.span_rows
    gfp_slice = jacobian.HypersurfaceRing._gfp_slice
    square_rows = jacobian.HypersurfaceRing._square_rows

    def counting_lift(self, degree):
        lifts[degree] += 1
        return lift(self, degree)

    def counting_span_rows(self, degree):
        span_builds[degree] += 1
        return span_rows(self, degree)

    def counting_gfp_slice(self, degree, p):
        slice_builds[degree, p] += 1
        return gfp_slice(self, degree, p)

    def counting_square_rows(self, degree, p, matching):
        square_builds[degree, p] += 1
        return square_rows(self, degree, p, matching)

    monkeypatch.setattr(jacobian.HypersurfaceRing, "_lift", counting_lift)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "_square_rows",
                        counting_square_rows)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "span_rows",
                        counting_span_rows)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "_gfp_slice",
                        counting_gfp_slice)
    hring = _shioda_ring()
    table = jacobian.hilbert_function(hring)
    piece = hring.piece(k)
    spectrum = characters.character_spectrum(hring, sigma, k)
    bound = characters.picard_upper_bound(hring, sigma)

    # the ring is proven smooth by one modular certificate on the matched
    # square rows of the degree-13 slice, built once, so the Hilbert
    # table, the spectrum and the Picard scan read closed forms and the
    # whole degree-13 slice is never built; only the graded piece lifts
    # its degree, from its slice at the first lift prime
    assert lifts == Counter({k: 1})
    assert not span_builds
    assert square_builds == Counter({
        (hring.socle_degree + 1, modrank.DEFAULT_PRIME): 1})
    assert slice_builds == Counter({(k, next(exactla._lift_primes())): 1})
    assert table == fresh_table
    assert piece.representatives == fresh_piece.representatives
    assert piece.reduce_vector(probe) == fresh_piece.reduce_vector(probe)
    assert spectrum.histogram == fresh_spectrum.histogram
    assert _bound_fields(bound) == _bound_fields(fresh_bound)

    # callers cannot disturb the memo through what they were handed
    rows, _, _ = hring.span_rows(k)
    for row in rows:
        row[:] = [1] * len(row)
    with pytest.raises(TypeError):
        piece.normal_forms[0][0] = 0
    assert hring.quotient_dim(k) == fresh_table[k]
    assert hring.piece(k).reduce_vector(probe) == fresh_piece.reduce_vector(probe)
    assert lifts == Counter({k: 1})


# ------------------------------------------------ the closed-form route

TERNARY = PolyRing.rationals(("x0", "x1", "x2"))


# ------------------------------------------------ the slice forms

def _span_rows_oracle(hring, k):
    """Slice rows built entry by entry from the partials, without the
    row builders of span_rows, span_array and span_sparse."""
    monos = enumerate_monomials(hring.nvars, k)
    col = {m: j for j, m in enumerate(monos)}
    rows, tags = [], []
    if k >= hring.degree - 1:
        for m in enumerate_monomials(hring.nvars, k - (hring.degree - 1)):
            for i, part in enumerate(hring.partials):
                row = [0] * len(monos)
                for e, c in part.terms.items():
                    row[col[monomial_mul(m, e)]] += int(c)
                rows.append(row)
                tags.append((m, i))
    return rows, monos, tags


def _dense_quartic(seed):
    rng = random.Random(seed)
    return " + ".join(f"{rng.choice((-1, 1)) * rng.randint(1, 9)}*"
                      + "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)
                      for m in enumerate_monomials(4, 4))


@pytest.mark.parametrize("text, ring", [
    (SHIODA, P3),
    (_dense_quartic(11), P3),
    ("1/2*x0^3 + 2/3*x1^3 + x2^3 - 5/7*x0*x1*x2", TERNARY),
    (f"{10**30}*x0^3 + x1^3 + x2^3", TERNARY),
], ids=["shioda", "dense-quartic", "rational", "coefficient-above-2^63"])
def test_span_array_is_span_rows_reduced_mod_p(text, ring):
    hring = jacobian.HypersurfaceRing(parse_poly(text, ring))
    top = hring.socle_degree + 1
    for k in sorted({0, hring.degree - 2, hring.degree - 1, hring.degree,
                     top - 1, top}):
        rows, monos, tags = hring.span_rows(k)
        assert (rows, monos, tags) == _span_rows_oracle(hring, k)
        assert all(type(x) is int for row in rows for x in row)
        for p in (2, 3, 1000003, 3037000493):
            a = hring.span_array(k, p)
            assert a.dtype == np.int64 and a.shape == (len(rows), len(monos))
            assert a.tolist() == [[x % p for x in row] for row in rows]
            assert hring._slice_nonzeros(k, p) == np.count_nonzero(a)
            assert hring._slice_shape(k) == a.shape
            sparse = hring.span_sparse(k, p)
            assert sparse == [{j: x % p for j, x in enumerate(row) if x % p}
                              for row in rows]
            kernel = hring._slice_kernel(k, p)
            assert kernel == ("sparse" if np.count_nonzero(a)
                              < jacobian.SPARSE_DENSITY * a.size else "dense")
            gfp = hring._gfp_slice(k, p)
            assert (gfp == sparse if kernel == "sparse"
                    else gfp.tolist() == a.tolist())
    cert = hring.smoothness_certificate()
    assert cert.certified
    rows, _ = exactla.integer_rows(hring.span_rows(top)[0])
    assert cert.rank == exactla.modular_rank(rows).rank


# ``symmetry``: a diagonal automorphism of the form, whose character
# spectra are checked against the eliminated character blocks
@pytest.mark.parametrize("text, ring, symmetry", [
    ("x0^4", P3, None),
    ("x0^3 + x1^3", TERNARY, None),
    ("x0^3 + x1^3 + x0*x1*x2", TERNARY, ((1, 1, 1), 3)),
], ids=["cone", "binary-cubic", "nodal-cubic"])
def test_singular_forms_never_take_the_closed_form(text, ring, symmetry):
    hring = jacobian.HypersurfaceRing(parse_poly(text, ring))
    top = hring.socle_degree + 1
    table = jacobian.hilbert_function(hring, through=top)
    assert not hring.smoothness_certificate().certified
    assert hring.dimension_route() == "elimination"
    # no certificate closes, so no piece is held to the closed form
    assert [hring.piece(k).dim for k in range(top + 1)] == table
    assert table[top] > 0
    assert table == [len(enumerate_monomials(hring.nvars, k)) - hring.ideal_rank(k)
                     for k in range(top + 1)]
    assert table != jacobian.complete_intersection_hilbert(
        hring.nvars, hring.degree) + [0]
    if symmetry is not None:
        sigma = characters.DiagonalAutomorphism(*symmetry)
        for k in range(top + 1):
            assert characters.character_spectrum(hring, sigma, k).histogram == \
                block_spectrum(hring, sigma, k)


def test_a_piece_that_contradicts_the_closed_form_raises():
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^3 + x1^3 + x2^3 + x0*x1*x2", TERNARY))
    assert hring.quotient_dim(2) == 3
    hring._closed_form = [1, 3, 4, 1]  # forged: the true table is 1 3 3 1
    with pytest.raises(ArithmeticError, match="closed form gives 4"):
        hring.piece(2)
    assert hring.piece(1).dim == 3


def test_exact_smoothness_never_reads_the_certificate(monkeypatch, quintic_sym):
    result = jacobian.is_smooth_artinian(quintic_sym)
    assert result.ok and result.mode == "modular(p=1000003)"

    # the exact route asks for the exact certificate only, never for one
    # at a prime, and its proof names no prime
    asked = []
    certificate = jacobian.HypersurfaceRing.smoothness_certificate

    def recording(self, prime=modrank.DEFAULT_PRIME):
        asked.append(prime)
        return certificate(self, prime)

    monkeypatch.setattr(jacobian.HypersurfaceRing, "smoothness_certificate",
                        recording)
    result = jacobian.is_smooth_artinian(_shioda_ring(), prime=None)
    assert result.ok and result.mode == "exact" and result.rank == result.full
    assert isinstance(result.proof, jacobian.GradedPiece) or (
        result.proof.prime is None and result.proof.certified)
    assert set(asked) == {None}


def test_certificates_are_memoised_per_prime():
    hring = _shioda_ring()
    first = hring.smoothness_certificate()
    assert first.certified and first.prime == 1000003
    assert hring.smoothness_certificate() is first
    other = hring.smoothness_certificate(1000033)
    assert other.certified and other is not first
    cone = jacobian.HypersurfaceRing(parse_poly("x0^4", P3))
    assert cone.smoothness_certificate(2) is cone.smoothness_certificate()
    assert cone.smoothness_certificate().prime is None


# ------------------------------------------------ full-slice reduction oracle
#
# Graded pieces of non-symmetric rings were once reduced against the
# Gauss-Jordan form of the whole Jacobian slice.  That route is kept
# here, with the elimination of ``oracles``, as an oracle for the lifted
# pieces.

class _FullSlicePiece:
    def __init__(self, hring, k):
        self.monomials = enumerate_monomials(hring.nvars, k)
        rows, _, _ = hring.span_rows(k)
        self.rref, self.piv = fraction_rref(rows, len(self.monomials))
        self.representatives = [m for j, m in enumerate(self.monomials)
                                if j not in self.piv]

    def reduce_vector(self, terms):
        col = {m: j for j, m in enumerate(self.monomials)}
        vec = [Fraction(0)] * len(self.monomials)
        for e, c in terms.items():
            vec[col[e]] += c
        for row, pc in zip(self.rref, self.piv):
            f = vec[pc]
            if f:
                vec = [x - f * y for x, y in zip(vec, row)]
        return [vec[col[m]] for m in self.representatives]


def _oracle_product_matrix(oracle, a, b, c):
    cols = [oracle[c].reduce_vector({monomial_mul(u, v): Fraction(1)})
            for u in oracle[a].representatives
            for v in oracle[b].representatives]
    return [[col[i] for col in cols] for i in range(len(oracle[c].representatives))]


def _dense_ternary_quartic():
    ring = PolyRing.rationals(("x", "y", "z"))
    rng = random.Random(4)
    f = ring.zero()
    for m in enumerate_monomials(3, 4):
        f = f + ring.monomial(m, Fraction(rng.randrange(1, 10)))
    return jacobian.HypersurfaceRing(f)


def _cubic_surface():
    return jacobian.HypersurfaceRing(parse_poly(
        "x0^3 + x1^3 + x2^3 + x3^3 + x0*x1*x2 - 2*x1*x2*x3 + x0^2*x3", P3))


# the quintic's middle pairings reduce thousands of products against its
# 455-column socle slice on both routes, so only its outer degrees are paired
@pytest.mark.parametrize("form, pairing_degrees", [
    ("quintic_sym", (0, 1, 2, 10, 11, 12)),
    ("dense_ternary_quartic", range(7)),
    ("cubic_surface", range(5)),
])
def test_trivial_block_pieces_match_full_slice_reduction(form, pairing_degrees,
                                                         request):
    if form == "quintic_sym":
        hring = request.getfixturevalue(form)
    elif form == "dense_ternary_quartic":
        hring = _dense_ternary_quartic()
    else:
        hring = _cubic_surface()
    assert not hring.is_monomial_ideal
    sigma = hring.socle_degree
    rng = random.Random(sigma)
    oracle = {}
    for k in range(sigma + 2):
        oracle[k] = _FullSlicePiece(hring, k)
        piece = hring.piece(k)
        assert piece.representatives == oracle[k].representatives
        for _ in range(3):
            terms = {m: Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                     for m in rng.sample(piece.monomials,
                                         min(6, len(piece.monomials)))}
            assert piece.reduce_vector(terms) == oracle[k].reduce_vector(terms)
    assert oracle[sigma + 1].representatives == []
    assert len(oracle[sigma].representatives) == 1
    for c in range(1, sigma + 2):
        mmap = jacobian.multiplication_map(hring, 1, c - 1)
        assert map_matrix(mmap) == _oracle_product_matrix(oracle, 1, c - 1, c)
    for k in pairing_degrees:
        # the socle piece is one-dimensional: one product per (u, v) pair
        products = _oracle_product_matrix(oracle, k, sigma - k, sigma)[0]
        width = len(oracle[sigma - k].representatives)
        rows = [products[i:i + width] for i in range(0, len(products), width)]
        rank = len(fraction_rref(rows, width)[1])
        result = jacobian.macaulay_pairing_check(hring, k)
        assert (result.rank, result.ok) == (
            rank, rank == len(oracle[k].representatives))


# ------------------------------------------------ closed-form verdicts
#
# On a ring proven smooth in the step's own mode, the duality and
# multiplication checks answer in closed form; on any other ring the map
# is onto by generation in degree 1.  The computed route, the whole map
# ranked by ``oracles.is_surjective`` and ``macaulay_pairing_check`` on
# exact pieces, is the oracle: ranks, verdicts and modes must agree, apart from
# the mode ``GENERATED`` that a theorem on a ring not proven smooth
# declares (``_declared``).

GFP = 1000003


def _fields(result):
    return result.rank, result.full, result.mode


def _exact_duality(hring, a, b, prime):
    """The two halves of the duality argument at (a, b), on exact pieces."""
    return tuple(map(_fields, pieces_left_kernel_via_duality(hring, a, b,
                                                             prime)))


def _exact_map(hring, a, b, prime):
    return _fields(pieces_map_surjectivity(hring, a, b, prime))


def _declared(surjectivity, closed):
    """The oracle's surjectivity fields with the mode the step declares:
    unchanged on the closed form or a trivial target, ``GENERATED`` on
    any other ring, where no rank was taken."""
    if closed or not surjectivity[1]:
        return surjectivity
    return surjectivity[:2] + (jacobian.GENERATED,)


@pytest.mark.parametrize("form, pairs", [
    ("quintic_sym", [(0, 0), (0, 1), (1, 1), (3, 3), (2, 5), (6, 6), (10, 1),
                     (12, 0), (4, 8)]),
    ("rational_cubic", [(a, b) for a in range(4) for b in range(4 - a)]),
    ("dense_ternary_quartic", [(a, b) for a in range(7) for b in range(7 - a)]),
    ("cubic_surface", [(a, b) for a in range(5) for b in range(5 - a)]),
])
def test_closed_form_matches_the_exact_route(form, pairs, request):
    if form == "quintic_sym":
        hring = request.getfixturevalue(form)
    elif form == "rational_cubic":
        hring = jacobian.HypersurfaceRing(parse_poly(
            "1/2*x0^3 + 2/3*x1^3 + x2^3 - 5/7*x0*x1*x2", TERNARY))
    elif form == "dense_ternary_quartic":
        hring = _dense_ternary_quartic()
    else:
        hring = _cubic_surface()
    sigma = hring.socle_degree
    for prime in (GFP, None):
        for a, b in pairs:
            surj, pairing = jacobian.left_kernel_via_duality(hring, a, b,
                                                             prime=prime)
            assert pairing.route.startswith("closed form (Macaulay duality), ")
            assert (_fields(surj), _fields(pairing)) == (
                _exact_duality(hring, a, b, prime))
            assert surj and pairing
            mapped = jacobian.map_surjectivity(hring, sigma - a - b, b,
                                               prime=prime)
            assert mapped.route.startswith("closed form (generated in degree 1), ")
            assert _fields(mapped) == _exact_map(hring, sigma - a - b, b, prime)


def _cone_mod_p_surface(seed, p):
    """A seeded dense cubic in x0 x1 x2 plus a multiple of p times x3^3:
    smooth over Q, a cone mod p, where the partial in x3 vanishes."""
    rng = random.Random(seed)
    terms = [f"{rng.choice((-1, 1)) * rng.randint(1, 9)}*"
             + "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)
             for m in enumerate_monomials(3, 3)]
    terms.append(f"{p * rng.randint(1, 9)}*x3^3")
    return jacobian.HypersurfaceRing(parse_poly(" + ".join(terms), P3))


def test_a_coefficient_divisible_by_p_is_refused_by_the_gate():
    # proven smooth at the default prime, which does not divide a
    # coefficient; a step at p must not lean on that proof
    p = 1000033
    hring = _cone_mod_p_surface(5, p)
    sigma = hring.socle_degree
    assert hring.smoothness_certificate().certified
    assert not hring.smoothness_certificate(p).certified
    for a in range(sigma + 1):
        for b in range(sigma + 1 - a):
            surj, pairing = jacobian.left_kernel_via_duality(hring, a, b,
                                                             prime=p)
            assert pairing.route == f"exact pieces, ring not proven smooth at p={p}"
            want = _exact_duality(hring, a, b, p)
            assert (_fields(surj), _fields(pairing)) == (
                _declared(want[0], False), want[1])
            assert surj and pairing
            mapped = jacobian.map_surjectivity(hring, a, b, prime=p)
            # the dimensions read the closed form that the default prime
            # proves, and the theorem needs no prime
            assert mapped.route == (
                f"generated in degree 1, dimension by {hring.dimension_route()}"
                f", ring not proven smooth at p={p}")
            assert hring.dimension_route().startswith("closed form, ")
            assert _fields(mapped) == _declared(_exact_map(hring, a, b, p),
                                                False)
            _, at_default = jacobian.left_kernel_via_duality(hring, a, b,
                                                             prime=GFP)
            assert at_default.route.startswith("closed form (Macaulay duality), ")


def test_the_check_prime_proves_smoothness_the_default_prime_cannot():
    # a cone mod the default prime, so its certificate there falls short;
    # the check's own prime closes one, and the closed form answers
    p = 1000033
    hring = _cone_mod_p_surface(5, GFP)
    sigma = hring.socle_degree
    assert not hring.smoothness_certificate().certified
    surj, pairing = jacobian.left_kernel_via_duality(hring, 1, 1, prime=p)
    assert pairing.route == ("closed form (Macaulay duality), smooth at degree 5 "
                             f"(modular p={p}, 56x56 Macaulay rows of 80x56, "
                             "296 nonzeros, dense)")
    # the proof at p serves steps at p only: dimensions still eliminate,
    # and agree with the closed form the step at p read
    assert hring.smoothness_certificate(p).certified
    assert hring.dimension_route() == "elimination"
    assert jacobian.hilbert_function(hring) == (
        jacobian.complete_intersection_hilbert(hring.nvars, hring.degree))
    for a in range(sigma + 1):
        for b in range(sigma + 1 - a):
            surj, pairing = jacobian.left_kernel_via_duality(hring, a, b,
                                                             prime=p)
            assert pairing.route.startswith("closed form (Macaulay duality), ")
            assert (_fields(surj), _fields(pairing)) == (
                _exact_duality(hring, a, b, p))
            mapped = jacobian.map_surjectivity(hring, a, b, prime=p)
            assert mapped.route.startswith("closed form (generated in degree 1), ")
            assert _fields(mapped) == _exact_map(hring, a, b, p)


NODAL_CUBIC = "x0^3 + x1^3 + x0*x1*x2"


def test_closed_form_gate_refuses_unproven_rings(fermat_quartic):
    # the nodal cubic has a one-dimensional socle piece but degenerate
    # pairings, so the closed form would be wrong on it
    nodal = jacobian.HypersurfaceRing(parse_poly(NODAL_CUBIC, TERNARY))
    assert nodal.quotient_dim(3) == 1
    assert not jacobian.is_smooth_artinian(nodal, prime=None)
    for prime, where in ((GFP, f", ring not proven smooth at p={GFP}"),
                         (None, "")):
        for a, b in ((1, 1), (2, 0)):
            surj, pairing = jacobian.left_kernel_via_duality(nodal, a, b,
                                                             prime=prime)
            assert pairing.route == "exact pieces" + where
            assert not pairing
        assert jacobian.map_surjectivity(nodal, 1, 1, prime=prime).route == (
            "generated in degree 1, dimension by elimination" + where)
    # an exact step reads the certificate at the default prime; a
    # monomial ideal's is its monomial count
    cubic = _cubic_surface()
    for prime in (GFP, None):
        _, pairing = jacobian.left_kernel_via_duality(cubic, 1, 2, prime)
        assert pairing.route == (
            "closed form (Macaulay duality), smooth at degree 5 (modular "
            f"p={GFP}, 56x56 Macaulay rows of 80x56, 168 nonzeros, dense)")
    for prime in (GFP, None):
        surj, pairing = jacobian.left_kernel_via_duality(fermat_quartic, 1,
                                                         3, prime=prime)
        assert surj and pairing and pairing.route == (
            "closed form (Macaulay duality), smooth at degree 9 (monomial count)")


def _seed1_dense_quartic():
    _, _, text, _ = _load_dense_generator().generate(1)[0]
    return jacobian.HypersurfaceRing(
        parse_poly(parse_scenario(text).ring["poly"], P3))


def _proof(degree, rows, cols, nonzeros):
    return (f"closed form (Macaulay duality), smooth at degree {degree} "
            f"(modular p={GFP}, {cols}x{cols} Macaulay rows of {rows}x{cols}, "
            f"{nonzeros} nonzeros, dense)")


# an exact duality step reads the certificate at the default prime, so it
# answers alike alone, before an exact smoothness step and after one
@pytest.mark.parametrize("make, a, b, route", [
    (_cubic_surface, 1, 2, _proof(5, 80, 56, 168)),
    (_seed1_dense_quartic, 3, 3, _proof(9, 336, 220, 4400)),
    (lambda: jacobian.HypersurfaceRing(parse_poly(NODAL_CUBIC, TERNARY)), 1, 1,
     "exact pieces"),
], ids=["cubic-surface", "dense-quartic-seed-1", "nodal-cubic"])
def test_the_exact_gate_does_not_depend_on_check_order(make, a, b, route):
    def duality(hring):
        surj, pairing = jacobian.left_kernel_via_duality(hring, a, b)
        return (pairing.route, surj.ok and pairing.ok, _fields(surj),
                _fields(pairing))

    alone = duality(make())
    first = make()
    before = duality(first)
    smooth = jacobian.is_smooth_artinian(first, prime=None)
    after = make()
    assert jacobian.is_smooth_artinian(after, prime=None).ok == smooth.ok
    assert alone == before == duality(after)
    assert alone[0] == route and alone[1] == smooth.ok


@pytest.mark.parametrize("form", ["fermat_quartic", "cubic_surface", "nodal"])
def test_a_bad_prime_is_refused_on_every_route(form, request):
    if form == "fermat_quartic":
        hring = request.getfixturevalue(form)
    elif form == "cubic_surface":
        hring = _cubic_surface()
    else:
        hring = jacobian.HypersurfaceRing(parse_poly(NODAL_CUBIC, TERNARY))
    sigma = hring.socle_degree
    for prime in (1, 4, 561, modrank.MAX_PRIME + 1):
        # R_(2 sigma) = 0, so the map has a trivial target
        with pytest.raises(modrank.BadPrime):
            jacobian.map_surjectivity(hring, sigma, sigma, prime=prime)
        with pytest.raises(modrank.BadPrime):
            jacobian.map_surjectivity(hring, 1, 1, prime=prime)
        with pytest.raises(modrank.BadPrime):
            jacobian.left_kernel_via_duality(hring, 1, 1, prime=prime)


def test_a_bad_prime_is_refused_before_a_trivial_shortcut(fermat_quartic):
    # R_10 = 0, so the map has a trivial target; R_9 = 0, and the pairing
    # at degree 9 would stop at R_(-1) without a gate
    sigma = fermat_quartic.socle_degree
    mmap = jacobian.multiplication_map(fermat_quartic, 5, 5)
    assert mmap.target_dim == 0
    matrix = map_matrix(mmap)
    assert is_surjective(matrix, 0, prime=GFP).mode == "trivial"
    for prime in (1, 4, 561, modrank.MAX_PRIME + 1):
        with pytest.raises(modrank.BadPrime):
            is_surjective(matrix, 0, prime=prime)
        for k in (0, 1, sigma + 1):
            with pytest.raises(modrank.BadPrime):
                jacobian.macaulay_pairing_check(fermat_quartic, k, prime=prime)
        # the shared rank helper gates its prime itself, whatever the caller did
        with pytest.raises(modrank.BadPrime):
            jacobian._rank([[1, 2], [3, 4]], 2, prime)


@pytest.mark.parametrize("prime", [None, GFP])
def test_negative_degrees_are_refused(fermat_quartic, prime):
    cubic = _cubic_surface()
    for hring in (fermat_quartic, cubic):
        for a, b in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                jacobian.map_surjectivity(hring, a, b, prime=prime)
            with pytest.raises(ValueError, match="nonnegative"):
                jacobian.left_kernel_via_duality(hring, a, b, prime=prime)
        # a pairing degree outside 0..sigma names both degrees
        sigma = hring.socle_degree
        for k in (-1, sigma + 1):
            with pytest.raises(ValueError, match=(
                    rf"nonnegative, got \({k}, {sigma - k}\)$")):
                jacobian.macaulay_pairing_check(hring, k, prime=prime)


def _plane_curve(degree, singular, coeffs):
    """A ternary form with the given coefficients, in canonical monomial
    order, as text.  ``singular`` drops the terms z^d, x*z^(d-1) and
    y*z^(d-1), which makes the curve singular at (0:0:1)."""
    terms = [f"{c}*" + "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)
             for m, c in zip(enumerate_monomials(3, degree), coeffs)
             if c and not (singular and m[2] >= degree - 1)]
    assume(terms)
    return " + ".join(terms)


@pytest.mark.parametrize("degree, singular", [(3, False), (3, True),
                                              (4, False), (4, True)])
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=15, max_size=15))
@example(coeffs=[1, 0, 0, 1, 0, 1] + [0] * 9)  # the nodal cubic
def test_closed_form_verdicts_match_exact_pieces_on_plane_curves(
        degree, singular, coeffs):
    text = _plane_curve(degree, singular, coeffs)
    hring = jacobian.HypersurfaceRing(parse_poly(text, TERNARY))
    sigma = hring.socle_degree
    smooth = jacobian.is_smooth_artinian(hring, prime=None).ok
    for prime in (GFP, None):
        for a in range(sigma + 1):
            for b in range(sigma + 1 - a):
                try:
                    want = _exact_duality(hring, a, b, prime)
                except jacobian.SocleNotOneDimensional:
                    assert not smooth
                    with pytest.raises(jacobian.SocleNotOneDimensional):
                        jacobian.left_kernel_via_duality(hring, a, b, prime=prime)
                    continue
                surj, pairing = jacobian.left_kernel_via_duality(
                    hring, a, b, prime=prime)
                closed = pairing.route.startswith("closed form")
                assert closed <= smooth and (prime is not None or closed == smooth)
                assert (_fields(surj), _fields(pairing)) == (
                    _declared(want[0], closed), want[1])
            for b in range(sigma + 2 - a):
                mapped = jacobian.map_surjectivity(hring, a, b, prime=prime)
                closed = mapped.route.startswith("closed form")
                assert _fields(mapped) == _declared(
                    _exact_map(hring, a, b, prime), closed)


# ------------------------------------------------ the verified lift
#
# Pieces of non-monomial rings are lifted from echelon forms mod p and
# verified by A * N = 0.  The character blocks eliminated over Q
# (``oracles.block_pieces``) are the oracle: representatives and every
# normal form must agree at every degree through sigma + 1.  The cone and
# the binary cubic have monomial ideals, and check that route against
# the same oracle.

def _ring(text, ring):
    return lambda: jacobian.HypersurfaceRing(parse_poly(text, ring))


# ``blocks``: a diagonal automorphism of the form, whose character blocks
# split the oracle's elimination (default: one block), which keeps it fast
@pytest.mark.parametrize("make, blocks", [
    (_ring(SHIODA, P3), SHIODA_SYMMETRY),
    (_dense_ternary_quartic, None),
    (_cubic_surface, None),
    (_ring("1/2*x0^3 + 2/3*x1^3 + x2^3 - 5/7*x0*x1*x2", TERNARY), None),
    (_ring("x0^4", P3), None),
    (_ring("x0^3 + x1^3", TERNARY), None),
    (_ring(NODAL_CUBIC, TERNARY), ((1, 1, 1), 3)),
], ids=["shioda", "dense-ternary-quartic", "cubic-surface", "rational",
        "cone", "binary-cubic", "nodal-cubic"])
def test_lifted_pieces_match_the_character_blocks(make, blocks):
    hring = make()
    for k in range(hring.socle_degree + 2):
        piece = hring.piece(k)
        representatives, forms = block_pieces(hring, k, blocks)
        assert piece.representatives == representatives
        assert piece.normal_forms == forms
        assert all(type(x) is int or x.denominator != 1
                   for form in piece.normal_forms for x in form)


def test_a_lift_that_fails_its_check_takes_another_prime(monkeypatch):
    # mod the first lift prime p the form is the Fermat cubic, whose
    # slices have other pivots and normal forms: the first lift passes
    # reconstruction but fails A * N = 0, so the lift goes on to the next
    # prime, which restarts it
    p = next(exactla._lift_primes())
    hring = jacobian.HypersurfaceRing(
        parse_poly(f"x0^3 + x1^3 + x2^3 + {p}*x0*x1*x2", TERNARY))
    primes = []
    echelon_mod = modrank.echelon_mod

    def counting(matrix, prime):
        primes.append(prime)
        return echelon_mod(matrix, prime)

    monkeypatch.setattr(modrank, "echelon_mod", counting)
    for k in range(hring.socle_degree + 2):
        primes.clear()
        piece = hring.piece(k)
        representatives, forms = block_pieces(hring, k)
        assert (piece.representatives, piece.normal_forms) == (
            representatives, forms)
        if k == 2:
            assert primes[0] == p and len(primes) > 1


# ------------------------------------------------ Macaulay's square rows
#
# Above the socle degree every monomial M has some x_i^(d-1) dividing it,
# and the rows (M / x_i^(d-1)) * dF/dx_i, i the first such index, form a
# square submatrix of the slice (Macaulay 1902).  A full rank mod p on it
# proves the full rank of the whole slice, so the certificate must be the
# one the whole slice gives, whichever rows closed it.

KLEIN_TYPE = "x0^3*x1 + x1^3*x2 + x2^3*x0 + x3^4 + x0*x1*x2*x3"
SINGULAR_QUARTIC = "(x0 + x1 + x2)^4 + x3^4"


def _square_rows(hring, k, p, matching=None):
    return hring.span_array(k, p)[macaulay_rows(hring, k, matching)]


def _whole_slice_certificate(hring, p):
    k = hring.socle_degree + 1
    _, cols = hring._slice_shape(k)
    rank = modrank.rank_mod(hring.span_array(k, p), p)
    return exactla.RankCertificate(p, rank, cols)


_MACAULAY_RINGS = [
    (KLEIN_TYPE, P3),
    (SINGULAR_QUARTIC, P3),
    ("x0^5 + x1^5 + x2^5 + x3^5 + x0*x1*x2*x3^2", P3),
    ("x0^3 + x1^3 + x2^3 + 2*x0*x1*x2", TERNARY),
    ("x0^2*x1 + x1^2*x2", TERNARY),
]


@pytest.mark.parametrize("text, ring", _MACAULAY_RINGS)
def test_macaulay_rows_are_a_square_set_of_distinct_slice_rows(text, ring):
    hring = jacobian.HypersurfaceRing(parse_poly(text, ring))
    e = hring.degree - 1
    for k in range(hring.socle_degree + 1, hring.socle_degree + 3):
        monos = enumerate_monomials(hring.nvars, k)
        src = enumerate_monomials(hring.nvars, k - e)
        rows = macaulay_rows(hring, k)
        assert len(rows) == len(set(rows)) == len(monos)
        for m, r in zip(monos, rows):
            s, i = divmod(r, hring.nvars)
            # the row is M / x_i^(d-1) times the i-th partial, with i the
            # first index whose x_i^(d-1) divides M
            assert monomial_mul(src[s], tuple(e * (j == i) for j in
                                              range(hring.nvars))) == m
            assert all(x < e for x in m[:i])


@pytest.mark.parametrize("text, ring", _MACAULAY_RINGS)
def test_square_rows_built_alone_are_those_of_the_whole_slice(text, ring):
    # at 2 some partial's coefficient vanishes mod p, so the builder must
    # drop the same terms as the whole slice does; rows are built for the
    # identity, which any ring can be handed, and for the ring's matching
    hring = jacobian.HypersurfaceRing(parse_poly(text, ring))
    assert any(c % 2 == 0 for part in hring._int_partials for _, c in part)
    for k, p in product(range(hring.socle_degree + 1, hring.socle_degree + 3),
                        (GFP, 2)):
        for matching in {tuple(range(hring.nvars)), hring._matching(p)} - {None}:
            index = macaulay_rows(hring, k, matching)
            rows, nonzeros = hring._square_rows(k, p, matching)
            if hring._slice_kernel(k, p) == "sparse":
                whole = hring.span_sparse(k, p)
                assert rows == [whole[r] for r in index]
                assert nonzeros == sum(len(row) for row in rows)
            else:
                square = hring.span_array(k, p)[index]
                assert rows.dtype == np.int64
                assert rows.tolist() == square.tolist()
                assert nonzeros == np.count_nonzero(square)


# every dict-row slice is built on integer monomial codes; the tuple
# builder it replaced is the oracle, on the whole slice over Z and mod p
# and on Macaulay's square rows, which are built as dict rows here even
# where the slice's kernel is the dense one
CONE = "x0*x1^4 + x1*x2^4 + x2*x0^4 + x3^4*x0"


@pytest.mark.parametrize("make", [
    *[lambda text=text, ring=ring: jacobian.HypersurfaceRing(
        parse_poly(text, ring)) for text, ring in _MACAULAY_RINGS],
    lambda: jacobian.HypersurfaceRing(parse_poly(SHIODA, P3)),
    lambda: jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 - x2^4 - x3^4", P3)),
    _seed1_dense_quartic,
    lambda: jacobian.HypersurfaceRing(parse_poly(CONE, P3)),
], ids=[*[f"macaulay-{i}" for i in range(len(_MACAULAY_RINGS))], "shioda",
        "quartic-family", "dense-quartic-seed-1", "cone"])
def test_code_indexed_dict_rows_are_those_of_the_tuple_builder(make,
                                                               monkeypatch):
    hring = make()
    n, e = hring.nvars, hring.degree - 1
    monkeypatch.setattr(hring, "_slice_kernel", lambda k, p: "sparse")
    for k in range(hring.socle_degree + 3):
        monos, src = enumerate_monomials(n, k), hring._sources(k)
        sources = [(m, i) for m in src for i in range(n)]
        assert hring._slice_dict_rows(
            k, monos, src, hring._int_partials) == tuple_dict_rows(
                hring, k, sources, hring._int_partials)
        for p in (2, 3, GFP, 3037000493):
            parts = hring._terms_mod(p)
            assert hring.span_sparse(k, p) == tuple_dict_rows(
                hring, k, sources, parts)
            if k <= hring.socle_degree:
                continue
            for matching in {tuple(range(n)), hring._matching(p)} - {None}:
                square = []
                for m in monos:
                    j = next(j for j in range(n) if m[j] >= e)
                    square.append((m[:j] + (m[j] - e,) + m[j + 1:],
                                   matching[j]))
                rows, _ = hring._square_rows(k, p, matching)
                assert rows == tuple_dict_rows(hring, k, square, parts)


def test_the_sparse_kernel_inverts_only_the_pivots_that_reduce(monkeypatch):
    # a pivot row is kept unscaled and inverted the first time it reduces
    # a row: on shioda's 560 square rows 197 pivots do, where scaling
    # every pivot row as it was found took 560 inversions
    hring = jacobian.HypersurfaceRing(parse_poly(SHIODA, P3))
    rows, _ = hring._square_rows(13, GFP, hring._matching(GFP))
    assert len(rows) == 560
    modrank.require_prime(GFP)  # gated first: the gate's pow is not counted
    calls = []

    def counting_pow(*args):
        calls.append(args[1:])
        return pow(*args)

    monkeypatch.setattr(modrank, "pow", counting_pow, raising=False)
    assert modrank.rank_mod(rows, GFP) == 560
    assert calls == [(GFP - 2, GFP)] * 197


def test_a_route_line_names_the_square_rows_that_closed_it(monkeypatch):
    p = GFP
    for text, kernel in (("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", "dense"),
                         ("x0^5 + x1^5 + x2^5 + x3^5 + x0*x1*x2*x3^2",
                          "sparse")):
        hring = jacobian.HypersurfaceRing(parse_poly(text, P3))
        k = hring.socle_degree + 1
        rows, cols = hring._slice_shape(k)
        assert hring.smoothness_certificate(p).certified
        square = np.count_nonzero(_square_rows(hring, k, p))
        assert hring.dimension_route() == (
            f"closed form, smooth at degree {k} (modular p={p}, {cols}x{cols} "
            f"Macaulay rows of {rows}x{cols}, {square} nonzeros, {kernel})")
    # shioda has no x0^4 in dF/dx0, but x0^4 in dF/dx2, x1^4 in dF/dx0 and
    # x2^4 in dF/dx1: it closes on its matched square rows alone
    shapes = []
    modular_rank = exactla.modular_rank

    def recording(matrix, prime, upper_bound=None):
        shapes.append(len(matrix))
        return modular_rank(matrix, prime, upper_bound=upper_bound)

    monkeypatch.setattr(exactla, "modular_rank", recording)
    hring = _shioda_ring()
    assert hring._matching(GFP) == (2, 0, 1, 3)
    assert hring.dimension_route() == (
        "closed form, smooth at degree 13 (modular p=1000003, 560x560 "
        "Macaulay rows of 880x560, 1056 nonzeros, sparse)")
    assert shapes == [560]
    square = _square_rows(hring, 13, GFP, (2, 0, 1, 3))
    assert np.count_nonzero(square) == 1056


def test_square_rows_that_fall_short_leave_the_whole_slice_to_decide(
        monkeypatch):
    # the Klein-type quartic has no pure powers x0^3, x1^3, x2^3 in their
    # own partials, so its identity square rows are singular; it closes
    # on its matched rows.  Forced onto the identity rows, the ring is
    # still proven smooth, by the whole slice
    hring = jacobian.HypersurfaceRing(parse_poly(KLEIN_TYPE, P3))
    k = hring.socle_degree + 1
    assert hring._matching(GFP) == (1, 2, 0, 3)
    assert modrank.rank_mod(_square_rows(hring, k, GFP), GFP) == 203
    matched = _square_rows(hring, k, GFP, (1, 2, 0, 3))
    assert modrank.rank_mod(matched, GFP) == 220
    assert hring.smoothness_certificate().certified
    assert hring.dimension_route() == (
        f"closed form, smooth at degree 9 (modular p={GFP}, 220x220 Macaulay "
        f"rows of 336x220, {np.count_nonzero(matched)} nonzeros, dense)")
    route = ("closed form, smooth at degree 9 "
             f"(modular p={GFP}, 336x220, {hring._slice_nonzeros(k, GFP)} "
             "nonzeros, dense)")
    monkeypatch.setattr(jacobian.HypersurfaceRing, "_matching",
                        lambda self, p: tuple(range(self.nvars)))
    forced = jacobian.HypersurfaceRing(parse_poly(KLEIN_TYPE, P3))
    cert = forced.smoothness_certificate()
    assert (cert.rank, cert.upper_bound, cert.certified) == (220, 220, True)
    assert forced.ideal_rank(k) == 220
    assert forced.dimension_route() == route


def test_a_singular_quartic_with_every_pure_power_is_not_certified():
    hring = jacobian.HypersurfaceRing(parse_poly(SINGULAR_QUARTIC, P3))
    k = hring.socle_degree + 1
    assert hring._matching(GFP) == (0, 1, 2, 3)
    assert modrank.rank_mod(_square_rows(hring, k, GFP), GFP) == 111
    cert = hring.smoothness_certificate()
    assert (cert.rank, cert.upper_bound, cert.certified) == (148, 220, False)
    assert hring.ideal_rank(k) == 148
    assert hring.dimension_route() == "elimination"
    assert not jacobian.is_smooth_artinian(hring, prime=None)


def _load_dense_generator():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "dense.py"
    spec = importlib.util.spec_from_file_location("perfbench_dense", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_generic_forms_close_on_their_square_rows(seed):
    # the benchmark's dense generic quartic and quintic: each hilbert step
    # reads the closed form proven on Macaulay's square rows
    for _, degree, text, _ in _load_dense_generator().generate(seed):
        report = run_scenario(parse_scenario(text))
        assert report.exit_code == 0
        rows, cols = {4: (336, 220), 5: (880, 560)}[degree]
        assert (f"(modular p={GFP}, {cols}x{cols} Macaulay rows of "
                f"{rows}x{cols}, ") in report.steps[1].route


@pytest.mark.parametrize("index, order", [
    (1, ("smooth", "hilbert", "ring_dim", "duality")),
    (0, ("duality", "smooth", "hilbert", "ring_dim")),
], ids=["quintic-smooth-first", "quartic-duality-first"])
def test_each_slice_is_eliminated_once_per_prime(monkeypatch, index, order):
    # on the seed-1 dense generic forms an exact smoothness step, the
    # Hilbert table, a dimension and a duality step without a prime share
    # every elimination of one ring: the degree-(sigma+1) rank at the
    # default prime is made once, whichever step asks first, and the lift
    # of an exact piece eliminates each of its degrees once per prime.
    # Only slices are counted, by their
    # columns: the exact ranks of the pairing matrices are eliminated too.
    eliminations = Counter()
    slices = {}  # id -> (slice, columns); holding a slice keeps its id
    rank_mod, echelon_mod = modrank.rank_mod, modrank.echelon_mod
    gfp_slice = jacobian.HypersurfaceRing._gfp_slice
    square_rows = jacobian.HypersurfaceRing._square_rows

    def tagged_slice(self, k, p):
        matrix = gfp_slice(self, k, p)
        slices[id(matrix)] = (matrix, self._slice_shape(k)[1])
        return matrix

    def tagged_square_rows(self, k, p, matching):
        matrix, nonzeros = square_rows(self, k, p, matching)
        slices[id(matrix)] = (matrix, self._slice_shape(k)[1])
        return matrix, nonzeros

    def count(matrix, p):
        if id(matrix) in slices:
            eliminations[slices[id(matrix)][1], p] += 1

    def counting_rank(matrix, p=modrank.DEFAULT_PRIME):
        count(matrix, p)
        return rank_mod(matrix, p)

    def counting_echelon(matrix, p=modrank.DEFAULT_PRIME):
        count(matrix, p)
        return echelon_mod(matrix, p)

    monkeypatch.setattr(modrank, "rank_mod", counting_rank)
    monkeypatch.setattr(modrank, "echelon_mod", counting_echelon)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "_gfp_slice", tagged_slice)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "_square_rows",
                        tagged_square_rows)
    _, degree, text, _ = _load_dense_generator().generate(1)[index]
    table = jacobian.complete_intersection_hilbert(4, degree)
    a = (len(table) - 1) // 4  # a quarter of the socle degree
    checks = {
        "smooth": "check smooth mode=exact cite=c",
        "hilbert": f'check hilbert expect="{" ".join(map(str, table))}" cite=c',
        "ring_dim": "check ring_dim degree=3 cite=c",
        "duality": f"check duality a={a} b={a} cite=c",
    }
    head, _, _ = text.partition("[checks]\n")
    report = run_scenario(parse_scenario(
        head + "[checks]\n" + "".join(checks[c] + "\n" for c in order)))
    assert report.exit_code == 0
    cols = len(enumerate_monomials(4, len(table)))
    assert eliminations[cols, GFP] == 1
    assert max(eliminations.values()) == 1
    if order[0] == "smooth":
        assert eliminations == Counter({(cols, GFP): 1})


_SQUARE_SHAPES = [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5)]
_SQUARE_PRIMES = [GFP, GFP, 1000033, 2, 3, 5, 7]


@st.composite
def _certificate_forms(draw):
    """(form, prime): a sparse form in 3-4 variables of degree 3-5.

    Coefficients are small integers, fractions or multiples of p.  A
    generic form keeps most pure powers x_i^d and adds a few mixed terms;
    a cone drops every term in the last variable; a double form is
    (x0 + c*x1)^d plus the pure powers of the other variables, singular
    with every pure power present."""
    nvars, degree = draw(st.sampled_from(_SQUARE_SHAPES))
    p = draw(st.sampled_from(_SQUARE_PRIMES))
    ring = TERNARY if nvars == 3 else P3
    nonzero = st.integers(-9, 9).filter(bool)

    def coefficient():
        kind = draw(st.sampled_from(["int"] * 4 + ["fraction", "p"]))
        if kind == "fraction":
            return Fraction(draw(nonzero), draw(st.integers(2, 6)))
        return draw(nonzero) * (p if kind == "p" else 1)

    monos = enumerate_monomials(nvars, degree)
    pure = [m for m in monos if max(m) == degree]
    mixed = [m for m in monos if max(m) < degree]
    shape = draw(st.sampled_from(["generic", "generic", "cone", "double"]))
    if shape == "double":
        f = parse_poly(f"(x0 + {draw(nonzero)}*x1)^{degree}", ring)
        chosen = pure[2:]
    else:
        f = ring.zero()
        chosen = [m for m in pure if draw(st.integers(0, 5))]
        chosen += draw(st.lists(st.sampled_from(mixed), min_size=1,
                                max_size=5, unique=True))
        if shape == "cone":
            chosen = [m for m in chosen if not m[-1]]
    for m in chosen:
        f = f + ring.monomial(m, coefficient())
    return f, p


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_certificate_forms())
def test_the_certificate_is_that_of_the_whole_slice(form):
    f, p = form
    assume(not f.is_zero())
    hring = jacobian.HypersurfaceRing(f)
    assume(not hring.is_monomial_ideal)
    k = hring.socle_degree + 1
    cert = hring.smoothness_certificate(p)
    whole = _whole_slice_certificate(hring, p)
    assert (cert.prime, cert.rank, cert.upper_bound, cert.certified) == (
        whole.prime, whole.rank, whole.upper_bound, whole.certified)
    # a route line names the square rows only when they have full rank
    _, cols = hring._slice_shape(k)
    matching = hring._matching(p)
    square = (matching is not None and
              modrank.rank_mod(_square_rows(hring, k, p, matching), p) == cols)
    assert ((k, p) in hring._macaulay_closed) == square
    if cert.certified:
        assert ("Macaulay rows" in hring._proof_route(cert)) == square


_MATCHING_PRIMES = [2, 3, GFP, 3037000493]


@st.composite
def _permuted_forms(draw):
    """(form, prime, tau): sum a_j * x_tau(j) * x_j^(d-1) over x0..x3 for a
    permutation tau and d in 3..5, so that the pure power x_j^(d-1) lies
    in dF/dx_tau(j), plus a few other terms.  Coefficients are small
    integers, fractions or multiples of p.  A singular form has the
    coefficients of the permuted terms corrected so that every dF/dx_i
    vanishes at (1 : 1 : 1 : 1); their exponent matrix is (d-1)*I plus a
    permutation matrix, which is invertible."""
    degree = draw(st.integers(3, 5))
    tau = tuple(draw(st.permutations(range(4))))
    p = draw(st.sampled_from(_MATCHING_PRIMES))
    nonzero = st.integers(-9, 9).filter(bool)

    def coefficient():
        kind = draw(st.sampled_from(["int"] * 8 + ["fraction", "p"]))
        if kind == "fraction":
            return Fraction(draw(nonzero), draw(st.integers(2, 6)))
        return draw(nonzero) * (p if kind == "p" else 1)

    permuted = [tuple((degree - 1) * (i == j) + (i == tau[j]) for i in range(4))
                for j in range(4)]
    terms = {m: coefficient() for m in permuted}
    for m in draw(st.lists(st.sampled_from(enumerate_monomials(4, degree)),
                           max_size=4, unique=True)):
        terms[m] = terms.get(m, 0) + coefficient()
    if draw(st.booleans()):
        # dF/dx_i at (1 : 1 : 1 : 1) is the sum of c * m[i] over the terms
        slopes = [sum(c * m[i] for m, c in terms.items()) for i in range(4)]
        rows, _ = fraction_rref([[m[i] for m in permuted] + [-slopes[i]]
                                 for i in range(4)], 4)
        for m, row in zip(permuted, rows):
            terms[m] += row[4]
    f = P3.zero()
    for m, c in terms.items():
        f = f + P3.monomial(m, c)
    return f, p, tau


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_permuted_forms())
@example((parse_poly("x0*x1^4 + x1*x2^4 + x2*x0^4 + x3^5", P3), GFP,
          (2, 0, 1, 3)))
@example((parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x1*x0^3 "
                    "+ x2*x3^3 + x3*x2^3", P3), GFP, (0, 1, 2, 3)))
def test_matched_rows_certify_exactly_when_the_whole_slice_does(form):
    f, p, tau = form
    assume(not f.is_zero())
    hring = jacobian.HypersurfaceRing(f)
    assume(not hring.is_monomial_ideal)
    k, e = hring.socle_degree + 1, hring.degree - 1
    _, cols = hring._slice_shape(k)
    # the old route, kept as the oracle: the whole slice's rank mod p
    whole = modrank.rank_mod(hring._gfp_slice(k, p), p) == cols
    assert hring.smoothness_certificate(p).certified == whole
    # powers[i]: the j whose x_j^(d-1) is a term of dF/dx_i nonzero mod p
    powers = [{j for j in range(4) for x, c in part if x[j] == e and c % p}
              for part in hring._int_partials]
    matching = hring._matching(p)
    if all(j in powers[tau[j]] for j in range(4)):
        assert matching is not None
    if all(j in powers[j] for j in range(4)):
        assert matching == (0, 1, 2, 3)
    if matching is None:
        return
    assert sorted(matching) == [0, 1, 2, 3]
    assert all(j in powers[matching[j]] for j in range(4))
    # every matched row is a row of the whole slice, and no row twice
    index = macaulay_rows(hring, k, matching)
    assert len(set(index)) == cols
    rows, _ = hring._square_rows(k, p, matching)
    if not isinstance(rows, list):
        rows = [{c: int(x) for c, x in enumerate(row) if x} for row in rows]
    slice_rows = hring.span_sparse(k, p)
    assert rows == [slice_rows[r] for r in index]


# ------------------------------------------------ one answer type
#
# Every Jacobian step answers with ``jacobian.Rank``, which carries the
# proof the step held: a certificate, a piece or a theorem.  Each passing
# step of both bundled scenarios, and one of each kind on the seed-1
# dense quartic, must hold one.

JACOBIAN_ANSWERS = ("is_smooth_artinian", "map_surjectivity",
                    "left_kernel_via_duality", "functional_kernel_map")
JACOBIAN_STEPS = {"smooth", "ring_map", "duality", "no_left_kernel",
                  "green_gotzmann"}


def _scenario_text(name):
    path = Path(jacobian.__file__).resolve().parent / "scenarios" / name
    return path.read_text(encoding="utf-8")


def _dense_quartic_steps():
    _, _, text, _ = _load_dense_generator().generate(1)[0]
    return text + (
        "check smooth mode=exact cite=c\n"
        "check ring_map a=2 b=1 cite=c\n"
        "check ring_map a=2 b=1 prime=1000003 cite=c\n"
        "check duality a=1 b=3 cite=c\n"
        "check no_left_kernel a=3 b=3 prime=1000003 cite=c\n"
        "check green_gotzmann g=\"x0^2*x1^2\" b=3 expect_rank=4 cite=c\n")


@pytest.mark.parametrize("text", [
    lambda: _scenario_text("shioda.scn"),
    lambda: _scenario_text("quartic_family.scn"),
    _dense_quartic_steps,
], ids=["shioda", "quartic-family", "dense-quartic-seed-1"])
def test_every_passing_jacobian_step_carries_its_proof(text, monkeypatch):
    answers = []
    for name in JACOBIAN_ANSWERS:
        def recording(*args, _answer=getattr(jacobian, name), **kwargs):
            answers.append(_answer(*args, **kwargs))
            return answers[-1]

        monkeypatch.setattr(jacobian, name, recording)
    scn = parse_scenario(text())
    ctx = ScenarioContext(scn)
    kinds = set()
    for spec in scn.checks:
        answers.clear()
        step = run_check(ctx, spec)
        if spec.kind not in JACOBIAN_STEPS:
            continue
        assert step.passed, (spec.kind, spec.attrs)
        kinds.add(spec.kind)
        (answer,) = answers
        ranks = [answer] if isinstance(answer, jacobian.Rank) else [
            x for x in answer if isinstance(x, jacobian.Rank)]
        assert ranks and all(ranks)
        for rank in ranks:
            assert isinstance(rank.proof, (exactla.RankCertificate,
                                           jacobian.GradedPiece)) or (
                rank.proof in (jacobian.DEGREE_ONE, jacobian.GORENSTEIN,
                               jacobian.CLOSED_FORM)), (spec.kind, rank)
    assert kinds == (JACOBIAN_STEPS if "dense" in scn.name else
                     {spec.kind for spec in scn.checks} & JACOBIAN_STEPS)


# ------------------------------------------------ one prime contract
#
# ``prime=None`` is the exact route in every entry point that takes a
# prime, and any other value passes ``_check_step``'s gate before any
# route is taken.

SMOOTH_CUBIC = "x0^3 + x1^3 + x2^3 + x0*x1*x2"
PRIME_ENTRY_POINTS = {
    "is_smooth_artinian": lambda hring, p: jacobian.is_smooth_artinian(
        hring, prime=p),
    "smoothness_certificate": lambda hring, p: hring.smoothness_certificate(p),
    "map_surjectivity": lambda hring, p: jacobian.map_surjectivity(
        hring, 1, 1, prime=p),
    "macaulay_pairing_check": lambda hring, p: jacobian.macaulay_pairing_check(
        hring, 1, prime=p),
    "left_kernel_via_duality": lambda hring, p: (
        jacobian.left_kernel_via_duality(hring, 1, 1, prime=p)),
}


def test_exact_smoothness_answers_as_the_exact_smooth_step():
    hring = jacobian.HypersurfaceRing(parse_poly(SMOOTH_CUBIC, TERNARY))
    result = jacobian.is_smooth_artinian(hring, prime=None)
    assert (result.rank, result.full, result.mode) == (15, 15, "exact")
    assert result.proof is hring.smoothness_certificate(None)
    report = run_scenario(parse_scenario(
        "[scenario]\nname = cubic\n[ring]\nvariables = x0 x1 x2\n"
        f"poly = {SMOOTH_CUBIC}\n[checks]\ncheck smooth mode=exact cite=c\n"))
    (step,) = report.steps
    assert step.values == {"smooth": True, "mode": "exact",
                           "checked_degree": 4, "dimension": 0}


def test_the_exact_certificate_closes_only_on_a_smooth_ring():
    smooth = jacobian.HypersurfaceRing(parse_poly(SMOOTH_CUBIC, TERNARY))
    nodal = jacobian.HypersurfaceRing(parse_poly(NODAL_CUBIC, TERNARY))
    for hring, rank in ((smooth, 15), (nodal, 14)):
        cert = hring.smoothness_certificate(None)
        assert (cert.prime, cert.rank, cert.upper_bound, cert.certified) == (
            None, rank, 15, rank == 15)
        assert hring.smoothness_certificate(None) is cert


@pytest.mark.parametrize("entry", sorted(PRIME_ENTRY_POINTS))
@pytest.mark.parametrize("form", [SMOOTH_CUBIC, NODAL_CUBIC,
                                  "x0^3 + x1^3 + x2^3"],
                         ids=["smooth", "nodal", "monomial"])
def test_a_bad_modulus_is_refused_before_any_route(entry, form, monkeypatch):
    built = []
    ring = jacobian.HypersurfaceRing
    full_rank, piece = ring._full_rank, ring.piece
    monkeypatch.setattr(ring, "_full_rank", lambda self, k, p: (
        built.append(("rank", k, p)) or full_rank(self, k, p)))
    monkeypatch.setattr(ring, "piece", lambda self, k: (
        built.append(("piece", k)) or piece(self, k)))
    for prime in (4, 0, 1, modrank.MAX_PRIME + 1):
        hring = ring(parse_poly(form, TERNARY))
        with pytest.raises(modrank.BadPrime):
            PRIME_ENTRY_POINTS[entry](hring, prime)
        assert built == [] and not hring._ranks and not hring._pieces


def _rank_over_q(matrix):
    return len(fraction_rref(matrix, len(matrix[0]) if matrix else 0)[1])


def _pairing_over_q(hring, k):
    top = hring.piece(hring.socle_degree)
    pa, pb = hring.piece(k), hring.piece(hring.socle_degree - k)
    return _rank_over_q([[top.reduce_vector({monomial_mul(u, v): 1})[0]
                          for v in pb.representatives]
                         for u in pa.representatives])


@pytest.mark.parametrize("form", [SMOOTH_CUBIC, NODAL_CUBIC,
                                  "x0^3 + x1^3 + x2^3"],
                         ids=["smooth", "nodal", "monomial"])
def test_no_prime_is_the_exact_route_in_every_entry_point(form):
    hring = jacobian.HypersurfaceRing(parse_poly(form, TERNARY))
    answers = {name: entry(hring, None)
               for name, entry in PRIME_ENTRY_POINTS.items()}
    rows, monos, _ = hring.span_rows(4)
    slice_rank = _rank_over_q(rows)
    cert = answers["smoothness_certificate"]
    assert (cert.prime, cert.rank, cert.upper_bound) == (None, slice_rank, 15)
    smooth = answers["is_smooth_artinian"]
    assert (smooth.rank, smooth.full) == (slice_rank, len(monos))
    surj = answers["map_surjectivity"]
    assert (surj.rank, surj.full) == (_rank_over_q(WholeMap(hring, 1, 1).matrix),
                                      hring.quotient_dim(2))
    pairing = answers["macaulay_pairing_check"]
    assert (pairing.rank, pairing.full) == (_pairing_over_q(hring, 1),
                                            hring.quotient_dim(1))
    onto, half = answers["left_kernel_via_duality"]
    assert (onto.rank, onto.full) == (
        _rank_over_q(WholeMap(hring, 1, 1).matrix), hring.quotient_dim(2))
    assert (half.rank, half.full) == (pairing.rank, pairing.full)
    modes = [smooth.mode, surj.mode, pairing.mode, onto.mode, half.mode]
    assert not any("p=" in mode for mode in modes), modes
