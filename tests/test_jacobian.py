import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chowcheck import characters, exactla, jacobian
from chowcheck.poly import (PolyRing, enumerate_monomials, parse_poly,
                            monomial_mul)

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


def test_quintic_symmetric_route_agrees(quintic_sym, quintic_plain):
    assert jacobian.hilbert_function(quintic_sym) == FERMAT_QUINTIC_DIMS
    for k in (4, 5, 6):
        assert quintic_sym.quotient_dim(k) == quintic_plain.quotient_dim(k)


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
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    for k in (4, 5, 6):
        certified = hring._certified_ideal_rank(k)
        assert certified is not None
        assert certified == exactla.rank(hring.span_rows(k)[0])


def test_koszul_rows_annihilate_the_span():
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    k = 6
    rows, monos, tags = hring.span_rows(k)
    koszul = hring._koszul_rows(k)
    assert koszul
    for krow in koszul:
        combo = [0] * len(monos)
        for coeff, row in zip(krow, rows):
            if coeff:
                combo = [x + coeff * y for x, y in zip(combo, row)]
        assert not any(combo)


def test_smoothness(fermat_quartic):
    assert jacobian.is_smooth_artinian(fermat_quartic)
    cone = jacobian.HypersurfaceRing(parse_poly("x0^4", P3))
    result = jacobian.is_smooth_artinian(cone)
    assert not result.smooth and result.dimension > 0
    bumpy = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1*x2*x3", P3))
    modular = jacobian.is_smooth_artinian(bumpy)
    assert modular.smooth and modular.mode.startswith("modular")
    exact = jacobian.is_smooth_artinian(bumpy, exact=True)
    assert exact.smooth and exact.mode == "exact"


def test_ring_constructor_validation():
    with pytest.raises(ValueError):
        jacobian.HypersurfaceRing(parse_poly("x0^2 + x1", P3))
    with pytest.raises(ValueError):
        jacobian.HypersurfaceRing(parse_poly("x0", P3))
    with pytest.raises(ValueError):
        jacobian.HypersurfaceRing(parse_poly("0", P3))
    with pytest.raises(ValueError):
        # not an eigenvector of the declared action
        jacobian.HypersurfaceRing(parse_poly("x0^4 + x0*x1^3", P3),
                                  symmetry=((1, 0, 0, 0), 4))


def test_uniform_bound(fermat_quartic, mixed_quartic, quintic_sym):
    for hring in (fermat_quartic, mixed_quartic):
        result = jacobian.uniform_mult_rank_bound(hring, 3)
        assert result.bound == 13
        assert result.per_variable == [13, 13, 13, 13]
    with pytest.raises(jacobian.IdealNotMonomial):
        jacobian.uniform_mult_rank_bound(quintic_sym, 3)


def test_socle_pairing(fermat_quartic):
    for k in range(9):
        result = jacobian.macaulay_pairing_check(fermat_quartic, k)
        assert result.nondegenerate
        assert result.dim_left == FERMAT_QUARTIC_DIMS[k]
    cone = jacobian.HypersurfaceRing(parse_poly("x0^4", P3))
    with pytest.raises(jacobian.SocleNotOneDimensional):
        jacobian.macaulay_pairing_check(cone, 4)


def test_multiplication_map_shapes(fermat_quartic):
    mmap = jacobian.multiplication_map(fermat_quartic, 1, 3)
    assert mmap.left_dim == 4 and mmap.right_dim == 16
    assert mmap.target_dim == 19
    result = jacobian.is_surjective(mmap)
    assert result.surjective and result.rank == 19


def left_kernel(mmap):
    """Exact basis of {u : u * v == 0 for every v}, brute force: the
    oracle for the duality route.

    Stacks the conditions for all right basis vectors and coordinates of
    the target, then takes the exact kernel.
    """
    rows = []
    for v in range(mmap.right_dim):
        for i in range(mmap.target_dim):
            rows.append([mmap.matrix[i][u * mmap.right_dim + v]
                         for u in range(mmap.left_dim)])
    if not rows:
        return []
    return exactla.kernel_basis(rows)


def test_left_kernel_brute_force_and_duality_agree(fermat_quartic,
                                                   mixed_quartic):
    for hring in (fermat_quartic, mixed_quartic):
        mmap = jacobian.multiplication_map(hring, 1, 3)
        assert left_kernel(mmap) == []
        duality = jacobian.left_kernel_via_duality(hring, 1, 3)
        assert duality.empty
        assert duality.surjectivity.rank == duality.surjectivity.target_dim


def test_duality_route_rejects_overflow(fermat_quartic):
    with pytest.raises(ValueError):
        jacobian.left_kernel_via_duality(fermat_quartic, 5, 4)


def test_quintic_duality_at_three_three(quintic_sym):
    result = jacobian.left_kernel_via_duality(quintic_sym, 3, 3,
                                              prime=1000003)
    assert result.empty
    assert result.surjectivity.rank == 20
    assert result.pairing.rank == 20


def test_functional_kernel_map(fermat_quartic, mixed_quartic):
    for hring in (fermat_quartic, mixed_quartic):
        g = parse_poly("x0^2*x1^2", hring.ring)
        result = jacobian.functional_kernel_map(hring, g, 3)
        assert result.rank == 4
        assert result.target_dim == 4
        assert result.subspace_dim == 18
        assert result.surjective
        assert result.g_class_nonzero


def test_a_form_off_half_the_socle_degree_pairs_to_zero(fermat_quartic):
    # h * g lies outside the socle degree, so every socle coordinate is 0
    # and W is all of R_a, on monomial and exact block pieces alike
    for hring, g, b in ((fermat_quartic, "x0^2*x1", 3),
                        (_cubic_surface(), "x0", 1)):
        g = parse_poly(g, P3)
        result = jacobian.functional_kernel_map(hring, g, b)
        a = g.total_degree()
        assert not result.g_class_nonzero
        assert result.subspace_dim == hring.quotient_dim(a)
        assert result.target_dim == hring.quotient_dim(a + b) == result.rank


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


def test_character_dimensions_match_blocks(quintic_sym):
    piece = quintic_sym.piece(6)
    dims = piece.character_dimensions()
    assert sum(dims.values()) == 44
    assert len(dims) == 44
    assert all(v == 1 for v in dims.values())


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
    return jacobian.HypersurfaceRing(parse_poly(SHIODA, P3),
                                     symmetry=SHIODA_SYMMETRY)


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
    fresh_blocks = _shioda_ring()._symmetric_blocks(k)

    eliminations, span_builds, array_builds = Counter(), Counter(), Counter()
    eliminate = jacobian.HypersurfaceRing._eliminate_blocks
    span_rows = jacobian.HypersurfaceRing.span_rows
    span_array = jacobian.HypersurfaceRing.span_array

    def counting_eliminate(self, degree, exponents, modulus):
        eliminations[degree] += 1
        return eliminate(self, degree, exponents, modulus)

    def counting_span_rows(self, degree):
        span_builds[degree] += 1
        return span_rows(self, degree)

    def counting_span_array(self, degree, p):
        array_builds[degree] += 1
        return span_array(self, degree, p)

    monkeypatch.setattr(jacobian.HypersurfaceRing, "_eliminate_blocks",
                        counting_eliminate)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "span_rows",
                        counting_span_rows)
    monkeypatch.setattr(jacobian.HypersurfaceRing, "span_array",
                        counting_span_array)
    hring = _shioda_ring()
    table = jacobian.hilbert_function(hring)
    piece = hring.piece(k)
    spectrum = characters.character_spectrum(hring, sigma, k)
    bound = characters.picard_upper_bound(hring, sigma)

    # the ring is proven smooth by one modular certificate on the degree-13
    # slice, an int64 array built once, so the Hilbert table, the spectrum
    # and the Picard scan read closed forms; only the graded piece
    # eliminates its degree, from exact rows read off the slice layout
    assert sorted(eliminations) == [k]
    assert set(eliminations.values()) == {1}
    assert not span_builds
    assert array_builds == Counter({hring.socle_degree + 1: 1})
    assert table == fresh_table
    assert piece.representatives == fresh_piece.representatives
    assert piece.reduce_vector(probe) == fresh_piece.reduce_vector(probe)
    assert spectrum.histogram == fresh_spectrum.histogram
    assert _bound_fields(bound) == _bound_fields(fresh_bound)

    # callers cannot disturb the memo through what they were handed
    rows, _, _ = hring.span_rows(k)
    for row in rows:
        row[:] = [1] * len(row)
    _, _, _, rref, _ = next(b for b in hring._symmetric_blocks(k) if b[3])
    with pytest.raises(TypeError):
        rref[0][0] = 0
    assert hring._symmetric_blocks(k) == fresh_blocks
    assert hring.quotient_dim(k) == fresh_table[k]
    assert hring.piece(k).reduce_vector(probe) == fresh_piece.reduce_vector(probe)
    assert set(eliminations.values()) == {1}


# ------------------------------------------------ the closed-form route

TERNARY = PolyRing.rationals(("x0", "x1", "x2"))


# ------------------------------------------------ the slice layout

def _span_rows_oracle(hring, k):
    """Slice rows built entry by entry from the partials, as span_rows
    built them before the memoised layout."""
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


@pytest.mark.parametrize("text, ring, symmetry", [
    (SHIODA, P3, SHIODA_SYMMETRY),
    (SHIODA, P3, None),
    (_dense_quartic(11), P3, None),
    ("1/2*x0^3 + 2/3*x1^3 + x2^3 - 5/7*x0*x1*x2", TERNARY, None),
    (f"{10**30}*x0^3 + x1^3 + x2^3", TERNARY, None),
], ids=["shioda", "shioda-without-symmetry", "dense-quartic", "rational",
        "coefficient-above-2^63"])
def test_span_array_is_span_rows_reduced_mod_p(text, ring, symmetry):
    hring = jacobian.HypersurfaceRing(parse_poly(text, ring), symmetry=symmetry)
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
    cert = hring.smoothness_certificate()
    assert cert.certified
    assert cert.rank == exactla.modular_rank(hring.span_rows(top)[0]).rank


@pytest.mark.parametrize("text, ring, symmetry", [
    ("x0^4", P3, None),
    ("x0^3 + x1^3", TERNARY, None),
    ("x0^3 + x1^3 + x0*x1*x2", TERNARY, None),
    ("x0^3 + x1^3 + x0*x1*x2", TERNARY, ((1, 1, 1), 3)),
], ids=["cone", "binary-cubic", "nodal-cubic", "nodal-cubic-symmetric"])
def test_singular_forms_never_take_the_closed_form(text, ring, symmetry):
    hring = jacobian.HypersurfaceRing(parse_poly(text, ring), symmetry=symmetry)
    top = hring.socle_degree + 1
    table = jacobian.hilbert_function(hring, through=top)
    assert not hring.smoothness_certificate().certified
    assert hring._closed_form is None
    assert hring.dimension_route() == "elimination"
    assert table[top] > 0
    assert table == [len(enumerate_monomials(hring.nvars, k)) - hring.ideal_rank(k)
                     for k in range(top + 1)]
    assert table != jacobian.complete_intersection_hilbert(
        hring.nvars, hring.degree) + [0]
    if symmetry is not None:
        sigma = characters.DiagonalAutomorphism(*symmetry)
        for k in range(top + 1):
            blocks = hring._symmetric_blocks(k)
            assert characters.character_spectrum(hring, sigma, k).histogram == \
                {c: len(free) for c, _, free, _, _ in blocks if free}


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
    assert result.smooth and result.mode == "modular(p=1000003)"

    def refuse(self, prime=None):
        raise AssertionError("the exact route read the certificate")

    monkeypatch.setattr(jacobian.HypersurfaceRing, "smoothness_certificate", refuse)
    result = jacobian.is_smooth_artinian(_shioda_ring(), exact=True)
    assert result.smooth and result.mode == "exact" and result.dimension == 0


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
# Before graded pieces of non-symmetric rings became one block of the
# trivial character, they were reduced against the Gauss-Jordan form of
# the whole Jacobian slice.  That route is kept here, with its own
# elimination, as the oracle for the block route.

def _fraction_rref(rows, ncols):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], piv_cols


class _FullSlicePiece:
    def __init__(self, hring, k):
        self.monomials = enumerate_monomials(hring.nvars, k)
        rows, _, _ = hring.span_rows(k)
        self.rref, self.piv = _fraction_rref(rows, len(self.monomials))
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
    ("quintic_plain", (0, 1, 2, 10, 11, 12)),
    ("dense_ternary_quartic", range(7)),
    ("cubic_surface", range(5)),
])
def test_trivial_block_pieces_match_full_slice_reduction(form, pairing_degrees,
                                                         request):
    if form == "quintic_plain":
        hring = request.getfixturevalue("quintic_plain")
    elif form == "dense_ternary_quartic":
        hring = _dense_ternary_quartic()
    else:
        hring = _cubic_surface()
    assert hring.symmetry is None and not hring.is_monomial_ideal
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
        assert mmap.matrix == _oracle_product_matrix(oracle, 1, c - 1, c)
    for k in pairing_degrees:
        # the socle piece is one-dimensional: one product per (u, v) pair
        products = _oracle_product_matrix(oracle, k, sigma - k, sigma)[0]
        width = len(oracle[sigma - k].representatives)
        rows = [products[i:i + width] for i in range(0, len(products), width)]
        rank = len(_fraction_rref(rows, width)[1])
        result = jacobian.macaulay_pairing_check(hring, k)
        assert (result.rank, result.nondegenerate) == (
            rank, rank == len(oracle[k].representatives))


# ------------------------------------------------ graded pieces over GF(p)
#
# With a prime, the duality and multiplication checks build their pieces
# from the echelon form mod p of whole slices.  The exact route, which
# ``is_surjective`` and ``macaulay_pairing_check`` still take on exact
# pieces, is the oracle: ranks, verdicts and modes must agree.

GFP = 1000003


def _fields(result):
    return tuple(getattr(result, name) for name in type(result).__slots__
                 if name != "route")


@pytest.mark.parametrize("form, pairs", [
    ("quintic_sym", [(0, 0), (0, 1), (1, 1), (3, 3), (2, 5), (6, 6), (10, 1),
                     (12, 0), (4, 8)]),
    ("quintic_plain", [(0, 1), (1, 1), (3, 3), (10, 1), (12, 0)]),
    ("dense_ternary_quartic", [(a, b) for a in range(7) for b in range(7 - a)]),
    ("cubic_surface", [(a, b) for a in range(5) for b in range(5 - a)]),
])
def test_gfp_pieces_match_the_exact_route(form, pairs, request):
    if form in ("quintic_sym", "quintic_plain"):
        hring = request.getfixturevalue(form)
    elif form == "dense_ternary_quartic":
        hring = _dense_ternary_quartic()
    else:
        hring = _cubic_surface()
    sigma = hring.socle_degree
    for a, b in pairs:
        result = jacobian.left_kernel_via_duality(hring, a, b, prime=GFP)
        assert result.route.startswith(f"pieces mod p={GFP} at degrees ")
        mmap = jacobian.multiplication_map(hring, sigma - a - b, b)
        surj = jacobian.is_surjective(mmap, prime=GFP)
        pairing = jacobian.macaulay_pairing_check(hring, a, prime=GFP)
        assert _fields(result.surjectivity) == _fields(surj)
        assert _fields(result.pairing) == _fields(pairing)
        assert result.empty
        mapped = jacobian.map_surjectivity(hring, sigma - a - b, b, prime=GFP)
        assert _fields(mapped) == _fields(surj)
        assert mapped.route.startswith(f"pieces mod p={GFP} at degrees ")
    # the normal forms mod p are the exact ones reduced mod p, sampled
    rng = random.Random(sigma)
    for k in sorted({k for a, b in pairs for k in (a, b, sigma - a - b, sigma - a)}
                    | {sigma}):
        modular, exact = hring.piece(k, GFP), hring.piece(k)
        assert modular.representatives == exact.representatives
        col = {m: j for j, m in enumerate(modular.monomials)}
        for m in rng.sample(modular.monomials, min(5, len(modular.monomials))):
            coords = exact.reduce_vector({m: Fraction(1)})
            assert modular.normal_forms[col[m]].tolist() == [
                c.numerator * pow(c.denominator, -1, GFP) % GFP for c in coords]


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
    p = 1000033
    hring = _cone_mod_p_surface(5, p)
    sigma = hring.socle_degree
    # proven smooth at the default prime, which does not divide a coefficient
    assert hring.smoothness_proof().certified
    assert hring.piece(2, GFP).dim == hring.quotient_dim(2) == 6
    assert hring.piece(1, p) is not None
    assert hring.piece(2, p) is None
    refused = 0
    for a in range(sigma + 1):
        for b in range(sigma + 1 - a):
            result = jacobian.left_kernel_via_duality(hring, a, b, prime=p)
            exact = jacobian.left_kernel_via_duality(hring, a, b)
            assert result.empty == exact.empty
            assert result.surjectivity.rank == exact.surjectivity.rank
            assert result.pairing.rank == exact.pairing.rank
            mmap = jacobian.multiplication_map(hring, sigma - a - b, b)
            assert _fields(result.surjectivity) == _fields(
                jacobian.is_surjective(mmap, prime=p))
            assert _fields(result.pairing) == _fields(
                jacobian.macaulay_pairing_check(hring, a, prime=p))
            if 2 in (sigma - a - b, b, sigma - a):
                assert result.route == "exact pieces, mod-p gate refused at degree 2"
                refused += 1
            mapped = jacobian.map_surjectivity(hring, a, b, prime=p)
            assert _fields(mapped) == _fields(jacobian.is_surjective(
                jacobian.multiplication_map(hring, a, b), prime=p))
    assert refused
    result = jacobian.map_surjectivity(hring, 1, 1, prime=p)
    assert result.surjective and result.route == (
        "exact pieces, mod-p gate refused at degree 2")


def test_the_check_prime_proves_smoothness_the_default_prime_cannot():
    # a cone mod the default prime, so its certificate there falls short;
    # the check's own prime closes one, and the pieces mod it are accepted
    p = 1000033
    hring = _cone_mod_p_surface(5, GFP)
    sigma = hring.socle_degree
    assert not hring.smoothness_proof().certified
    result = jacobian.left_kernel_via_duality(hring, 1, 1, prime=p)
    assert result.route.startswith(f"pieces mod p={p} at degrees ")
    assert hring.smoothness_proof().prime == p
    for a in range(sigma + 1):
        for b in range(sigma + 1 - a):
            result = jacobian.left_kernel_via_duality(hring, a, b, prime=p)
            assert result.route.startswith(f"pieces mod p={p} at degrees ")
            exact = jacobian.left_kernel_via_duality(_cone_mod_p_surface(5, GFP),
                                                     a, b)
            assert result.empty == exact.empty
            assert result.surjectivity.rank == exact.surjectivity.rank
            assert result.pairing.rank == exact.pairing.rank


def test_gfp_routes_fall_back_on_unproven_and_monomial_rings(fermat_quartic):
    nodal = jacobian.HypersurfaceRing(
        parse_poly("x0^3 + x1^3 + x0*x1*x2", TERNARY))
    assert nodal.piece(1, GFP) is None
    result = jacobian.map_surjectivity(nodal, 1, 1, prime=GFP)
    assert result.route == "exact pieces, ring not proven smooth"
    result = jacobian.left_kernel_via_duality(fermat_quartic, 1, 3, prime=GFP)
    assert result.empty and result.route == "monomial pieces"
    result = jacobian.left_kernel_via_duality(_cubic_surface(), 1, 2)
    assert result.empty and result.route == "exact pieces"


def test_block_rows_refuse_an_inconsistent_symmetry():
    hring = _cubic_surface()
    with pytest.raises(ValueError, match="spans several characters"):
        hring._symmetric_blocks(3, symmetry=((1, 0, 0, 0), 2))
