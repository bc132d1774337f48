from itertools import product
from math import gcd

import pytest

from chowcheck import characters, jacobian
from chowcheck.poly import PolyRing, parse_poly

SIGMA = characters.DiagonalAutomorphism((16, 61, 1, 0), 65)

# socle of the degree-5 quotient sits in degree 12 with character 3 * twist
SOCLE_CHAR = 39

UNTWISTED = {
    0: {0: 1},
    1: {0: 1, 1: 1, 16: 1, 61: 1},
    11: {23: 1, 38: 1, 39: 1, 43: 1},
    12: {39: 1},
}
TWISTED_CHARS = {1: [9, 13, 14, 29], 11: [36, 51, 52, 56], 12: [52]}


def test_automorphism_normalisation_and_twist():
    sigma = characters.DiagonalAutomorphism((81, -4, 1, 65), 65)
    assert sigma.exponents == (16, 61, 1, 0)
    assert sigma == SIGMA
    assert SIGMA.twist == 13
    with pytest.raises(ValueError):
        characters.DiagonalAutomorphism((1, 2), 0)
    with pytest.raises(ValueError):
        SIGMA.character((1, 2, 3))


def test_invariance_of_the_quintic(quintic_sym, p3_ring):
    f = quintic_sym.poly
    assert characters.check_invariance(f, SIGMA)
    # common character is 0: each monomial pairs to a multiple of 65
    assert {SIGMA.character(e) for e in f.terms} == {0}
    g = f + parse_poly("x0^5", p3_ring)
    assert not characters.check_invariance(g, SIGMA)
    with pytest.raises(characters.NotInvariant):
        characters.character_spectrum(
            jacobian.HypersurfaceRing(g), SIGMA, 1)


def test_untwisted_spectra_match_frozen_values(quintic_sym):
    for k, expected in UNTWISTED.items():
        spec = characters.character_spectrum(quintic_sym, SIGMA, k)
        assert spec.histogram == expected
        assert not spec.twisted


def test_twisted_spectra_shift_every_character(quintic_sym):
    for k, chars in TWISTED_CHARS.items():
        spec = characters.character_spectrum(quintic_sym, SIGMA, k,
                                             twisted=True)
        assert spec.characters() == chars
        assert spec.twisted
        plain = characters.character_spectrum(quintic_sym, SIGMA, k)
        shifted = {(c + 13) % 65: d for c, d in plain.histogram.items()}
        assert spec.histogram == shifted


def test_spectrum_totals_match_quotient_dimensions(quintic_sym):
    for k, total in ((1, 4), (6, 44), (11, 4), (12, 1)):
        spec = characters.character_spectrum(quintic_sym, SIGMA, k)
        assert spec.total == total == quintic_sym.quotient_dim(k)


def test_middle_spectrum_is_multiplicity_free(quintic_sym):
    spec = characters.character_spectrum(quintic_sym, SIGMA, 6)
    assert spec.total == 44
    assert all(d == 1 for d in spec.histogram.values())
    assert spec.dimension(999) == spec.dimension(999 % 65)


def test_spectra_satisfy_socle_duality(quintic_sym):
    for k in (0, 1):
        low = characters.character_spectrum(quintic_sym, SIGMA, k)
        high = characters.character_spectrum(quintic_sym, SIGMA, 12 - k)
        for c in range(65):
            assert low.dimension(c) == high.dimension((SOCLE_CHAR - c) % 65)


def test_galois_orbits():
    assert characters.galois_orbit(0, 65) == {0}
    orbit13 = characters.galois_orbit(13, 65)
    assert orbit13 == {13, 26, 39, 52}
    unit_orbit = characters.galois_orbit(1, 65)
    assert len(unit_orbit) == 48
    assert all(gcd(c, 65) == 1 for c in unit_orbit)
    for c in orbit13:
        for u in (2, 3, 7, 64):
            assert (u * c) % 65 in orbit13


def test_spectrum_agrees_with_brute_force_on_monomial_quotient(p3_ring):
    # cube generators leave exactly the exponent-below-three monomials,
    # so the eigenspace dimensions can be counted by hand
    sigma = characters.DiagonalAutomorphism((0, 1, 2, 3), 4)
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4", p3_ring),
        symmetry=(sigma.exponents, sigma.modulus))
    for k in range(9):
        manual = {}
        for exps in product(range(3), repeat=4):
            if sum(exps) == k:
                c = sigma.character(exps)
                manual[c] = manual.get(c, 0) + 1
        spec = characters.character_spectrum(hring, sigma, k)
        assert spec.histogram == manual
        assert hring.piece(k).character_dimensions() == manual


def test_picard_bound_on_the_quintic(quintic_sym):
    result = characters.picard_upper_bound(quintic_sym, SIGMA)
    assert result.bound == 1
    assert result.strict_bound == 1
    assert result.kept == []
    assert result.kept_strict == []
    assert result.spectra_disjoint
    assert result.multiplicity_free
    assert result.middle.twisted
    assert result.middle.total == 44


def test_picard_bound_identity_action_keeps_everything(fermat_quartic):
    identity = characters.DiagonalAutomorphism((0, 0, 0, 0), 1)
    result = characters.picard_upper_bound(fermat_quartic, identity)
    assert result.bound == 1
    assert result.strict_bound == 20
    assert result.kept == []
    assert result.kept_strict == [(0, 19)]
    assert not result.spectra_disjoint
    assert not result.multiplicity_free


def test_picard_bound_input_validation(p3_ring):
    plane = PolyRing.rationals(("x0", "x1", "x2"))
    quartic3 = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4", plane))
    sigma3 = characters.DiagonalAutomorphism((0, 0, 0), 1)
    with pytest.raises(ValueError):
        characters.picard_upper_bound(quartic3, sigma3)

    cubic = jacobian.HypersurfaceRing(
        parse_poly("x0^3 + x1^3 + x2^3 + x3^3", p3_ring))
    identity = characters.DiagonalAutomorphism((0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        characters.picard_upper_bound(cubic, identity)

    fermat = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4", p3_ring))
    skew = characters.DiagonalAutomorphism((1, 0, 0, 0), 4)
    with pytest.raises(characters.NotInvariant):
        characters.picard_upper_bound(
            jacobian.HypersurfaceRing(
                parse_poly("x0^4 + x0*x1^3 + x2^4 + x3^4", p3_ring)), skew)
    assert characters.check_invariance(fermat.poly, skew)


def test_picard_bound_requires_smoothness(p3_ring):
    cone = jacobian.HypersurfaceRing(parse_poly("x0^4", p3_ring))
    identity = characters.DiagonalAutomorphism((0, 0, 0, 0), 1)
    with pytest.raises(characters.NotSmooth):
        characters.picard_upper_bound(cone, identity)


def test_closed_form_spectra_match_the_eliminated_blocks(quintic_sym):
    # the quintic is proven smooth, so spectra come from the Koszul closed
    # form; the character blocks are eliminated independently of it
    assert quintic_sym.smoothness_certificate().certified
    for k in range(15):
        blocks = quintic_sym._symmetric_blocks(k)
        expected = {c: len(free) for c, _, free, _, _ in blocks if free}
        assert characters.character_spectrum(quintic_sym, SIGMA, k).histogram == expected
