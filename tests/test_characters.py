import random
from collections import Counter
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from chowcheck import characters, jacobian
from chowcheck.poly import PolyRing, enumerate_monomials, parse_poly
from oracles import block_spectrum

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
    # the units of Z/65 are found once, whatever the character
    characters._units.cache_clear()
    for c in range(-65, 130):
        assert characters.galois_orbit(c, 65) == {
            u * c % 65 for u in range(1, 66) if gcd(u, 65) == 1}
    assert characters._units.cache_info().misses == 1


def test_spectrum_agrees_with_brute_force_on_monomial_quotient(p3_ring):
    # cube generators leave exactly the exponent-below-three monomials,
    # so the eigenspace dimensions can be counted by hand
    sigma = characters.DiagonalAutomorphism((0, 1, 2, 3), 4)
    hring = jacobian.HypersurfaceRing(
        parse_poly("x0^4 + x1^4 + x2^4 + x3^4", p3_ring))
    for k in range(9):
        manual = {}
        for exps in product(range(3), repeat=4):
            if sum(exps) == k:
                c = sigma.character(exps)
                manual[c] = manual.get(c, 0) + 1
        spec = characters.character_spectrum(hring, sigma, k)
        assert spec.histogram == manual
        assert Counter(map(sigma.character,
                           hring.piece(k).representatives)) == manual


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


_FERMAT = {}


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6), st.integers(1, 40), st.data())
def test_orbit_scan_matches_the_galois_orbit_oracle(degree, m, data):
    # the Fermat surface of degree d under x_i -> zeta^(r + m*k_i) x_i,
    # zeta of order d*m: every x_i^d has character d*r.  The oracle scans
    # with the orbits ``galois_orbit`` builds from every unit.
    n = degree * m
    r = data.draw(st.integers(0, n - 1))
    ks = data.draw(st.lists(st.integers(0, degree - 1), min_size=4,
                            max_size=4))
    sigma = characters.DiagonalAutomorphism([r + m * k for k in ks], n)
    if degree not in _FERMAT:
        _FERMAT[degree] = jacobian.HypersurfaceRing(parse_poly(
            " + ".join(f"x{i}^{degree}" for i in range(4)),
            PolyRing.rationals(("x0", "x1", "x2", "x3"))))
    result = characters.picard_upper_bound(_FERMAT[degree], sigma)
    middle = result.middle.histogram
    outer = set(result.outer[0].histogram) | set(result.outer[1].histogram)
    orbits = {c: characters.galois_orbit(c, n) for c in middle}
    assert result.kept == [(c, d) for c, d in sorted(middle.items())
                           if not orbits[c] & outer]
    assert result.kept_strict == [(c, d) for c, d in sorted(middle.items())
                                  if orbits[c] <= middle.keys()]


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
    # form; the oracle eliminates the character blocks independently of it
    assert quintic_sym.smoothness_certificate().certified
    for k in range(15):
        assert characters.character_spectrum(quintic_sym, SIGMA, k).histogram == \
            block_spectrum(quintic_sym, SIGMA, k)


def _enumerated_spectrum(hring, sigma, degree):
    """The former closed-form spectrum, kept as an oracle: the Koszul
    numerator times the character of every monomial of the remaining
    degree, enumerated one by one."""
    n, d, modulus = hring.nvars, hring.degree, sigma.modulus
    chi = sigma.character(next(iter(hring.poly.terms)))
    numerator = {(0, 0): 1}
    for e in sigma.exponents:
        step = dict(numerator)
        for (j, c), a in numerator.items():
            key = (j + d - 1, (c + chi - e) % modulus)
            step[key] = step.get(key, 0) - a
        numerator = step
    histogram = {}
    for (j, c), a in numerator.items():
        if a and j <= degree:
            for m in enumerate_monomials(n, degree - j):
                key = (c + sigma.character(m)) % modulus
                histogram[key] = histogram.get(key, 0) + a
    return {c: histogram[c] for c in sorted(histogram) if histogram[c]}


def _fermat_type(rng):
    """sum c_i x_i^d with a random diagonal automorphism of order d*m:
    exponents r + m*k_i give every x_i^d the character d*r."""
    nvars, degree = rng.choice([(3, 3), (3, 5), (4, 3), (4, 4), (4, 5), (4, 6)])
    ring = PolyRing.rationals([f"x{i}" for i in range(nvars)])
    f = ring.zero()
    for i in range(nvars):
        exps = tuple(degree if j == i else 0 for j in range(nvars))
        f = f + ring.monomial(exps, rng.choice([1, -1, 2, -3]))
    m = rng.randint(1, 3)
    r = rng.randrange(degree * m)
    sigma = characters.DiagonalAutomorphism(
        [r + m * rng.randrange(degree) for _ in range(nvars)], degree * m)
    return jacobian.HypersurfaceRing(f), sigma


@pytest.mark.parametrize("seed", range(12))
def test_series_spectrum_matches_the_enumerated_one(seed, quintic_sym):
    if seed == 0:
        hring, sigma = quintic_sym, SIGMA
    else:
        hring, sigma = _fermat_type(random.Random(seed))
    assert characters.check_invariance(hring.poly, sigma)
    for k in range(hring.socle_degree + 2):
        expected = _enumerated_spectrum(hring, sigma, k)
        got = characters._complete_intersection_spectrum(hring, sigma, k)
        assert got == expected
        assert list(got) == sorted(got)
        assert sum(got.values()) == hring.quotient_dim(k)
