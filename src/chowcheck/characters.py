"""Diagonal automorphisms acting on graded Jacobian quotients.

A diagonal automorphism of projective space scales each coordinate by a
power of a fixed root of unity.  When the defining form is an
eigenvector, every graded piece of its Jacobian quotient splits into
character eigenspaces, and the multiset of characters showing up in the
pieces matching the Hodge decomposition constrains which eigenspaces
can contain rational algebraic classes: any class defined over the
rationals spreads over a full Galois orbit of characters.  The bound
computed here counts the middle-degree dimensions whose orbits stay
clear of the outer pieces, plus one for the hyperplane class.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd

from . import jacobian
from .report import CheckFailure, InputError


class NotInvariant(ValueError, CheckFailure):
    """The form is not an eigenvector of the given automorphism."""


class NotSmooth(ValueError, CheckFailure):
    """An operation requiring a smooth hypersurface got a singular one."""


class DiagonalAutomorphism:
    """x_i -> zeta**e_i x_i for a primitive root of unity of given order.

    Exponents are normalised into [0, modulus); ``twist`` is the
    character of the coordinate volume form, the sum of the exponents.
    """

    __slots__ = ("modulus", "exponents")

    def __init__(self, exponents, modulus):
        modulus = int(modulus)
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        self.modulus = modulus
        self.exponents = tuple(int(e) % modulus for e in exponents)

    @property
    def twist(self):
        return sum(self.exponents) % self.modulus

    def character(self, exps):
        """Character of a monomial with the given exponent tuple."""
        if len(exps) != len(self.exponents):
            raise ValueError("exponent tuple has the wrong length")
        return sum(a * b for a, b in zip(exps, self.exponents)) % self.modulus

    def __eq__(self, other):
        if not isinstance(other, DiagonalAutomorphism):
            return NotImplemented
        return (self.modulus, self.exponents) == (other.modulus, other.exponents)

    def __repr__(self):
        return f"DiagonalAutomorphism(exponents={self.exponents}, modulus={self.modulus})"


def check_invariance(f, sigma):
    """True iff every monomial of f has the same character.

    Eigenvectors up to scalar count as invariant; the common character
    need not be zero.
    """
    if f.is_zero():
        return True
    chars = {sigma.character(e) for e in f.terms}
    return len(chars) == 1


class CharacterSpectrum:
    """Per-character dimensions of one graded piece.

    ``histogram`` maps characters to positive eigenspace dimensions;
    characters with zero dimension are omitted.  ``twisted`` records
    whether the volume-form character was added to every entry.
    """

    __slots__ = ("degree", "modulus", "histogram", "twisted")

    def __init__(self, degree, modulus, histogram, twisted):
        self.degree = degree
        self.modulus = modulus
        self.histogram = dict(histogram)
        self.twisted = twisted

    def dimension(self, character):
        return self.histogram.get(character % self.modulus, 0)

    @property
    def total(self):
        return sum(self.histogram.values())

    def characters(self):
        return sorted(self.histogram)

    def __repr__(self):
        inner = ", ".join(f"{c}: {d}" for c, d in sorted(self.histogram.items()))
        tag = "twisted" if self.twisted else "plain"
        return f"CharacterSpectrum(degree={self.degree}, {tag}, {{{inner}}})"


def character_spectrum(hring, sigma, degree, twisted=False):
    """Eigenspace dimensions of the degree-k quotient piece.

    On a ring proven smooth at ``DEFAULT_PRIME``
    (``smoothness_certificate()``, as ``quotient_dim`` asks) the spectrum
    is read from the equivariant Koszul resolution, see
    ``_complete_intersection_spectrum``.  Otherwise it counts the
    representatives of the exact graded piece by character.  That is
    valid because each generator monomial times a partial is itself an
    eigenvector, so the slice matrix is block diagonal: the free columns
    of its echelon form are the union of those of its character blocks.
    """
    if not check_invariance(hring.poly, sigma):
        raise NotInvariant("form is not an eigenvector of the automorphism")
    if len(sigma.exponents) != hring.nvars:
        raise NotInvariant("automorphism has the wrong number of exponents")
    if hring.smoothness_certificate().certified:
        histogram = _complete_intersection_spectrum(hring, sigma, degree)
    else:
        reps = hring.piece(degree).representatives
        histogram = dict(sorted(Counter(map(sigma.character, reps)).items()))
    total = hring.quotient_dim(degree)
    if sum(histogram.values()) != total:
        raise AssertionError("character dimensions do not add up")
    if twisted:
        shift = sigma.twist
        histogram = {(c + shift) % sigma.modulus: d
                     for c, d in histogram.items()}
    return CharacterSpectrum(degree, sigma.modulus, histogram, twisted)


def _complete_intersection_spectrum(hring, sigma, degree):
    """Degree-k part of prod_i (1 - [chi_F - e_i] t^(d-1)) / prod_i (1 - [e_i] t).

    Characters live in the group ring of Z/N.  When the n partials form
    a regular sequence, the Koszul complex on them is an equivariant
    resolution of the quotient; the partial d_iF is an eigenvector of
    character chi_F - e_i, so this is the quotient's character series.
    The denominator is the character series of the polynomial ring,
    expanded one variable at a time up to the target degree.
    """
    d, modulus = hring.degree, sigma.modulus
    chi = sigma.character(next(iter(hring.poly.terms)))
    numerator = {(0, 0): 1}  # (degree, character) -> coefficient
    for e in sigma.exponents:
        step = dict(numerator)
        for (j, c), a in numerator.items():
            key = (j + d - 1, (c + chi - e) % modulus)
            step[key] = step.get(key, 0) - a
        numerator = step
    # series[j]: character -> number of degree-j monomials
    series = [{0: 1}] + [{} for _ in range(degree)]
    for e in sigma.exponents:
        for j in range(1, degree + 1):
            row = series[j]
            for c, a in series[j - 1].items():
                key = (c + e) % modulus
                row[key] = row.get(key, 0) + a
    histogram = {}
    for (j, c), a in numerator.items():
        if a and j <= degree:
            for m, b in series[degree - j].items():
                key = (c + m) % modulus
                histogram[key] = histogram.get(key, 0) + a * b
    if any(v < 0 for v in histogram.values()):
        raise ArithmeticError("closed-form spectrum has a negative dimension")
    return {c: histogram[c] for c in sorted(histogram) if histogram[c]}


@lru_cache(maxsize=None)
def _units(modulus):
    return tuple(u for u in range(1, modulus + 1) if gcd(u, modulus) == 1)


def galois_orbit(character, modulus):
    """Orbit of a character under multiplication by units mod N, built
    from every unit: the characters x with gcd(x, N) = gcd(character, N).
    ``picard_upper_bound`` reads the orbit through that gcd instead."""
    character %= modulus
    return frozenset(u * character % modulus for u in _units(modulus))


class PicardBoundResult:
    """Outcome of the orbit scan over the middle character spectrum.

    ``bound`` follows the avoid-the-outer-spectra rule: one plus the
    middle dimensions of characters whose full Galois orbit misses the
    twisted outer spectra.  ``strict_bound`` keeps a character only when
    every orbit member has a nonzero middle dimension, which is the
    unconditionally rigorous variant: a rational algebraic class forces
    equal dimensions across its whole orbit.  The two rules agree
    whenever the outer and middle character sets are disjoint, recorded
    in ``spectra_disjoint``; only then is ``bound`` itself certified as
    an upper bound.
    """

    __slots__ = ("bound", "strict_bound", "kept", "kept_strict",
                 "middle", "outer", "spectra_disjoint", "multiplicity_free")

    def __init__(self, bound, strict_bound, kept, kept_strict, middle, outer,
                 spectra_disjoint, multiplicity_free):
        self.bound = bound
        self.strict_bound = strict_bound
        self.kept = kept
        self.kept_strict = kept_strict
        self.middle = middle
        self.outer = outer
        self.spectra_disjoint = spectra_disjoint
        self.multiplicity_free = multiplicity_free

    def __repr__(self):
        return (f"PicardBoundResult(bound={self.bound}, "
                f"strict_bound={self.strict_bound}, kept={self.kept}, "
                f"kept_strict={self.kept_strict}, "
                f"spectra_disjoint={self.spectra_disjoint})")


def picard_upper_bound(hring, sigma):
    """Orbit-scan bound on the Picard number of a smooth surface.

    Uses the graded pieces in degrees d-4, 2d-4, 3d-4 of a quartic or
    higher surface in projective three-space, with every character
    shifted by the volume-form twist so that all three pieces are
    compared on the same scale.
    """
    d = hring.degree
    if hring.nvars != 4 or d < 4:
        raise InputError("the bound needs a surface of degree at least 4 in "
                         f"P^3, got degree {d} in {hring.nvars} variables")
    if not check_invariance(hring.poly, sigma):
        raise NotInvariant("form is not an eigenvector of the automorphism")
    smooth = jacobian.is_smooth_artinian(hring)
    if not smooth:
        raise NotSmooth("quotient does not vanish above the socle: "
                        f"dim R_{hring.socle_degree + 1} = "
                        f"{smooth.full - smooth.rank} ({smooth.mode})")
    outer_lo = character_spectrum(hring, sigma, d - 4, twisted=True)
    middle = character_spectrum(hring, sigma, 2 * d - 4, twisted=True)
    outer_hi = character_spectrum(hring, sigma, 3 * d - 4, twisted=True)
    outer_chars = set(outer_lo.histogram) | set(outer_hi.histogram)
    n = sigma.modulus
    # the orbit of c is {g * u : u a unit mod n / g}, g = gcd(c, n), so an
    # orbit meets the outer spectra when some outer character shares g,
    # and the strict rule walks the orbit only to its first missing member
    outer_gcds = {gcd(x, n) for x in outer_chars}
    kept = []
    kept_strict = []
    for c in middle.characters():
        dim = middle.histogram[c]
        g = gcd(c, n)
        if g not in outer_gcds:
            kept.append((c, dim))
        if all(g * u in middle.histogram for u in range(n // g)
               if gcd(u, n // g) == 1):
            kept_strict.append((c, dim))
    bound = 1 + sum(dim for _, dim in kept)
    strict_bound = 1 + sum(dim for _, dim in kept_strict)
    return PicardBoundResult(
        bound=bound,
        strict_bound=strict_bound,
        kept=kept,
        kept_strict=kept_strict,
        middle=middle,
        outer=(outer_lo, outer_hi),
        spectra_disjoint=not (set(middle.histogram) & outer_chars),
        multiplicity_free=all(v == 1 for v in middle.histogram.values()),
    )
