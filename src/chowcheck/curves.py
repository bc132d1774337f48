"""Intersection cycles of plane curves with coordinate lines.

Restricting a ternary form to a coordinate line gives a binary form
whose rational zeros, with multiplicity, form a zero-cycle on the line.
Differences of such cycles for different lines are relations in the
divisor class group of the curve; the integer lattice they span yields
upper-bound certificates for the order of rational equivalence between
two points.  All factoring is exact over the rationals, and irreducible
non-linear factors are reported instead of being silently discarded.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from . import exactla
from .poly import ProjectivePoint, SparsePoly
from .report import CheckFailure


class LineIsComponent(ArithmeticError):
    """Restriction of a curve to a line vanished identically."""


class NonRationalIntersection(ArithmeticError):
    """An intersection cycle has points outside the rationals."""


class ParameterNotEliminated(ValueError, CheckFailure):
    """A restricted form still depends on a non-coordinate variable."""


class UnknownLabel(KeyError, CheckFailure):
    """A point label is missing from a relation lattice basis."""


def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    den = _trim([Fraction(c) for c in den])
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / lead
        if c:
            quot[k] = c
            for j, d in enumerate(den):
                num[k + j] -= c * d
    return quot, _trim(num)

def _poly_gcd(a, b):
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def squarefree_decomposition(coeffs):
    """Yun decomposition [(g1, 1), (g2, 2), ...] with each gi square-free.

    The product of gi**i recovers the input up to a constant; trivial
    factors are omitted and each gi is monic.
    """
    a = _trim([Fraction(c) for c in coeffs])
    if len(a) <= 1:
        return []
    g = _poly_gcd(a, _poly_deriv(a))
    if len(g) == 1:
        lead = a[-1]
        return [([c / lead for c in a], 1)]
    b, rem = _poly_divmod(a, g)
    assert not rem
    ap_over_g, rem = _poly_divmod(_poly_deriv(a), g)
    assert not rem
    d = _poly_sub(ap_over_g, _poly_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        p = _poly_gcd(b, d)
        if len(p) > 1:
            out.append((p, i))
        b, rem = _poly_divmod(b, p)
        assert not rem
        d_over_p, rem = _poly_divmod(d, p)
        assert not rem
        d = _poly_sub(d_over_p, _poly_deriv(b))
        i += 1
    return out


def _divisors(n):
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def rational_roots(coeffs):
    """All rational roots of a polynomial with multiplicity.

    Returns (roots, residuals): ``roots`` is a list of (root,
    multiplicity) pairs; ``residuals`` lists (coefficients, multiplicity,
    certified_irreducible) for the non-linear square-free parts left
    after removing rational roots.  A residual of degree two or three
    without rational roots is irreducible over the rationals; higher
    degrees are not certified.
    """
    roots = []
    residuals = []
    for part, mult in squarefree_decomposition(coeffs):
        part = list(part)
        zero_mult = 0
        while part and not part[0]:
            part = part[1:]
            zero_mult += 1
        if zero_mult:
            roots.append((Fraction(0), mult))
        den = 1
        for c in part:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in part]
        content = 0
        for c in ints:
            content = gcd(content, c)
        if content > 1:
            ints = [c // content for c in ints]
        if len(ints) > 1:
            for p in _divisors(ints[0]):
                for q in _divisors(ints[-1]):
                    for cand in (Fraction(p, q), Fraction(-p, q)):
                        if not sum(c * cand ** k for k, c in enumerate(ints)):
                            roots.append((cand, mult))
                            quot, rem = _poly_divmod(
                                [Fraction(c) for c in ints],
                                [-cand, Fraction(1)])
                            assert not rem
                            den2 = 1
                            for c in quot:
                                den2 = den2 * c.denominator // gcd(den2, c.denominator)
                            ints = [int(c * den2) for c in quot]
            if len(ints) > 1:
                content = 0
                for c in ints:
                    content = gcd(content, c)
                if ints[-1] < 0:
                    content = -content
                deg = len(ints) - 1
                residuals.append((tuple(Fraction(c // content) for c in ints),
                                  mult, deg <= 3))
    return roots, residuals


class DivisorCycle:
    """Zero-cycle on a line: rational points with integer multiplicities.

    ``residual_factors`` records non-linear irreducible pieces of the
    defining binary form as (coefficients, multiplicity, certified)
    triples so that degrees always add up to the form degree.
    """

    __slots__ = ("points", "multiplicities", "labels", "residual_factors")

    def __init__(self, points, multiplicities, labels=None, residual_factors=()):
        if len(points) != len(multiplicities):
            raise ValueError("one multiplicity per point required")
        if any(m == 0 for m in multiplicities):
            raise ValueError("multiplicities must be nonzero")
        self.points = list(points)
        self.multiplicities = [int(m) for m in multiplicities]
        if labels is None:
            labels = [repr(p) for p in self.points]
        self.labels = list(labels)
        self.residual_factors = list(residual_factors)

    def total_degree(self):
        total = sum(self.multiplicities)
        for coeffs, mult, _ in self.residual_factors:
            total += (len(coeffs) - 1) * mult
        return total

    def __repr__(self):
        parts = [f"{m}*{label}" for label, m in zip(self.labels, self.multiplicities)]
        for coeffs, mult, _ in self.residual_factors:
            parts.append(f"[deg {len(coeffs) - 1} factor]^{mult}")
        return " + ".join(parts) if parts else "0"


def restrict_to_line(f, line_var, plane_vars=None):
    """Binary form cut out on the coordinate line ``line_var`` = 0.

    ``plane_vars`` names the three coordinates of the plane; variables of
    the ring outside it are treated as parameters and must drop out of
    the restriction, otherwise ParameterNotEliminated is raised.  A
    restriction that vanishes identically raises LineIsComponent.
    """
    ring = f.ring
    if plane_vars is None:
        plane_vars = ring.names
    if len(plane_vars) != 3:
        raise ValueError("a plane needs exactly three coordinates")
    if line_var not in plane_vars:
        raise ValueError(f"{line_var!r} is not a plane coordinate")
    if not f.is_homogeneous(plane_vars):
        raise ValueError("curve form must be homogeneous in the plane coordinates")
    i = ring.index[line_var]
    kept = {e: c for e, c in f.terms.items() if e[i] == 0}
    g = SparsePoly(ring, kept)
    if g.is_zero():
        raise LineIsComponent(f"{line_var} = 0 is a component of the curve")
    remaining = tuple(v for v in plane_vars if v != line_var)
    allowed = {ring.index[v] for v in remaining}
    for e in kept:
        for j, a in enumerate(e):
            if a and j not in allowed:
                raise ParameterNotEliminated(
                    f"restriction still involves {ring.names[j]!r}")
    return g, remaining


def binary_form_cycle(g, uv=None, labels=None):
    """Factor a binary form into a zero-cycle of rational points.

    Rational linear factors become points (u0 : v0) on the line with
    their multiplicities; the point at (1 : 0) is the factor of the
    second variable.  ``labels`` optionally maps normalized coordinate
    pairs to names.  Degrees are conserved: rational multiplicities plus
    residual factor degrees add up to deg g.
    """
    if g.is_zero():
        raise ValueError("binary form must be nonzero")
    ring = g.ring
    if uv is None:
        uv = ring.names
    if len(uv) != 2:
        raise ValueError("a binary form needs exactly two variables")
    iu, iv = ring.index[uv[0]], ring.index[uv[1]]
    if not g.is_homogeneous(uv):
        raise ValueError("binary form must be homogeneous")
    e = g.total_degree(uv)
    coeffs = [Fraction(0)] * (e + 1)
    for exps, c in g.terms.items():
        for j, a in enumerate(exps):
            if a and j not in (iu, iv):
                raise ValueError(f"form involves extra variable {ring.names[j]!r}")
        coeffs[exps[iu]] += c
    dehom_deg = max(k for k, c in enumerate(coeffs) if c)
    points = []
    mults = []
    if dehom_deg < e:
        points.append(ProjectivePoint((1, 0)))
        mults.append(e - dehom_deg)
    roots, residuals = rational_roots(coeffs[:dehom_deg + 1])
    for root, mult in sorted(roots):
        points.append(ProjectivePoint((root, 1)))
        mults.append(mult)
    names = None
    if labels is not None:
        names = [labels.get(p.coords, repr(p)) for p in points]
    cycle = DivisorCycle(points, mults, labels=names, residual_factors=residuals)
    assert cycle.total_degree() == e
    return cycle


class RelationLattice:
    """Integer lattice of divisor relations over a fixed point basis.

    Every row is a difference of two hyperplane-section cycles, so rows
    must sum to zero; the constructor enforces this.
    """

    __slots__ = ("point_basis", "relations", "cycles")

    def __init__(self, point_basis, relations, cycles=None):
        self.point_basis = list(point_basis)
        rows = [list(map(int, row)) for row in relations]
        for row in rows:
            if len(row) != len(self.point_basis):
                raise ValueError("relation width must match basis size")
            if sum(row) != 0:
                raise ValueError(f"relation {row} does not sum to zero")
        self.relations = exactla.IntMatrix(rows)
        self.cycles = list(cycles) if cycles is not None else []

    def __repr__(self):
        return (f"RelationLattice(basis={self.point_basis}, "
                f"relations={self.relations.rows()})")


def section_cycle(f, line_var, plane_vars, labels):
    """Intersection cycle of the curve ``f`` with the coordinate line
    ``line_var`` = 0 of the plane ``plane_vars``, as name -> multiplicity.

    The line must meet the curve entirely in rational points, otherwise
    NonRationalIntersection is raised.  Each point is named by ``labels``,
    which maps normalized plane coordinates to names, or by its repr.
    """
    g, remaining = restrict_to_line(f, line_var, plane_vars)
    cycle = binary_form_cycle(g, uv=remaining)
    if cycle.residual_factors:
        degs = [len(c) - 1 for c, _, _ in cycle.residual_factors]
        raise NonRationalIntersection(
            f"line {line_var} = 0 meets the curve in non-rational points "
            f"(irreducible factor degrees {degs})")
    named = {}
    for p, m in zip(cycle.points, cycle.multiplicities):
        it = iter(p.coords)
        point = ProjectivePoint([Fraction(0) if v == line_var else next(it)
                                 for v in plane_vars])
        label = labels.get(point.coords, repr(point))
        named[label] = named.get(label, 0) + m
    return named


def hyperplane_relations(curve, line_vars, plane_vars=None, labels=None):
    """Relation lattice from consecutive coordinate-line sections.

    Each line must meet the curve entirely in rational points, otherwise
    NonRationalIntersection is raised (``section_cycle``).  Relations are
    the differences of the intersection cycles of consecutive lines,
    written over the alphabetically ordered union of their supports.
    """
    ring = curve.ring
    if plane_vars is None:
        plane_vars = ring.names
    if labels is None:
        labels = {}
    section = [section_cycle(curve, line_var, plane_vars, labels)
               for line_var in line_vars]
    basis = sorted(set().union(*section) if section else ())
    rows = []
    for first, second in zip(section, section[1:]):
        rows.append([first.get(lbl, 0) - second.get(lbl, 0) for lbl in basis])
    return RelationLattice(basis, rows, cycles=section)


class EquivalenceOrder:
    """Certified multiple: order * (p1 - p2) lies in the relation lattice.

    This is an upper-bound certificate for the rational equivalence
    order; the lattice may omit relations from other functions, so the
    right reading is "rational equivalence holds at n = order", not that
    no smaller n works for some function outside the lattice.
    """

    __slots__ = ("order", "p1", "p2", "witness")

    def __init__(self, order, p1, p2, witness):
        self.order = order
        self.p1 = p1
        self.p2 = p2
        self.witness = witness

    def __repr__(self):
        return (f"EquivalenceOrder(order={self.order}, pair=({self.p1}, "
                f"{self.p2}), witness={self.witness})")


def minimal_equivalence_order(lattice, p1, p2):
    """Least n >= 1 with n(p1 - p2) in the lattice, or None.

    The returned witness gives the integer combination of the relation
    rows that equals n(p1 - p2); it is re-multiplied and checked before
    being returned.
    """
    for label in (p1, p2):
        if label not in lattice.point_basis:
            raise UnknownLabel(label)
    vec = [0] * len(lattice.point_basis)
    vec[lattice.point_basis.index(p1)] += 1
    vec[lattice.point_basis.index(p2)] -= 1
    found = exactla.minimal_multiple_in_lattice(lattice.relations, vec)
    if found is None:
        return None
    return EquivalenceOrder(found.n, p1, p2, found.witness)
