"""Intersection cycles of plane curves with coordinate lines.

Restricting a ternary form to a coordinate line gives a binary form
whose rational zeros, with multiplicity, form a zero-cycle on the line.
Differences of such cycles for different lines are relations in the
divisor class group of the curve; the integer lattice they span yields
upper-bound certificates for the order of rational equivalence between
two points.  Roots come from one integer path: Yun's square-free
decomposition over Z, p-adic lifting of each part's roots mod a prime,
and a proof of every root by exact division.  Irreducible non-linear
factors are reported instead of being silently discarded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, zip_longest
from math import gcd, lcm

from . import exactla, modrank
from .poly import ProjectivePoint, SparsePoly
from .report import CheckFailure, InputError


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


def _primitive(coeffs):
    """The integer coefficients, lowest degree first, of the primitive
    polynomial with positive lead that is a rational multiple of
    ``coeffs``; [] for the zero polynomial."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = _trim([c.numerator * (den // c.denominator) for c in coeffs])
    content = -gcd(*ints) if ints and ints[-1] < 0 else gcd(*ints)
    return [c // content for c in ints]


def _divide(num, den):
    """The integer quotient num / den, or None when den does not divide
    num in Z[x].  For a primitive den that is exactly when it does not
    divide over Q (Gauss's lemma)."""
    num = list(num)
    lead, n = den[-1], len(den)
    quot = [0] * max(0, len(num) - n + 1)
    for k in reversed(range(len(quot))):
        q, r = divmod(num[k + n - 1], lead)
        if r:
            return None
        quot[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    return None if any(num) else quot


def _gcd(a, b):
    """Primitive gcd with positive lead, by the primitive
    pseudo-remainder sequence over Z."""
    a, b = _primitive(a), _primitive(b)
    while b:
        lead, n = b[-1], len(b)
        while len(a) >= n:
            c, k = a[-1], len(a) - n
            a = [lead * x for x in a]
            for j, d in enumerate(b):
                a[k + j] -= c * d
            _trim(a)
        a, b = b, _primitive(a)
    return a


def _yun(f):
    """Yun's square-free decomposition of a primitive integer polynomial
    f: [(g, i), ...] with f the product of the g**i, each g primitive and
    square-free, constant g omitted.  Every division is by a primitive
    gcd, so each quotient is integral."""
    if len(f) <= 1:
        return []
    df = _poly_deriv(f)
    g = _gcd(f, df)
    b, c = _divide(f, g), _divide(df, g)
    out = []
    i = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _poly_deriv(b), fillvalue=0)])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divide(b, a), _divide(d, a)
        i += 1
    return out


def squarefree_decomposition(coeffs):
    """Yun decomposition [(g1, 1), (g2, 2), ...] with each gi square-free.

    The product of gi**i recovers the input up to a constant; trivial
    factors are omitted and each gi is monic, with ``Fraction`` entries.
    The decomposition itself runs over Z (``_yun``).
    """
    return [([Fraction(c, g[-1]) for c in g], i)
            for g, i in _yun(_primitive(coeffs))]


def _eval_mod(coeffs, x, m):
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % m
    return value


def _lifted_roots(g):
    """The roots in Z_p of the square-free integer polynomial g, as
    residues mod m, and m, a power of p above 2*max(|g(0)|, lead)**2.

    p is the first prime not dividing the lead at which every root of g
    mod p (found by evaluation) is simple; only primes dividing
    lead*disc(g) can fail.  Newton's iteration with a squaring modulus
    lifts each.  A rational root a/b in lowest terms has |a| <= |g(0)|
    and 0 < b <= lead, so it is a root mod p and lifts to a/b mod m.
    """
    dg = _poly_deriv(g)
    for p in filter(modrank.is_prime, count(2)):
        if g[-1] % p:
            roots = [r for r in range(p) if not _eval_mod(g, r, p)]
            if all(_eval_mod(dg, r, p) for r in roots):
                break
    bound = 2 * max(abs(g[0]), g[-1]) ** 2
    m = p
    while m <= bound:
        m *= m
        roots = [(r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
                 for r in roots]
    return roots, m


def rational_roots(coeffs):
    """All rational roots of a polynomial with multiplicity.

    Returns (roots, residuals): ``roots`` is a list of (root,
    multiplicity) pairs; ``residuals`` lists (coefficients, multiplicity,
    certified_irreducible) for the non-linear square-free parts left
    after removing rational roots, each primitive with positive lead.  A
    residual of degree two or three without rational roots is
    irreducible over the rationals; higher degrees are not certified.

    Each square-free part over Z (``_yun``) has the root 0 when x divides
    it; its other candidates are the rational reconstructions of its
    p-adic roots (``_lifted_roots``; Loos 1983).  A candidate a/b is kept
    only when b*x - a divides the part exactly, so no root is missed and
    none is invented.
    """
    roots = []
    residuals = []
    for g, mult in _yun(_primitive(coeffs)):
        if not g[0]:
            roots.append((Fraction(0), mult))
            g = g[1:]
        if len(g) > 1:
            lifted, m = _lifted_roots(g)
            for r in lifted:
                for x in exactla.rational_reconstruction([r], m) or ():
                    quot = _divide(g, [-x.numerator, x.denominator])
                    if quot is not None:
                        roots.append((Fraction(x), mult))
                        g = quot
        if len(g) > 1:
            residuals.append((tuple(map(Fraction, g)), mult, len(g) <= 4))
    return roots, residuals


class DivisorCycle:
    """Zero-cycle on a line: rational points with integer multiplicities.

    ``residual_factors`` records non-linear irreducible pieces of the
    defining binary form as (coefficients, multiplicity, certified)
    triples so that degrees always add up to the form degree.
    """

    __slots__ = ("points", "multiplicities", "residual_factors")

    def __init__(self, points, multiplicities, residual_factors=()):
        if len(points) != len(multiplicities):
            raise ValueError("one multiplicity per point required")
        if any(m == 0 for m in multiplicities):
            raise ValueError("multiplicities must be nonzero")
        self.points = list(points)
        self.multiplicities = [int(m) for m in multiplicities]
        self.residual_factors = list(residual_factors)

    def total_degree(self):
        total = sum(self.multiplicities)
        for coeffs, mult, _ in self.residual_factors:
            total += (len(coeffs) - 1) * mult
        return total

    def __repr__(self):
        parts = [f"{m}*{p!r}" for p, m in zip(self.points, self.multiplicities)]
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
        raise InputError("a plane needs exactly three coordinates")
    if line_var not in plane_vars:
        raise InputError(f"{line_var!r} is not a plane coordinate")
    if not f.is_homogeneous(plane_vars):
        raise InputError("curve form must be homogeneous in the plane coordinates")
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


def binary_form_cycle(g, uv=None):
    """Factor a binary form into a zero-cycle of rational points.

    Rational linear factors become points (u0 : v0) on the line with
    their multiplicities; the point at (1 : 0) is the factor of the
    second variable.  Degrees are conserved: rational multiplicities plus
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
    coeffs = [0] * (e + 1)
    for exps, c in g.terms.items():
        for j, a in enumerate(exps):
            if a and j not in (iu, iv):
                raise ValueError(f"form involves extra variable {ring.names[j]!r}")
        coeffs[exps[iu]] = c
    dehom_deg = max(k for k, c in enumerate(coeffs) if c)
    points = []
    mults = []
    if dehom_deg < e:
        points.append(ProjectivePoint((1, 0)))
        mults.append(e - dehom_deg)
    roots, residuals = rational_roots(coeffs)
    for root, mult in sorted(roots):
        points.append(ProjectivePoint((root, 1)))
        mults.append(mult)
    cycle = DivisorCycle(points, mults, residual_factors=residuals)
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
        self.relations = [list(map(int, row)) for row in relations]
        for row in self.relations:
            if len(row) != len(self.point_basis):
                raise ValueError("relation width must match basis size")
            if sum(row) != 0:
                raise ValueError(f"relation {row} does not sum to zero")
        self.cycles = list(cycles) if cycles is not None else []

    def __repr__(self):
        return (f"RelationLattice(basis={self.point_basis}, "
                f"relations={self.relations})")


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


def hyperplane_relations(curve, line_vars, plane_vars=None, labels=None,
                         section=None):
    """Relation lattice from consecutive coordinate-line sections.

    Each line must meet the curve entirely in rational points, otherwise
    NonRationalIntersection is raised (``section_cycle``).  Relations are
    the differences of the intersection cycles of consecutive lines,
    written over the alphabetically ordered union of their supports.
    ``section`` maps a line variable to its cycle, for a caller that
    keeps the cycles it has computed; by default ``section_cycle``.
    """
    if section is None:
        def section(line_var):
            return section_cycle(curve, line_var,
                                 plane_vars or curve.ring.names, labels or {})
    cycles = [section(line_var) for line_var in line_vars]
    basis = sorted(set().union(*cycles) if cycles else ())
    rows = []
    for first, second in zip(cycles, cycles[1:]):
        rows.append([first.get(lbl, 0) - second.get(lbl, 0) for lbl in basis])
    return RelationLattice(basis, rows, cycles=cycles)


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
