"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are plain exponent tuples aligned with the ring's variable
names; terms live in a dict keyed by those tuples.  The canonical term
order is graded reverse lexicographic on the declared variable order.

A ring may carry algebraic generators with rewrite rules, used for the
two extensions that appear in tangent-line computations:

* ``w`` with ``w**2 -> -1 - w`` (a primitive cube root of unity), and
* ``a`` with ``a**3 -> -lam`` for a designated ring variable ``lam``.

Every arithmetic result is normalised so stored exponents stay below the
rewrite caps (w-degree <= 1, a-degree <= 2); both rewrites strictly drop
total degree, so normalisation terminates and canonical forms are unique.
With those caps the tower is an integral domain, hence a polynomial is
zero exactly when its term dict is empty.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add


class NotDivisible(ArithmeticError):
    """Exact division failed; ``remainder`` witnesses the failure."""

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = remainder


class PolyParseError(ValueError):
    """Parse failure with a 0-based ``position`` into the input text."""

    def __init__(self, message, position):
        super().__init__(message)
        self.position = position


def grevlex_key(exps):
    """Sort key: bigger key means bigger monomial in grevlex."""
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def monomial_mul(e1, e2):
    return tuple(map(add, e1, e2))


def monomial_divides(e1, e2):
    """True if the monomial with exponents e1 divides the one with e2."""
    return all(a <= b for a, b in zip(e1, e2))


def enumerate_monomials(nvars, degree):
    """All exponent tuples of the given total degree, leading term first.

    The count always equals comb(degree + nvars - 1, nvars - 1).
    """
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    out = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            fill(prefix + (e,), remaining - e, slots - 1)

    fill((), degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    if len(out) != comb(degree + nvars - 1, nvars - 1):
        raise AssertionError("monomial enumeration lost entries")
    return out


class PolyRing:
    """Variable names plus optional algebraic rewrite rules.

    ``reductions`` maps a variable name to ``(cap, replacement)`` where
    ``replacement`` is a term dict in this ring's exponent space; any
    stored exponent of that variable is kept below ``cap`` by rewriting
    ``var**cap -> replacement``.
    """

    __slots__ = ("names", "index", "reductions", "domain")

    def __init__(self, names, reductions=None, domain="rationals"):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.reductions = {}
        self.domain = domain
        for var, (cap, repl) in (reductions or {}).items():
            self.reductions[self.index[var]] = (cap, dict(repl))

    @classmethod
    def rationals(cls, names):
        return cls(names)

    @classmethod
    def with_cube_root_of_unity(cls, names, w="w"):
        """Adjoin w with w**2 + w + 1 == 0."""
        names = tuple(names) + (w,)
        ring = cls(names, domain="rationals+w")
        wi = ring.index[w]
        zero = (0,) * len(names)
        w1 = tuple(1 if i == wi else 0 for i in range(len(names)))
        ring.reductions[wi] = (2, {zero: Fraction(-1), w1: Fraction(-1)})
        return ring

    @classmethod
    def tower(cls, names, cube_param, w="w", a="a"):
        """Adjoin w (cube root of unity) and a with a**3 == -cube_param."""
        base = tuple(names)
        if cube_param not in base:
            raise ValueError(f"cube parameter {cube_param!r} not among variables")
        names = base + (w, a)
        ring = cls(names, domain="tower")
        n = len(names)
        zero = (0,) * n
        unit = lambda i: tuple(1 if j == i else 0 for j in range(n))
        wi, ai = ring.index[w], ring.index[a]
        ring.reductions[wi] = (2, {zero: Fraction(-1), unit(wi): Fraction(-1)})
        ring.reductions[ai] = (3, {unit(ring.index[cube_param]): Fraction(-1)})
        return ring

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.names == other.names and self.reductions == other.reductions

    def __repr__(self):
        return f"PolyRing({self.names!r}, domain={self.domain!r})"

    def reduce_terms(self, raw):
        """Canonicalise a term dict: apply rewrites, drop zero coefficients."""
        if not self.reductions:
            return {e: c for e, c in raw.items() if c}
        out = {}
        work = list(raw.items())
        while work:
            exps, coeff = work.pop()
            if not coeff:
                continue
            hit = None
            for vi, (cap, _) in self.reductions.items():
                if exps[vi] >= cap:
                    hit = vi
                    break
            if hit is None:
                c = out.get(exps, Fraction(0)) + coeff
                if c:
                    out[exps] = c
                elif exps in out:
                    del out[exps]
                continue
            cap, repl = self.reductions[hit]
            base = list(exps)
            base[hit] -= cap
            for re, rc in repl.items():
                work.append((monomial_mul(tuple(base), re), coeff * rc))
        return out

    def zero(self):
        return SparsePoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, value):
        value = Fraction(value)
        if not value:
            return self.zero()
        return SparsePoly(self, {(0,) * self.nvars: value})

    def variable(self, name):
        e = tuple(1 if i == self.index[name] else 0 for i in range(self.nvars))
        return SparsePoly(self, {e: Fraction(1)})

    def monomial(self, exps, coeff=1):
        return SparsePoly(self, self.reduce_terms({tuple(exps): Fraction(coeff)}))

    def from_text(self, text):
        return parse_poly(text, self)


class SparsePoly:
    """Immutable polynomial; ``terms`` maps exponent tuples to Fractions."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.terms.items()))))

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return SparsePoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        raw = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                raw[e] = raw.get(e, Fraction(0)) + c1 * c2
        return SparsePoly(self.ring, self.ring.reduce_terms(raw))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.ring.zero()
        return SparsePoly(self.ring, {e: x * c for e, x in self.terms.items()})

    def total_degree(self, names=None):
        """Largest total degree of a term, restricted to ``names`` if given.

        Returns -1 for the zero polynomial.
        """
        if not self.terms:
            return -1
        if names is None:
            return max(sum(e) for e in self.terms)
        idx = [self.ring.index[n] for n in names]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous(self, names=None):
        if not self.terms:
            return True
        if names is None:
            degrees = {sum(e) for e in self.terms}
        else:
            idx = [self.ring.index[n] for n in names]
            degrees = {sum(e[i] for i in idx) for e in self.terms}
        return len(degrees) == 1

    def leading_term(self):
        """(exponents, coefficient) of the grevlex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    def to_text(self):
        """Canonical text form; parseable back into the same polynomial."""
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"<SparsePoly {self.to_text()}>"


class ProjectivePoint:
    """Point with exact rational homogeneous coordinates.

    Coordinates are normalised so the first nonzero one equals 1, which
    makes equality of points literal equality of tuples.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if not any(coords):
            raise ValueError("all coordinates are zero")
        lead = next(c for c in coords if c)
        self.coords = tuple(c / lead for c in coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def substitute(f, assignment, target=None):
    """Evaluate ``f`` under a variable assignment.

    ``assignment`` maps variable names of ``f`` to polynomials of the
    target ring (or to rational constants).  Variables left unassigned
    must exist in the target ring and map to themselves.
    """
    ring = f.ring
    target = target or ring
    resolved = {}
    for name, value in assignment.items():
        if name not in ring.index:
            raise ValueError(f"{name!r} is not a variable of the source ring")
        if isinstance(value, SparsePoly):
            if value.ring != target:
                raise ValueError(f"assignment for {name!r} is not in the target ring")
            resolved[name] = value
        else:
            resolved[name] = target.constant(value)
    for name in ring.names:
        if name not in resolved:
            if name not in target.index:
                raise ValueError(f"unassigned variable {name!r} missing from target ring")
            resolved[name] = target.variable(name)
    powers = {name: {0: target.one()} for name in ring.names}

    def power(name, e):
        cache = powers[name]
        if e not in cache:
            cache[e] = resolved[name] ** e
        return cache[e]

    result = target.zero()
    for exps, coeff in f.sorted_terms():
        term = target.constant(coeff)
        for name, e in zip(ring.names, exps):
            if e:
                term = term * power(name, e)
        result = result + term
    return result


def partial_derivative(f, name):
    ring = f.ring
    i = ring.index[name]
    out = {}
    for exps, coeff in f.terms.items():
        if exps[i]:
            e = list(exps)
            e[i] -= 1
            out[tuple(e)] = coeff * exps[i]
    return SparsePoly(ring, ring.reduce_terms(out))


def exact_divide(f, g):
    """Quotient q with f == q * g, or NotDivisible carrying the remainder.

    Standard leading-term division: if f == q * g then the leading term
    of every partial remainder is divisible by the leading term of g, so
    the greedy loop either terminates at zero or exposes a nonzero
    remainder whose leading term g cannot cancel.
    """
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    ring = f.ring
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ge, gc = g.leading_term()
    quotient = ring.zero()
    rem = f
    while rem:
        re, rc = rem.leading_term()
        if not monomial_divides(ge, re):
            raise NotDivisible("leading term not divisible", rem)
        mono = tuple(a - b for a, b in zip(re, ge))
        qterm = ring.monomial(mono, rc / gc)
        quotient = quotient + qterm
        rem = rem - qterm * g
    return quotient


def multiplicity_at_point(f, point, chart_names):
    """Vanishing order of ``f`` at a rational point of its projective chart.

    ``chart_names`` are the homogeneous coordinates (a subset of the
    ring's variables) and ``point`` their values; some coordinate must
    equal 1 and the polynomial is dehomogenised there.  Other ring
    variables are treated as symbolic parameters, so with parameters
    present the answer is the multiplicity at a generic parameter value.
    Returns 0 when the point does not lie on the curve.
    """
    if isinstance(point, ProjectivePoint):
        coords = point.coords
    else:
        coords = tuple(Fraction(c) for c in point)
    chart_names = tuple(chart_names)
    if len(coords) != len(chart_names):
        raise ValueError("coordinate count does not match chart variables")
    if not f.is_homogeneous(chart_names):
        raise ValueError("polynomial is not homogeneous in the chart variables")
    try:
        pivot = next(i for i, c in enumerate(coords) if c == 1)
    except StopIteration:
        raise ValueError("point needs a coordinate equal to 1") from None
    ring = f.ring
    assignment = {}
    for i, (name, c) in enumerate(zip(chart_names, coords)):
        if i == pivot:
            assignment[name] = ring.constant(1)
        else:
            assignment[name] = ring.constant(c) + ring.variable(name)
    local = substitute(f, assignment, ring)
    if local.is_zero():
        raise ArithmeticError("dehomogenised polynomial vanished identically")
    idx = [ring.index[n] for n in chart_names]
    return min(sum(e[i] for i in idx) for e in local.terms)


def check_parametrization(f, assignment, target):
    """Compose ``f`` with a parametrisation and test for identical vanishing.

    Returns (True, None) when the composition is zero, otherwise
    (False, witness) with the nonzero composed polynomial.
    """
    composed = substitute(f, assignment, target)
    if composed.is_zero():
        return True, None
    return False, composed


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take_int(self):
        ch, start = self.peek()
        if ch is None or not ch.isdigit():
            raise PolyParseError("expected an integer", start)
        end = start
        while end < len(self.text) and self.text[end].isdigit():
            end += 1
        self.pos = end
        return int(self.text[start:end]), start

    def take_name(self):
        ch, start = self.peek()
        if ch is None or not (ch.isalpha() or ch == "_"):
            raise PolyParseError("expected a variable name", start)
        end = start
        while end < len(self.text) and (self.text[end].isalnum()
                                        or self.text[end] == "_"):
            end += 1
        self.pos = end
        return self.text[start:end], start


def _parse_factor(tok, ring):
    ch, pos = tok.peek()
    if ch is None:
        raise PolyParseError("expected a factor", pos)
    if ch.isdigit():
        num, _ = tok.take_int()
        ch2, _ = tok.peek()
        if ch2 == "/":
            tok.pos += 1
            den, dpos = tok.take_int()
            if den == 0:
                raise PolyParseError("zero denominator", dpos)
            return ring.constant(Fraction(num, den))
        return ring.constant(Fraction(num))
    if ch.isalpha() or ch == "_":
        name, npos = tok.take_name()
        if name not in ring.index:
            raise PolyParseError(f"unknown variable {name!r}", npos)
        result = ring.variable(name)
    elif ch == "(":
        tok.pos += 1
        result = _parse_expr(tok, ring)
        ch2, cpos = tok.peek()
        if ch2 != ")":
            raise PolyParseError("expected ')'", cpos)
        tok.pos += 1
    else:
        raise PolyParseError(f"unexpected character {ch!r}", pos)
    ch2, _ = tok.peek()
    if ch2 == "^":
        tok.pos += 1
        e, _ = tok.take_int()
        result = result ** e
    return result


def _parse_term(tok, ring):
    result = _parse_factor(tok, ring)
    while True:
        ch, _ = tok.peek()
        if ch != "*":
            return result
        tok.pos += 1
        result = result * _parse_factor(tok, ring)


def _parse_signed_term(tok, ring, signs):
    """A term, optionally preceded by one sign character from ``signs``."""
    ch, _ = tok.peek()
    if ch is not None and ch in signs:
        tok.pos += 1
        term = _parse_term(tok, ring)
        return -term if ch == "-" else term
    return _parse_term(tok, ring)


def _parse_expr(tok, ring):
    # a leading term may carry '+' or '-'; after a binary operator only a
    # unary '-' is accepted, so "x + -2*y" parses and "x + + y" does not
    result = _parse_signed_term(tok, ring, "+-")
    while True:
        ch, _ = tok.peek()
        if ch not in ("+", "-"):
            return result
        tok.pos += 1
        term = _parse_signed_term(tok, ring, "-")
        result = result + term if ch == "+" else result - term


def parse_poly(text, ring):
    """Parse ``text`` into a polynomial of ``ring``.

    Grammar: sums of '*'-separated products of rational coefficients
    (integer, or integer/integer), variable powers written name or
    name^exp, and parenthesized subexpressions, which may also carry
    an ^exp.  The first term may carry a sign, and every later term a
    unary minus after its '+' or '-' (``x - -2*y``).
    """
    tok = _Tokenizer(text)
    result = _parse_expr(tok, ring)
    ch, pos = tok.peek()
    if ch is not None:
        raise PolyParseError(f"unexpected character {ch!r}", pos)
    return result
