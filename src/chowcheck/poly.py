"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are plain exponent tuples aligned with the ring's variable
names; terms live in a dict keyed by those tuples.  The canonical term
order is graded reverse lexicographic on the declared variable order.

A coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` otherwise (``_coefficient``), so integer forms are
multiplied in native integer arithmetic.  Floats are refused: a
division of coefficients always has a ``Fraction`` operand.

A ring may carry algebraic generators with rewrite rules, used for the
two extensions that appear in tangent-line computations:

* ``w`` with ``w**2 -> -1 - w`` (a primitive cube root of unity), and
* ``a`` with ``a**3 -> -lam`` for a designated ring variable ``lam``.

Every arithmetic result is normalised so stored exponents stay below the
rewrite caps (w-degree <= 1, a-degree <= 2); both rewrites strictly drop
total degree, so normalisation terminates and canonical forms are unique.
With those caps the tower is an integral domain, hence a polynomial is
zero exactly when its term dict is empty.

The parser folds each term's numbers into one coefficient and its
variable powers into one exponent vector, multiplies only parenthesised
groups as polynomials and sums terms into one dict.  ``substitute`` drops
a term that a variable assigned zero divides before expanding it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

from .report import InputError


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


def _coefficient(c):
    """``c`` as a stored coefficient: an integral ``Fraction`` becomes
    its numerator, anything else is returned unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _exact(value):
    """An int, a Fraction or anything else ``Fraction`` reads (a numeric
    string, say) as a stored coefficient; a float raises TypeError
    instead of being converted inexactly."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not an exact rational")
    if type(value) not in (int, Fraction):
        value = Fraction(value)
    return _coefficient(value)


def monomial_divides(e1, e2):
    """True if the monomial with exponents e1 divides the one with e2."""
    return all(a <= b for a, b in zip(e1, e2))


def enumerate_monomials(nvars, degree):
    """All exponent tuples of the given total degree, leading term first.

    On one degree, descending grevlex is ascending lex on the reversed
    tuple, so the tuples are generated in order, the last exponent
    slowest: comb(degree + nvars - 1, nvars - 1) of them, nothing sorted.
    """
    if nvars < 1 or degree < 0:
        raise InputError("need nvars >= 1 and degree >= 0")
    # table[j]: the degree-j monomials in the variables added so far;
    # only the last variable needs degree ``degree`` alone
    table = [[(j,)] for j in range(degree + 1)]
    for _ in range(nvars - 2):
        table = [_one_more_variable(table, j) for j in range(degree + 1)]
    return table[degree] if nvars == 1 else _one_more_variable(table, degree)


def _one_more_variable(table, j):
    """Degree-j monomials with one more variable, in grevlex order: the
    new exponent rises slowest, over ``table``'s lists in their order."""
    return [m + (last,) for last in range(j + 1) for m in table[j - last]]


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
            self.reductions[self.index[var]] = (
                cap, {e: _coefficient(c) for e, c in repl.items()})

    @classmethod
    def rationals(cls, names):
        return cls(names)

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
        ring.reductions[wi] = (2, {zero: -1, unit(wi): -1})
        ring.reductions[ai] = (3, {unit(ring.index[cube_param]): -1})
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
        """Canonicalise a term dict: apply rewrites, drop zero coefficients.

        Every rewrite drops total degree, so terms over a cap are merged per
        degree and rewritten highest degree first, each exponent tuple once.
        """
        rules = self.reductions
        if not rules:
            return {e: _coefficient(c) for e, c in raw.items() if c}
        out, levels = {}, {}
        items = raw.items()
        while True:
            for e, c in items:
                for vi, (cap, _) in rules.items():
                    if e[vi] >= cap:
                        level = levels.setdefault(sum(e), {})
                        level[e] = level.get(e, 0) + c
                        break
                else:
                    c += out.get(e, 0)
                    if c:
                        out[e] = _coefficient(c)
                    elif e in out:
                        del out[e]
            if not levels:
                return out
            items = []
            for e, c in levels.pop(max(levels)).items():
                for vi, (cap, repl) in rules.items():
                    if e[vi] >= cap:
                        break
                base = list(e)
                base[vi] -= cap
                for re, rc in repl.items():
                    items.append((monomial_mul(base, re), c * rc))

    def zero(self):
        return SparsePoly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, value):
        value = _exact(value)
        if not value:
            return self.zero()
        return SparsePoly(self, {(0,) * self.nvars: value})

    def variable(self, name):
        e = tuple(1 if i == self.index[name] else 0 for i in range(self.nvars))
        return SparsePoly(self, {e: 1})

    def monomial(self, exps, coeff=1):
        return SparsePoly(self, self.reduce_terms({tuple(exps): _exact(coeff)}))


class SparsePoly:
    """Immutable polynomial; ``terms`` maps exponent tuples to nonzero
    coefficients, an ``int`` when integral and a ``Fraction`` otherwise."""

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
            s = out.get(e, 0) + c
            if s:
                out[e] = _coefficient(s)
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
                raw[e] = raw.get(e, 0) + c1 * c2
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
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c):
        c = _exact(c)
        if not c:
            return self.ring.zero()
        return SparsePoly(self.ring, {e: _coefficient(x * c)
                                      for e, x in self.terms.items()})

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
        return self.terms.get(tuple(exps), 0)

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
        coords = tuple(Fraction(_exact(c)) for c in coords)
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
            raise InputError(f"{name!r} is not a variable of the source ring")
        if isinstance(value, SparsePoly):
            if value.ring != target:
                raise InputError(f"assignment for {name!r} is not in the target ring")
            resolved[name] = value
        else:
            resolved[name] = target.constant(value)
    for name in ring.names:
        if name not in resolved:
            if name not in target.index:
                raise InputError(f"unassigned variable {name!r} missing from target ring")
            resolved[name] = target.variable(name)
    zeros = [i for i, name in enumerate(ring.names) if not resolved[name]]
    powers = {}

    def power(name, e):
        if (name, e) not in powers:
            powers[name, e] = resolved[name] ** e
        return powers[name, e]

    raw = {}
    for exps, coeff in f.terms.items():
        if any(exps[i] for i in zeros):  # a zero-assigned variable divides it
            continue
        factors = [power(name, e) for name, e in zip(ring.names, exps) if e]
        term = reduce(mul, factors) if factors else target.one()
        for e, c in term.terms.items():
            raw[e] = raw.get(e, 0) + coeff * c
    return SparsePoly(target, target.reduce_terms(raw))


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
    remainder whose leading term g cannot cancel.  The remainder is one
    dict, reduced in place by each (rewritten) quotient term times g.
    """
    if f.ring != g.ring:
        raise ValueError("polynomials from different rings")
    ring = f.ring
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ge, gc = g.leading_term()
    quotient, rem = {}, dict(f.terms)
    while rem:
        re = max(rem, key=grevlex_key)
        if not monomial_divides(ge, re):
            raise NotDivisible("leading term not divisible", SparsePoly(ring, rem))
        mono = tuple(a - b for a, b in zip(re, ge))
        q = quotient[mono] = _coefficient(Fraction(rem[re]) / gc)
        for e, c in ring.reduce_terms({monomial_mul(mono, e): q * c
                                       for e, c in g.terms.items()}).items():
            s = rem.get(e, 0) - c
            if s:
                rem[e] = _coefficient(s)
            else:
                del rem[e]
    return SparsePoly(ring, quotient)


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
        raise InputError("coordinate count does not match chart variables")
    if not f.is_homogeneous(chart_names):
        raise InputError("polynomial is not homogeneous in the chart variables")
    try:
        pivot = next(i for i, c in enumerate(coords) if c == 1)
    except StopIteration:
        raise InputError("point needs a coordinate equal to 1") from None
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


def _parse_term(tok, ring):
    """A '*'-separated product as a term dict: numbers fold into one
    coefficient, variable powers into one exponent vector, and only
    parenthesised groups are multiplied as polynomials."""
    coeff, exps, group = 1, [0] * ring.nvars, None
    while True:
        ch, pos = tok.peek()
        if ch is None:
            raise PolyParseError("expected a factor", pos)
        if ch.isdigit():
            coeff *= tok.take_int()[0]
            if tok.peek()[0] == "/":
                tok.pos += 1
                den, pos = tok.take_int()
                if den == 0:
                    raise PolyParseError("zero denominator", pos)
                coeff = Fraction(coeff, den)
        else:
            if ch == "(":
                tok.pos += 1
                factor = _parse_expr(tok, ring)
                ch, pos = tok.peek()
                if ch != ")":
                    raise PolyParseError("expected ')'", pos)
                tok.pos += 1
            elif ch.isalpha() or ch == "_":
                name, pos = tok.take_name()
                if name not in ring.index:
                    raise PolyParseError(f"unknown variable {name!r}", pos)
                factor = ring.index[name]
            else:
                raise PolyParseError(f"unexpected character {ch!r}", pos)
            e = 1
            if tok.peek()[0] == "^":
                tok.pos += 1
                e, _ = tok.take_int()
            if type(factor) is int:
                exps[factor] += e
            else:
                group = factor ** e if group is None else group * factor ** e
        if tok.peek()[0] != "*":
            break
        tok.pos += 1
    terms = group.terms if group is not None else {(0,) * ring.nvars: 1}
    return ring.reduce_terms({monomial_mul(exps, e): coeff * c
                              for e, c in terms.items()})


def _parse_expr(tok, ring):
    """A sum of terms, accumulated into one term dict.  A leading term may
    carry '+' or '-'; after a binary operator only a unary '-' is
    accepted, so "x + -2*y" parses and "x + + y" does not."""
    out, signs, sign = {}, "+-", 1
    while True:
        ch, _ = tok.peek()
        if ch is not None and ch in signs:
            tok.pos += 1
            sign = -sign if ch == "-" else sign
        for e, c in _parse_term(tok, ring).items():
            out[e] = out.get(e, 0) + sign * c
        ch, _ = tok.peek()
        if ch not in ("+", "-"):
            return SparsePoly(ring, {e: _coefficient(c)
                                     for e, c in out.items() if c})
        tok.pos += 1
        signs, sign = "-", 1 if ch == "+" else -1


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
