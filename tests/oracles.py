"""Exact oracles kept from routes the package no longer takes.

Graded pieces of non-monomial rings were once eliminated over Q one
character block of the Jacobian slice at a time, with a Fraction
Gauss-Jordan elimination.  The package now lifts them from GF(p); the
block route is kept here, with its own elimination, as the oracle of
differential tests.

Macaulay's square rows were once picked out of the whole slice by their
row indices (``macaulay_rows``); the package now builds them alone, and
the indices are kept here as the oracle of that builder.

The least multiple of a vector in an integer row lattice was once found
from two Hermite normal forms, with and without the vector adjoined, as
the quotient of their pivot products; the package now reads it from one,
and the two-form route is kept here as its oracle.

The uniform multiplication bound of a monomial Jacobian ideal was once
counted by listing the standard monomials of degree b
(``listed_uniform_bound``), and so was the ideal's dimension in each
degree (``listed_ideal_rank``); the package now counts both by inclusion
and exclusion over the generators, and the listings are kept here as
their oracles.

Dict-row slices were once built on exponent tuples, each entry's column
looked up by its product monomial (``tuple_dict_rows``); the package now
builds them on integer monomial codes, and the tuple builder is kept here
as its oracle.

Polynomial text was once parsed factor by factor, every number and
variable a polynomial and every '*' and '+' a polynomial product or sum
(``factor_parse_poly``); substitution once expanded every term, also
those with a positive exponent on a variable assigned zero
(``loop_substitute``); and exact division once rebuilt its quotient and
remainder polynomials for every quotient term (``loop_exact_divide``).
The package now folds each term's numbers and powers as it reads them,
drops terms a zero assignment kills, and reduces one remainder dict in
place; the old routes are kept here as their oracles.  The factor parser
keeps the tokenizer it was written for (``PeekingTokenizer``), which
skipped blanks at every look-ahead; the package's skips them once per
token.

The standard monomials of a monomial Jacobian ideal were once found by
testing each degree-k monomial against every generator
(``listed_piece``); the package now compares integer monomial codes, and
the listing is kept here as its oracle.

On a ring not proven smooth for the step, the surjectivity of a
multiplication map was once decided by building the whole map from exact
pieces (``WholeMap``) and ranking it (``is_surjective``), and the
restricted map of ``functional_kernel_map`` was built whole and ranked
exactly after every piece it could read, the socle piece first
(``pieces_functional_kernel_map``).  The package now answers both from
generation in degree 1 where it applies, and ranks a restricted map only
until its rank reaches the target; the old routes are kept here as their
oracles.  ``is_surjective`` and the whole matrix of a
``jacobian.MultiplicationMap`` (``map_matrix``) lost their last callers
in the package, and live here with the tests that read them.
"""

from fractions import Fraction

from functools import reduce
from operator import mul

from chowcheck import exactla, jacobian, modrank
from chowcheck.exactla import _reduce_against_hnf, hermite_normal_form
from chowcheck.poly import (NotDivisible, PolyParseError, SparsePoly,
                            enumerate_monomials, monomial_divides,
                            monomial_mul)
from chowcheck.report import InputError


def fraction_rref(rows, ncols):
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


def character_blocks(hring, k, symmetry=None):
    """The degree-k slice split by the characters of ``symmetry``, an
    (exponents, modulus) pair (default: the trivial character), each
    block eliminated by ``fraction_rref``.

    Returns {character: (columns, rref rows, local pivot indices)}.  A
    slice row supported in several blocks raises AssertionError: the
    form is then no eigenvector of the symmetry.
    """
    exponents, modulus = symmetry or ((0,) * hring.nvars, 1)
    monos = enumerate_monomials(hring.nvars, k)
    char = [sum(a * e for a, e in zip(m, exponents)) % modulus for m in monos]
    cols = {}
    for j, c in enumerate(char):
        cols.setdefault(c, []).append(j)
    rows = {c: [] for c in cols}
    for row in hring.span_rows(k)[0]:
        support = {char[j] for j, x in enumerate(row) if x}
        assert len(support) <= 1, "a slice row spans several characters"
        for c in support:
            rows[c].append([row[j] for j in cols[c]])
    return {c: (js, *fraction_rref(rows[c], len(js)))
            for c, js in sorted(cols.items())}


def block_pieces(hring, k, symmetry=None):
    """(representatives, normal forms) of the degree-k piece from the
    character blocks: the free columns of every block, and for a pivot
    column minus the free part of its row."""
    monos = enumerate_monomials(hring.nvars, k)
    free, rows = [], {}
    for js, rref, piv in character_blocks(hring, k, symmetry).values():
        local = [t for t in range(len(js)) if t not in piv]
        free += [js[t] for t in local]
        for row, pc in zip(rref, piv):
            rows[js[pc]] = {js[t]: -row[t] for t in local if row[t]}
    free.sort()
    pos = {j: i for i, j in enumerate(free)}
    forms = []
    for j in range(len(monos)):
        form = [0] * len(free)
        if j in pos:
            form[pos[j]] = 1
        for t, x in rows.get(j, {}).items():
            form[pos[t]] = x
        forms.append(tuple(form))
    return [monos[j] for j in free], forms


def block_spectrum(hring, sigma, k):
    """{character: dimension} of the degree-k piece, from the blocks of
    the diagonal automorphism ``sigma``; empty characters omitted."""
    blocks = character_blocks(hring, k, (sigma.exponents, sigma.modulus))
    return {c: len(js) - len(piv) for c, (js, _, piv) in blocks.items()
            if len(js) > len(piv)}


def macaulay_rows(hring, k, matching=None):
    """Macaulay's square rows of the degree-k slice, k > sigma: for each
    degree-k monomial M in column order, the index in ``span_rows`` of the
    row (M / x_j^(d-1)) * dF/dx_i, j the first index with x_j^(d-1)
    dividing M and i = ``matching[j]`` (by default i = j)."""
    e = hring.degree - 1
    if matching is None:
        matching = range(hring.nvars)
    src = {m: s for s, m in enumerate(enumerate_monomials(hring.nvars, k - e))}
    rows = []
    for m in enumerate_monomials(hring.nvars, k):
        j = 0
        while m[j] < e:
            j += 1
        rows.append(src[m[:j] + (m[j] - e,) + m[j + 1:]] * hring.nvars
                    + matching[j])
    return rows


def two_form_multiple(rows, vec):
    """(n, witness) for the least n >= 1 with n*vec in the row lattice of
    ``rows``, or None: n is the pivot product of the Hermite form of the
    rows over that of the rows with ``vec`` adjoined, and the witness is
    the reduction of n*vec read through the tracked transformation."""
    hnf, transform = hermite_normal_form(rows, transform=True)
    if any(_reduce_against_hnf(hnf, vec)[1]):
        return None

    def pivot_product(form):
        out = 1
        for row in form:
            out *= next(x for x in row if x)
        return out

    n = pivot_product(hnf) // pivot_product(hermite_normal_form(rows + [vec]))
    coeffs, _ = _reduce_against_hnf(hnf, [n * x for x in vec])
    witness = [0] * len(rows)
    for c, urow in zip(coeffs, transform):
        assert c.denominator == 1
        witness = [w + int(c) * u for w, u in zip(witness, urow)]
    return n, witness


def listed_uniform_bound(hring, b):
    """Per-variable counts of the uniform bound by listing: for each i,
    the standard monomials m of degree b with x_i * m standard."""
    gens = hring.monomial_generators()
    std = [m for m in enumerate_monomials(hring.nvars, b)
           if not any(monomial_divides(g, m) for g in gens)]
    counts = []
    for i in range(hring.nvars):
        shifted = [m[:i] + (m[i] + 1,) + m[i + 1:] for m in std]
        counts.append(sum(1 for m in shifted
                          if not any(monomial_divides(g, m) for g in gens)))
    return counts


def listed_ideal_rank(hring, k):
    """Dimension of the degree-k piece of a monomial Jacobian ideal, by
    listing the degree-k monomials that some generator divides."""
    gens = hring.monomial_generators()
    return sum(1 for m in enumerate_monomials(hring.nvars, k)
               if any(monomial_divides(g, m) for g in gens))


def tuple_dict_rows(hring, k, sources, parts):
    """Dict rows of degree k, one per (source monomial m, partial index i)
    in ``sources``: the terms ``parts[i]`` times m, each at the column of
    its product monomial."""
    col = {m: j for j, m in enumerate(enumerate_monomials(hring.nvars, k))}
    return [{col[monomial_mul(m, x)]: c for x, c in parts[i]}
            for m, i in sources]


def listed_piece(hring, k):
    """(representatives, normal forms) of the degree-k piece of a
    monomial Jacobian ideal, by listing: the degree-k monomials that no
    generator divides, each with its unit normal form, and a zero form for
    every other monomial."""
    gens = hring.monomial_generators()
    monos = enumerate_monomials(hring.nvars, k)
    free = [j for j, m in enumerate(monos)
            if not any(monomial_divides(g, m) for g in gens)]
    return ([monos[j] for j in free],
            [tuple(int(j == t) for t in free) for j in range(len(monos))])


class PeekingTokenizer:
    """A position in ``text`` that skips blanks whenever it is peeked at."""

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
        return ring.constant(num)
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
    ch, _ = tok.peek()
    if ch is not None and ch in signs:
        tok.pos += 1
        term = _parse_term(tok, ring)
        return -term if ch == "-" else term
    return _parse_term(tok, ring)


def _parse_expr(tok, ring):
    result = _parse_signed_term(tok, ring, "+-")
    while True:
        ch, _ = tok.peek()
        if ch not in ("+", "-"):
            return result
        tok.pos += 1
        term = _parse_signed_term(tok, ring, "-")
        result = result + term if ch == "+" else result - term


def factor_parse_poly(text, ring):
    """``parse_poly`` factor by factor: each number and variable power a
    polynomial, each '*' a polynomial product and each '+' or '-' a sum
    that copies the terms so far."""
    tok = PeekingTokenizer(text)
    result = _parse_expr(tok, ring)
    ch, pos = tok.peek()
    if ch is not None:
        raise PolyParseError(f"unexpected character {ch!r}", pos)
    return result


def loop_substitute(f, assignment, target):
    """``substitute`` expanding every term, with each assigned value a
    polynomial of ``target`` or a rational constant and every unassigned
    variable a variable of ``target``."""
    resolved = {name: value if isinstance(value, SparsePoly)
                else target.constant(value)
                for name, value in assignment.items()}
    raw = {}
    for exps, coeff in f.terms.items():
        factors = [resolved[name] ** e if name in resolved
                   else target.variable(name) ** e
                   for name, e in zip(f.ring.names, exps) if e]
        term = reduce(mul, factors) if factors else target.one()
        for e, c in term.terms.items():
            raw[e] = raw.get(e, 0) + coeff * c
    return SparsePoly(target, target.reduce_terms(raw))


def loop_exact_divide(f, g):
    """``exact_divide`` rebuilding the quotient and the remainder as
    polynomials for every quotient term."""
    ring = f.ring
    ge, gc = g.leading_term()
    quotient = ring.zero()
    rem = f
    while rem:
        re, rc = rem.leading_term()
        if not monomial_divides(ge, re):
            raise NotDivisible("leading term not divisible", rem)
        mono = tuple(a - b for a, b in zip(re, ge))
        qterm = ring.monomial(mono, Fraction(rc) / gc)
        quotient = quotient + qterm
        rem = rem - qterm * g
    return quotient


class WholeMap:
    """R_a (x) R_b -> R_(a+b) built whole: the normal forms of every product
    u * v of the representatives, and with ``quotient_by`` the column of
    each (subspace vector, v) combining the products u * v, left factor
    major.  ``matrix`` rows are indexed by the target's representatives."""

    def __init__(self, hring, a, b, quotient_by=None):
        pa, pb, pc = hring.piece(a), hring.piece(b), hring.piece(a + b)
        cols = pc.normal_forms_of([monomial_mul(u, v)
                                   for u in pa.representatives
                                   for v in pb.representatives])
        if quotient_by is not None:
            cols = [jacobian._combination(vec, cols[j::pb.dim], pc.dim)
                    for vec in quotient_by for j in range(pb.dim)]
        self.target_dim = pc.dim
        self.matrix = [[col[i] for col in cols] for i in range(pc.dim)]


def map_matrix(mmap):
    """The whole matrix of a ``jacobian.MultiplicationMap``, from its
    column blocks: rows indexed by the target's representatives."""
    cols = [col for block in mmap.column_blocks() for col in block]
    return [[col[i] for col in cols] for i in range(mmap.target_dim)]


def is_surjective(matrix, target, prime=None):
    """Surjectivity of a map onto a piece of dimension ``target``, as the
    ``jacobian.Rank`` of its ``matrix``: mod ``prime`` first, exactly
    short of a full rank.  ``prime`` is gated before any route is taken,
    the trivial target included."""
    if prime is not None:
        modrank.require_prime(prime)
    if target == 0:
        return jacobian.Rank(0, 0, "trivial")
    return jacobian._rank(matrix, target, prime)


def pieces_map_surjectivity(hring, a, b, prime=None):
    """``map_surjectivity`` on exact pieces: the whole map, ranked by
    ``is_surjective``."""
    jacobian._check_step(prime, a, b)
    whole = WholeMap(hring, a, b)
    return is_surjective(whole.matrix, whole.target_dim, prime=prime)


def pieces_left_kernel_via_duality(hring, a, b, prime=None):
    """``left_kernel_via_duality`` on exact pieces: the socle pairing
    first, then the whole map onto R_(sigma-a), ranked."""
    jacobian._check_step(prime, a, b)
    sigma = hring.socle_degree
    if a + b > sigma:
        raise InputError(f"a + b = {a + b} is above the socle degree {sigma}")
    pairing = jacobian.macaulay_pairing_check(hring, a, prime=prime)
    whole = WholeMap(hring, sigma - a - b, b)
    return is_surjective(whole.matrix, whole.target_dim, prime=prime), pairing


def pieces_functional_kernel_map(hring, g, b=None):
    """``functional_kernel_map`` building every piece it reads: the socle
    piece, checked to be one-dimensional, then R_a and the functional,
    and the whole restricted map ranked exactly, unless the ring is
    proven smooth and R_a or R_(a+b) lies above the socle degree."""
    a = g.total_degree()
    if b is None:
        b = hring.degree - 1
    sigma = hring.socle_degree
    top = hring.piece(sigma)
    if top.dim != 1:
        raise jacobian.SocleNotOneDimensional(
            f"dim R_{sigma} = {top.dim}, expected 1")
    smooth = hring.smoothness_certificate().certified
    if a > sigma and smooth:
        return jacobian.Rank(0, 0, "trivial"), 0, False
    pa = hring.piece(a)
    functional = [top.reduce_vector({monomial_mul(u, e): c
                                     for e, c in g.terms.items()})[0]
                  if 2 * a == sigma else 0 for u in pa.representatives]
    g_nonzero = any(functional)
    kernel = exactla.kernel_basis([functional]) if g_nonzero else [
        [int(i == j) for j in range(pa.dim)] for i in range(pa.dim)]
    if a + b > sigma and smooth:
        return jacobian.Rank(0, 0, "trivial"), len(kernel), g_nonzero
    mmap = WholeMap(hring, a, b, quotient_by=kernel)
    return (jacobian.Rank(exactla.rank(mmap.matrix), mmap.target_dim, "exact"),
            len(kernel), g_nonzero)
