"""Graded quotients of a polynomial ring by a Jacobian ideal.

For a homogeneous form F of degree d in n variables, the quotient of the
polynomial ring by the ideal of first partials is graded Artinian exactly
when the projective hypersurface F = 0 is smooth, with one-dimensional
top piece in the socle degree n*(d-2).  This module computes graded
pieces, multiplication maps between them, and the socle pairing.
Dimensions are exact, and so is every failing verdict: a rank mod p
only ever proves a full rank.

Quotient dimensions (``quotient_dim``, and with it ``hilbert_function``)
come from the first of these routes that applies:

* a ring proven smooth by its memoised certificate
  (``smoothness_certificate``: a monomial count for a monomial ideal, a
  modular rank of the degree-(sigma+1) slice otherwise) is a complete
  intersection and reads the closed form ((1 - t^(d-1)) / (1 - t))^n;
  a certificate that does not close proves nothing;
* otherwise ``ideal_rank`` eliminates the slice: monomial ideals reduce
  to divisibility bookkeeping; rings with a declared diagonal symmetry
  split each graded piece into character blocks that are eliminated
  independently (each Jacobian generator is supported in a single
  block, so the span matrix is block diagonal and the ranks add);
  everything else takes a modular rank certificate when it closes (see
  ``_certified_ideal_rank``) and fraction-free elimination otherwise.

A graded piece, which also needs representatives and a reduction map,
is one ``GradedPiece``: a degree, a prime (None over Q), the
representatives, and the normal form of every ambient monomial over
them.  ``piece(k)`` is exact: the standard monomials of a monomial
ideal, otherwise the character blocks of the slice, each eliminated over
Q (a ring without a declared symmetry is one block of the trivial
character).  On a ring proven smooth, an exact piece whose dimension
differs from the closed form raises ``ArithmeticError``.
``piece(k, p)`` is over GF(p), from the echelon form mod p of the whole
slice, and is accepted only at good reduction: on a ring proven smooth,
when its dimension is the closed-form one (see ``GradedPiece`` for why
that makes a full rank mod p a proof).  Every multiplication and pairing
matrix is built by looking up normal forms (``_products``), whatever the
field.  ``map_surjectivity`` and ``left_kernel_via_duality`` build their
matrices from pieces over GF(p) when given a prime, and fall back to
exact pieces when a piece is refused or a rank mod p is short.

Slices are built from integer partials: the form is scaled to integer
coefficients once, on construction.  One memoised layout per degree
(``_slice_index``) places every coefficient of the slice, and two
methods read it: ``span_rows`` gives exact Python ``int`` rows, and
``span_array`` gives the slice reduced mod p as an int64 array, which
the modular certificates eliminate without a per-entry pass in Python.
Layouts and arrays are built with numpy, which is imported only then:
a ring whose slices are never built, as with a monomial ideal, never
loads it.

A ring memoises per degree its slice layouts, graded pieces (per
prime), eliminated quotient dimensions and, for each
normalised symmetry, its eliminated character blocks, so graded pieces,
character spectra and the smoothness test share one elimination of each
degree; it memoises one smoothness certificate per prime, and any one
that closes serves every later question.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import exactla, modrank
from .poly import (enumerate_monomials, monomial_divides, monomial_mul,
                   partial_derivative)


class SocleNotOneDimensional(ArithmeticError):
    """The socle degree piece does not have dimension one."""


class IdealNotMonomial(ValueError):
    """An operation requiring a monomial Jacobian ideal got a general one."""


def _rref(rows, ncols):
    """Reduced row echelon form over the rationals.

    Returns (rref_rows, pivot_cols).  Input rows are consumed.
    """
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    out = []
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
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


def complete_intersection_hilbert(nvars, degree):
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^n, degrees 0..n*(d-2).

    The Hilbert function of the Jacobian quotient of a smooth form of
    degree d in n variables, whose n partials form a regular sequence.
    """
    table = [1]
    for _ in range(nvars):
        nxt = [0] * (len(table) + degree - 2)
        for i, c in enumerate(table):
            for j in range(degree - 1):
                nxt[i + j] += c
        table = nxt
    return table


def _monomial_columns(monos, exps, degree):
    """Index in ``monos`` of each exponent vector along the last axis of
    ``exps``, an int64 array; every vector is one of ``monos``, all of
    total degree ``degree``.

    Vectors are matched by their mixed-radix codes in base degree + 1,
    so the columns follow whatever order ``monos`` is given in.
    """
    import numpy as np

    dims = (degree + 1,) * exps.shape[-1]
    codes = np.ravel_multi_index(tuple(np.array(monos, dtype=np.int64).T), dims)
    order = np.argsort(codes)
    wanted = np.ravel_multi_index(tuple(np.moveaxis(exps, -1, 0)), dims)
    return order[np.searchsorted(codes, wanted, sorter=order)]


class HypersurfaceRing:
    """Jacobian quotient ring of a homogeneous form.

    Parameters
    ----------
    f : SparsePoly
        Homogeneous form in a plain rational ring (no algebraic
        generators); every ring variable is a coordinate.
    symmetry : (exponents, modulus) pair, optional
        Declares that f is an eigenvector of the diagonal automorphism
        x_i -> zeta**e_i x_i of the given order.  Used to split graded
        pieces into character blocks; validated on construction.
    """

    def __init__(self, f, symmetry=None):
        if f.ring.reductions:
            raise ValueError("hypersurface ring needs a plain rational ring")
        if f.is_zero() or not f.is_homogeneous():
            raise ValueError("defining form must be homogeneous and nonzero")
        self.poly = f
        self.ring = f.ring
        self.nvars = f.ring.nvars
        self.degree = f.total_degree()
        if self.degree < 2:
            raise ValueError("defining form must have degree at least 2")
        self.socle_degree = self.nvars * (self.degree - 2)
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        scaled = f.scale(den)
        self.partials = [partial_derivative(scaled, name)
                         for name in self.ring.names]
        self._int_partials = [[(e, int(c)) for e, c in p.terms.items()]
                              for p in self.partials]
        # the partials' coefficients in one list, in slice layout order
        self._term_coeffs = [c for part in self._int_partials for _, c in part]
        self.symmetry = None
        self._char_of_partial = None
        if symmetry is not None:
            exponents, modulus = symmetry
            exponents = tuple(int(e) % int(modulus) for e in exponents)
            if len(exponents) != self.nvars:
                raise ValueError("one symmetry exponent per variable required")
            chars = {self._character(e, exponents, modulus) for e in f.terms}
            if len(chars) != 1:
                raise ValueError("defining form is not a symmetry eigenvector")
            self.symmetry = (exponents, int(modulus))
        self._pieces = {}
        self._slices = {}
        self._dims = {}
        self._blocks = {}
        self._certificates = {}
        self._closed_form = None

    @staticmethod
    def _character(exps, exponents, modulus):
        return sum(a * b for a, b in zip(exps, exponents)) % modulus

    def character_of(self, exps):
        """Character of a monomial under the declared symmetry."""
        if self.symmetry is None:
            raise ValueError("ring has no declared symmetry")
        exponents, modulus = self.symmetry
        return self._character(exps, exponents, modulus)

    @property
    def is_monomial_ideal(self):
        return all(len(p.terms) <= 1 for p in self.partials)

    def monomial_generators(self):
        """Exponent tuples generating the ideal, for the monomial case."""
        if not self.is_monomial_ideal:
            raise IdealNotMonomial("Jacobian ideal has a non-monomial generator")
        gens = []
        for p in self.partials:
            for e in p.terms:
                gens.append(e)
        return gens

    def _slice_index(self, k):
        """Layout of the degree-k slice, memoised:
        (monomials, sources, rows, cols).

        The slice has one row per (source monomial, partial) pair and one
        column per degree-k monomial, both in canonical order.  The t-th
        partial term (in ``_term_coeffs`` order) times sources[s] sits at
        ``rows[s, t]``, which is s * nvars + (its partial), and
        ``cols[s, t]``, the column of their product.  The terms of one
        partial are distinct monomials, so no two entries of a row share
        a column.
        """
        if k not in self._slices:
            import numpy as np

            monos = enumerate_monomials(self.nvars, k)
            e = self.degree - 1
            src = enumerate_monomials(self.nvars, k - e) if k >= e else []
            parts = self._int_partials
            partial = np.array([i for i, part in enumerate(parts) for _ in part],
                               dtype=np.int64)
            exps = np.array([x for part in parts for x, _ in part],
                            dtype=np.int64).reshape(-1, self.nvars)
            rows = np.arange(len(src)).reshape(-1, 1) * self.nvars + partial
            prods = np.array(src, dtype=np.int64).reshape(-1, 1, self.nvars) + exps
            self._slices[k] = (monos, src, rows,
                               _monomial_columns(monos, prods, k))
        return self._slices[k]

    def _slice_shape(self, k):
        monos, src, _, _ = self._slice_index(k)
        return len(src) * self.nvars, len(monos)

    def _slice_nonzeros(self, k, p):
        """Nonzero entries of ``span_array(k, p)``: a row holds each term
        of its partial in its own column, so every source monomial
        contributes the partial terms that are nonzero mod p."""
        _, src, _, _ = self._slice_index(k)
        return len(src) * sum(c % p != 0 for c in self._term_coeffs)

    def _slice_entries(self, k, dtype, coeffs):
        """The degree-k slice as a dense array holding ``coeffs`` per term."""
        import numpy as np

        _, _, rows, cols = self._slice_index(k)
        a = np.zeros(self._slice_shape(k), dtype=dtype)
        a[rows, cols] = np.array(coeffs, dtype=dtype)
        return a

    def span_rows(self, k):
        """Integer generator rows of the degree-k Jacobian slice.

        Rows are indexed by (source monomial, partial) pairs in canonical
        order; columns by the canonical degree-k monomial list.  Entries
        are exact Python integers.
        """
        monos, src, _, _ = self._slice_index(k)
        rows = self._slice_entries(k, object, self._term_coeffs).tolist()
        tags = [(m, i) for m in src for i in range(self.nvars)]
        return rows, list(monos), tags

    def span_array(self, k, p):
        """``span_rows(k)`` reduced mod ``p``, as an int64 array.

        Each coefficient is reduced as a Python integer before it enters
        int64, so coefficients of any size are exact.
        """
        return self._slice_entries(k, "int64", [c % p for c in self._term_coeffs])

    def _koszul_rows(self, k):
        """Relations among the generator rows coming from Koszul syzygies.

        Each row is the free-module vector of d_jF * e_i - d_iF * e_j
        times a monomial of degree k - 2(d-1), written in the same
        (source monomial, partial) coordinates as ``span_rows(k)``.
        These vectors lie in the kernel of the span map for every F.
        """
        e = self.degree - 1
        if k < 2 * e:
            return []
        src = enumerate_monomials(self.nvars, k - e)
        slot = {(m, i): i + self.nvars * j for j, m in enumerate(src)
                for i in range(self.nvars)}
        rows = []
        for mu in enumerate_monomials(self.nvars, k - 2 * e):
            for i in range(self.nvars):
                for j in range(i + 1, self.nvars):
                    row = [0] * (len(src) * self.nvars)
                    for ex, c in self._int_partials[j]:
                        row[slot[(monomial_mul(mu, ex), i)]] += c
                    for ex, c in self._int_partials[i]:
                        row[slot[(monomial_mul(mu, ex), j)]] -= c
                    rows.append(row)
        return rows

    def _certified_ideal_rank(self, k, primes=(1000003, 1000033, 1000099)):
        """Exact rank of the degree-k slice from modular elimination alone.

        The rank mod p of ``span_array(k, p)`` is a lower bound for the
        exact rank of the slice ``span_rows(k)``.  Two upper
        bounds are a priori: min(rows, cols), and rows minus the rank of
        the Koszul relation rows, which always lie in the kernel of the
        span map.  Whenever the modular lower bound meets either upper
        bound the exact rank is certified; otherwise returns None and the
        caller falls back to fraction-free elimination.
        """
        nrows, ncols = self._slice_shape(k)
        if not nrows:
            return 0
        koszul = None
        for p in primes:
            m1 = modrank.rank_mod(self.span_array(k, p), p)
            if m1 == min(nrows, ncols):
                return m1
            if koszul is None:
                koszul = self._koszul_rows(k)
            if koszul:
                m2 = modrank.rank_mod(koszul, p)
                if m1 == nrows - m2:
                    return m1
        return None

    def ideal_rank(self, k):
        """Exact dimension of the degree-k piece of the Jacobian ideal."""
        if k < self.degree - 1:
            return 0
        if self.is_monomial_ideal:
            gens = self.monomial_generators()
            monos = enumerate_monomials(self.nvars, k)
            return sum(1 for m in monos
                       if any(monomial_divides(g, m) for g in gens))
        if self.symmetry is not None:
            blocks = self._symmetric_blocks(k)
            return sum(len(cols) - len(free)
                       for _, cols, free, _, _ in blocks)
        # entry growth in fraction-free elimination is driven by the step
        # count, so route long eliminations through the certificate first
        if min(self._slice_shape(k)) > 48:
            certified = self._certified_ideal_rank(k)
            if certified is not None:
                return certified
        return exactla.rank(self.span_rows(k)[0])

    def _symmetric_blocks(self, k, symmetry=None):
        """Character blocks of the degree-k slice, each exactly eliminated.

        Returns a tuple of (character, column_indices, free_local_indices,
        rref_rows, pivot_local_indices) sorted by character, every part a
        tuple.  ``symmetry`` defaults to the declared one.  Memoised per
        degree and normalised symmetry, so callers share one elimination.
        """
        exponents, modulus = symmetry if symmetry is not None else self.symmetry
        modulus = int(modulus)
        key = (k, tuple(int(e) % modulus for e in exponents), modulus)
        if key not in self._blocks:
            self._blocks[key] = self._eliminate_blocks(*key)
        return self._blocks[key]

    def _eliminate_blocks(self, k, exponents, modulus):
        """Uncached worker of ``_symmetric_blocks``.

        Block rows are read off the slice layout: the row of (source s,
        partial i) holds the terms of partial i in the columns
        ``cols[s, t]``.  Every generator row must be supported inside a
        single block; this is rechecked here so an inconsistent symmetry
        hint cannot produce a wrong rank.
        """
        monos, src, _, cols = self._slice_index(k)
        char_of = [self._character(m, exponents, modulus) for m in monos]
        by_char, local = {}, []
        for c in char_of:
            js = by_char.setdefault(c, [])
            local.append(len(js))
            js.append(len(local) - 1)
        rows_by_char = {c: [] for c in by_char}
        terms, start = [], 0
        for part in self._int_partials:
            terms.append((start, start + len(part)))
            start += len(part)
        for js in cols.tolist():
            for lo, hi in terms:
                if lo == hi:
                    continue
                chars = {char_of[j] for j in js[lo:hi]}
                if len(chars) != 1:
                    raise ValueError("generator spans several characters; "
                                     "symmetry declaration is inconsistent")
                c = chars.pop()
                row = [0] * len(by_char[c])
                for j, coeff in zip(js[lo:hi], self._term_coeffs[lo:hi]):
                    row[local[j]] = coeff
                rows_by_char[c].append(row)
        blocks = []
        for c in sorted(by_char):
            js = by_char[c]
            rref, piv = _rref(rows_by_char[c], len(js))
            free = tuple(t for t in range(len(js)) if t not in piv)
            blocks.append((c, tuple(js), free, tuple(map(tuple, rref)),
                           tuple(piv)))
        return tuple(blocks)

    def piece(self, k, prime=None):
        """The degree-k graded piece, memoised per degree and prime.

        With no prime the piece is exact.  With a prime it is over GF(p)
        if p is good for it, else None: it is accepted only on a ring
        proven smooth (at ``prime`` itself when no certificate has closed
        yet), and only when its dimension is the exact ``quotient_dim(k)``,
        there the closed form: then rank_p = rank_Q of the slice (see
        ``GradedPiece``).
        """
        key = (k, prime)
        if key not in self._pieces:
            if prime is None:
                piece = self._exact_piece(k)
            elif (self.smoothness_proof().certified
                  or self.smoothness_certificate(prime).certified):
                piece = self._gfp_piece(k, prime)
                if piece.dim != self.quotient_dim(k):
                    piece = None
            else:
                piece = None
            self._pieces[key] = piece
        return self._pieces[key]

    def _exact_piece(self, k):
        """The piece over Q: standard monomials of a monomial ideal, else
        the free columns of the eliminated character blocks; a pivot
        column's normal form is minus the free part of its row."""
        monos = enumerate_monomials(self.nvars, k)
        if self.is_monomial_ideal:
            gens = self.monomial_generators()
            free = [j for j, m in enumerate(monos)
                    if not any(monomial_divides(g, m) for g in gens)]
            rows = {}
        else:
            blocks = self._symmetric_blocks(
                k, self.symmetry or ((0,) * self.nvars, 1))
            free = sorted(js[t] for _, js, local, _, _ in blocks for t in local)
            rows = {js[pc]: {js[t]: -row[t] for t in local if row[t]}
                    for _, js, local, rref, piv in blocks
                    for row, pc in zip(rref, piv)}
        pos = {j: i for i, j in enumerate(free)}
        forms = []
        for j in range(len(monos)):
            form = [0] * len(free)
            if j in pos:
                form[pos[j]] = 1
            for t, x in rows.get(j, {}).items():
                form[pos[t]] = x
            forms.append(tuple(form))
        if self._closed_form is not None and len(free) != self._closed_form_dim(k):
            raise ArithmeticError(
                f"degree {k} piece has dimension {len(free)}, but the ring is "
                f"proven smooth and the closed form gives "
                f"{self._closed_form_dim(k)}")
        return GradedPiece(self, k, None, monos, free, forms)

    def _gfp_piece(self, k, p):
        """The piece over GF(p), from the echelon form mod p of the whole
        slice: a block diagonal matrix pivots in the union of its blocks'
        pivot columns, so the blocks need not be split."""
        import numpy as np

        monos, _, _, _ = self._slice_index(k)
        ncols = len(monos)
        pivots, rref = [], np.zeros((0, ncols), dtype=np.int64)
        if self._slice_shape(k)[0]:
            _, rref, pivots = modrank.echelon_mod(self.span_array(k, p), p)
        free = np.setdiff1d(np.arange(ncols), pivots)
        forms = np.zeros((ncols, len(free)), dtype=np.int64)
        forms[free, np.arange(len(free))] = 1
        forms[pivots] = -rref[:, free] % p
        return GradedPiece(self, k, p, monos, free.tolist(), forms)

    def smoothness_certificate(self, prime=modrank.DEFAULT_PRIME):
        """One-sided proof that the quotient vanishes in degree sigma+1.

        A monomial ideal counts the monomials it contains (one
        certificate, with prime None); any other ring takes the rank mod
        ``prime`` of the degree-(sigma+1) slice, which never exceeds the
        rational rank.  The certificate closes (``certified``) only when
        that count meets the number of monomials.  Then the quotient is
        Artinian, the n partials form a regular sequence, and the Koszul
        complex resolves the quotient, which gives the closed forms of
        its Hilbert function and character spectra.  Memoised per prime.
        """
        key = None if self.is_monomial_ideal else prime
        if key not in self._certificates:
            k = self.socle_degree + 1
            monos = len(enumerate_monomials(self.nvars, k))
            if key is None:
                cert = exactla.RankCertificate(None, self.ideal_rank(k), monos)
            else:
                cert = exactla.modular_rank(self.span_array(k, prime), prime,
                                            upper_bound=monos)
            self._certificates[key] = cert
            if cert.certified and self._closed_form is None:
                self._closed_form = complete_intersection_hilbert(
                    self.nvars, self.degree)
        return self._certificates[key]

    def smoothness_proof(self):
        """A memoised certificate that closed, at whichever prime; when
        none has, the certificate at the default prime."""
        for cert in self._certificates.values():
            if cert.certified:
                return cert
        return self.smoothness_certificate()

    def dimension_route(self):
        """How ``quotient_dim`` answers, as one line for the human report."""
        cert = self.smoothness_proof()
        if not cert.certified:
            return "elimination"
        k = self.socle_degree + 1
        if cert.prime is None:
            how = "monomial count"
        else:
            rows, cols = self._slice_shape(k)
            how = (f"modular p={cert.prime}, {rows}x{cols}, "
                   f"{self._slice_nonzeros(k, cert.prime)} nonzeros")
        return f"closed form, smooth at degree {k} ({how})"

    def quotient_dim(self, k):
        """Exact dimension of the degree-k quotient piece.

        A coefficient of the closed form once a smoothness certificate
        closes (``smoothness_proof``), the eliminated dimension otherwise.
        """
        if self.smoothness_proof().certified:
            return self._closed_form_dim(k)
        return self._eliminated_dim(k)

    def _closed_form_dim(self, k):
        table = self._closed_form
        return table[k] if 0 <= k < len(table) else 0

    def _eliminated_dim(self, k):
        """Dimension of the degree-k quotient piece by elimination, memoised."""
        if k < 0:
            return 0
        if k not in self._dims:
            monos = len(enumerate_monomials(self.nvars, k))
            self._dims[k] = monos - self.ideal_rank(k)
        return self._dims[k]


class GradedPiece:
    """One graded piece of the quotient, over Q or over GF(p).

    Fields: ``degree``, ``prime`` (None over Q), ``monomials`` (canonical
    ambient basis), ``representatives`` (monomials whose classes form a
    basis of the piece: the standard monomials of a monomial ideal,
    otherwise the free columns of the eliminated slice, in ambient
    order), ``dim``, and ``normal_forms``, one row per ambient monomial
    holding its coordinates over the representatives: tuples of
    rationals over Q, an int64 array with entries in [0, p) over GF(p).

    Why a piece over GF(p) proves anything over Q: if the slice A_k has
    rank_p(A_k) = rank_Q(A_k), its row space over Z_(p) (the integers
    localised at p) is saturated, so the Z_(p) quotient is free and
    reduces mod p to this piece; by Nakayama's lemma the representatives
    lift to a basis of it.  Products of such pieces are defined over
    Z_(p) and reduce to their mod-p matrices, so a full rank mod p is a
    full rank over Q.  ``HypersurfaceRing.piece`` checks the equality by
    comparing ``dim`` with the exact closed-form dimension.
    """

    __slots__ = ("hring", "degree", "prime", "monomials", "representatives",
                 "dim", "normal_forms", "_index")

    def __init__(self, hring, k, prime, monomials, free, normal_forms):
        self.hring = hring
        self.degree = k
        self.prime = prime
        self.monomials = list(monomials)
        self.representatives = [monomials[j] for j in free]
        self.dim = len(free)
        self.normal_forms = normal_forms
        self._index = {m: j for j, m in enumerate(monomials)}

    def normal_forms_of(self, monomials):
        """Normal forms of ``monomials``, all of this degree, in order: a
        list of rows over Q, an int64 array over GF(p)."""
        cols = [self._index[m] for m in monomials]
        if self.prime is None:
            return [self.normal_forms[j] for j in cols]
        return self.normal_forms[cols]

    def reduce_vector(self, terms):
        """Quotient coordinates (over ``representatives``) of an ambient vector.

        ``terms`` maps degree-k exponent tuples to rational coefficients;
        the piece is over Q.
        """
        return _combination(terms.values(), self.normal_forms_of(terms), self.dim)

    def character_dimensions(self):
        """Mapping character -> eigenspace dimension (symmetric rings only)."""
        if self.hring.symmetry is None:
            raise ValueError("ring has no declared symmetry")
        dims = {}
        for m in self.representatives:
            c = self.hring.character_of(m)
            dims[c] = dims.get(c, 0) + 1
        return dims


def _combination(coeffs, rows, dim):
    """The rational vector sum(c * row), of length ``dim``."""
    out = [Fraction(0)] * dim
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    out[i] += c * x
    return out


def _products(pa, pb, pc):
    """Normal forms in ``pc`` of the products u * v of the representatives
    u of ``pa`` and v of ``pb``, one row per pair, left factor major.

    Every multiplication and pairing matrix is built here, over the
    field of ``pc``.
    """
    return pc.normal_forms_of([monomial_mul(u, v) for u in pa.representatives
                               for v in pb.representatives])


class _ExactRoute(Exception):
    """The GF(p) route cannot answer; the message says why."""


def _gfp_pieces(hring, degrees, p):
    """The pieces over GF(p) at ``degrees``; ``_ExactRoute`` at the
    first one refused."""
    pieces = []
    for k in degrees:
        piece = hring.piece(k, p)
        if piece is None:
            if not hring.smoothness_proof().certified:
                raise _ExactRoute("ring not proven smooth")
            raise _ExactRoute(f"mod-p gate refused at degree {k}")
        pieces.append(piece)
    return pieces


def _rank(matrix, full, prime, gfp=False):
    """(rank, mode) of a matrix whose rank is at most ``full``.

    A rank mod ``prime`` that reaches ``full`` proves that rank over Q
    (for a matrix built over GF(p), ``gfp``, see ``GradedPiece``); a
    prime that divides a denominator of a rational matrix proves
    nothing.  Short of a proof, a rational matrix is ranked exactly, and
    a GF(p) one cannot answer: ``_ExactRoute``, which names its shape as
    target x source (the transpose of its rows x columns).
    """
    if prime is not None:
        modrank.require_prime(prime)
        try:
            if exactla.modular_rank(matrix, prime, upper_bound=full).certified:
                return full, f"modular(p={prime})"
        except modrank.BadPrime:
            pass
    if gfp:
        rows, cols = matrix.shape
        raise _ExactRoute(f"rank mod p={prime} short for {cols}x{rows}")
    return exactla.rank(matrix), "exact"


def _exact_route(hring):
    return "monomial pieces" if hring.is_monomial_ideal else "exact pieces"


def _modular_route(p, degrees, **shapes):
    listed = ", ".join(str(k) for k in sorted(set(degrees)))
    matrices = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
    return f"pieces mod p={p} at degrees {listed}; {matrices}"


def hilbert_function(hring, through=None):
    """Exact dimensions of the graded quotient pieces 0..socle degree.

    ``through`` extends the table past the socle degree when given.
    """
    top = hring.socle_degree if through is None else through
    return [hring.quotient_dim(k) for k in range(top + 1)]


class SmoothnessResult:
    __slots__ = ("smooth", "mode", "checked_degree", "dimension")

    def __init__(self, smooth, mode, checked_degree, dimension):
        self.smooth = smooth
        self.mode = mode
        self.checked_degree = checked_degree
        self.dimension = dimension

    def __bool__(self):
        return self.smooth

    def __repr__(self):
        return (f"SmoothnessResult(smooth={self.smooth}, mode={self.mode!r}, "
                f"degree={self.checked_degree}, dim={self.dimension})")


def is_smooth_artinian(hring, prime=modrank.DEFAULT_PRIME, exact=False):
    """Smoothness of the hypersurface via vanishing above the socle.

    The quotient is Artinian with socle degree n*(d-2) exactly when the
    hypersurface is smooth, so it suffices that the piece in degree
    socle+1 vanishes.  That is a full-rank claim about the ideal slice,
    so the ring's modular certificate settles it when it closes; when it
    falls short, or with ``exact``, elimination decides.  A monomial
    ideal is always counted exactly.
    """
    k = hring.socle_degree + 1
    mode = "exact"
    if not exact and not hring.is_monomial_ideal:
        if hring.smoothness_certificate(prime).certified:
            return SmoothnessResult(True, f"modular(p={prime})", k, 0)
        mode = f"exact(after modular p={prime})"
    dim = hring._eliminated_dim(k)
    return SmoothnessResult(dim == 0, mode, k, dim)


class MultiplicationMap:
    """Matrix of R_a (x) R_b -> R_c in quotient coordinates.

    Rows are indexed by the representatives of the target piece, columns
    by source pairs, left factor major.  With ``quotient_by`` the left
    factor runs over the given subspace vectors (coordinates over the
    representatives of R_a) instead of the full basis.
    """

    __slots__ = ("hring", "a", "b", "c", "matrix", "left_dim", "right_dim",
                 "quotient_by")

    def __init__(self, hring, a, b, quotient_by=None):
        self.hring = hring
        self.a = a
        self.b = b
        self.c = a + b
        pa, pb, pc = hring.piece(a), hring.piece(b), hring.piece(self.c)
        self.quotient_by = quotient_by
        self.right_dim = pb.dim
        cols = _products(pa, pb, pc)
        if quotient_by is None:
            self.left_dim = pa.dim
        else:
            if any(len(vec) != pa.dim for vec in quotient_by):
                raise ValueError("subspace vector length must match dim R_a")
            self.left_dim = len(quotient_by)
            # the column of (vec, v) combines the products u * v
            cols = [_combination(vec, cols[j::pb.dim], pc.dim)
                    for vec in quotient_by for j in range(pb.dim)]
        self.matrix = [[col[i] for col in cols] for i in range(pc.dim)]

    @property
    def target_dim(self):
        return len(self.matrix)

    @property
    def ncols(self):
        return self.left_dim * self.right_dim


def multiplication_map(hring, a, b, quotient_by=None):
    return MultiplicationMap(hring, a, b, quotient_by=quotient_by)


class SurjectivityResult:
    __slots__ = ("surjective", "rank", "target_dim", "mode", "route")

    def __init__(self, surjective, rank, target_dim, mode, route=None):
        self.surjective = surjective
        self.rank = rank
        self.target_dim = target_dim
        self.mode = mode
        self.route = route

    def __bool__(self):
        return self.surjective

    def __repr__(self):
        return (f"SurjectivityResult(surjective={self.surjective}, "
                f"rank={self.rank}, target_dim={self.target_dim}, mode={self.mode!r})")


def is_surjective(mmap, prime=None):
    """Surjectivity of a multiplication map.

    Full row rank is a claim a modular certificate can establish; when a
    prime is given and the certificate falls short, exact elimination
    settles the answer.
    """
    return _surjectivity(mmap.matrix, mmap.target_dim, prime)


def _surjectivity(matrix, target, prime, gfp=False):
    if target == 0:
        return SurjectivityResult(True, 0, 0, "trivial")
    rank, mode = _rank(matrix, target, prime, gfp)
    return SurjectivityResult(rank == target, rank, target, mode)


def map_surjectivity(hring, a, b, prime=None):
    """Surjectivity of R_a (x) R_b -> R_(a+b), with the route it took.

    With a prime, on a ring whose ideal is not monomial, the map is built
    from pieces over GF(p) and a full rank mod p proves it surjective.
    With no prime, a refused piece or a short rank, it is built from
    exact pieces and decided by ``is_surjective``, so a failing verdict is
    exact.  ``route`` on the result names the route for the human report.
    """
    route = _exact_route(hring)
    if prime is not None and not hring.is_monomial_ideal:
        try:
            pa, pb, pc = _gfp_pieces(hring, (a, b, a + b), prime)
            result = _surjectivity(_products(pa, pb, pc), pc.dim, prime, gfp=True)
            result.route = _modular_route(
                prime, (a, b, a + b), multiplication=f"{pc.dim}x{pa.dim * pb.dim}")
            return result
        except _ExactRoute as exc:
            route = f"exact pieces, {exc}"
    result = is_surjective(multiplication_map(hring, a, b), prime=prime)
    result.route = route
    return result


class PairingResult:
    __slots__ = ("nondegenerate", "k", "dim_left", "dim_right", "rank", "mode")

    def __init__(self, nondegenerate, k, dim_left, dim_right, rank, mode):
        self.nondegenerate = nondegenerate
        self.k = k
        self.dim_left = dim_left
        self.dim_right = dim_right
        self.rank = rank
        self.mode = mode

    def __bool__(self):
        return self.nondegenerate

    def __repr__(self):
        return (f"PairingResult(nondegenerate={self.nondegenerate}, k={self.k}, "
                f"dims=({self.dim_left}, {self.dim_right}), rank={self.rank}, "
                f"mode={self.mode!r})")


def macaulay_pairing_check(hring, k, prime=None):
    """Nondegeneracy of the socle pairing R_k x R_(sigma-k) -> R_sigma.

    Requires the socle piece to be one-dimensional; raises
    SocleNotOneDimensional otherwise.
    """
    sigma = hring.socle_degree
    top = hring.piece(sigma)
    if top.dim != 1:
        raise SocleNotOneDimensional(
            f"dim R_{sigma} = {top.dim}, expected 1")
    return _pairing(hring.piece(k), hring.piece(sigma - k), top, prime)


def _pairing(pa, pb, top, prime):
    """The socle pairing of ``pa`` and ``pb`` into the one-dimensional
    ``top``; over GF(p) it answers only when nondegenerate."""
    if pa.dim != pb.dim:
        return PairingResult(False, pa.degree, pa.dim, pb.dim, None,
                             "dimension mismatch")
    if pa.dim == 0:
        return PairingResult(True, pa.degree, 0, 0, 0, "trivial")
    products = _products(pa, pb, top)
    if top.prime is None:
        matrix = [[row[0] for row in products[i:i + pb.dim]]
                  for i in range(0, len(products), pb.dim)]
    else:
        matrix = products.reshape(pa.dim, pb.dim)
    rank, mode = _rank(matrix, pa.dim, prime, gfp=top.prime is not None)
    return PairingResult(rank == pa.dim, pa.degree, pa.dim, pb.dim, rank, mode)


class DualityKernelResult:
    """Left kernel emptiness established through the socle pairing.

    If R_(sigma-a-b) (x) R_b -> R_(sigma-a) is surjective and the socle
    pairing at degree a is nondegenerate, then u * R_b = 0 forces u to
    pair to zero with all of R_(sigma-a), hence u = 0.  Both sub-verdicts
    are kept.
    """

    __slots__ = ("empty", "surjectivity", "pairing", "a", "b", "route")

    def __init__(self, a, b, surjectivity, pairing, route=None):
        self.a = a
        self.b = b
        self.surjectivity = surjectivity
        self.pairing = pairing
        self.empty = bool(surjectivity) and bool(pairing)
        self.route = route

    def __bool__(self):
        return self.empty

    def __repr__(self):
        return (f"DualityKernelResult(empty={self.empty}, a={self.a}, "
                f"b={self.b}, surjectivity={self.surjectivity!r}, "
                f"pairing={self.pairing!r})")


def left_kernel_via_duality(hring, a, b, prime=None):
    """Both halves of the duality argument at degrees (a, b).

    With a prime, on a ring whose ideal is not monomial, both matrices
    are built from pieces over GF(p) and ranked mod p.  Only when both
    ranks are full does that answer; otherwise both halves are built
    from exact pieces, as ``map_surjectivity`` does.  ``route`` on the
    result names the route for the human report.
    """
    sigma = hring.socle_degree
    if a + b > sigma:
        raise ValueError("need a + b <= socle degree for the duality route")
    route = _exact_route(hring)
    if prime is not None and not hring.is_monomial_ideal:
        try:
            degrees = (sigma - a - b, b, sigma - a)
            pc, pb, pt = _gfp_pieces(hring, degrees, prime)
            surj = _surjectivity(_products(pc, pb, pt), pt.dim, prime, gfp=True)
            pa, _, top = _gfp_pieces(hring, (a, sigma - a, sigma), prime)
            pairing = _pairing(pa, pt, top, prime)
            route = _modular_route(
                prime, degrees + (a, sigma),
                surjectivity=f"{pt.dim}x{pc.dim * pb.dim}",
                pairing=f"{pa.dim}x{pt.dim}")
            return DualityKernelResult(a, b, surj, pairing, route)
        except _ExactRoute as exc:
            route = f"exact pieces, {exc}"
    mmap = multiplication_map(hring, sigma - a - b, b)
    surj = is_surjective(mmap, prime=prime)
    pairing = macaulay_pairing_check(hring, a, prime=prime)
    return DualityKernelResult(a, b, surj, pairing, route)


class UniformBoundResult:
    __slots__ = ("bound", "degree", "per_variable")

    def __init__(self, bound, degree, per_variable):
        self.bound = bound
        self.degree = degree
        self.per_variable = per_variable

    def __repr__(self):
        return (f"UniformBoundResult(bound={self.bound}, degree={self.degree}, "
                f"per_variable={self.per_variable})")


def uniform_mult_rank_bound(hring, b):
    """Uniform lower bound on rank of multiplication by any nonzero linear form.

    Only valid for monomial Jacobian ideals.  For a linear form L pick
    its earliest variable x_i in the canonical order; for each standard
    monomial m of degree b with x_i * m standard, the grevlex leading
    monomial of L * m is x_i * m, and distinct m give distinct leading
    monomials that survive reduction by the monomial ideal.  Hence
    rank(mult by L) >= #{m standard : x_i * m standard}, and the minimum
    over i bounds every L at once.
    """
    if not hring.is_monomial_ideal:
        raise IdealNotMonomial("uniform bound requires a monomial Jacobian ideal")
    gens = hring.monomial_generators()
    std = [m for m in enumerate_monomials(hring.nvars, b)
           if not any(monomial_divides(g, m) for g in gens)]
    per_variable = []
    for i in range(hring.nvars):
        count = 0
        for m in std:
            shifted = list(m)
            shifted[i] += 1
            if not any(monomial_divides(g, tuple(shifted)) for g in gens):
                count += 1
        per_variable.append(count)
    return UniformBoundResult(min(per_variable), b, per_variable)


class FunctionalMapResult:
    __slots__ = ("rank", "target_dim", "subspace_dim", "surjective", "g_class_nonzero")

    def __init__(self, rank, target_dim, subspace_dim, g_class_nonzero):
        self.rank = rank
        self.target_dim = target_dim
        self.subspace_dim = subspace_dim
        self.surjective = rank == target_dim
        self.g_class_nonzero = g_class_nonzero

    def __repr__(self):
        return (f"FunctionalMapResult(rank={self.rank}, target_dim={self.target_dim}, "
                f"subspace_dim={self.subspace_dim}, surjective={self.surjective})")


def functional_kernel_map(hring, g, b=None):
    """Rank of W (x) R_b -> R_(a+b) for W the socle-orthogonal of g.

    Here a = deg g, W = {h in R_a : the socle coordinate of h * g is 0},
    the kernel of the linear functional that pairs against g; it contains
    the ideal slice by construction, so W presents a subspace of R_a of
    codimension one whenever the class of g is nonzero.
    """
    a = g.total_degree()
    if b is None:
        b = hring.degree - 1
    sigma = hring.socle_degree
    top = hring.piece(sigma)
    if top.dim != 1:
        raise SocleNotOneDimensional(f"dim R_{sigma} = {top.dim}, expected 1")
    pa = hring.piece(a)
    # h * g has a socle coordinate only when it lies in the socle degree
    functional = [top.reduce_vector({monomial_mul(u, e): c
                                     for e, c in g.terms.items()})[0]
                  if 2 * a == sigma else 0 for u in pa.representatives]
    g_nonzero = any(functional)
    kernel = exactla.kernel_basis([functional]) if g_nonzero else [
        [Fraction(1) if i == j else Fraction(0) for j in range(pa.dim)]
        for i in range(pa.dim)]
    mmap = multiplication_map(hring, a, b, quotient_by=kernel)
    r = exactla.rank(mmap.matrix)
    return FunctionalMapResult(r, mmap.target_dim, len(kernel), g_nonzero)
