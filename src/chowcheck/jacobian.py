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
comes in two kinds:

* ``piece(k)`` is exact: monomial for a monomial ideal, otherwise the
  character blocks of the slice, each eliminated over Q (a ring without
  a declared symmetry is one block of the trivial character, and a
  degree below d-1 gives blocks whose columns are all free).  On a ring
  proven smooth, a piece whose dimension differs from the closed form
  raises ``ArithmeticError``.
* ``modular_piece(k, p)`` is over GF(p), from the echelon form mod p of
  the whole slice, and is accepted only at good reduction: on a ring
  proven smooth, when its dimension is the closed-form one (see
  ``ModularPiece`` for why that makes a full rank mod p a proof).
  ``map_surjectivity`` and ``left_kernel_via_duality`` build their
  matrices from these pieces when given a prime, and fall back to exact
  pieces when a piece is refused or a rank mod p is short.

Slices are built from integer partials: the form is scaled to integer
coefficients once, on construction.  One memoised layout per degree
(``_slice_index``) places every coefficient of the slice, and two
methods read it: ``span_rows`` gives exact Python ``int`` rows, and
``span_array`` gives the slice reduced mod p as an int64 array, which
the modular certificates eliminate without a per-entry pass in Python.
Layouts and arrays are built with numpy, which is imported only then:
a ring whose slices are never built, as with a monomial ideal, never
loads it.

A ring memoises per degree its slice layouts, graded pieces (per prime
for modular ones), eliminated quotient dimensions and, for each
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
        self._modular_pieces = {}
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

    def piece(self, k):
        """Graded piece with representatives and a reduction map, memoised."""
        if k not in self._pieces:
            self._pieces[k] = GradedPiece(self, k)
        return self._pieces[k]

    def modular_piece(self, k, p):
        """The degree-k piece over GF(p) if p is good for it, else None.

        Memoised per degree and prime.  The piece is accepted only on a
        ring proven smooth, and only when its dimension is the exact
        ``quotient_dim(k)``, there the closed form: then rank_p = rank_Q
        of the slice (see ``ModularPiece``).
        """
        key = (k, p)
        if key not in self._modular_pieces:
            piece = None
            if self.smoothness_proof().certified:
                piece = ModularPiece(self, k, p)
                if piece.dim != self.quotient_dim(k):
                    piece = None
            self._modular_pieces[key] = piece
        return self._modular_pieces[key]

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
    """One graded piece of the quotient: basis data plus reduction.

    Fields: ``degree``, ``monomials`` (canonical ambient basis),
    ``representatives`` (monomials whose classes form a quotient basis:
    the standard monomials of a monomial ideal, otherwise the free
    columns of the eliminated ideal slice, in ambient order), ``dim``.
    """

    def __init__(self, hring, k):
        self.hring = hring
        self.degree = k
        self.monomials = enumerate_monomials(hring.nvars, k)
        if hring.is_monomial_ideal:
            self._blocks = None
            gens = hring.monomial_generators()
            self.representatives = [m for m in self.monomials
                                    if not any(monomial_divides(g, m) for g in gens)]
        else:
            self._blocks = hring._symmetric_blocks(
                k, hring.symmetry or ((0,) * hring.nvars, 1))
            # ambient monomial -> (block index, column inside the block)
            self._slot = {}
            free_cols = []
            for b, (_, js, free, _, _) in enumerate(self._blocks):
                for t, j in enumerate(js):
                    self._slot[self.monomials[j]] = (b, t)
                free_cols.extend(js[t] for t in free)
            self.representatives = [self.monomials[j] for j in sorted(free_cols)]
        self.dim = len(self.representatives)
        if hring._closed_form is not None and self.dim != hring._closed_form_dim(k):
            raise ArithmeticError(
                f"degree {k} piece has dimension {self.dim}, but the ring is "
                f"proven smooth and the closed form gives "
                f"{hring._closed_form_dim(k)}")
        self._rep_pos = {m: i for i, m in enumerate(self.representatives)}

    def reduce_vector(self, terms):
        """Quotient coordinates (over ``representatives``) of an ambient vector.

        ``terms`` maps degree-k exponent tuples to coefficients.
        """
        out = [Fraction(0)] * self.dim
        if self._blocks is None:
            for e, c in terms.items():
                pos = self._rep_pos.get(e)
                if pos is not None:
                    out[pos] += c
            return out
        by_block = {}
        for e, c in terms.items():
            b, t = self._slot[e]
            if b not in by_block:
                by_block[b] = [Fraction(0)] * len(self._blocks[b][1])
            by_block[b][t] += c
        for b, local in by_block.items():
            _, js, free, rref, piv = self._blocks[b]
            for row, pc in zip(rref, piv):
                f = local[pc]
                if f:
                    local = [x - f * y for x, y in zip(local, row)]
            for t in free:
                if local[t]:
                    out[self._rep_pos[self.monomials[js[t]]]] += local[t]
        return out

    def character_dimensions(self):
        """Mapping character -> eigenspace dimension (symmetric rings only)."""
        if self.hring.symmetry is None:
            raise ValueError("ring has no declared symmetry")
        dims = {}
        for m in self.representatives:
            c = self.hring.character_of(m)
            dims[c] = dims.get(c, 0) + 1
        return dims


class ModularPiece:
    """One graded piece over GF(p), from the echelon form of its slice.

    Fields: ``degree``, ``prime``, ``monomials`` (canonical ambient
    basis), ``representatives`` (the free columns of the slice mod p, in
    ambient order), ``dim``, and ``normal_forms``, an int64 array with one
    row per ambient monomial: its coordinates mod p over the
    representatives.

    Why such a piece proves anything over Q: if the slice A_k has
    rank_p(A_k) = rank_Q(A_k), its row space over Z_(p) (the integers
    localised at p) is saturated, so the Z_(p) quotient is free and
    reduces mod p to this piece; by Nakayama's lemma the representatives
    lift to a basis of it.  Products of such pieces are defined over
    Z_(p) and reduce to their mod-p matrices, so a full rank mod p is a
    full rank over Q.  ``HypersurfaceRing.modular_piece`` checks the
    equality by comparing ``dim`` with the exact closed-form dimension.

    The whole slice is eliminated, not its character blocks: a block
    diagonal matrix pivots in the union of its blocks' pivot columns.
    """

    __slots__ = ("degree", "prime", "monomials", "representatives", "dim",
                 "normal_forms")

    def __init__(self, hring, k, p):
        import numpy as np

        self.degree = k
        self.prime = p
        monos, _, _, _ = hring._slice_index(k)
        self.monomials = list(monos)
        ncols = len(monos)
        pivots, rref = [], np.zeros((0, ncols), dtype=np.int64)
        if hring._slice_shape(k)[0]:
            _, rref, pivots = modrank.echelon_mod(hring.span_array(k, p), p)
        free = np.setdiff1d(np.arange(ncols), pivots)
        self.representatives = [self.monomials[j] for j in free.tolist()]
        self.dim = len(free)
        # a pivot monomial is minus the rest of its row, a free one itself
        forms = np.zeros((ncols, self.dim), dtype=np.int64)
        forms[free, np.arange(self.dim)] = 1
        forms[pivots] = -rref[:, free] % p
        self.normal_forms = forms


def _exact_route(hring, reason=None):
    route = "monomial pieces" if hring.is_monomial_ideal else "exact pieces"
    return route if reason is None else f"{route}, {reason}"


class _ExactRoute(Exception):
    """The GF(p) route cannot answer; the message names the exact route
    that will, with the reason."""

    def __init__(self, hring, reason):
        super().__init__(_exact_route(hring, reason))


def _modular_products(hring, a, b, p):
    """Products R_a x R_b -> R_(a+b) over GF(p), from modular pieces.

    An int64 array with one row per pair (u, v) of representatives, left
    factor major, holding the normal form of u * v.  Raises
    ``_ExactRoute`` when a piece is refused.
    """
    import numpy as np

    pieces = []
    for k in (a, b, a + b):
        piece = hring.modular_piece(k, p)
        if piece is None:
            if not hring.smoothness_proof().certified:
                raise _ExactRoute(hring, "ring not proven smooth")
            raise _ExactRoute(hring, f"mod-p gate refused at degree {k}")
        pieces.append(piece)
    pa, pb, pc = pieces
    left = np.array(pa.representatives, dtype=np.int64).reshape(-1, 1, hring.nvars)
    right = np.array(pb.representatives, dtype=np.int64).reshape(1, -1, hring.nvars)
    cols = _monomial_columns(pc.monomials, left + right, a + b)
    return pc.normal_forms[cols.reshape(-1)]


def _full_rank_mod_p(hring, matrix, full, p, shape):
    if not exactla.modular_rank(matrix, p, upper_bound=full).certified:
        raise _ExactRoute(hring, f"rank mod p={p} short for {shape}")


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
        if quotient_by is None:
            left = [{u: Fraction(1)} for u in pa.representatives]
        else:
            left = []
            for vec in quotient_by:
                if len(vec) != pa.dim:
                    raise ValueError("subspace vector length must match dim R_a")
                left.append({u: Fraction(x)
                             for u, x in zip(pa.representatives, vec) if x})
        self.left_dim = len(left)
        self.right_dim = pb.dim
        cols = []
        for uvec in left:
            for v in pb.representatives:
                prod = {}
                for u, cu in uvec.items():
                    e = monomial_mul(u, v)
                    prod[e] = prod.get(e, Fraction(0)) + cu
                cols.append(pc.reduce_vector(prod))
        self.matrix = [[cols[j][i] for j in range(len(cols))]
                       for i in range(pc.dim)]

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
    target = mmap.target_dim
    if target == 0:
        return SurjectivityResult(True, 0, 0, "trivial")
    if prime is not None:
        cert = exactla.modular_rank(mmap.matrix, prime, upper_bound=target)
        if cert.certified:
            return SurjectivityResult(True, cert.rank, target,
                                      f"modular(p={prime})")
    r = exactla.rank(mmap.matrix)
    return SurjectivityResult(r == target, r, target, "exact")


def _surjectivity_mod_p(hring, a, b, p):
    """``is_surjective`` of R_a (x) R_b -> R_(a+b) over GF(p), answered
    only when the rank is full: (result, matrix shape)."""
    matrix = _modular_products(hring, a, b, p)
    target = matrix.shape[1]
    shape = f"{target}x{matrix.shape[0]}"
    if target == 0:
        return SurjectivityResult(True, 0, 0, "trivial"), shape
    _full_rank_mod_p(hring, matrix, target, p, shape)
    return SurjectivityResult(True, target, target, f"modular(p={p})"), shape


def _pairing_mod_p(hring, k, p):
    """``macaulay_pairing_check`` at degree k over GF(p), answered only
    when the pairing is nondegenerate: (result, matrix shape).  Accepted
    pieces have the closed-form dimensions, which are palindromic and
    positive up to the socle degree, where the dimension is 1: so the
    matrix is square, not empty, and each product is one entry of it."""
    sigma = hring.socle_degree
    products = _modular_products(hring, k, sigma - k, p)
    dim = hring.modular_piece(k, p).dim
    shape = f"{dim}x{dim}"
    _full_rank_mod_p(hring, products.reshape(dim, dim), dim, p, shape)
    return PairingResult(True, k, dim, dim, dim, f"modular(p={p})"), shape


def map_surjectivity(hring, a, b, prime=None):
    """Surjectivity of R_a (x) R_b -> R_(a+b), with the route it took.

    With a prime, on a ring whose ideal is not monomial, the map is built
    from modular pieces and a full rank mod p proves it surjective.  With
    no prime, a refused piece or a short rank, it is built from exact
    pieces and decided by ``is_surjective``, so a failing verdict is
    exact.  ``route`` on the result names the route for the human report.
    """
    route = _exact_route(hring)
    if prime is not None and not hring.is_monomial_ideal:
        try:
            result, shape = _surjectivity_mod_p(hring, a, b, prime)
            result.route = _modular_route(prime, (a, b, a + b),
                                          multiplication=shape)
            return result
        except _ExactRoute as exc:
            route = str(exc)
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
    pa, pb = hring.piece(k), hring.piece(sigma - k)
    matrix = []
    for u in pa.representatives:
        row = []
        for v in pb.representatives:
            coords = top.reduce_vector({monomial_mul(u, v): Fraction(1)})
            row.append(coords[0])
        matrix.append(row)
    if pa.dim != pb.dim:
        return PairingResult(False, k, pa.dim, pb.dim, None, "dimension mismatch")
    if pa.dim == 0:
        return PairingResult(True, k, 0, 0, 0, "trivial")
    if prime is not None:
        cert = exactla.modular_rank(matrix, prime, upper_bound=pa.dim)
        if cert.certified:
            return PairingResult(True, k, pa.dim, pb.dim, cert.rank,
                                 f"modular(p={prime})")
    r = exactla.rank(matrix)
    return PairingResult(r == pa.dim, k, pa.dim, pb.dim, r, "exact")


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
    are built from modular pieces and ranked mod p.  Only when both ranks
    are full does that answer; otherwise both halves are built from exact
    pieces, as ``map_surjectivity`` does.  ``route`` on the result names
    the route for the human report.
    """
    sigma = hring.socle_degree
    if a + b > sigma:
        raise ValueError("need a + b <= socle degree for the duality route")
    route = _exact_route(hring)
    if prime is not None and not hring.is_monomial_ideal:
        try:
            surj, surj_shape = _surjectivity_mod_p(hring, sigma - a - b, b, prime)
            pairing, pairing_shape = _pairing_mod_p(hring, a, prime)
            route = _modular_route(prime, (sigma - a - b, b, sigma - a, a, sigma),
                                   surjectivity=surj_shape, pairing=pairing_shape)
            return DualityKernelResult(a, b, surj, pairing, route)
        except _ExactRoute as exc:
            route = str(exc)
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
    functional = []
    for u in pa.representatives:
        prod = {}
        for e, c in g.terms.items():
            m = monomial_mul(u, e)
            prod[m] = prod.get(m, Fraction(0)) + c
        functional.append(top.reduce_vector(prod)[0])
    g_nonzero = any(functional)
    kernel = exactla.kernel_basis([functional]) if g_nonzero else [
        [Fraction(1) if i == j else Fraction(0) for j in range(pa.dim)]
        for i in range(pa.dim)]
    mmap = multiplication_map(hring, a, b, quotient_by=kernel)
    r = exactla.rank(mmap.matrix)
    return FunctionalMapResult(r, mmap.target_dim, len(kernel), g_nonzero)
