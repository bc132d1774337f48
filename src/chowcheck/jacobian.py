"""Graded quotients of a polynomial ring by a Jacobian ideal.

For a homogeneous form F of degree d in n variables, the quotient of the
polynomial ring by the ideal of first partials is graded Artinian exactly
when the projective hypersurface F = 0 is smooth, with one-dimensional
top piece in the socle degree n*(d-2).  This module computes graded
pieces, multiplication maps between them, and the socle pairing.
Dimensions are exact, and so is every failing verdict: a rank mod p
only ever proves a rank that meets an a-priori upper bound.

Quotient dimensions (``quotient_dim``, and with it ``hilbert_function``)
come from the first of these routes that applies:

* a ring proven smooth by its certificate at ``DEFAULT_PRIME``
  (``smoothness_certificate()``: a monomial count for a monomial ideal,
  a modular rank of the degree-(sigma+1) slice otherwise) is a complete
  intersection and reads the closed form ((1 - t^(d-1)) / (1 - t))^n;
  a certificate that does not close proves nothing;
* otherwise ``ideal_rank`` counts the monomials of a monomial ideal,
  and in any other ring takes the rank mod p of the slice when it is
  min(rows, cols), the dimension of the lifted piece otherwise.

Both ask whether a slice has full rank mod p through ``_full_rank``,
memoised per (degree, prime).  Above sigma that rank is #monomials, and
Macaulay's resultant matrix (Macaulay 1902) gives a square set of slice
rows to try first, given a bijection j -> i from variables to partials
with an x_j^(d-1) term of dF/dx_i nonzero mod p (``_matching``; the
identity for every dense generic form, a permutation for the bundled
quintic): for each degree-k monomial M, the row (M / x_j^(d-1)) * dF/dx_i
of the first j with x_j^(d-1) dividing M, nonzero in its own column.
They are rows of the slice, so a full rank of theirs mod p proves the
full rank of the whole slice over Q, and the certificate is the one the
whole slice would give.  The square rows are built alone, and the whole
slice is built and eliminated only when there is no matching or they
fall short.

A graded piece is one exact ``GradedPiece``: a degree, representatives,
and the normal form of every ambient monomial over them.  ``piece(k)``
takes the standard monomials of a monomial ideal, those whose code is no
generator's code plus a code of the remaining degree; any other ring lifts
the reduced echelon form of its slice from GF(p) (``_lift``) through
``exactla.lift_kernel``, the one lift behind every exact rank and kernel,
by Chinese remaindering and rational reconstruction (Wang 1981; Monagan
2004).  The piece passes its per-prime slice builder (``_gfp_slice``),
so each prime eliminates the slice in the form its kernel takes.  A lift
is accepted after one exact product A*N = 0 of the slice's integer dict
rows A and the normal-form table N, which proves it at any prime: N is
the identity on the free columns, and they number #monomials minus the
rank mod p.  On a ring proven smooth at ``DEFAULT_PRIME``, a piece
whose dimension differs from the closed form raises ``ArithmeticError``.
Every multiplication and pairing matrix on exact pieces is built by
looking up normal forms (``_products``).

One rule governs primes.  In every entry point that takes one
(``is_smooth_artinian``, ``smoothness_certificate``, ``map_surjectivity``,
``macaulay_pairing_check``, ``left_kernel_via_duality``), ``prime`` None
is the exact route, and any other value passes ``_check_step``'s gate
before any route is taken.  A closed form answers on a ring whose
smoothness certificate closes at the step's prime, or at
``DEFAULT_PRIME`` for an exact step (``_smooth_for``), so a step's route
does not depend on the steps before it; ``quotient_dim``,
``dimension_route`` and the character spectra have no prime.

Every step answers with one ``Rank``: a rank, the full rank it is
compared to, a mode, a route, and the proof in hand (a certificate, a
piece or a theorem).  Smoothness is the rank of the degree-(sigma+1)
slice.  R is a graded quotient of the polynomial ring, so
R_a * R_b = R_(a+b) on every ring: every multiplication map is onto,
with rank dim R_(a+b), and no step builds one to learn that.  On a ring
proven smooth for the step that dimension is a coefficient of the
closed form, in the step's mode; on any other it is ``quotient_dim``, in
mode ``GENERATED``.  A smooth R is a complete intersection, hence
Gorenstein, so its socle pairing R_a x R_(sigma-a) -> R_sigma is perfect
(Macaulay; Carlson & Griffiths 1980), with a closed-form rank too.  Any
other ring ranks the pairing matrix from exact pieces (``_rank``): mod
the step's prime first, exactly short of its bound, so a failing
verdict is exact.  The one map a step still ranks is
``functional_kernel_map``'s W (x) R_b -> R_(a+b) for a nonzero socle
functional, at 2a = sigma.  A ring proven smooth ranks it through the
socle functional lambda, read mod p from one ``echelon_mod`` of the
degree-sigma slice (the indicator of one monomial on a monomial ideal):
the rows lambda(w * v * z) stream into the sparse kernel mod p, which
stops at the most the rank can be, and no piece is built; lambda over Q
answers when that falls short.  Any other ring ranks the whole map on
exact pieces.

Slices are built from integer partials: the form is scaled to integer
coefficients once, on construction.  Every row of a slice is one source
monomial m times one partial dF/dx_i, the sources listed in row order
by ``_sources``.  Both slice builders index columns by mixed-radix
monomial codes in base k + 1 (``_codes``), in which the code of m * x
is code(m) + code(x), so no monomial tuple is built per entry.
``_dict_rows`` builds every dict-row slice on these codes as Python
ints, one integer sum and one dict lookup per entry: ``span_sparse``
takes its rows mod p, ``span_rows`` fills them into exact Python
``int`` rows, and a lift proves itself over them.  ``_array_rows``
builds an int64 array mod p on the same codes in numpy, for
``span_array``.  Every elimination mod p, a
certificate's or a lift's, takes its slice from ``_gfp_slice``, which
decides from monomial counts alone (``_slice_kernel``): a slice with
fewer than ``SPARSE_DENSITY`` nonzeros per cell gets ``span_sparse`` for
modrank's sparse kernel, and any other slice gets ``span_array`` for the
dense kernel.  Macaulay's square rows (``_square_rows``) take the same
form as their slice, from the same two builders, with each row's source
given as a code.  numpy is imported only when an array is built, so a
ring whose slices are sparse, or whose ideal is monomial, never loads
it, and neither do exact rows.

A ring memoises its graded pieces per degree, so graded pieces,
character spectra and the smoothness test share one lift of each
degree.  It memoises one ``_full_rank`` certificate per (degree,
prime), never a matrix, so the smoothness certificate at a prime, the
exact certificate and the Hilbert table share one elimination of
degree sigma+1; the exact certificate is memoised once.  A
certificate at one prime never answers for another.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple

from . import exactla, modrank
from .poly import enumerate_monomials, monomial_mul, partial_derivative
from .report import CheckFailure, InputError


# below this share of nonzero cells a GF(p) slice takes modrank's sparse
# kernel, at or above it the dense one.  Measured on 48 random sparse
# quartic and quintic certificate slices, in one process with numpy
# loaded: the sparse route (rows built, then eliminated) beat the dense
# one on every slice below 0.45% and lost on some from there on (smaller
# 336x220 slices won up to 1.25%).  The bundled quintic's slice is at
# 0.31%; the dense generic quartic and quintic slices are at 9.1% and 6.3%.
SPARSE_DENSITY = 0.004


class SocleNotOneDimensional(ArithmeticError):
    """The socle degree piece does not have dimension one."""


class IdealNotMonomial(ValueError, CheckFailure):
    """An operation requiring a monomial Jacobian ideal got a general one."""


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


def _codes(monos, degree):
    """Mixed-radix codes in base degree + 1 of the exponent tuples
    ``monos``, each of total degree at most ``degree``, as Python ints.

    No exponent reaches the base, so the code of a product of degree at
    most ``degree`` is the sum of its factors' codes.
    """
    base = degree + 1
    out = []
    for m in monos:
        code = 0
        for x in m:
            code = code * base + x
        out.append(code)
    return out


class HypersurfaceRing:
    """Jacobian quotient ring of a homogeneous form.

    Parameters
    ----------
    f : SparsePoly
        Homogeneous form in a plain rational ring (no algebraic
        generators); every ring variable is a coordinate.
    """

    def __init__(self, f):
        if f.ring.reductions:
            raise InputError("hypersurface ring needs a plain rational ring")
        if f.is_zero() or not f.is_homogeneous():
            raise InputError("defining form must be homogeneous and nonzero")
        self.poly = f
        self.ring = f.ring
        self.nvars = f.ring.nvars
        self.degree = f.total_degree()
        if self.degree < 2:
            raise InputError("defining form must have degree at least 2")
        self.socle_degree = self.nvars * (self.degree - 2)
        den = 1
        for c in f.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        scaled = f.scale(den)
        self.partials = [partial_derivative(scaled, name)
                         for name in self.ring.names]
        self._int_partials = [[(e, int(c)) for e, c in p.terms.items()]
                              for p in self.partials]
        self._pieces = {}
        self._ranks = {}
        self._macaulay_closed = {}
        self._closed_form = complete_intersection_hilbert(self.nvars,
                                                          self.degree)

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

    def _slice_shape(self, k):
        """(rows, columns) of the degree-k slice, from monomial counts."""
        n, e = self.nvars, self.degree - 1
        sources = comb(k - e + n - 1, n - 1) if k >= e else 0
        return sources * n, comb(k + n - 1, n - 1)

    def _slice_nonzeros(self, k, p):
        """Nonzero entries mod p of the degree-k slice: a row holds each
        term of its partial that is nonzero mod p, in its own column, so
        every source monomial contributes those terms of all n partials."""
        terms = sum(c % p != 0 for part in self._int_partials for _, c in part)
        return self._slice_shape(k)[0] // self.nvars * terms

    def _slice_kernel(self, k, p):
        """The GF(p) kernel the degree-k slice mod p goes to: "sparse"
        below ``SPARSE_DENSITY``, "dense" otherwise."""
        rows, cols = self._slice_shape(k)
        if self._slice_nonzeros(k, p) < SPARSE_DENSITY * rows * cols:
            return "sparse"
        return "dense"

    def _gfp_slice(self, k, p):
        """The degree-k slice mod ``p`` in the form its kernel takes:
        ``span_sparse`` for the sparse kernel, ``span_array`` for the
        dense one."""
        if self._slice_kernel(k, p) == "sparse":
            return self.span_sparse(k, p)
        return self.span_array(k, p)

    def span_rows(self, k):
        """Integer generator rows of the degree-k Jacobian slice.

        Rows are indexed by (source monomial, partial) pairs in canonical
        order; columns by the canonical degree-k monomial list.  Entries
        are exact Python integers, filled from the slice's dict rows
        (``_slice_dict_rows``) without numpy.
        """
        monos, src = enumerate_monomials(self.nvars, k), self._sources(k)
        rows = []
        for entries in self._slice_dict_rows(k, monos, src,
                                             self._int_partials):
            row = [0] * len(monos)
            for j, c in entries.items():
                row[j] = c
            rows.append(row)
        return rows, monos, [(m, i) for m in src for i in range(self.nvars)]

    def span_array(self, k, p):
        """``span_rows(k)`` reduced mod ``p``, as an int64 array.

        Each coefficient is reduced as a Python integer before it enters
        int64, so coefficients of any size are exact.
        """
        import numpy as np

        n, src = self.nvars, self._sources(k)
        return self._array_rows(
            np.array(_codes(enumerate_monomials(n, k), k), dtype=np.int64),
            np.repeat(np.array(_codes(src, k), dtype=np.int64), n),
            np.tile(np.arange(n), len(src)), self._terms_mod(p), k)

    def span_sparse(self, k, p):
        """``span_rows(k)`` reduced mod ``p``, as dict rows.

        Row i maps the column of each term of its partial that is nonzero
        mod p to that coefficient mod p; rows and columns are those of
        ``span_rows``.  Built on integer monomial codes
        (``_slice_dict_rows``), without numpy.
        """
        return self._slice_dict_rows(k, enumerate_monomials(self.nvars, k),
                                     self._sources(k), self._terms_mod(p))

    def _sources(self, k):
        """The source monomials of the degree-k slice's rows: row r is
        source r // n times partial r % n, in ``span_rows`` order."""
        e = self.degree - 1
        return enumerate_monomials(self.nvars, k - e) if k >= e else []

    def _slice_dict_rows(self, k, monos, src, parts):
        """Dict rows of the degree-k slice on the partials' terms
        ``parts``, its columns the monomials ``monos`` and its sources
        ``src`` (``_sources``)."""
        return self._dict_rows(_codes(monos, k),
                               [(s, i) for s in _codes(src, k)
                                for i in range(self.nvars)], parts, k)

    def _terms_mod(self, p):
        """The partials' terms that are nonzero mod ``p``, reduced mod p."""
        return [[(x, c % p) for x, c in part if c % p]
                for part in self._int_partials]

    def _dict_rows(self, codes, sources, parts, k):
        """Dict rows of degree k, one per (source code s, partial index i)
        in ``sources``: the terms ``parts[i]`` times the monomial whose
        code is s, each at the column of its product.  Columns are the
        monomials whose codes are ``codes``, all codes in base k + 1
        (``_codes``), so the column of a product is one integer sum and
        one dict lookup away.  Every dict-row slice is built here."""
        col = {c: j for j, c in enumerate(codes)}
        terms = [list(zip(_codes([x for x, _ in part], k),
                          [c for _, c in part])) for part in parts]
        return [{col[s + x]: c for x, c in terms[i]} for s, i in sources]

    def _matching(self, p):
        """A bijection from variables to partials, as the tuple whose j-th
        entry i has an x_j^(d-1) term of dF/dx_i nonzero mod ``p``; None
        when there is none.  The identity where it works, so a form with
        every pure power keeps its rows; else augmenting paths (Kuhn
        1955) complete it."""
        n, e = self.nvars, self.degree - 1
        powers = [{j for x, c in part if c % p for j in range(n) if x[j] == e}
                  for part in self._int_partials]
        owner = [i if i in powers[i] else None for i in range(n)]

        def augment(j, seen):
            for i in range(n):
                if j in powers[i] and i not in seen:
                    seen.add(i)
                    if owner[i] is None or augment(owner[i], seen):
                        owner[i] = j
                        return True
            return False

        if not all(j in owner or augment(j, set()) for j in range(n)):
            return None
        return tuple(sorted(range(n), key=owner.__getitem__))

    def _square_rows(self, k, p, matching):
        """Macaulay's square rows of the degree-k slice mod ``p``, k > sigma,
        and their nonzero count.

        For each degree-k monomial M in column order, the row
        (M / x_j^(d-1)) * dF/dx_i, j the first index with x_j^(d-1)
        dividing M and i = ``matching[j]``: some x_j^(d-1) divides every
        M of degree above n*(d-2), and the matching is a bijection, so
        distinct M give distinct rows.  Built alone, in the form the
        kernel of the whole slice takes (``_slice_kernel``): dict rows as
        ``span_sparse`` gives them (``_dict_rows``), or an int64 array in
        [0, p) (``_array_rows``); either way the source of M's row is
        M's code less that of x_j^(d-1), and no source monomial is built.
        """
        n, e = self.nvars, self.degree - 1
        monos = enumerate_monomials(n, k)
        first = []
        for m in monos:
            j = 0
            while m[j] < e:
                j += 1
            first.append(j)
        parts = self._terms_mod(p)
        nonzeros = sum(len(parts[matching[j]]) * first.count(j)
                       for j in range(n))
        codes = _codes(monos, k)
        pure = _codes([(0,) * j + (e,) + (0,) * (n - 1 - j)
                       for j in range(n)], k)
        if self._slice_kernel(k, p) == "sparse":
            sources = [(c - pure[j], matching[j])
                       for c, j in zip(codes, first)]
            return self._dict_rows(codes, sources, parts, k), nonzeros
        import numpy as np

        codes = np.array(codes, dtype=np.int64)
        first = np.array(first)
        return self._array_rows(codes, codes - np.array(pure)[first],
                                np.array(matching)[first], parts, k), nonzeros

    def _array_rows(self, codes, src, partial, parts, k):
        """Rows of the degree-k slice as an int64 array, one per entry of
        the int64 arrays ``src`` and ``partial``: the terms
        ``parts[partial[r]]`` times the source monomial whose code is
        ``src[r]``, each at the column of its product.  Columns are the
        monomials whose codes are ``codes``, all codes in base k + 1
        (``_codes``), so the code of a product is the sum of its factors'.
        """
        import numpy as np

        a = np.zeros((len(src), len(codes)), dtype=np.int64)
        # a product's column: the index in ``codes`` of its code
        order = np.argsort(codes)
        for i, part in enumerate(parts):
            rows = np.flatnonzero(partial == i)
            if part and rows.size:
                prods = src[rows, None] + np.array(
                    _codes([x for x, _ in part], k), dtype=np.int64)
                cols = order[np.searchsorted(codes, prods, sorter=order)]
                a[rows[:, None], cols] = [c for _, c in part]
        return a

    def _full_rank(self, k, p):
        """RankCertificate of the degree-k slice mod ``p`` against
        min(rows, cols), memoised per (k, p): above sigma Macaulay's
        square rows first when ``_matching`` finds one, the whole slice
        (``_gfp_slice``) short of a full rank, so the certificate is
        always that of the whole slice.  ``_macaulay_closed`` maps each
        (k, p) the square rows closed to their nonzero count mod p, for
        the route line."""
        if (k, p) in self._ranks:
            return self._ranks[k, p]
        rows, cols = self._slice_shape(k)
        cert = None
        matching = self._matching(p) if k > self.socle_degree else None
        if matching is not None:
            square, nonzeros = self._square_rows(k, p, matching)
            cert = exactla.modular_rank(square, p, upper_bound=cols)
            if cert.certified:
                self._macaulay_closed[k, p] = nonzeros
        if cert is None or not cert.certified:
            cert = exactla.modular_rank(self._gfp_slice(k, p), p,
                                        upper_bound=min(rows, cols))
        self._ranks[k, p] = cert
        return cert

    def ideal_rank(self, k):
        """Exact dimension of the degree-k piece of the Jacobian ideal.

        For a monomial ideal, #monomials less the number that no generator
        divides (``_count_avoiding``, without listing them); else
        min(rows, cols) when the slice's rank mod p reaches it
        (``_full_rank``, which above sigma tries Macaulay's square rows
        first), else #monomials minus the lifted piece's dim.
        """
        if k < self.degree - 1:
            return 0
        rows, cols = self._slice_shape(k)
        if self.is_monomial_ideal:
            return cols - _count_avoiding(self.monomial_generators(),
                                          self.nvars, k)
        if self._full_rank(k, modrank.DEFAULT_PRIME).certified:
            return min(rows, cols)
        return cols - self.piece(k).dim

    def _rank_proof(self, k):
        """What decided ``ideal_rank(k)`` off a monomial ideal: the full
        rank mod ``DEFAULT_PRIME`` it read, else the lifted piece."""
        cert = self._full_rank(k, modrank.DEFAULT_PRIME)
        return cert if cert.certified else self.piece(k)

    def _lift(self, k):
        """(free, forms) of the degree-k piece of a non-monomial ring: the
        free columns of the reduced echelon form of the slice over Q, and
        the normal form of each column, {free column: coefficient}.

        ``exactla.lift_kernel`` lifts them from ``_gfp_slice`` (dict rows
        or an array, as the slice's kernel takes it) and proves them over
        the slice's integer dict rows.  Below degree d-1 the slice has no
        rows and every column is free.
        """
        rows = self._slice_dict_rows(k, enumerate_monomials(self.nvars, k),
                                     self._sources(k), self._int_partials)
        return exactla.lift_kernel(rows, self._slice_shape(k)[1],
                                   lambda p: self._gfp_slice(k, p))

    def piece(self, k):
        """The degree-k graded piece over Q, memoised per degree: the
        standard monomials of a monomial ideal (by ``_codes``), else the
        lifted piece (``_lift``); every zero normal form is one shared row."""
        if k in self._pieces:
            return self._pieces[k]
        monos = enumerate_monomials(self.nvars, k)
        if self.is_monomial_ideal:
            taken = {c + x for g in self.monomial_generators() if sum(g) <= k
                     for c in _codes([g], k) for x in _codes(
                         enumerate_monomials(self.nvars, k - sum(g)), k)}
            free = [j for j, c in enumerate(_codes(monos, k))
                    if c not in taken]
            forms = {j: {j: 1} for j in free}
        else:
            free, forms = self._lift(k)
        table = [(0,) * len(free)] * len(monos)
        for j, form in forms.items():
            table[j] = tuple(form.get(t, 0) for t in free)
        if (len(free) != self._closed_form_dim(k)
                and self.smoothness_certificate().certified):
            raise ArithmeticError(
                f"degree {k} piece has dimension {len(free)}, but the ring is "
                f"proven smooth and the closed form gives "
                f"{self._closed_form_dim(k)}")
        self._pieces[k] = GradedPiece(k, monos, free, table)
        return self._pieces[k]

    def smoothness_certificate(self, prime=modrank.DEFAULT_PRIME):
        """One-sided proof that the quotient vanishes in degree sigma+1.

        ``prime`` passes ``_check_step``'s gate first.  None asks for the
        exact certificate, which a monomial ideal gives at every prime:
        ``ideal_rank(sigma+1)`` against the number of monomials, with
        prime None, memoised once.  Any other ring takes the rank mod
        ``prime`` of the degree-(sigma+1) slice (``_full_rank``), which
        never exceeds the rational rank.  The certificate closes
        (``certified``) only when it meets the number of monomials; then
        the n partials form a regular sequence, which gives the closed
        forms.  A certificate at one prime never answers for another.
        """
        k = self.socle_degree + 1
        _check_step(prime, k)
        if prime is not None and not self.is_monomial_ideal:
            return self._full_rank(k, prime)
        if (k, None) not in self._ranks:
            self._ranks[k, None] = exactla.RankCertificate(
                None, self.ideal_rank(k), self._slice_shape(k)[1])
        return self._ranks[k, None]

    def _proof_route(self, cert):
        """A smoothness certificate, as a fragment of a route line.  An
        exact one off a monomial ideal names what decided its rank
        (``_rank_proof``)."""
        k = self.socle_degree + 1
        verdict = "smooth" if cert.certified else "not smooth"
        if cert.prime is None and not self.is_monomial_ideal:
            cert = self._rank_proof(k)
        if isinstance(cert, GradedPiece):
            how = "exact pieces"
        elif cert.prime is None:
            how = "monomial count"
        else:
            p = cert.prime
            rows, cols = self._slice_shape(k)
            shape, nonzeros = f"{rows}x{cols}", self._slice_nonzeros(k, p)
            if (k, p) in self._macaulay_closed:
                shape = f"{cols}x{cols} Macaulay rows of {shape}"
                nonzeros = self._macaulay_closed[k, p]
            how = (f"modular p={p}, {shape}, {nonzeros} nonzeros, "
                   f"{self._slice_kernel(k, p)}")
        return f"{verdict} at degree {k} ({how})"

    def dimension_route(self):
        """How ``quotient_dim`` answers, as one line for the human report."""
        cert = self.smoothness_certificate()
        if not cert.certified:
            return "elimination"
        return f"closed form, {self._proof_route(cert)}"

    def quotient_dim(self, k):
        """Exact dimension of the degree-k quotient piece.

        A coefficient of the closed form when the smoothness certificate
        at ``DEFAULT_PRIME`` closes (``smoothness_certificate()``), the
        eliminated dimension otherwise; the same route whichever steps
        ran before.
        """
        if self.smoothness_certificate().certified:
            return self._closed_form_dim(k)
        return self._eliminated_dim(k)

    def _closed_form_dim(self, k):
        table = self._closed_form
        return table[k] if 0 <= k < len(table) else 0

    def _eliminated_dim(self, k):
        """Dimension of the degree-k quotient piece by elimination."""
        if k < 0:
            return 0
        return comb(k + self.nvars - 1, self.nvars - 1) - self.ideal_rank(k)


class GradedPiece:
    """One graded piece of the quotient, over Q.

    Fields: ``degree``, ``monomials`` (canonical ambient basis),
    ``representatives`` (monomials whose classes form a basis of the
    piece: the standard monomials of a monomial ideal, otherwise the free
    columns of the eliminated slice, in ambient order), ``dim``, and
    ``normal_forms``, one tuple of rationals per ambient monomial holding
    its coordinates over the representatives.
    """

    __slots__ = ("degree", "monomials", "representatives", "dim",
                 "normal_forms", "_index")

    def __init__(self, k, monomials, free, normal_forms):
        self.degree = k
        self.monomials = list(monomials)
        self.representatives = [monomials[j] for j in free]
        self.dim = len(free)
        self.normal_forms = normal_forms
        self._index = {m: j for j, m in enumerate(monomials)}

    def normal_forms_of(self, monomials):
        """Normal forms of ``monomials``, all of this degree, in order."""
        return [self.normal_forms[self._index[m]] for m in monomials]

    def reduce_vector(self, terms):
        """Quotient coordinates (over ``representatives``) of an ambient vector.

        ``terms`` maps degree-k exponent tuples to rational coefficients.
        """
        return _combination(terms.values(), self.normal_forms_of(terms), self.dim)


def _combination(coeffs, rows, dim):
    """The rational vector sum(c * row), of length ``dim``."""
    out = [0] * dim
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                if x:
                    out[i] += c * x
    return out


def _products(lefts, pb, pc):
    """Normal forms in ``pc`` of the products u * v of the monomials u of
    ``lefts`` and the representatives v of ``pb``, one row per pair, left
    factor major.

    Every multiplication and pairing matrix is built here.
    """
    return pc.normal_forms_of([monomial_mul(u, v) for u in lefts
                               for v in pb.representatives])


def _mode(prime):
    return "exact" if prime is None else f"modular(p={prime})"


# the mode of a rank that R_a * R_b = R_(a+b) proves on a ring not proven
# smooth at the step's prime: the exact dimension of the target
GENERATED = "exact(generated in degree 1)"

# the theorems a ``Rank`` may name as its proof
DEGREE_ONE = "generated in degree 1"
GORENSTEIN = "Gorenstein duality"
CLOSED_FORM = "closed form"


class Rank(NamedTuple):
    """A step's answer: ``rank`` against ``full``, the ``mode`` and
    ``route`` it took, and its ``proof``: the ``RankCertificate`` that
    closed it, the ``GradedPiece`` that decided it, or a theorem named
    above.  True when ``ok``, rank == full."""

    rank: int | None
    full: int
    mode: str
    route: str | None = None
    proof: object = None

    @property
    def ok(self):
        return self.rank == self.full

    def __bool__(self):
        return self.ok


def _rank(matrix, full, prime):
    """The ``Rank`` of a rational matrix whose rank is at most ``full``.

    The matrix is scaled to integer dict rows once
    (``exactla.integer_rows``).  Their rank mod ``prime`` never exceeds
    their rank over Q, which is the matrix's, so a rank mod ``prime``
    that reaches ``full`` proves it, whichever denominators ``prime``
    divides, and its certificate is the proof.  Short of one the same
    rows are ranked exactly (``exactla.rank``), proven by a certificate
    with prime None.  A non-prime ``prime`` raises BadPrime.
    """
    rows, _ = exactla.integer_rows(matrix)
    cert = None if prime is None else exactla.modular_rank(
        rows, prime, upper_bound=full)
    if cert is None or not cert.certified:
        cert = exactla.RankCertificate(None, exactla.rank(rows), full)
    return Rank(cert.rank, full, _mode(cert.prime), proof=cert)


def _check_step(prime, *degrees):
    """Gate a step's prime and degrees before any route is taken."""
    if prime is not None:
        modrank.require_prime(prime)
    if min(degrees) < 0:
        raise InputError(f"graded degrees must be nonnegative, got {degrees}")


def _smooth_for(hring, prime):
    """How the ring is proven smooth for a step with ``prime`` (None: an
    exact step), as a fragment of a route line; None if it is not.

    The proof is the ring's smoothness certificate (for a monomial ideal,
    the monomial count) at the step's prime, so that its mode
    ``modular(p=...)`` names a prime of good reduction; an exact step
    reads the certificate at ``DEFAULT_PRIME``, whose full rank mod p
    proves the full rank over Q.  A proof at any other prime is not
    asked for, so a step's route does not depend on the steps before it.
    """
    cert = hring.smoothness_certificate(
        modrank.DEFAULT_PRIME if prime is None else prime)
    return hring._proof_route(cert) if cert.certified else None


def _pieces_route(hring, prime):
    """The route of a step that ``_smooth_for`` refused."""
    if hring.is_monomial_ideal:
        return "monomial pieces"
    if prime is None:
        return "exact pieces"
    return f"exact pieces, ring not proven smooth at p={prime}"


def hilbert_function(hring):
    """Exact dimensions of the graded quotient pieces 0..socle degree."""
    return [hring.quotient_dim(k) for k in range(hring.socle_degree + 1)]


def is_smooth_artinian(hring, prime=modrank.DEFAULT_PRIME):
    """Smoothness of the hypersurface via vanishing above the socle, as
    the ``Rank`` of the degree-(sigma+1) slice against its monomials.

    The quotient is Artinian with socle degree n*(d-2) exactly when the
    hypersurface is smooth, so it suffices that the piece in degree
    socle+1 vanishes.  That is a full-rank claim about the ideal slice,
    answered by the ring's smoothness certificate at ``prime``, which
    gates it first.  ``prime`` None is the exact certificate, and so is a
    modular one that falls short, in mode ``exact(after modular p=...)``.
    The proof is the certificate that answered.
    """
    cert = hring.smoothness_certificate(prime)
    mode = _mode(cert.prime)
    if not cert.certified and cert.prime is not None:
        cert = hring.smoothness_certificate(None)
        mode = f"exact(after modular p={prime})"
    return Rank(cert.rank, cert.upper_bound, mode, hring._proof_route(cert),
                cert)


def multiplication_map(hring, a, b, kernel):
    """The matrix of W (x) R_b -> R_(a+b) in quotient coordinates, W
    spanned by the vectors ``kernel`` over the representatives of R_a:
    one row per (vector, representative v of R_b), vector major, holding
    the image's coordinates over the representatives of R_(a+b).  Built
    from exact pieces, for a ring not proven smooth."""
    pa, pb, pc = hring.piece(a), hring.piece(b), hring.piece(a + b)
    products = _products(pa.representatives, pb, pc)
    return [_combination(vec, products[j::pb.dim], pc.dim)
            for vec in kernel for j in range(pb.dim)]


def _onto(target, mode, route=None):
    """A map onto a piece of dimension ``target``, onto by generation in
    degree 1, in ``mode`` unless the target is zero."""
    return Rank(target, target, mode if target else "trivial", route,
                DEGREE_ONE)


def map_surjectivity(hring, a, b, prime=None):
    """Surjectivity of R_a (x) R_b -> R_(a+b), as its ``Rank``.

    R is a graded quotient of the polynomial ring, whose degree-(a+b)
    monomials are products of degree-a and degree-b ones, so
    R_a * R_b = R_(a+b): the map is onto on every ring, with rank
    dim R_(a+b), and no map is built.  On a ring proven smooth for the
    step (``_smooth_for``) that is the closed form's coefficient, in the
    step's mode, whatever the default prime proves; on any other ring it
    is ``quotient_dim(a + b)``, in mode ``GENERATED``, since no rank mod
    p was taken.
    """
    _check_step(prime, a, b)
    smooth = _smooth_for(hring, prime)
    if smooth is not None:
        return _onto(hring._closed_form_dim(a + b), _mode(prime),
                     f"closed form (generated in degree 1), {smooth}")
    where = "" if prime is None else f", ring not proven smooth at p={prime}"
    return _onto(hring.quotient_dim(a + b), GENERATED,
                 f"generated in degree 1, dimension by "
                 f"{hring.dimension_route()}{where}")


def macaulay_pairing_check(hring, k, prime=None):
    """Nondegeneracy of the socle pairing R_k x R_(sigma-k) -> R_sigma, as
    its ``Rank`` against dim R_k (rank None if dim R_(sigma-k) differs).

    Requires the socle piece to be one-dimensional; raises
    SocleNotOneDimensional otherwise.  ``prime`` and both degrees are
    gated first, before any piece is built or any shortcut taken.
    """
    sigma = hring.socle_degree
    _check_step(prime, k, sigma - k)
    top = hring.piece(sigma)
    if top.dim != 1:
        raise SocleNotOneDimensional(
            f"dim R_{sigma} = {top.dim}, expected 1")
    pa, pb = hring.piece(k), hring.piece(sigma - k)
    if pa.dim != pb.dim:
        return Rank(None, pa.dim, "dimension mismatch", proof=pb)
    if pa.dim == 0:
        return Rank(0, 0, "trivial", proof=pa)
    products = _products(pa.representatives, pb, top)
    matrix = [[row[0] for row in products[i:i + pb.dim]]
              for i in range(0, len(products), pb.dim)]
    return _rank(matrix, pa.dim, prime)


def left_kernel_via_duality(hring, a, b, prime=None):
    """Both halves of the duality argument at degrees (a, b), as the pair
    of ``Rank``: the map R_(sigma-a-b) (x) R_b -> R_(sigma-a) and the
    socle pairing at degree a.

    If the map is onto and the pairing nondegenerate, then u * R_b = 0
    forces u to pair to zero with all of R_(sigma-a), hence u = 0.  On a
    ring proven smooth for the step (``_smooth_for``) both halves are
    theorems: the map has rank dim R_(sigma-a), and the pairing is
    perfect (Gorenstein duality), with rank dim R_a.  Any other ring
    builds the pairing from exact pieces (``macaulay_pairing_check``),
    and the map is onto by ``map_surjectivity``'s theorem, in mode
    ``GENERATED``.  Both halves carry the step's route.
    """
    _check_step(prime, a, b)
    sigma = hring.socle_degree
    if a + b > sigma:
        raise InputError(f"a + b = {a + b} is above the socle degree {sigma}")
    smooth = _smooth_for(hring, prime)
    if smooth is not None:
        route = f"closed form (Macaulay duality), {smooth}"
        dim = hring._closed_form_dim(a)
        return (_onto(hring._closed_form_dim(sigma - a), _mode(prime), route),
                Rank(dim, dim, _mode(prime) if dim else "trivial", route,
                     GORENSTEIN))
    # first, so that a socle of the wrong dimension raises before any
    # dimension is read
    pairing = macaulay_pairing_check(hring, a, prime=prime)
    route = _pieces_route(hring, prime)
    return (_onto(hring.quotient_dim(sigma - a), GENERATED, route),
            pairing._replace(route=route))


def uniform_mult_rank_bound(hring, b):
    """Uniform lower bound on rank of multiplication by any nonzero linear
    form, as (bound, per-variable counts, route).

    Only valid for monomial Jacobian ideals.  For a linear form L pick
    its earliest variable x_i in the canonical order; for each standard
    monomial m of degree b with x_i * m standard, the grevlex leading
    monomial of L * m is x_i * m, and distinct m give distinct leading
    monomials that survive reduction by the monomial ideal.  Hence
    rank(mult by L) >= #{m standard : x_i * m standard}, and the minimum
    over i bounds every L at once.  x_i * m is standard, and then so is
    m, exactly when no g / gcd(g, x_i) divides m, g a generator, so each
    count is taken over the at most n generators (``_count_avoiding``),
    without listing the monomials of degree b.
    """
    if not hring.is_monomial_ideal:
        raise IdealNotMonomial("uniform bound requires a monomial Jacobian ideal")
    gens = hring.monomial_generators()
    per_variable = [
        _count_avoiding([g[:i] + (max(g[i] - 1, 0),) + g[i + 1:]
                         for g in gens], hring.nvars, b)
        for i in range(hring.nvars)]
    return (min(per_variable), per_variable, "monomial count, inclusion and "
            f"exclusion over {len(gens)} generators")


def _count_avoiding(gens, nvars, b):
    """Number of degree-b monomials in ``nvars`` variables that no
    exponent tuple of ``gens`` divides, by inclusion and exclusion: the
    degree-b multiples of the lcm of a subset S of ``gens`` number
    comb(b - deg lcm + nvars - 1, nvars - 1), counted with sign (-1)^|S|."""
    total = 0
    for subset in range(1 << len(gens)):
        chosen = [g for j, g in enumerate(gens) if subset >> j & 1]
        rest = b - sum(max(e) for e in zip((0,) * nvars, *chosen))
        if rest >= 0:
            total += (-1) ** len(chosen) * comb(rest + nvars - 1, nvars - 1)
    return total


class FunctionalCertificate(exactla.RankCertificate):
    """The ``RankCertificate`` of ``functional_kernel_map``'s matrix M,
    with the socle functional that M was built from beside it:
    ``functional`` maps degree-sigma monomials to their nonzero values,
    mod the certificate's prime, or integers for prime None."""

    __slots__ = ("functional",)

    def __init__(self, prime, rank, upper_bound, functional):
        super().__init__(prime, rank, upper_bound)
        self.functional = functional


def _socle_functional(hring, prime):
    """The socle functional of a ring proven smooth at ``DEFAULT_PRIME``:
    the one vector the degree-sigma slice kills, mod ``prime``, or over
    the integers for prime None, as {monomial: value} without zeros.

    On a monomial ideal the partials are pure powers x_i^(d-1), and it is
    the indicator of the one standard monomial, the product of the
    x_i^(d-2), at every prime.  Otherwise the slice's one free column t,
    in ``modrank.echelon_mod`` mod ``prime`` or in the lift (``_lift``),
    gives entry 1 at t and minus each pivot row's entry at t.  The
    certificate makes the rank of every slice the same mod p as over Q,
    so the vector mod p is the reduction of the one over Q, up to a unit.
    """
    sigma = hring.socle_degree
    if hring.is_monomial_ideal:
        return {(hring.degree - 2,) * hring.nvars: 1}
    monos = enumerate_monomials(hring.nvars, sigma)
    if prime is None:
        (t,), forms = hring._lift(sigma)
        den = lcm(*(x.denominator for form in forms.values()
                    for x in form.values()))
        values = {j: int(form.get(t, 0) * den) for j, form in forms.items()}
    else:
        pivots, rows = modrank.echelon_mod(hring._gfp_slice(sigma, prime),
                                           prime)
        (t,) = set(range(len(monos))).difference(pivots)
        values = {j: -row.get(t, 0) % prime for j, row in zip(pivots, rows)}
        values[t] = 1
    return {monos[j]: x for j, x in values.items() if x}


def _socle_functional_map(hring, g, b, target, dims):
    """``functional_kernel_map`` at 2a = sigma on a ring proven smooth at
    ``DEFAULT_PRIME``, from the socle functional lambda alone: no piece,
    no multiplication map.  None when g pairs to zero.

    g is scaled to a primitive integer form, and f_u = lambda(g * u) over
    the degree-a monomials u.  The h of S_a with lambda(g * h) = 0 are
    spanned by f_u0 * u - f_u * u0 for one u0 with f_u0 a unit, and they
    contain J_a, so W is their image, of dimension dim R_a - 1.  The
    pairing into R_sigma is perfect, so the rank of W (x) R_b -> R_(a+b)
    is that of M[(w, v), z] = lambda(w * v * z), v over the monomials of
    S_b and z over those of S_(sigma-a-b); lambda kills J_sigma, so no
    normal form is needed.  Mod ``DEFAULT_PRIME`` M is the reduction of
    a p-integral M over Q, so a rank mod p that reaches the most the rank
    can be, dim R_(a+b) (dim W for b = 0), proves it, and f_p != 0
    proves f != 0.  M's rows, built on monomial codes (``_codes``),
    stream into ``modrank.rank_mod_reaches``, and no row past the one
    that reaches the bound is built.  If f_p = 0, or the rank falls
    short, lambda over Q answers exactly.
    """
    a, sigma, n = g.total_degree(), hring.socle_degree, hring.nvars
    coeffs = g.terms.values()
    g = g.scale(Fraction(lcm(*[c.denominator for c in coeffs]),
                         gcd(*[c.numerator for c in coeffs])))
    terms = list(zip(_codes(g.terms, sigma), g.terms.values()))
    left = _codes(enumerate_monomials(n, a), sigma)
    p, why = modrank.DEFAULT_PRIME, "pairs to zero"
    for prime in (p, None):
        functional = _socle_functional(hring, prime)
        lam = dict(zip(_codes(functional, sigma), functional.values()))
        f = [sum(c * lam.get(u + e, 0) for e, c in terms) for u in left]
        if prime is not None:
            f = [x % prime for x in f]
        if not any(f):
            continue
        dim = hring._closed_form_dim(a) - 1
        if not target:
            return (Rank(0, 0, "trivial", f"R_{a + b} = 0, {dims}",
                         CLOSED_FORM), dim, True)
        # the image is at most W (x) R_b: below dim R_(a+b) only for b = 0
        bound = min(target, dim * hring._closed_form_dim(b))
        f0 = next(filter(None, f))
        u0 = left[f.index(f0)]
        right = _codes(enumerate_monomials(n, b), sigma)
        tops = _codes(enumerate_monomials(n, sigma - a - b), sigma)

        def rows():
            """M's rows, f0 * lambda(u * v * z) - f_u * lambda(u0 * v * z)
            over z, for u other than u0 and every v."""
            for u, fu in zip(left, f):
                if u == u0:
                    continue
                for v in right:
                    row = {}
                    for j, z in enumerate(tops):
                        x = f0 * lam.get(u + v + z, 0) - fu * lam.get(
                            u0 + v + z, 0)
                        if x:
                            row[j] = x
                    yield row

        shape = f"M {(len(left) - 1) * len(right)}x{len(tops)}"
        if prime is None:
            cert = FunctionalCertificate(None, exactla.rank(list(rows())),
                                         target, functional)
            how = (f"socle functional over Q ({why} mod p={p}), {shape}, "
                   "exact rank")
        elif modrank.rank_mod_reaches(rows(), bound, p):
            cert = FunctionalCertificate(p, bound, bound, functional)
            how = f"socle functional mod p={p}, {shape}, rank reached {bound}"
        else:
            why = "fell short"
            continue
        return Rank(cert.rank, target, _mode(prime), how, cert), dim, True
    return None


def _pieces_functional_map(hring, g, b, target, dims):
    """``functional_kernel_map`` at 2a = sigma on a ring not proven
    smooth, from exact pieces: the functional over the representatives of
    R_a, its kernel, and one exact rank of the whole restricted map
    (``multiplication_map``).  None when g pairs to zero."""
    a = g.total_degree()
    top, pa = hring.piece(hring.socle_degree), hring.piece(a)
    functional = [top.reduce_vector({monomial_mul(u, e): c
                                     for e, c in g.terms.items()})[0]
                  for u in pa.representatives]
    if not any(functional):
        return None
    kernel = exactla.kernel_basis([functional])
    if target == 0:
        return (Rank(0, 0, "trivial", f"R_{a + b} = 0, {dims}",
                     hring._rank_proof(a + b)), len(kernel), True)
    matrix = multiplication_map(hring, a, b, kernel)
    cert = exactla.RankCertificate(None, exactla.rank(matrix), target)
    route = f"pieces {a}, {b}, {a + b}: {len(matrix)} columns, exact rank"
    return Rank(cert.rank, target, "exact", route, cert), len(kernel), True


def functional_kernel_map(hring, g, b):
    """The ``Rank`` of W (x) R_b -> R_(a+b) for W the socle-orthogonal of
    g, against dim R_(a+b), with dim W and whether g's class is nonzero.

    Here a = deg g, W = {h in R_a : the socle coordinate of h * g is 0},
    the kernel of the linear functional that pairs against g; it contains
    the ideal slice by construction, so W presents a subspace of R_a of
    codimension one whenever the class of g is nonzero.

    A ring proven smooth at ``DEFAULT_PRIME`` reads dim R_sigma = 1 from
    the closed form; any other builds R_sigma and raises
    SocleNotOneDimensional unless it is one-dimensional.  Only 2a = sigma
    gives h * g a socle coordinate.  There a ring proven smooth answers
    from the socle functional (``_socle_functional_map``), and any other
    from exact pieces (``_pieces_functional_map``).  A functional that
    pairs to zero leaves W = R_a, onto R_(a+b) by ``map_surjectivity``'s
    theorem, and no map is built; nor is one when R_(a+b) = 0.
    """
    a = g.total_degree()
    sigma = hring.socle_degree
    smooth = hring.smoothness_certificate().certified
    if not smooth:
        top = hring.piece(sigma)
        if top.dim != 1:
            raise SocleNotOneDimensional(
                f"dim R_{sigma} = {top.dim}, expected 1")
    dims = f"dimension by {hring.dimension_route()}"
    target = hring.quotient_dim(a + b)
    answer = None
    if 2 * a == sigma:
        answer = (_socle_functional_map if smooth else
                  _pieces_functional_map)(hring, g, b, target, dims)
    return answer or (_onto(target, GENERATED,
                            f"generated in degree 1 (W = R_{a}), {dims}"),
                      hring.quotient_dim(a), False)
