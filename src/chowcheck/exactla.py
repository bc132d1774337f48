"""Exact linear algebra over the rationals and the integers.

A rational matrix enters GF(p) once: ``integer_rows`` scales each row
by the lcm of its denominators to an integer dict row, and those rows go
to every elimination.  Modular ranks of integer matrices are cheap
one-sided certificates (``modular_rank``): the rank mod any prime never
exceeds the rational rank, so a modular rank that meets the a-priori
maximum pins the exact value.

Every exact rank, kernel and graded piece comes from one verified lift,
``lift_kernel``: the reduced echelon form mod p (``modrank.echelon_mod``)
lifts to Q by ``crt`` and ``rational_reconstruction``, and is accepted
only after one exact product M*N = 0 over integer dict rows.  ``rank``
answers from one ``rank_mod`` when it reaches min(rows, cols), and from
the lift otherwise; ``kernel_basis`` reads the lifted forms.

Integer row lattices are normalised with a row-style Hermite normal form
(positive pivots, entries above each pivot reduced into [0, pivot)), which
makes equality of lattices a literal equality of matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress, count
from math import gcd, isqrt, lcm

from . import modrank


class RankCertificate:
    """Outcome of a modular rank computation.

    The modular rank is a lower bound for the exact rank.  When it meets
    ``upper_bound`` (the smaller matrix dimension, or a caller-supplied
    target that is known a priori to dominate the exact rank), the exact
    rank is certified and ``certified`` is True.
    """

    __slots__ = ("prime", "rank", "upper_bound", "certified")

    def __init__(self, prime, rank, upper_bound):
        self.prime = prime
        self.rank = rank
        self.upper_bound = upper_bound
        self.certified = rank == upper_bound

    def __repr__(self):
        return (f"RankCertificate(prime={self.prime}, rank={self.rank}, "
                f"upper_bound={self.upper_bound}, certified={self.certified})")


def _width(rows):
    """Columns of the dict rows ``rows``: 1 + the largest column index."""
    return 1 + max((max(row) for row in rows if row), default=-1)


def integer_rows(matrix):
    """(rows, ncols): each row of the rational ``matrix`` scaled by the
    lcm of its denominators, as an integer dict row ``{column: entry}``
    without zeros, and the number of columns.

    Rows of plain ``int`` entries are not scaled, and a list of integer
    dict rows is passed through unchanged, its columns read as
    ``_width``.  Scaling a row by a nonzero integer changes neither the
    rank nor the kernel over Q.
    """
    if isinstance(matrix, list) and matrix and all(
            isinstance(row, dict) for row in matrix):
        return matrix, _width(matrix)
    rows = [list(row) for row in matrix]
    dict_rows = []
    for row in rows:
        row = {j: row[j] for j in compress(range(len(row)), row)}
        if not all(type(x) is int for x in row.values()):
            row = {j: x if isinstance(x, (int, Fraction)) else Fraction(x)
                   for j, x in row.items()}
            den = lcm(*(x.denominator for x in row.values()))
            row = {j: x.numerator * (den // x.denominator)
                   for j, x in row.items()}
        dict_rows.append(row)
    return dict_rows, len(rows[0]) if rows else 0


@cache
def _lift_prime(i):
    """The i-th prime of every lift, counting down from MAX_PRIME."""
    n = modrank.MAX_PRIME if i == 0 else _lift_prime(i - 1) - 1
    while not modrank.is_prime(n):
        n -= 1
    return n


def _lift_primes():
    """The primes of every lift: each prime from MAX_PRIME down, each
    found once per process."""
    return map(_lift_prime, count())


def lift_kernel(rows, ncols, gfp):
    """(free, forms) of the integer dict rows ``rows`` over Q: the free
    columns of their reduced echelon form, and the normal form of each of
    the ``ncols`` columns over them, {free column: coefficient}.  The
    forms are the right kernel: for each free column t, the vector of
    every column's coefficient at t has entry 1 at t, 0 at the other free
    columns, and is killed by the rows.

    Lifted from ``modrank.echelon_mod`` of ``gfp(p)``, the rows mod p in
    the form their kernel takes, at the primes of ``_lift_primes``.  A
    prime of lower rank, or of equal rank with later pivots, is unlucky
    and skipped; a better one restarts the lift.  After each prime the
    free-column entries are reconstructed (``crt``,
    ``rational_reconstruction``; Wang 1981, Monagan 2004) and accepted
    only when ``_annihilates`` proves them; a failure only asks for
    another prime.  Without rows every column is free.

    An accepted lift is the one over Q at any prime.  The rank mod p
    never exceeds the rank over Q, and the kernel vectors, one per free
    column, bound it from above, so the rank is #pivots.  Each free
    column is then a combination of pivot columns left of it, so the
    pivots are those over Q and the forms are Q's reduced echelon form.
    """
    if not rows:
        return list(range(ncols)), {j: {j: 1} for j in range(ncols)}
    best = None
    for p in _lift_primes():
        pivots, reduced = modrank.echelon_mod(gfp(p), p)
        rank = len(pivots)
        if rank == ncols:
            return [], {}
        key = (-rank, pivots)
        if best is not None and key > best:
            continue
        free = sorted(set(range(ncols)) - set(pivots))
        images = [row.get(t, 0) for row in reduced for t in free]
        if key != best:
            best, modulus, residues = key, p, images
        else:
            residues = crt(residues, modulus, images, p)
            modulus *= p
        entries = rational_reconstruction(residues, modulus)
        if entries is None:
            continue
        forms = {j: {j: 1} for j in free}
        for i, pc in enumerate(pivots):
            row = entries[i * len(free):(i + 1) * len(free)]
            forms[pc] = {t: -x for t, x in zip(free, row) if x}
        if _annihilates(rows, forms):
            return free, forms


def _annihilates(rows, forms):
    """A*N = 0 for the integer dict rows A and the normal forms N in
    ``forms``, checked exactly, with N scaled to integers by the lcm of
    its denominators."""
    den = lcm(*(x.denominator for form in forms.values()
                for x in form.values()))
    scaled = {j: {t: x.numerator * (den // x.denominator)
                  for t, x in form.items()} for j, form in forms.items()}
    for row in rows:
        total = {}
        for j, c in row.items():
            for t, x in scaled.get(j, {}).items():
                total[t] = total.get(t, 0) + c * x
        if any(total.values()):
            return False
    return True


def rank(matrix):
    """Exact rank over the rationals.

    The rows are scaled to integer dict rows, so both eliminations take
    modrank's sparse kernel and never load numpy.  A rank mod the first
    lift prime that reaches min(rows, cols) is the rank (``rank_mod``, no
    echelon form); short of it the rank is that of the lifted kernel
    (``lift_kernel``), which is proven exactly.
    """
    rows, ncols = integer_rows(matrix)
    if not rows or not ncols:
        return 0
    full = min(len(rows), ncols)
    if modrank.rank_mod(rows, next(_lift_primes())) == full:
        return full
    free, _ = lift_kernel(rows, ncols, lambda p: rows)
    return ncols - len(free)


def kernel_basis(matrix):
    """Basis of the right kernel, one vector per free column.

    Each basis vector carries entry 1 at its free column and 0 at every
    other free column, so the result is canonical: Q's reduced echelon
    form read off by ``lift_kernel`` on the rows scaled to integer dict
    rows, and proven by M*N = 0.  Integral entries are ``int``, the
    others ``Fraction``.  Satisfies
    ``len(kernel_basis(M)) == ncols - rank(M)``.
    """
    rows, ncols = integer_rows(matrix)
    free, forms = lift_kernel(rows, ncols, lambda p: rows)
    return [[forms[j].get(t, 0) for j in range(ncols)] for t in free]


def modular_rank(matrix, prime=modrank.DEFAULT_PRIME, upper_bound=None):
    """Rank of an integer matrix mod ``prime``, with certificate.

    ``matrix`` is a list of integer dict rows ``{column: entry}`` or an
    int64 array, as ``modrank.rank_mod`` takes it; a rational matrix is
    scaled first (``integer_rows``).  The rank mod ``prime`` of an
    integer matrix never exceeds its rank over Q, whatever the prime, so
    a rank that meets ``upper_bound`` (by default min(rows, cols), the
    columns of dict rows read as ``_width``) certifies that rank.

    Raises BadPrime if ``prime`` is not a prime in the range supported by
    the elimination kernels.
    """
    r = modrank.rank_mod(matrix, prime)
    if upper_bound is None:
        upper_bound = (min(len(matrix), _width(matrix))
                       if isinstance(matrix, list) else min(matrix.shape))
    return RankCertificate(prime, r, upper_bound)


def crt(residues, modulus, images, prime):
    """The vector in [0, modulus * prime) congruent to ``residues`` mod
    ``modulus`` and to ``images`` mod ``prime``, coprime to ``modulus``."""
    u = pow(modulus, -1, prime)
    return [r + modulus * ((x - r) * u % prime)
            for r, x in zip(residues, images)]


def rational_reconstruction(residues, m):
    """For each residue a, the n/d with |n|, d <= isqrt(m // 2) and
    n == d*a (mod m), or None if one has none (Wang 1981).

    Such an n/d in lowest terms is unique; the half-extended Euclidean
    algorithm on (m, a) finds it.  Integral results are ``int``.
    """
    bound = isqrt(m // 2)
    out = []
    for a in residues:
        r0, r1, s0, s1 = m, a % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        if abs(s1) > bound or gcd(r1, s1) != 1:
            return None
        if s1 < 0:
            r1, s1 = -r1, -s1
        out.append(r1 if s1 == 1 else Fraction(r1, s1))
    return out


def _xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b == g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(matrix, transform=False):
    """Row-style Hermite normal form of an integer matrix.

    Zero rows are dropped, pivots are positive and strictly to the right
    of the pivot in the previous row, and every entry above a pivot is
    reduced into [0, pivot).  With ``transform=True`` also returns the
    transformation rows U (one per HNF row) with U * input == HNF.
    """
    rows = [[int(x) for x in row] for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        # combine rows r..m-1 so only row r has a nonzero in column c
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if not rows[i][c]:
                continue
            a, b = rows[r][c], rows[i][c]
            g, s, t = _xgcd(a, b)
            # unimodular 2x2: [[s, t], [-b//g, a//g]] has determinant 1
            p, q = -(b // g), a // g
            rows[r], rows[i] = (
                [s * x + t * y for x, y in zip(rows[r], rows[i])],
                [p * x + q * y for x, y in zip(rows[r], rows[i])],
            )
            U[r], U[i] = (
                [s * x + t * y for x, y in zip(U[r], U[i])],
                [p * x + q * y for x, y in zip(U[r], U[i])],
            )
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            U[r] = [-x for x in U[r]]
        # reduce entries above the pivot into [0, pivot)
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    if transform:
        return rows[:r], U[:r]
    return rows[:r]


def _reduce_against_hnf(hnf_rows, vec):
    """Greedy pivot reduction of ``vec`` against HNF rows over the rationals.

    Returns (coefficients, residual).  The combination
    ``vec - sum(coeff_i * row_i)`` equals the residual exactly.
    """
    vec = [Fraction(x) for x in vec]
    coeffs = []
    for row in hnf_rows:
        pc = next((j for j, x in enumerate(row) if x), None)
        if pc is None:
            coeffs.append(Fraction(0))
            continue
        q = vec[pc] / row[pc]
        coeffs.append(q)
        if q:
            vec = [x - q * y for x, y in zip(vec, row)]
    return coeffs, vec


class LatticeMultiple:
    """Minimal n >= 1 with n*v in the row lattice, plus an integer witness.

    ``witness`` has one coefficient per input row and satisfies
    ``witness * rows == n * v`` exactly.
    """

    __slots__ = ("n", "witness")

    def __init__(self, n, witness):
        self.n = n
        self.witness = witness

    def __repr__(self):
        return f"LatticeMultiple(n={self.n}, witness={self.witness})"


def minimal_multiple_in_lattice(matrix, vec):
    """Smallest n >= 1 with n*vec in the integer row lattice, or None.

    The rows of the Hermite normal form are a Z-basis of the lattice, so
    n*vec lies in it exactly when n times each rational coordinate of
    ``vec`` over them (``_reduce_against_hnf``) is an integer: the least
    n is the lcm of their denominators.  The witness, n times the
    coordinates read through the tracked transformation, is re-verified
    by exact multiplication before returning.
    """
    rows = [[int(x) for x in row] for row in matrix]
    vec = [int(x) for x in vec]
    hnf, U = hermite_normal_form(rows, transform=True)
    coeffs, residual = _reduce_against_hnf(hnf, vec)
    if any(residual):
        return None  # vec is outside the rational row span
    n = lcm(*(c.denominator for c in coeffs))
    witness = [0] * len(rows)
    for c, urow in zip(coeffs, U):
        c = int(n * c)
        if c:
            witness = [w + c * u for w, u in zip(witness, urow)]
    target = [n * x for x in vec]
    check = [sum(w * row[j] for w, row in zip(witness, rows)) for j in range(len(vec))]
    if check != target:
        raise ArithmeticError("witness failed re-multiplication")
    return LatticeMultiple(n, witness)
