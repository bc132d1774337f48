"""Exact linear algebra over the rationals and the integers.

Rank and kernel computations use fraction-free Bareiss elimination, so
every intermediate value is an exact integer minor of the input.  Modular
ranks over a prime field are available as cheap one-sided certificates:
the rank mod p never exceeds the rational rank, so a modular rank that
meets the a-priori maximum pins the exact value.

Residues lift to rationals by ``crt`` and ``rational_reconstruction``;
a lifted value proves nothing until the caller verifies it exactly.

Integer row lattices are normalised with a row-style Hermite normal form
(positive pivots, entries above each pivot reduced into [0, pivot)), which
makes equality of lattices a literal equality of matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import modrank
from .modrank import BadPrime
from .poly import _coefficient


def _as_rows(matrix):
    if isinstance(matrix, IntMatrix):
        return matrix.rows()
    return [list(row) for row in matrix]


class IntMatrix:
    """Dense matrix with integer entries stored row-major."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, rows):
        rows = [[int(x) for x in row] for row in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.entries = [x for row in rows for x in row]

    def rows(self):
        n = self.ncols
        return [self.entries[i * n:(i + 1) * n] for i in range(self.nrows)]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (
            other.nrows, other.ncols, other.entries)

    def __repr__(self):
        return f"IntMatrix({self.rows()!r})"


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


def _integer_row(row):
    """(d, d * row) for d the lcm of the denominators; d is 1 for int rows."""
    if all(type(x) is int for x in row):
        return 1, row
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _integer_rows(matrix):
    """Scale each row by its common denominator; rank and kernel are unchanged."""
    return [_integer_row(row)[1] for row in _as_rows(matrix)]


def _bareiss_echelon(rows):
    """Fraction-free echelon form.

    Returns (echelon_rows, pivot_cols).  The input rows are destroyed.
    Entries of the returned rows are exact integer minors of the input
    (two-step Bareiss: every division by the previous pivot is exact).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    piv_cols = []
    r = 0
    prev = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][c]
        prow = rows[r]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            if f:
                new = []
                for x, y in zip(row, prow):
                    num = pivot * x - f * y
                    q = num // prev
                    if q * prev != num:
                        raise ArithmeticError(
                            "fraction-free elimination lost exactness")
                    new.append(q)
                rows[i] = new
            elif pivot != prev:
                # the minor normalisation must stay uniform across rows
                new = []
                for x in row:
                    num = pivot * x
                    q = num // prev
                    if q * prev != num:
                        raise ArithmeticError(
                            "fraction-free elimination lost exactness")
                    new.append(q)
                rows[i] = new
        piv_cols.append(c)
        prev = pivot
        r += 1
        if r == m:
            break
    return rows[:r], piv_cols


def rank(matrix):
    """Exact rank over the rationals."""
    rows = _integer_rows(matrix)
    if not rows or not rows[0]:
        return 0
    _, piv = _bareiss_echelon(rows)
    return len(piv)


def kernel_basis(matrix):
    """Basis of the right kernel, one vector per free column.

    Each basis vector carries entry 1 at its free column and 0 at every
    other free column, so the result is canonical.  Integral entries are
    ``int``, the others ``Fraction``.  Satisfies
    ``len(kernel_basis(M)) == ncols - rank(M)`` by construction.
    """
    rows = _integer_rows(matrix)
    if not rows:
        return []
    n = len(rows[0])
    ech, piv_cols = _bareiss_echelon(rows)
    free_cols = [c for c in range(n) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        # back-substitute through the echelon rows
        for i in range(len(ech) - 1, -1, -1):
            pc = piv_cols[i]
            s = sum(ech[i][j] * vec[j] for j in range(pc + 1, n) if vec[j])
            vec[pc] = _coefficient(Fraction(-s, ech[i][pc]))
        basis.append(vec)
    return basis


def modular_rank(matrix, prime=modrank.DEFAULT_PRIME, upper_bound=None):
    """Rank of the matrix reduced mod ``prime``, with certificate.

    An int64 array and sparse dict rows ``{column: entry}`` have no
    denominators and go to the elimination kernels as they are, as do
    rows of plain integers; the kernels reduce them mod ``prime`` once.
    A row with rational entries is scaled by the lcm of its denominators,
    a unit mod ``prime``, so the modular rank is the same as for the
    rational row.

    Raises BadPrime if ``prime`` is not a prime in the range supported by
    the elimination kernels, or if it divides the denominator of any entry.
    """
    modrank.require_prime(prime)
    sparse = modrank.is_sparse(matrix)
    if sparse or getattr(matrix, "dtype", None) == "int64":
        red = matrix
    else:
        red = []
        for row in _as_rows(matrix):
            den, row = _integer_row(row)
            if den % prime == 0:
                raise BadPrime(f"prime {prime} divides a denominator")
            red.append(row)
    r = modrank.rank_mod(red, prime)
    if upper_bound is None:
        # for dict rows, 1 + the largest column index bounds the rank
        ncols = (1 + max((max(row) for row in red if row), default=-1)
                 if sparse else len(red[0]) if len(red) else 0)
        upper_bound = min(len(red), ncols)
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
    rows = [[int(x) for x in row] for row in _as_rows(matrix)]
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

    The set of valid n is an ideal of Z, so a single generator exists.  It
    is found by comparing pivot products of the Hermite forms of the
    lattice with and without ``vec`` adjoined; the witness combination is
    then read off through the tracked transformation and re-verified by
    exact multiplication before returning.
    """
    rows = [[int(x) for x in row] for row in _as_rows(matrix)]
    vec = [int(x) for x in vec]
    if not rows:
        return LatticeMultiple(1, []) if not any(vec) else None
    hnf, U = hermite_normal_form(rows, transform=True)
    _, residual = _reduce_against_hnf(hnf, vec)
    if any(residual):
        return None  # vec is outside the rational row span
    hnf2 = hermite_normal_form(rows + [vec])
    det1 = 1
    for row in hnf:
        det1 *= row[next(j for j, x in enumerate(row) if x)]
    det2 = 1
    for row in hnf2:
        det2 *= row[next(j for j, x in enumerate(row) if x)]
    if det2 == 0 or det1 % det2:
        raise ArithmeticError("pivot products must divide exactly")
    n = det1 // det2
    target = [n * x for x in vec]
    coeffs, residual = _reduce_against_hnf(hnf, target)
    if any(residual) or any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("reduction of the minimal multiple must be integral")
    witness = [0] * len(rows)
    for c, urow in zip(coeffs, U):
        c = int(c)
        if c:
            witness = [w + c * u for w, u in zip(witness, urow)]
    check = [sum(w * row[j] for w, row in zip(witness, rows)) for j in range(len(vec))]
    if check != target:
        raise ArithmeticError("witness failed re-multiplication")
    return LatticeMultiple(n, witness)
