"""Gaussian elimination over a prime field GF(p).

This is the one genuinely hot numeric loop in the package: modular rank
certificates reduce big exact eliminations to machine-size arithmetic.
``rank_mod`` is the one rank entry point and ``echelon_mod`` the one
reduced echelon form, which ``exactla.lift_kernel`` lifts every exact
rank, kernel and graded piece from; ``rank_mod_reaches`` asks whether a
stream of sparse rows reaches a rank, and reads no row past the one that
does.  Both take an integer matrix in one
of two forms, and the form alone picks the kernel; a rational matrix is
scaled to integers before it gets here (``exactla.integer_rows``).

A list of dict rows ``{column: entry}`` goes to a pure-Python kernel
(``_sparse_pivots``) that reduces one row at a time against the pivot
rows found so far, pivoting on the row's leftmost column; the rank is
the number of pivot rows, and ``echelon_mod`` back-substitutes them.
Pivot rows are kept as they were found, not scaled to a leading 1, and
a pivot is inverted only once it reduces a row, so a rank costs one
modular inversion per pivot that reduces, not one per pivot; the
back substitution scales each pivot row to a leading 1 first.  On
a very sparse matrix, such as the Jacobian slice that proves the bundled
quintic smooth, it does less work than the input has nonzeros and needs
no numpy.  Fill-in makes it slow on denser rows, so callers keep those
off it: a Jacobian slice is built as dict rows only below a measured
density (``jacobian.SPARSE_DENSITY``), and as an int64 array otherwise.

An int64 array goes to the dense kernel (``_rank_mod_numpy``): a
column-by-column elimination whose row updates are vectorised with
numpy.  numpy is imported by that kernel and its callers alone, so a
process that never runs a dense GF(p) elimination (a ring with a
monomial Jacobian ideal, or a sparse slice) never loads it.  Both
kernels give ``echelon_mod`` in one form: the pivot columns, and each
pivot row as a dict over the free columns.

The dense kernel copies an int64 array already in [0, p) and reduces
any other with one numpy ``%``.  It then delays reduction (as in
FFLAS-FFPACK; Dumas, Giorgi & Pernet 2008): each step reduces only the
nonzero entries of the pivot column and the pivot row, and a row update
x - f*y stays unreduced until its row has taken ``update_budget(p)`` =
floor((2**63 - 1 - p) / (p - 1)**2) of them.  A row with j unreduced
updates has every entry in [-j*(p-1)**2, p), so all arithmetic stays
inside int64; p is capped at MAX_PRIME so that (p-1)**2 < 2**63 and
every budget is at least 1.  Pivots are inverted with Fermat's little
theorem, which is only valid in a field, so every modulus passes the
primality gate :func:`require_prime` before any elimination.
"""

from __future__ import annotations

from functools import cache

from .report import InputError


DEFAULT_PRIME = 1000003

# largest p with (p-1)**2 < 2**63, so products of reduced entries fit int64
MAX_PRIME = 3037000499

# Miller-Rabin with these bases is exact below 3,215,031,751 > MAX_PRIME
# (Pomerance, Selfridge & Wagstaff 1980)
_WITNESSES = (2, 3, 5, 7)


class BadPrime(InputError):
    """Raised when a modulus is unusable for the given matrix."""


def is_prime(n):
    """Deterministic primality test for 0 <= n <= MAX_PRIME."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def require_prime(p):
    """Raise BadPrime unless ``p`` is a prime in [2, MAX_PRIME].  A
    modulus that passes is remembered, so each prime is tested once."""
    if not 2 <= p <= MAX_PRIME:
        raise BadPrime(f"modulus {p} out of supported range [2, {MAX_PRIME}]")
    if not is_prime(p):
        raise BadPrime(f"modulus {p} is not prime")


def update_budget(p):
    """Unreduced updates a row may carry before it must be reduced mod p.

    floor((2**63 - 1 - p) / (p - 1)**2), at least 1 for every p up to
    MAX_PRIME; see ``_rank_mod_numpy`` for why it keeps int64 exact.
    """
    return (2**63 - 1 - p) // (p - 1) ** 2


def _rank_mod_numpy(a, p, pivots=None):
    """Elimination with vectorised, lazily reduced row updates.

    Parameters
    ----------
    a : ndarray of int64, shape (rows, cols)
        Matrix with entries already reduced into [0, p).  Destroyed.
    p : int
        Prime modulus.
    pivots : list, optional
        Receives one (column, pivot value) pair per pivot; the pivot rows
        are then kept in ``a[:rank]``, reduced into [0, p) right of their
        pivots (stale left of them).

    Returns
    -------
    int
        Rank of the matrix over GF(p).

    Each step reduces only the nonzero entries of the pivot column (to
    find a pivot that is nonzero mod p, and the multipliers f) and the
    pivot row y, so f and y lie in [0, p) and every product f*y in
    [0, (p-1)**2].  A row update x - f*y is left unreduced.  By induction
    a row that carries j unreduced updates since it was last reduced has
    every entry in [-j*(p-1)**2, p): an update only subtracts a product
    from that range.  A row that reaches B = ``update_budget(p)`` updates
    is reduced at once, so no row carries more than B, and
    B*(p-1)**2 <= 2**63 - 1 - p keeps every entry, and every
    intermediate x - f*y, inside int64.  Reducing commutes with the
    update mod p, so the rank is that of the reduced elimination.

    Without ``pivots`` the pivot row is consumed: row r takes its place
    instead of a swap.  Only the hit rows, those with a nonzero
    multiplier, are updated.  With a budget of 1 (p above about 2**31)
    every updated row is due at once, so the update and its reduction
    are one expression.
    """
    import numpy as np

    rows, cols = a.shape
    budget = update_budget(p)
    # a row takes at most one update per pivot, so a budget of min(rows,
    # cols) can never run out and the counts need not be kept; nor can a
    # budget of 1, which reduces every update as it is made
    counted = 1 < budget < min(rows, cols)
    carried = np.zeros(rows, dtype=np.int64)
    r = 0
    for c in range(cols):
        below = a[r:, c]
        nz = below.nonzero()[0]
        if nz.size == 0:
            continue
        vals = below[nz] % p
        if not vals.all():
            # an unreduced entry can be a nonzero multiple of p
            keep = vals != 0
            nz, vals = nz[keep], vals[keep]
            if nz.size == 0:
                continue
        piv = r + int(nz[0])
        y = a[piv, c + 1:] % p
        if piv != r:
            a[piv, c + 1:] = a[r, c + 1:]
            carried[piv] = carried[r]
        if pivots is not None:
            pivots.append((c, int(vals[0])))
            a[r, c + 1:] = y
        r += 1
        if r == rows:
            break
        if nz.size == 1:
            continue
        # rows of the block below the pivot and their multipliers
        hit = nz[1:] - 1
        f = vals[1:] * pow(int(vals[0]), p - 2, p) % p
        block = a[r:, c + 1:]
        if budget == 1:
            block[hit] = (block[hit] - np.multiply.outer(f, y)) % p
            continue
        block[hit] -= np.multiply.outer(f, y)
        if counted:
            count = carried[r:]
            count[hit] += 1
            due = hit[count[hit] == budget]
            block[due] %= p
            count[due] = 0
    return r


def _sparse_pivots(rows, p, bound=None):
    """Row-by-row forward elimination of sparse rows.

    Parameters
    ----------
    rows : iterable of dict
        Row i maps column indices (nonnegative ints) to integer entries.
        Never modified, and read one row at a time.
    p : int
        Prime modulus.
    bound : int, optional
        Stop once this many pivot rows are found, reading no further row.

    Returns
    -------
    dict
        One pivot row per pivot column, {column: row}; their number is
        the rank of the matrix over GF(p).

    Each row is reduced mod p and then, while its leftmost column c is
    the leading column of a pivot row y, reduced by f*y with
    f = row[c] / y[c].  A row that reaches a new leftmost column becomes
    the pivot row of that column as it stands, unscaled, with entries
    in [1, p); a row that reaches zero was dependent.  A pivot's inverse
    is computed the first time the pivot reduces a row and kept, so a
    pivot that reduces none is never inverted.  Pivot rows keep distinct
    leading columns, so sorted by them they are an echelon form of the
    matrix.
    """
    pivots = {}
    inverses = {}
    if bound == 0:
        return pivots
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            inv = inverses.get(c)
            if inv is None:
                inv = inverses[c] = pow(pivot[c], p - 2, p)
            f = row[c] * inv % p
            for j, y in pivot.items():
                x = (row.get(j, 0) - f * y) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
        if len(pivots) == bound:
            break
    return pivots


def _sparse_echelon(rows, p):
    """``echelon_mod`` of sparse rows: back substitution takes the pivot
    rows of ``_sparse_pivots`` from the last pivot column to the first,
    scaling each to a leading 1 and then dropping it.  Rows of later
    pivot columns then hold free columns only, so subtracting them clears
    a row's later pivot columns and brings in no other.
    """
    pivots = _sparse_pivots(rows, p)
    order = sorted(pivots)
    for c in reversed(order):
        row = pivots[c]
        inv = pow(row.pop(c), p - 2, p)
        for j in row:
            row[j] = row[j] * inv % p
        for j in [j for j in row if j in pivots]:
            f = row.pop(j)
            for t, y in pivots[j].items():
                x = (row.get(t, 0) - f * y) % p
                if x:
                    row[t] = x
                else:
                    del row[t]
    return order, [pivots[c] for c in order]


def _reduced(a, p):
    """A fresh copy of the int64 array ``a`` reduced into [0, p): copied
    when already in range, as ``jacobian`` builds its slices, else
    reduced with one numpy ``%``."""
    if a.size and (a.min() < 0 or a.max() >= p):
        return a % p
    return a.copy()


def rank_mod(matrix, p=DEFAULT_PRIME):
    """Rank of an integer matrix over GF(p).

    Parameters
    ----------
    matrix : list of dict rows, or int64 ndarray
        A list of integer dict rows ``{column: entry}`` takes the sparse
        kernel, and has rank 0 when empty; an int64 array takes the dense
        kernel.  Never modified.
    p : int
        Prime modulus, at most MAX_PRIME; anything else raises BadPrime.

    Returns
    -------
    int
    """
    require_prime(p)
    if isinstance(matrix, list):
        return len(_sparse_pivots(matrix, p))
    a = _reduced(matrix, p)
    return int(_rank_mod_numpy(a, p)) if a.size else 0


def rank_mod_reaches(rows, bound, p=DEFAULT_PRIME):
    """Whether the rank over GF(p) of the integer dict rows ``rows``
    reaches ``bound``.

    ``rows`` may be any iterable, a generator included: the sparse kernel
    reads it one row at a time and stops at the row whose pivot reaches
    ``bound``, so no later row is read, or built.  ``p`` must pass
    ``require_prime``.
    """
    require_prime(p)
    return len(_sparse_pivots(rows, p, bound)) == bound


def echelon_mod(matrix, p=DEFAULT_PRIME):
    """Reduced row echelon form over GF(p): (pivots, rows).

    ``matrix`` is a list of integer dict rows (sparse kernel,
    ``_sparse_echelon``, without numpy) or an int64 array (dense kernel),
    as for ``rank_mod``; it is never modified, and ``p`` must pass
    ``require_prime``.  Both kernels answer in one form: ``pivots`` lists
    the pivot columns in increasing order, and ``rows[i]`` the row with
    its leading 1 in column ``pivots[i]`` as a dict over the free
    columns, without zero entries and with every entry in [0, p).  The
    rank is ``len(pivots)``.

    The dense forward pass is the dense kernel, keeping each pivot row in
    place.  Back substitution then updates the free columns only, once
    for each pivot column with a nonzero entry above its pivot: that
    entry is the multiplier of the pivot row whatever rows below did,
    since they are 0 there.  Every update is reduced as it is made.
    """
    require_prime(p)
    if isinstance(matrix, list):
        return _sparse_echelon(matrix, p)
    import numpy as np

    a = _reduced(matrix, p)
    found = []
    if a.size:
        _rank_mod_numpy(a, p, found)
    cols = a.shape[1]
    pivots = [c for c, _ in found]
    rref = a[:len(pivots)]
    # clear each pivot row up to its pivot, then scale it to a leading 1
    rref[np.arange(cols) <= np.array(pivots).reshape(-1, 1)] = 0
    inverses = [pow(value, p - 2, p) for _, value in found]
    rref[:] = rref * np.array(inverses, dtype=np.int64).reshape(-1, 1) % p
    free = sorted(set(range(cols)) - set(pivots))
    x = rref[:, free]
    # column i: the multipliers of pivot row i in the rows above it
    upper = rref[:, pivots]
    for i in np.flatnonzero(upper.any(axis=0))[::-1].tolist():
        hit = np.flatnonzero(upper[:i, i])
        x[hit] = (x[hit] - np.multiply.outer(upper[hit, i], x[i])) % p
    return pivots, [{t: v for t, v in zip(free, row) if v}
                    for row in x.tolist()]
