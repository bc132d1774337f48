"""Dense Gaussian elimination over a prime field GF(p).

This is the one genuinely hot numeric loop in the package: modular rank
certificates reduce big exact eliminations to int64 arithmetic.  One
kernel does the work, a column-by-column elimination whose row updates
are vectorised with numpy.

All arithmetic stays below 2**63: entries are reduced into [0, p) and
p is capped so that p*p fits in int64.  Pivots are inverted with Fermat's
little theorem, which is only valid in a field, so every modulus passes
the primality gate :func:`require_prime` before any elimination.
"""

from __future__ import annotations

import numpy as np


DEFAULT_PRIME = 1000003

# largest p with (p-1)**2 < 2**63, so products of reduced entries fit int64
MAX_PRIME = 3037000499

# Miller-Rabin with these bases is exact below 3,215,031,751 > MAX_PRIME
# (Pomerance, Selfridge & Wagstaff 1980)
_WITNESSES = (2, 3, 5, 7)


class BadPrime(ValueError):
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


def require_prime(p):
    """Raise BadPrime unless ``p`` is a prime in [2, MAX_PRIME]."""
    if not 2 <= p <= MAX_PRIME:
        raise BadPrime(f"modulus {p} out of supported range [2, {MAX_PRIME}]")
    if not is_prime(p):
        raise BadPrime(f"modulus {p} is not prime")


def _rank_mod_numpy(a, p):
    """Elimination with vectorised row updates.

    Parameters
    ----------
    a : ndarray of int64, shape (rows, cols)
        Matrix with entries already reduced into [0, p).  Destroyed.
    p : int
        Prime modulus.

    Returns
    -------
    int
        Rank of the matrix over GF(p).
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        f = a[r + 1:, c]
        hit = np.nonzero(f)[0]
        if hit.size:
            block = a[r + 1:, c:]
            block[hit] = (block[hit] - f[hit, None] * a[r, c:]) % p
        r += 1
        if r == rows:
            break
    return r


def rank_mod(matrix, p=DEFAULT_PRIME):
    """Rank of an integer matrix over GF(p).

    Parameters
    ----------
    matrix : sequence of rows, or 2-D ndarray
        Integer entries; they are reduced mod p on entry.
    p : int
        Prime modulus, at most MAX_PRIME; anything else raises BadPrime.

    Returns
    -------
    int
    """
    require_prime(p)
    a = np.array([[x % p for x in row] for row in matrix], dtype=np.int64)
    if a.size == 0:
        return 0
    a = a.reshape(len(matrix), -1)
    return int(_rank_mod_numpy(a, p))

