
from fractions import Fraction

import numpy as np
import pytest

from chowcheck import exactla, modrank


def _dict_rows(a):
    """The rows of the integer array ``a`` as dict rows."""
    return [{j: x for j, x in enumerate(line) if x} for line in a.tolist()]


def _free_forms(rows, pivots):
    """Reduced rows, given as full lists, in the form ``echelon_mod``
    gives them: each a dict over the free columns, without zeros."""
    return [{j: x for j, x in enumerate(row) if x and j not in pivots}
            for row in rows]


def test_rank_mod_small_cases():
    p = 1000003
    for matrix, rank in (([[1, 2], [3, 4]], 2), ([[1, 2], [2, 4]], 1),
                         ([[0, 0], [0, 0]], 0), ([[p, 2 * p]], 0)):
        a = np.array(matrix, dtype=np.int64)
        assert modrank.rank_mod(a, p) == rank
        assert modrank.rank_mod(_dict_rows(a), p) == rank


def test_rank_mod_vs_numpy_linalg_over_small_entries():
    # with tiny entries and a huge prime, GF(p) rank equals rational rank
    rng = np.random.default_rng(42)
    p = 1000003
    for _ in range(25):
        m, n = rng.integers(1, 8, size=2)
        a = rng.integers(-4, 5, size=(int(m), int(n)))
        if m >= 2 and rng.random() < 0.5:
            a[-1] = a[0] + (a[1] if m > 2 else 0)
        expected = np.linalg.matrix_rank(a.astype(float))
        assert modrank.rank_mod(a, p) == expected
        assert modrank.rank_mod(_dict_rows(a), p) == expected


def test_backends_agree():
    rng = np.random.default_rng(0)
    p = 1000003
    for shape in ((6, 9), (20, 15), (40, 40)):
        a = rng.integers(0, p, size=shape, dtype=np.int64)
        # plant rank deficiency: last quarter of rows are sums of earlier ones
        k = shape[0] // 4
        if k:
            a[-k:] = (a[:k] + a[k:2 * k]) % p
        r_np = modrank._rank_mod_numpy(a.copy(), p)
        assert modrank.rank_mod(_dict_rows(a), p) == r_np


# The column kernel that reduced every hit row at every update, kept as
# the oracle for the delayed-reduction kernel.
def _rank_mod_reduced(a, p):
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


def _largest_prime_with_budget(budget):
    # the budget falls as p grows: bisect for the last p that keeps it
    lo, hi = 2, modrank.MAX_PRIME
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if modrank.update_budget(mid) >= budget:
            lo = mid
        else:
            hi = mid - 1
    while not modrank.is_prime(lo):
        lo -= 1
    return lo


# every usable prime has a budget of at least 1, so the largest prime
# whose budget is 1 is also the largest prime at most MAX_PRIME
DIFFERENTIAL_PRIMES = [2, 3, 1000003, _largest_prime_with_budget(2),
                       _largest_prime_with_budget(1)]


def _low_rank(rng, shape, rank, p):
    """Random matrix mod p with rank at most ``rank``, mostly dense."""
    left = rng.integers(0, p, size=(shape[0], rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, shape[1]), dtype=np.int64)
    product = left.astype(object) @ right.astype(object) % p
    return np.array(product, dtype=np.int64).reshape(shape)


def _differential_cases(p):
    rng = np.random.default_rng(p % 1000)
    yield np.zeros((7, 5), dtype=np.int64)
    yield np.zeros((0, 4), dtype=np.int64)
    yield rng.integers(0, p, size=(30, 30), dtype=np.int64)
    yield np.full((12, 9), p - 1, dtype=np.int64)
    for shape, rank in (((40, 25), 12), ((25, 40), 20), ((60, 60), 45),
                        ((33, 18), 1)):
        yield _low_rank(rng, shape, rank, p)
    # sparse rows, as in the bundled Jacobian slices
    sparse = rng.integers(0, p, size=(50, 35), dtype=np.int64)
    sparse[rng.random(sparse.shape) < 0.9] = 0
    yield sparse
    # planted dependencies among dense rows
    dense = rng.integers(0, p, size=(45, 30), dtype=np.int64)
    dense[30:] = (dense[:15] + 2 * dense[15:30]) % p
    yield dense


def test_budget_keeps_int64_exact():
    largest = next(p for p in range(modrank.MAX_PRIME, 0, -1)
                   if modrank.is_prime(p))
    assert DIFFERENTIAL_PRIMES[-2:] == [2147483647, largest]
    assert [modrank.update_budget(p) for p in DIFFERENTIAL_PRIMES[-2:]] == [2, 1]
    for p in DIFFERENTIAL_PRIMES:
        budget = modrank.update_budget(p)
        assert budget >= 1
        assert budget * (p - 1) ** 2 + p <= 2**63 - 1
        assert (budget + 1) * (p - 1) ** 2 + p > 2**63 - 1


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_delayed_reduction_matches_the_reduced_kernel(p):
    for a in _differential_cases(p):
        want = _rank_mod_reduced(a % p, p)
        assert modrank.rank_mod(a, p) == want
        assert modrank.rank_mod(_dict_rows(a), p) == want
    # an unreduced int64 input is reduced on entry and left untouched
    rng = np.random.default_rng(7)
    a = rng.integers(-2**60, 2**60, size=(20, 15), dtype=np.int64)
    a[10:] = a[:10] * 3
    before = a.copy()
    assert modrank.rank_mod(a, p) == _rank_mod_reduced(a % p, p)
    assert (a == before).all()


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_in_range_arrays_are_copied_and_multiples_of_p_never_pivot(p):
    rng = np.random.default_rng(p % 1000 + 9)
    # an int64 array already in [0, p) is copied as it is, not reduced
    a = _low_rank(rng, (30, 20), 12, p)
    before = a.copy()
    copy = modrank._reduced(a, p)
    assert not np.shares_memory(copy, a) and (copy == a).all()
    assert modrank.rank_mod(a, p) == _rank_mod_reduced(a.copy(), p)
    assert len(modrank.echelon_mod(a, p)[0]) == _rank_mod_reduced(a.copy(), p)
    assert (a == before).all()
    # the kernel meets unreduced entries: a column whose nonzero entries
    # are all multiples of p has no pivot, and in a column with some the
    # pivot is the first entry nonzero mod p
    b = rng.integers(0, p, size=(6, 5), dtype=np.int64)
    b[:, 0] = [0, p, 2 * p, -p, 0, p]
    b[:, 1] = [p, 0, -p, 1, 2 * p, 1]
    for pivots in (None, []):
        rank = modrank._rank_mod_numpy(b.copy(), p, pivots)
        assert rank == _rank_mod_reduced(b % p, p)
        if pivots is not None:
            assert pivots[0] == (1, 1)
            assert all(c != 0 for c, _ in pivots)


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_sparse_echelon_mod_matches_the_dense_one(p):
    rng = np.random.default_rng(p % 1000 + 11)
    compared = 0
    for a in _sparse_cases(p):
        rows = _sparse_rows(a, rng, p)
        if not rows:
            continue
        before = [dict(row) for row in rows]
        pivots, forms = modrank.echelon_mod(rows, p)
        assert rows == before
        assert (pivots, forms) == modrank.echelon_mod(a % p, p)
        assert len(pivots) == modrank.rank_mod(rows, p)
        compared += 1
    assert compared >= 10


def _sparse_rows(a, rng, p):
    """Dict rows of ``a`` with each entry shifted by a random multiple of
    p (some past 2**63), and explicit entries that are 0 mod p."""
    rows = []
    for line in a.tolist():
        row = {j: x + p * int(rng.integers(-3, 4)) * 2**int(rng.integers(0, 64))
               for j, x in enumerate(line) if x}
        for j in rng.choice(len(line), size=min(2, len(line)), replace=False):
            row.setdefault(int(j), p * int(rng.integers(-2, 3)))
        rows.append(row)
    return rows


def _random_sparse(rng, shape, density, p):
    a = rng.integers(1, p, size=shape, dtype=np.int64)
    a[rng.random(shape) >= density] = 0
    return a


def _sparse_cases(p):
    rng = np.random.default_rng(p % 997 + 1)
    yield from _differential_cases(p)
    for shape, density in (((80, 60), 0.03), ((60, 90), 0.05), ((40, 40), 0.1),
                           ((25, 30), 0.3)):
        yield _random_sparse(rng, shape, density, p)
    # rank-deficient sparse: every third row is the sum of the two above
    a = _random_sparse(rng, (60, 45), 0.06, p)
    a[2::3] = (a[0::3] + a[1::3]) % p
    yield a


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_sparse_kernel_matches_the_dense_kernels(p):
    rng = np.random.default_rng(p % 1000 + 5)
    for a in _sparse_cases(p):
        rows = _sparse_rows(a, rng, p)
        before = [dict(row) for row in rows]
        want = _rank_mod_reduced(a % p, p)
        assert modrank._rank_mod_numpy(a % p, p) == want
        assert modrank.rank_mod(rows, p) == want
        assert rows == before
    assert modrank.rank_mod([], p) == 0
    assert modrank.rank_mod([{}, {3: p, 7: -2 * p}], p) == 0


def _rref_mod_oracle(rows, p):
    """Gauss-Jordan over GF(p) on Python integers: (rank, rows, pivots)."""
    rows = [[x % p for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return len(pivots), rows[:len(pivots)], pivots


def _fraction_rref_mod(rows, p):
    """Reduced echelon form over Q, its entries mapped into GF(p); None
    if p divides a denominator."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    rows = rows[:len(pivots)]
    if any(x.denominator % p == 0 for row in rows for x in row):
        return None
    return [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
            for row in rows], pivots


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_echelon_mod_matches_gauss_jordan(p):
    for a in _differential_cases(p):
        before = a.copy()
        pivots, forms = modrank.echelon_mod(a, p)
        assert (a == before).all()
        assert modrank.rank_mod(a, p) == len(pivots)
        rank, rows, want_pivots = _rref_mod_oracle(a.tolist(), p)
        assert (pivots, forms) == (want_pivots, _free_forms(rows, pivots))
        assert modrank.echelon_mod(_dict_rows(a), p) == (pivots, forms)
    # small integer matrices whose rank mod p is their rank over Q, and
    # whose rational echelon form reduces mod p: A = A[:, pivots] * R, so
    # that reduction spans the row space mod p and is its echelon form
    rng = np.random.default_rng(p % 1000 + 1)
    compared = 0
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        a = rng.integers(-3, 4, size=(m, n))
        if m > 2:
            a[-1] = a[0] - 2 * a[1]
        rational = _fraction_rref_mod(a.tolist(), p)
        if rational is None or len(rational[1]) != modrank.rank_mod(a, p):
            continue
        rows, pivots = rational
        want = (pivots, _free_forms(rows, pivots))
        assert modrank.echelon_mod(a, p) == want
        assert modrank.echelon_mod(_dict_rows(a), p) == want
        compared += 1
    assert compared >= 10


def test_rank_mod_rejects_bad_modulus():
    for p in (1, 4, 561, 1105, modrank.MAX_PRIME + 1):
        for matrix in ([{0: 1}], np.ones((1, 1), dtype=np.int64)):
            with pytest.raises(modrank.BadPrime):
                modrank.rank_mod(matrix, p)
            with pytest.raises(modrank.BadPrime):
                modrank.echelon_mod(matrix, p)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if modrank.is_prime(n)] == [
        n for n in range(3000) if _is_prime_by_trial_division(n)]
    # Carmichael numbers and strong pseudoprimes to some of the bases
    for n in (561, 1105, 1729, 2047, 1373653, 25326001):
        assert modrank.is_prime(n) == _is_prime_by_trial_division(n)
    for n in range(modrank.MAX_PRIME - 20, modrank.MAX_PRIME + 1):
        assert modrank.is_prime(n) == _is_prime_by_trial_division(n)


def test_lift_primes_pass_the_gate():
    # every lift takes the primes from MAX_PRIME down, in order
    lift = exactla._lift_primes()
    primes = [next(lift) for _ in range(5)]
    assert primes == [n for n in range(modrank.MAX_PRIME, primes[-1] - 1, -1)
                      if _is_prime_by_trial_division(n)]
    for p in (modrank.DEFAULT_PRIME, *primes):
        modrank.require_prime(p)
        assert modrank.rank_mod([{0: 1, 1: 2}, {0: 3, 1: 4}], p) == 2
