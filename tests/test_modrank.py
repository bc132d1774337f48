import inspect

import numpy as np
import pytest

from chowcheck import jacobian, modrank


def test_rank_mod_small_cases():
    p = 1000003
    assert modrank.rank_mod([[1, 2], [3, 4]], p) == 2
    assert modrank.rank_mod([[1, 2], [2, 4]], p) == 1
    assert modrank.rank_mod([[0, 0], [0, 0]], p) == 0
    assert modrank.rank_mod([[p, 2 * p]], p) == 0


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
        assert modrank.rank_mod(a.tolist(), p) == expected


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
        assert modrank.rank_mod(a.tolist(), p) == r_np


def test_rank_mod_rejects_bad_modulus():
    for p in (1, 4, 561, 1105, modrank.MAX_PRIME + 1):
        with pytest.raises(modrank.BadPrime):
            modrank.rank_mod([[1]], p)


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


def test_certificate_primes_pass_the_gate():
    certificate = inspect.signature(jacobian.HypersurfaceRing._certified_ideal_rank)
    for p in (modrank.DEFAULT_PRIME, *certificate.parameters["primes"].default):
        modrank.require_prime(p)
        assert modrank.rank_mod([[1, 2], [3, 4]], p) == 2
