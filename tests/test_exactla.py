import random
from fractions import Fraction
from itertools import islice
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chowcheck import exactla, modrank
from oracles import fraction_rref, two_form_multiple


def reference_rank(rows):
    """Plain Gauss elimination over Fraction, as an independent oracle."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_small_cases():
    assert exactla.rank([[1, 2], [2, 4]]) == 1
    assert exactla.rank([[1, 0], [0, 1]]) == 2
    assert exactla.rank([[0, 0], [0, 0]]) == 0
    assert exactla.rank([]) == 0
    assert exactla.rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_rank_matches_reference_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(60):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        # salt in structured dependencies so low ranks actually occur
        if m >= 2 and rng.random() < 0.5:
            k = rng.randrange(rng.randrange(1, m) + 1)
            rows[-1] = [sum(r[j] for r in rows[:k]) if k else 0
                        for j in range(n)]
        assert exactla.rank(rows) == reference_rank(rows)


def test_rank_survives_many_elimination_steps():
    # fourteen sparse rows of twelve columns: many pivots, many rows with
    # a zero multiplier
    rng = random.Random(7)
    rows = []
    for i in range(14):
        row = [0] * 12
        for j in range(12):
            if rng.random() < 0.4:
                row[j] = rng.randrange(-30, 31)
        rows.append(row)
    assert exactla.rank(rows) == reference_rank(rows)


def test_kernel_basis_is_canonical_and_annihilating():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    basis = exactla.kernel_basis(rows)
    assert len(basis) == 4 - exactla.rank(rows)
    for vec in basis:
        assert all(sum(x * v for x, v in zip(row, vec)) == 0 for row in rows)
    # one unit entry per free column, zeros at the other free columns
    free_cols = [j for j, vec in enumerate(zip(*basis)) if any(vec)]
    for vec in basis:
        units = [j for j, v in enumerate(vec) if v == 1]
        assert units
    # integral entries are ints, the others Fractions
    assert exactla.kernel_basis(rows) == [[-1, -1, 1, 0], [-4, 0, 0, 1]]
    assert all(type(x) is int for vec in basis for x in vec)
    halves = exactla.kernel_basis([[2, 1, 0], [0, 0, 3]])
    assert halves == [[Fraction(-1, 2), 1, 0]]
    assert [type(x) for x in halves[0]] == [Fraction, int, int]


def test_rank_nullity_random():
    rng = random.Random(99)
    for _ in range(30):
        m, n = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        assert exactla.rank(rows) + len(exactla.kernel_basis(rows)) == n


def _scaled(rows):
    return exactla.integer_rows(rows)[0]


def test_modular_rank_certificate():
    cert = exactla.modular_rank(_scaled([[1, 2], [3, 4]]), prime=1000003)
    assert cert.rank == 2 and cert.certified
    cert = exactla.modular_rank(_scaled([[1, 2], [2, 4]]), prime=1000003)
    assert cert.rank == 1 and not cert.certified
    # caller-supplied upper bound
    cert = exactla.modular_rank(_scaled([[1, 2], [2, 4]]), prime=1000003,
                                upper_bound=1)
    assert cert.certified
    # dict rows: 1 + the largest column index bounds the rank, as the
    # width of the same matrix as an array does
    dense = exactla.modular_rank(np.array([[1, 0], [0, 1], [1, 1]]),
                                 prime=1000003)
    sparse = exactla.modular_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}], prime=1000003)
    assert (sparse.rank, sparse.upper_bound, sparse.certified) == (
        dense.rank, dense.upper_bound, dense.certified) == (2, 2, True)
    cert = exactla.modular_rank([{}, {3: 5}], prime=1000003)
    assert (cert.rank, cert.upper_bound, cert.certified) == (1, 2, False)
    cert = exactla.modular_rank([{}, {}], prime=1000003)
    assert (cert.rank, cert.upper_bound, cert.certified) == (0, 0, True)
    cert = exactla.modular_rank([], prime=1000003)
    assert (cert.rank, cert.upper_bound, cert.certified) == (0, 0, True)


def test_modular_rank_rejects_bad_primes():
    for prime in (1, 2**62):
        with pytest.raises(modrank.BadPrime):
            exactla.modular_rank([{0: 1}], prime=prime)
    # a composite modulus must not certify: [[2, 1], [2, 1]] has rank 1
    for composite in (4, 561, 1105):
        with pytest.raises(modrank.BadPrime):
            exactla.modular_rank([{0: 2, 1: 1}, {0: 2, 1: 1}], prime=composite)


def fraction_reduction_rank(rows, prime):
    """Rank mod p by reducing each entry as a Fraction, inverting its
    denominator with pow; None if p divides a denominator.  The reduction
    modular_rank once performed."""
    red = []
    for row in rows:
        out = {}
        for j, x in enumerate(row):
            x = Fraction(x)
            if x.denominator % prime == 0:
                return None
            inv = pow(x.denominator % prime, prime - 2, prime)
            out[j] = (x.numerator % prime) * inv % prime
        red.append(out)
    return modrank.rank_mod(red, prime)


def _random_entry(rng, kind, prime):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        x = rng.randrange(-9, 10)
    else:
        x = Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6, 9, 10)))
    if rng.random() < 0.2:
        x *= prime * rng.randrange(1, 4)
    return x


def test_modular_rank_matches_fraction_reduction():
    # scaling each row by its common denominator keeps the rank mod p
    # whenever p divides no denominator; when it divides one, the rank of
    # the scaled rows still never exceeds the rank over Q
    rng = random.Random(11)
    for prime in (2, 3, 7, 101, 1000003, 2147483647):
        for kind in ("int", "fraction", "mixed"):
            for _ in range(15):
                m, n = rng.randrange(1, 7), rng.randrange(1, 7)
                rows = [[_random_entry(rng, kind, prime) for _ in range(n)]
                        for _ in range(m)]
                if m > 1 and rng.random() < 0.3:
                    rows[rng.randrange(m)] = [0] * n
                if m > 2 and rng.random() < 0.3:
                    rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
                cert = exactla.modular_rank(_scaled(rows), prime=prime,
                                            upper_bound=min(m, n))
                expected = fraction_reduction_rank(rows, prime)
                if expected is None:
                    assert cert.rank <= reference_rank(rows)
                    continue
                assert cert.rank == expected
                assert cert.certified == (expected == min(m, n))


def test_modular_rank_prime_dividing_a_denominator():
    # scaled, the rows are [3, 1] and [2, 45]: rank 2 mod 3, which
    # certifies the rank over Q although 3 divides both denominators
    rows = [[1, Fraction(1, 3)], [Fraction(2, 9), 5]]
    assert _scaled(rows) == [{0: 3, 1: 1}, {0: 2, 1: 45}]
    cert = exactla.modular_rank(_scaled(rows), prime=3)
    assert (cert.rank, cert.certified) == (2, True)
    assert exactla.modular_rank(_scaled(rows), prime=11).rank == 2
    assert reference_rank(rows) == 2


def test_modular_rank_bounded_by_rational_rank_sympy():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(5)
    for prime in (2, 5, 13, 1000003):
        for _ in range(20):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            rows = [[_random_entry(rng, "mixed", prime) for _ in range(n)]
                    for _ in range(m)]
            exact = DomainMatrix(
                [[QQ(Fraction(x).numerator, Fraction(x).denominator)
                  for x in row] for row in rows], (m, n), QQ).rank()
            assert exactla.rank(rows) == exact
            assert exactla.modular_rank(_scaled(rows), prime=prime).rank <= exact


def test_modular_rank_never_exceeds_exact_rank():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randrange(-20, 21) for _ in range(5)] for _ in range(4)]
        exact = exactla.rank(rows)
        assert exactla.modular_rank(_scaled(rows), prime=1000003).rank <= exact


def test_integer_rows_scale_each_row_once():
    rows = [[Fraction(1, 2), 0, Fraction(-2, 3)], [0, 0, 0], [4, -5, 0]]
    assert exactla.integer_rows(rows) == (
        [{0: 3, 2: -4}, {}, {0: 4, 1: -5}], 3)
    # integer rows keep their entries, and integer dict rows pass through
    dict_rows = [{0: 4, 1: -5}, {}, {6: 1}]
    assert exactla.integer_rows(dict_rows) == (dict_rows, 7)
    assert exactla.integer_rows(dict_rows)[0] is dict_rows
    assert exactla.integer_rows([]) == ([], 0)
    assert exactla.rank(dict_rows) == exactla.rank(
        [[4, -5, 0, 0, 0, 0, 0], [0] * 7, [0, 0, 0, 0, 0, 0, 1]]) == 2


def test_hermite_normal_form_known_case():
    assert exactla.hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert exactla.hermite_normal_form([[0, 0], [0, 0]]) == []
    assert exactla.hermite_normal_form([[3]]) == [[3]]
    assert exactla.hermite_normal_form([[-3]]) == [[3]]


def test_hermite_normal_form_idempotent_and_tracked():
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        hnf, U = exactla.hermite_normal_form(rows, transform=True)
        assert exactla.hermite_normal_form(hnf) == hnf
        for urow, hrow in zip(U, hnf):
            prod = [sum(u * rows[i][j] for i, u in enumerate(urow))
                    for j in range(n)]
            assert prod == hrow


def test_hnf_pivot_shape():
    hnf = exactla.hermite_normal_form([[4, 1, 0], [0, 3, 1], [2, 2, 2]])
    prev = -1
    for row in hnf:
        pc = next(j for j, x in enumerate(row) if x)
        assert pc > prev
        assert row[pc] > 0
        for above in hnf:
            if above is row:
                break
            assert 0 <= above[pc] < row[pc]
        prev = pc


def test_minimal_multiple_torsion_thirteen():
    rows = [[3, 1, -4], [1, -4, 3]]
    found = exactla.minimal_multiple_in_lattice(rows, [1, -1, 0])
    assert found.n == 13
    assert found.witness == [3, 4]
    target = [13, -13, 0]
    check = [sum(w * row[j] for w, row in zip(found.witness, rows))
             for j in range(3)]
    assert check == target


def test_minimal_multiple_edge_cases():
    rows = [[4, -4]]
    found = exactla.minimal_multiple_in_lattice(rows, [1, -1])
    assert found.n == 4 and found.witness == [1]
    # outside the rational span
    assert exactla.minimal_multiple_in_lattice([[1, 0]], [0, 1]) is None
    # the zero vector is trivially inside
    assert exactla.minimal_multiple_in_lattice([], [0, 0]).n == 1
    assert exactla.minimal_multiple_in_lattice([], [1, 0]) is None


def test_lattice_contains():
    rows = [[3, 1, -4], [1, -4, 3]]
    assert exactla.minimal_multiple_in_lattice(rows, [13, -13, 0]).n == 1
    outside = exactla.minimal_multiple_in_lattice(rows, [1, -1, 0])
    assert outside is None or outside.n > 1
    assert exactla.minimal_multiple_in_lattice(rows, [4, -3, -1]).n == 1


def test_minimal_multiple_scaling_property():
    rng = random.Random(5)
    for _ in range(10):
        rows = [[rng.randrange(-4, 5) for _ in range(4)] for _ in range(3)]
        vec = [sum(r[j] for r in rows[:2]) for j in range(4)]
        found = exactla.minimal_multiple_in_lattice(rows, vec)
        assert found is not None and found.n == 1


_entries = st.integers(-6, 6)


@st.composite
def _lattice_and_vector(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        # a lattice vector divided by its scale: a true multiple exists
        combo = draw(st.lists(_entries, min_size=nrows, max_size=nrows))
        vec = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(ncols)]
        scale = gcd(*vec) if any(vec) else 1
        vec = [x // scale * draw(st.integers(1, 3)) for x in vec]
    else:
        vec = draw(st.lists(_entries, min_size=ncols, max_size=ncols))
    return rows, vec


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_lattice_and_vector())
def test_minimal_multiple_matches_the_two_form_oracle(case):
    rows, vec = case
    found = exactla.minimal_multiple_in_lattice(rows, vec)
    want = two_form_multiple(rows, vec)
    if want is None:
        assert found is None
        return
    assert (found.n, found.witness) == want
    assert [sum(w * row[j] for w, row in zip(found.witness, rows))
            for j in range(len(vec))] == [found.n * x for x in vec]


def test_crt_and_rational_reconstruction_recover_small_fractions():
    p0 = next(p for p in range(modrank.MAX_PRIME, 0, -1) if modrank.is_prime(p))
    rng = random.Random(5)
    # |numerator|, denominator < 10**9, inside the bound sqrt(m / 2) once
    # m is the product of the three primes, about 3 * 10**21
    values = [Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**4))
              for _ in range(50)] + [0, 1, -1, Fraction(-1, 2)]
    residues, modulus = [0] * len(values), 1
    for p in (p0, 1000003, 1000033):
        images = [v.numerator * pow(v.denominator, -1, p) % p for v in values]
        residues = exactla.crt(residues, modulus, images, p)
        modulus *= p
        assert all(0 <= r < modulus and (r - x) % p == 0
                   for r, x in zip(residues, images))
    lifted = exactla.rational_reconstruction(residues, modulus)
    assert lifted == values
    assert all(type(x) is int for x, v in zip(lifted, values)
               if v.denominator == 1)
    # mod p = 1000003 the bound is 707: 1/7 and -3 come back, 1/1000 does
    # not, and a vector holding it has no reconstruction
    p = 1000003
    assert exactla.rational_reconstruction([pow(7, -1, p), p - 3], p) == [
        Fraction(1, 7), -3]
    assert exactla.rational_reconstruction([1, pow(1000, -1, p)], p) is None
    assert exactla.rational_reconstruction([], p) == []


# ------------------------------------------------ the verified lift

LIFT_PRIME = next(exactla._lift_primes())


def _canonical_kernel(rref, pivots, ncols):
    """The kernel basis with identity on the free columns, read off a
    reduced echelon form over Q."""
    free = [t for t in range(ncols) if t not in pivots]
    basis = []
    for t in free:
        vec = [int(j == t) for j in range(ncols)]
        for row, pc in zip(rref, pivots):
            vec[pc] = -row[t]
        basis.append(vec)
    return basis


@st.composite
def _lift_matrices(draw):
    """(rows, ncols): up to 6x6, with integer or rational entries, zero
    rows, zero columns and low ranks (each row a combination of a few
    base rows), and entries that are multiples of the first lift prime,
    whose rank mod that prime can fall short."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["int", "fraction", "prime"]))

    def entry():
        x = draw(st.integers(-9, 9))
        if kind == "fraction":
            x = Fraction(x, draw(st.integers(1, 12)))
        elif kind == "prime" and draw(st.booleans()):
            x *= LIFT_PRIME
        return x

    base = [[entry() for _ in range(n)] for _ in range(draw(st.integers(0, 3)))]
    rows = []
    for _ in range(m):
        if base and draw(st.booleans()):
            coeffs = [draw(st.integers(-3, 3)) for _ in base]
            rows.append([sum(c * row[j] for c, row in zip(coeffs, base))
                         for j in range(n)])
        else:
            rows.append([entry() for _ in range(n)])
    for j in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)):
        for row in rows:
            if j < n:
                row[j] = 0
    return rows, n


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_lift_matrices())
@example(([], 0))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[LIFT_PRIME, 0], [0, 0]], 2))
@example(([[LIFT_PRIME, 1], [2 * LIFT_PRIME, 3]], 2))
@example(([[LIFT_PRIME, 1], [0, 0]], 2))
@example(([[Fraction(1, LIFT_PRIME), 1, 0], [0, Fraction(2, 3), 5]], 3))
def test_rank_and_kernel_match_sympy_and_the_fraction_rref(case):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows, ncols = case
    ref, pivots = fraction_rref(rows, ncols)
    sym = DomainMatrix([[QQ(Fraction(x).numerator, Fraction(x).denominator)
                         for x in row] for row in rows], (len(rows), ncols), QQ)
    sym_rref, sym_pivots = sym.rref()
    assert exactla.rank(rows) == len(pivots) == sym.rank()
    assert list(sym_pivots) == pivots
    basis = exactla.kernel_basis(rows)
    if rows:
        expected = _canonical_kernel(ref, pivots, ncols)
        assert basis == expected
        assert basis == _canonical_kernel(
            [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
             for row in sym_rref.to_Matrix().tolist()], pivots, ncols)
    else:
        assert basis == []
    # integral entries are ints, the others Fractions
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for vec in basis for x in vec)


def test_an_unlucky_prime_restarts_the_lift(monkeypatch):
    # mod the first lift prime p the matrix has rank 1, pivot column 1;
    # over Q it has rank 2, pivot columns 0 and 1, so the next prime
    # restarts the lift.  With a row p*x0 + x1 of rank 1 at every prime,
    # the pivot moves from column 1 to column 0, and the entry -1/p needs
    # two primes after p to be reconstructed.
    primes = []
    echelon_mod = modrank.echelon_mod

    def counting(matrix, p):
        primes.append(p)
        return echelon_mod(matrix, p)

    monkeypatch.setattr(modrank, "echelon_mod", counting)
    p = LIFT_PRIME
    assert exactla.kernel_basis([[p, 1, 0], [2 * p, 3, 0]]) == [[0, 0, 1]]
    assert primes[0] == p and len(primes) == 2
    primes.clear()
    assert exactla.kernel_basis([[p, 1], [0, 0]]) == [[Fraction(-1, p), 1]]
    assert primes[0] == p and len(primes) == 4
    primes.clear()
    assert exactla.rank([[p, 1], [0, 0]]) == 1
    assert primes[0] == p and len(primes) == 4
    # the second lift prime q is unlucky for p*x0 + x1 after the first:
    # it is skipped, neither restarting the lift nor joining it, and the
    # first and third primes with the fourth reconstruct -1/q
    first_four = list(islice(exactla._lift_primes(), 4))
    q = first_four[1]
    primes.clear()
    assert exactla.kernel_basis([[q, 1], [0, 0]]) == [[Fraction(-1, q), 1]]
    assert primes == first_four


def test_a_full_rank_costs_one_rank_mod(monkeypatch):
    calls = []
    rank_mod = modrank.rank_mod

    def counting(matrix, p):
        calls.append(p)
        return rank_mod(matrix, p)

    def refused(*args):
        raise AssertionError("a full rank needs no echelon form or lift")

    monkeypatch.setattr(modrank, "rank_mod", counting)
    monkeypatch.setattr(modrank, "echelon_mod", refused)
    monkeypatch.setattr(exactla, "rational_reconstruction", refused)
    wide = [[Fraction(1, 2), 3, 0, 7], [0, 1, Fraction(5, 3), 0]]
    assert exactla.rank(wide) == 2
    assert exactla.rank([list(col) for col in zip(*wide)]) == 2
    assert calls == [LIFT_PRIME, LIFT_PRIME]
