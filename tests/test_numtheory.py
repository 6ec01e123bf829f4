"""Number-theory layer, checked against sympy oracles and brute force."""

import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from regclass.numtheory import (EQUAL, GREATER, LESS, Enclosure,
                                cmp_threshold, cyclotomic_value, divisors,
                                e_enclosure, euler_phi, factorize, is_prime,
                                multiplicative_order, odd_partition_count,
                                p_part, partition_count, primitive_root,
                                sqrt_enclosure, twisted_cyclotomic)


# ---------------------------------------------------------------------------
# primality and factorization
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=10**6))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 2**62, 10**15 + 37, 341, 561, 1105])
def test_is_prime_large_and_pseudoprimes(n):
    assert is_prime(n) == sympy.isprime(n)


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_matches_sympy(n):
    fac = factorize(n)
    assert dict(fac.pairs) == sympy.factorint(n)
    assert prod(p**m for p, m in fac.pairs) == n


@pytest.mark.parametrize("n", [12 * 65537**2, 65537**3, 65521 * 65537**2,
                               3 * (2**31 - 1)**2])
def test_factorize_merges_a_repeated_prime_above_the_trial_bound(n):
    """A square of a prime above 2**16 survives trial division whole and is
    split into two equal primes, which fold into one pair."""
    assert list(factorize(n).pairs) == sorted(sympy.factorint(n).items())


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert dict(factorize(p * q).pairs) == {p: 1, q: 1}


@given(st.integers(min_value=1, max_value=10**5))
def test_euler_phi_matches_sympy(n):
    assert euler_phi(n) == sympy.totient(n)


@given(st.integers(min_value=1, max_value=10**6),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_p_part(n, p):
    m = p_part(n, p)
    assert n % m == 0
    assert (n // m) % p != 0
    assert m == p ** sympy.multiplicity(p, n)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_p_part_rejects_p_below_2(p):
    # p = 1 divides everything: the loop would never end
    with pytest.raises(ValueError, match="p >= 2"):
        p_part(60, p)


@given(st.integers(min_value=1, max_value=3000))
def test_divisors_match_sympy(n):
    assert divisors(n) == sympy.divisors(n)


# ---------------------------------------------------------------------------
# cyclotomic values
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=2, max_value=50))
def test_cyclotomic_value_matches_sympy(n, q):
    oracle = int(sympy.cyclotomic_poly(n, q))
    assert cyclotomic_value(n, q) == oracle


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=2, max_value=30))
def test_cyclotomic_product_identity(n, q):
    assert prod(cyclotomic_value(d, q) for d in divisors(n)) == q**n - 1


@pytest.mark.parametrize("q", [8, 32, 128, 512])
def test_twisted_factors_multiply_to_untwisted(q):
    # Phi4+ * Phi4- = q^2 + 1 and Phi12+ * Phi12- = q^4 - q^2 + 1
    assert twisted_cyclotomic(4, 1, q) * twisted_cyclotomic(4, -1, q) == q * q + 1
    assert (twisted_cyclotomic(12, 1, q) * twisted_cyclotomic(12, -1, q)
            == q**4 - q**2 + 1)


@pytest.mark.parametrize("q", [27, 243, 2187])
def test_twisted_ree_factors(q):
    assert twisted_cyclotomic(6, 1, q) * twisted_cyclotomic(6, -1, q) \
        == q * q - q + 1


def test_twisted_rejects_wrong_characteristic():
    with pytest.raises(ValueError):
        twisted_cyclotomic(4, 1, 27)
    with pytest.raises(ValueError):
        twisted_cyclotomic(6, 1, 8)
    with pytest.raises(ValueError):
        twisted_cyclotomic(4, 1, 16)  # even exponent


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def _brute_partitions(n, parts):
    """Number of multisets from `parts` summing to n (independent oracle)."""
    if n == 0:
        return 1
    total = 0
    for i, p in enumerate(parts):
        if p <= n:
            total += _brute_partitions(n - p, parts[i:])
    return total


@pytest.mark.parametrize("n", range(0, 25))
def test_partition_count_matches_sympy(n):
    assert partition_count(n) == sympy.partition(n)


@pytest.mark.parametrize("n", range(0, 20))
def test_odd_partition_count_brute(n):
    odd_parts = tuple(range(1, n + 1, 2))
    assert odd_partition_count(n) == _brute_partitions(n, odd_parts)


def test_partition_fixed_values():
    assert [partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [odd_partition_count(n) for n in range(8)] == [1, 1, 1, 2, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# multiplicative orders and primitive roots
# ---------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_multiplicative_order_matches_sympy(m, a):
    if gcd(a, m) != 1:
        with pytest.raises(ValueError):
            multiplicative_order(a, m)
    else:
        assert multiplicative_order(a, m) == sympy.n_order(a, m)


def _trial_factor(n):
    """(prime, multiplicity) pairs of n by trial division alone."""
    pairs, d = [], 2
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            pairs.append((d, m))
        d += 1
    return pairs + [(n, 1)] * (n > 1)


def _trial_primitive_root(m):
    """The least g whose order mod m is phi(m), the order found by trial
    over the prime divisors of phi(m); None when there is none."""
    phi = prod((p - 1) * p ** (a - 1) for p, a in _trial_factor(m))
    divs = [q for q, _ in _trial_factor(phi)]
    return next((g for g in range(1, max(m, 2)) if gcd(g, m) == 1
                 and all(pow(g, phi // q, m) != 1 for q in divs)), None)


_LARGE_PRIMES = (65_537, 65_539, 98_299, 1_000_003, 67_108_879)


def test_factorize_and_primitive_root_above_2_16():
    """Primes above 2^16, on their own, doubled and squared, and every
    product of two: `factorize` gives the trial-division factors, and
    `primitive_root` the trial-division root on the cyclic moduli
    (p, 2p, p^2) and a refusal, with no scan, on the products of two odd
    primes, which have none."""
    for p in _LARGE_PRIMES:
        assert factorize(p).pairs == ((p, 1),)
        assert factorize(2 * p).pairs == ((2, 1), (p, 1))
        assert factorize(p * p).pairs == ((p, 2),)
        assert primitive_root(p) == _trial_primitive_root(p)
        assert primitive_root(2 * p) == _trial_primitive_root(2 * p)
        assert primitive_root(p * p) == sympy.primitive_root(p * p)
    for p, q in itertools.combinations(_LARGE_PRIMES, 2):
        assert factorize(p * q).pairs == ((p, 1), (q, 1))
        with pytest.raises(ValueError, match="no primitive root"):
            primitive_root(p * q)
    assert _trial_factor(65_537 * 1_000_003) == [(65_537, 1), (1_000_003, 1)]


def test_primitive_root_is_the_least_one():
    for m in range(2, 1000):
        expected = sympy.primitive_root(m)
        if expected is None:
            with pytest.raises(ValueError):
                primitive_root(m)
        else:
            assert primitive_root(m) == expected


# ---------------------------------------------------------------------------
# exact threshold comparison
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=2, max_value=10**9))
def test_cmp_threshold_half(k, p):
    got = cmp_threshold(k, p)
    lhs, rhs = k * k, 4 * (p - 1)
    assert got == (lhs > rhs) - (lhs < rhs)


def test_cmp_threshold_known_points():
    assert cmp_threshold(4, 5) == EQUAL
    assert cmp_threshold(8, 17) == EQUAL
    assert cmp_threshold(12, 37) == EQUAL
    assert cmp_threshold(20, 101) == EQUAL
    assert cmp_threshold(5, 5) == GREATER
    assert cmp_threshold(3, 5) == LESS


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

@given(st.fractions(min_value=0, max_value=10**6))
def test_sqrt_enclosure_sound(x):
    enc = sqrt_enclosure(x)
    assert enc.lo * enc.lo <= x <= enc.hi * enc.hi
    assert enc.lo >= 0


def test_e_enclosure_brackets_eulers_number():
    enc = e_enclosure()
    # e is irrational; these rational bounds are known to 9 digits
    assert Fraction(2718281828, 10**9) <= enc.lo
    assert enc.hi <= Fraction(2718281829, 10**9)


@given(st.fractions(min_value=-100, max_value=100),
       st.fractions(min_value=-100, max_value=100),
       st.fractions(min_value=-100, max_value=100))
def test_enclosure_arithmetic_contains_exact(a, b, c):
    ea, eb = Enclosure.exact(a), Enclosure.exact(b)
    s = ea + eb
    assert s.lo <= a + b <= s.hi
    m = ea * eb
    assert m.lo <= a * b <= m.hi
    if c != 0:
        d = ea / Enclosure.exact(c)
        assert d.lo <= a / c <= d.hi


def test_enclosure_strict_comparisons():
    a = Enclosure(Fraction(1), Fraction(2))
    b = Enclosure(Fraction(3), Fraction(4))
    assert b.strictly_greater_than(a)
    assert a.strictly_less_than(b)
    assert not a.strictly_greater_than(a)
