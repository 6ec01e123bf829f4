"""Exact integer and rational arithmetic primitives.

Factorization, totients, cyclotomic polynomial coefficients and values
(including the twisted Suzuki/Ree variants), prime-power decompositions,
multiplicative orders and primitive roots, partition counts, and exact
comparison of integers against the irrational threshold 2*sqrt(p-1).
Everything here is integer/rational arithmetic; no floating point is used
anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm


# ---------------------------------------------------------------------------
# primality and factorization
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 (covers the
# 64-bit inputs this library ever sees).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
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


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as a tuple of (prime, multiplicity) pairs.

    Primes strictly increasing, multiplicities >= 1; the product of p**m
    reconstructs the input.  n = 1 is the empty product.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        primes = [p for p, _ in self.pairs]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(m < 1 for _, m in self.pairs):
            raise ValueError("multiplicities must be >= 1")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division.

    Residual cofactors that survive trial division up to 2**16 are certified
    prime by the deterministic Miller-Rabin test (inputs stay below 2**64, so
    a surviving cofactor has at most three prime factors; a composite survivor
    is split by Pollard's rho).
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    pairs = []
    m = n
    d = 2
    while d * d <= m and d < 1 << 16:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        for p in _split_large(m):
            # merge (m may be p**2 or a product of two primes)
            if pairs and pairs[-1][0] == p:
                pairs[-1] = (p, pairs[-1][1] + 1)
            else:
                pairs.append((p, 1))
    return Factorization(tuple(pairs))


def _split_large(m: int) -> list[int]:
    """Fully factor m (all prime factors > 2**16), returned sorted."""
    if is_prime(m):
        return [m]
    r = isqrt(m)
    if r * r == m:
        return sorted(_split_large(r) * 2)
    d = _pollard_rho(m)
    return sorted(_split_large(d) + _split_large(m // d))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's variant)."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def euler_phi(n: int) -> int:
    """Euler's totient function."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p, _ in factorize(n).pairs:
        result = result // p * (p - 1)
    return result


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """(ell, f) with q = ell^f, ell prime; rejects non-prime-powers."""
    if q < 2:
        raise ValueError("q must be at least 2")
    fac = factorize(q)
    if len(fac.pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac.pairs[0]


def multiplicative_order(a: int, m: int) -> int:
    """The least d >= 1 with a^d = 1 (mod m); a must be a unit mod m."""
    if m < 1 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    order = euler_phi(m)
    for p in factorize(order).primes():
        while order % p == 0 and pow(a, order // p, m) == 1 % m:
            order //= p
    return order


@lru_cache(maxsize=None)
def primitive_root(m: int) -> int:
    """The least g >= 1 whose powers are all the units mod m (m = 1, 2, 4,
    p^a or 2 p^a); raises ValueError for any other m before any scan.  A
    prime m has phi(m) = m - 1, so m itself is never trial-divided."""
    odd = m // 2 if m % 4 == 2 else m  # p^a when m = p^a or 2 p^a
    if not (odd in (1, 4) or is_prime(odd)
            or odd % 2 and len(factorize(odd).pairs) == 1):
        raise ValueError(f"no primitive root mod {m}")
    phi = m - 1 if is_prime(m) else euler_phi(m)
    prime_divs = factorize(phi).primes()
    return next(g for g in range(1, max(m, 2)) if gcd(g, m) == 1
                and all(pow(g, phi // q, m) != 1 for q in prime_divs))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (n >= 1, p >= 2)."""
    if p < 2:
        raise ValueError(f"p_part requires p >= 2, got {p}")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


# ---------------------------------------------------------------------------
# cyclotomic values
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n).pairs:
        if e > 1:
            return 0
        mu = -mu
    return mu


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n(x), constant term first.

    The Moebius product prod_{d | n} (x^d - 1)^mu(n/d): the factors with
    mu = +1 are multiplied out, then the product is divided exactly by each
    factor with mu = -1."""
    if n < 1:
        raise ValueError("cyclotomic_coeffs requires n >= 1")
    mu = {d: _mobius(n // d) for d in divisors(n)}
    coeffs = [1]
    for d in (d for d in mu if mu[d] == 1):
        coeffs = [b - a for a, b in zip(coeffs + [0] * d, [0] * d + coeffs)]
    for d in (d for d in mu if mu[d] == -1):
        # c = (x^d - 1) q gives q[i] = q[i - d] - c[i]; run over every
        # index, the top d terms of q vanish iff the division is exact
        q = [-c for c in coeffs]
        for i in range(d, len(q)):
            q[i] += q[i - d]
        if any(q[len(q) - d:]):
            raise ArithmeticError("cyclotomic product did not divide evenly")
        coeffs = q[:len(q) - d]
    return tuple(coeffs)


def cyclotomic_value(n: int, q: int) -> int:
    """Phi_n(q), exactly, by Horner evaluation of `cyclotomic_coeffs`."""
    if n < 1 or q < 2:
        raise ValueError("cyclotomic_value requires n >= 1, q >= 2")
    value = 0
    for c in reversed(cyclotomic_coeffs(n)):
        value = value * q + c
    return value


def twisted_cyclotomic(kind: int, sign: int, q: int) -> int:
    """The twisted factors Phi4^+-, Phi6^+-, Phi12^+- at Suzuki/Ree q.

    kind is 4, 6 or 12; sign is +1 or -1.  Phi4 and Phi12 require
    q = 2**(2m+1); Phi6 requires q = 3**(2m+1).  Values:
      Phi4^s(q)  = q + s*sqrt(2q) + 1
      Phi6^s(q)  = q + s*sqrt(3q) + 1
      Phi12^s(q) = q**2 + s*sqrt(2*q**3) + q + s*sqrt(2q) + 1
    """
    if kind not in (4, 6, 12):
        raise ValueError("kind must be one of 4, 6, 12")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ell = 3 if kind == 6 else 2
    f = _odd_power_exponent(q, ell)
    m = (f - 1) // 2
    if kind == 4:
        root = 2 ** (m + 1)  # sqrt(2q)
        return q + sign * root + 1
    if kind == 6:
        root = 3 ** (m + 1)  # sqrt(3q)
        return q + sign * root + 1
    root1 = 2 ** (m + 1)  # sqrt(2q)
    root3 = 2 ** (3 * m + 2)  # sqrt(2 q^3)
    return q * q + sign * root3 + q + sign * root1 + 1


def _odd_power_exponent(q: int, ell: int) -> int:
    """The exponent f with q = ell**f, f odd >= 3; raises otherwise."""
    f = 0
    m = q
    while m % ell == 0:
        m //= ell
        f += 1
    if m != 1 or f % 2 == 0 or f < 3:
        raise ValueError(f"q must be an odd power (>= cube) of {ell}, got {q}")
    return f


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    divs = [1]
    for p, e in factorize(n).pairs:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# partition counts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partition_table(n: int) -> tuple[int, ...]:
    """p(0..n) by the bounded-part recurrence."""
    # table[k] = number of partitions of k into parts <= current bound
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            table[k] += table[k - part]
    return tuple(table)


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n; p(0) = 1."""
    if n < 0:
        raise ValueError("partition_count requires n >= 0")
    return _partition_table(n)[n]


@lru_cache(maxsize=None)
def _odd_partition_table(n: int) -> tuple[int, ...]:
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for k in range(part, n + 1):
            table[k] += table[k - part]
    return tuple(table)


def odd_partition_count(n: int) -> int:
    """p0(n), partitions of n into odd parts; p0(0) = 1."""
    if n < 0:
        raise ValueError("odd_partition_count requires n >= 0")
    return _odd_partition_table(n)[n]


# ---------------------------------------------------------------------------
# exact threshold comparison
# ---------------------------------------------------------------------------

LESS, EQUAL, GREATER = -1, 0, 1


def cmp_threshold(k: int, p: int) -> int:
    """Compare k against 2*sqrt(p-1): LESS, EQUAL or GREATER, by the integer
    comparison of k**2 with 4(p-1); no floats."""
    if k < 0 or p < 2:
        raise ValueError("require k >= 0 and p >= 2")
    lhs, rhs = k * k, 4 * (p - 1)
    return (lhs > rhs) - (lhs < rhs)


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

# Fixed rational bounds on Euler's number, conservative on both sides.
E_LO = Fraction(2718281828, 10**9)
E_HI = Fraction(2718281829, 10**9)


@dataclass(frozen=True)
class Enclosure:
    """A closed rational interval [lo, hi] certifying a real number.

    A strict inequality A > B is certified only when A.lo > B.hi (the
    conservative side); tightening an enclosure can never flip a certified
    verdict.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("enclosure requires lo <= hi")

    @classmethod
    def exact(cls, value) -> "Enclosure":
        value = Fraction(value)
        return cls(value, value)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        other = _as_enclosure(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        other = _as_enclosure(other)
        corners = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Enclosure(min(corners), max(corners))

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("enclosure straddles zero")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Enclosure":
        return self * _as_enclosure(other).reciprocal()

    def strictly_greater_than(self, other) -> bool:
        other = _as_enclosure(other)
        return self.lo > other.hi

    def strictly_less_than(self, other) -> bool:
        other = _as_enclosure(other)
        return self.hi < other.lo


def _as_enclosure(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    return Enclosure.exact(x)


def e_enclosure() -> Enclosure:
    """The fixed enclosure of Euler's number used in centralizer bounds."""
    return Enclosure(E_LO, E_HI)


def sqrt_enclosure(x) -> Enclosure:
    """An enclosure of sqrt(x) for nonnegative rational x, width ~2**-64."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Enclosure.exact(0)
    # sqrt(a/b) = sqrt(a*b)/b; scale so the integer sqrt carries 64 bits of
    # fractional precision.
    scale = 1 << 64
    n = x.numerator * x.denominator * scale * scale
    s = isqrt(n)
    den = x.denominator * scale
    lo = Fraction(s, den)
    hi = Fraction(s + 1, den)
    return Enclosure(lo, hi)


__all__ = [
    "Factorization", "Enclosure", "factorize", "is_prime", "euler_phi",
    "p_part", "cyclotomic_coeffs", "cyclotomic_value", "twisted_cyclotomic",
    "divisors", "partition_count", "odd_partition_count",
    "multiplicative_order", "primitive_root",
    "prime_power_decomposition", "cmp_threshold", "LESS", "EQUAL", "GREATER",
    "e_enclosure", "sqrt_enclosure", "gcd", "lcm",
]
