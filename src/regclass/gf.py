"""Arithmetic in small finite fields GF(ell**f).

The modulus is deterministic: the lexicographically least monic irreducible
of degree f, coefficients ordered constant term first.  An element is its
integer code n < q: the residue whose coefficient of x**t is base-ell digit t
of n.  Every operation takes ints or numpy integer arrays of codes and works
by lookup: a digit table for add, neg and sub, and the exp/log tables of the
least primitive element for mul, inv and pow.  The tables are built once per
field, in `make_field`.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .numtheory import factorize, is_prime

MAX_SIZE = 1 << 16
MAX_DEGREE = 12


class FieldSpec:
    """GF(ell**f) with its modulus and lookup tables.

    `_digits[n]` holds the base-ell digits of n; `_exp[k]` is g**k for the
    least primitive element g, over two periods so that a sum of two logs
    indexes it directly.  `_log[0]` is `_zero_log` = 2(q-1), which points
    into a block of zeros: a sum of logs that involves it lands there, so
    `mul` needs no test for zero."""

    def __init__(self, ell: int, f: int, modulus: tuple[int, ...]):
        self.ell = ell
        self.f = f
        self.q = q = ell**f
        # monic of degree f; coefficient list constant-term-first, length f+1
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._place = ell ** np.arange(f, dtype=np.int64)
        self._digits = np.arange(q, dtype=np.int64)[:, None] // self._place % ell
        powers = np.array(_powers_of_least_primitive(self._digits, modulus, ell),
                          dtype=np.int64)
        self._zero_log = 2 * (q - 1)
        self._exp = np.concatenate(
            [powers, powers, np.zeros(2 * (q - 1) + 1, dtype=np.int64)])
        self._log = np.empty(q, dtype=np.int64)
        self._log[powers] = np.arange(q - 1)
        self._log[0] = self._zero_log
        for table in (self._place, self._digits, self._exp, self._log):
            table.flags.writeable = False

    def __repr__(self):
        return f"GF({self.ell}^{self.f}, modulus={list(self.modulus)})"

    def _code(self, digits):
        return digits % self.ell @ self._place

    # -- arithmetic on codes -------------------------------------------------

    def add(self, a, b):
        return self._code(self._digits[a] + self._digits[b])

    def neg(self, a):
        return self._code(-self._digits[a])

    def sub(self, a, b):
        return self._code(self._digits[a] - self._digits[b])

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def dot(self, a, b):
        """The sum of a * b over the last axis (after broadcasting)."""
        return self._code(self._digits[self.mul(a, b)].sum(axis=-2))

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, n: int):
        """a**n, with 0**0 = 1."""
        if n < 0:
            return self.pow(self.inv(a), -n)
        log = self._log[a]
        return self._exp[np.where(log == self._zero_log,
                                  self._zero_log if n else 0,
                                  log * n % (self.q - 1))]

    def frobenius(self, a, k: int):
        """a**(ell**k), the k-th power of the Frobenius automorphism."""
        return self.pow(a, self.ell ** (k % self.f))

    def primitive_element(self):
        """The least code that generates the unit group."""
        return self._exp[1]


def _reduce(poly, monic, ell):
    """The remainder of a digit list mod a monic polynomial of degree f, as
    f digits: the only polynomial division of this module."""
    f = len(monic) - 1
    rem = list(poly)
    for i in range(len(rem) - 1, f - 1, -1):
        c = rem[i] % ell
        for j in range(f + 1):
            rem[i - f + j] -= c * monic[j]
    return [c % ell for c in rem[:f]]


def _times(a, b, modulus, ell):
    """The product of two digit lists mod the monic modulus: the only
    polynomial product of this module, used to build the exp table."""
    f = len(modulus) - 1
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _reduce(prod, modulus, ell)


def _powers_of_least_primitive(digits, modulus, ell):
    """[1, g, ..., g**(q-2)] as codes, g the least code of order q - 1.

    g is primitive when g**((q-1)/r) != 1 for every prime r | q - 1 (square
    and multiply).  Multiplication by g is GF(ell)-linear, so its action on
    every code at once is one digit-matrix product, and the powers follow
    by walking that map from 1.  `digits[n]` holds the base-ell digits of n."""
    q, f = digits.shape
    unit = [[int(t == s) for s in range(f)] for t in range(f)]  # x**t

    def power(a, n):
        out = unit[0]
        while n:
            if n & 1:
                out = _times(out, a, modulus, ell)
            a, n = _times(a, a, modulus, ell), n >> 1
        return out

    primes = factorize(q - 1).primes()
    for g in range(1, q):
        g_digits = digits[g].tolist()
        if all(power(g_digits, (q - 1) // r) != unit[0] for r in primes):
            break
    times_g = np.array([_times(x, g_digits, modulus, ell) for x in unit])
    # code n -> code n*g
    image = (digits @ times_g % ell @ ell ** np.arange(f)).tolist()
    powers = [1]
    for _ in range(q - 2):
        powers.append(image[powers[-1]])
    return powers


def _is_irreducible(mod, ell):
    """Irreducibility of a monic polynomial over GF(ell) by root/factor scan.

    Degree f <= 12 and ell**f <= 2**16, so testing divisibility by every monic
    polynomial of degree <= f//2 is affordable (there are at most ell**6 of
    them and ell**6 <= 2**16 in range).
    """
    f = len(mod) - 1
    for d in range(1, f // 2 + 1):
        for tail in product(range(ell), repeat=d):
            if not any(_reduce(mod, list(tail) + [1], ell)):
                return False
    return True


@lru_cache(maxsize=None)
def make_field(ell: int, f: int) -> FieldSpec:
    """GF(ell**f) with the lexicographically least monic irreducible modulus.

    Lexicographic order is over the coefficient tuple read constant term
    first.  Deterministic: the same (ell, f) always yields the same field.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if f < 1 or f > MAX_DEGREE or ell**f > MAX_SIZE:
        raise ValueError(f"field size cap exceeded: {ell}^{f}")
    if f == 1:
        return FieldSpec(ell, 1, (0, 1))  # modulus x
    # enumerate monic polynomials in lexicographic order of the coefficient
    # tuple read from the highest non-leading coefficient down to the constant
    for high_to_low in product(range(ell), repeat=f):
        mod = tuple(reversed(high_to_low)) + (1,)
        if mod[0] == 0:
            continue  # divisible by x
        if _is_irreducible(mod, ell):
            return FieldSpec(ell, f, mod)
    raise AssertionError("no irreducible polynomial found")


__all__ = ["FieldSpec", "make_field", "MAX_SIZE", "MAX_DEGREE"]
