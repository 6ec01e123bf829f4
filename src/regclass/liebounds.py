"""Closed-form lower bounds on k_{p'} for simple groups of Lie type, and
grid certifiers for the threshold inequalities of the source paper.

The module holds three things:

- `thm4_certify` and its per-family `_chain_lower_bound`: the rank-power
  bound k_{p'}(S) > q^r / (17 r^2), from an observed count or from the
  family's closed-form chain;
- `orthogonal_unipotent_lower`: the partition-sum bound whose published
  value the acceptance suite and the grid demo compare against;
- the grid claims served by `regclass bound` (`grid_certify`).

Everything is computed in exact rational arithmetic; the only irrational
constants that occur (Euler's number e, square roots) enter through sound
rational interval enclosures, so a certified verdict can never be an
artifact of rounding.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numtheory import (EQUAL, GREATER, LESS, Enclosure, cyclotomic_value,
                        e_enclosure, factorize, odd_partition_count,
                        partition_count, prime_power_decomposition,
                        sqrt_enclosure, twisted_cyclotomic)

INDETERMINATE = 2

FAMILIES = ("A", "2A", "B", "C", "D", "2D", "G2", "2B2", "3D4", "F4", "2F4",
            "E6", "2E6", "E7", "E8", "2G2")

# families whose natural parameter q is the full field size while the
# ambient-rank bound q^r reads q as the square root of that size
_HALF_EXPONENT_FAMILIES = {"2B2", "2G2", "2F4"}

_EXCEPTIONAL_RANK = {"G2": 2, "2B2": 2, "2G2": 2, "F4": 4, "2F4": 4,
                     "3D4": 4, "E6": 6, "2E6": 6, "E7": 7, "E8": 8}

# least rank at which a classical family has a simple group of its own:
# 2A_1 and B_1 = C_1 are A_1, D_3 is A_3, 2D_3 is 2A_3, and
# D_2 = A_1 x A_1 is not simple
_MIN_CLASSICAL_RANK = {"A": 1, "2A": 2, "B": 2, "C": 2, "D": 4, "2D": 4}


@dataclass(frozen=True)
class LieParams:
    """Parameters of a simple group of Lie type over GF(q).

    r is the rank of the ambient simple algebraic group.  For the very
    twisted families (2B2, 2G2, 2F4) q is the full field size 2^(2m+1) /
    3^(2m+1) and the rank bound q^r is read with q^(1/2), i.e. it equals
    (field size)^(r/2)."""

    family: str
    r: int
    q: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        ell, f = prime_power_decomposition(self.q)
        if self.family in _EXCEPTIONAL_RANK:
            if self.r != _EXCEPTIONAL_RANK[self.family]:
                raise ValueError(
                    f"family {self.family} has rank {_EXCEPTIONAL_RANK[self.family]}")
        elif self.r < _MIN_CLASSICAL_RANK[self.family]:
            raise ValueError(f"family {self.family} requires rank >= "
                             f"{_MIN_CLASSICAL_RANK[self.family]}")
        if self.family in ("2B2", "2F4") and (ell != 2 or f % 2 == 0):
            raise ValueError(f"{self.family} requires q = 2^(2m+1)")
        if self.family == "2G2" and (ell != 3 or f % 2 == 0):
            raise ValueError("2G2 requires q = 3^(2m+1)")

    @property
    def rank_power(self) -> int:
        """q^r, with the half-exponent convention for 2B2/2G2/2F4."""
        if self.family in _HALF_EXPONENT_FAMILIES:
            return self.q ** (self.r // 2)
        return self.q ** self.r


@dataclass(frozen=True)
class BoundCertificate:
    claim_id: str
    point: tuple
    lhs: object  # Fraction or Enclosure
    rhs: object  # Fraction or Enclosure
    verdict: int  # GREATER / EQUAL / LESS / INDETERMINATE


def _compare(lhs, rhs) -> int:
    """Conservative comparison of Fractions and/or Enclosures."""
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        return (lhs > rhs) - (lhs < rhs)
    le = lhs if isinstance(lhs, Enclosure) else Enclosure.exact(lhs)
    re_ = rhs if isinstance(rhs, Enclosure) else Enclosure.exact(rhs)
    if le.strictly_greater_than(re_):
        return GREATER
    if le.strictly_less_than(re_):
        return LESS
    return INDETERMINATE


# ---------------------------------------------------------------------------
# the rank-power theorem
# ---------------------------------------------------------------------------

RANK_POWER_CONSTANT = 17  # the c of the rank-power bound q^r / (c r^2)


def thm4_certify(params: LieParams,
                 k_pprime_observed: int | None = None) -> BoundCertificate:
    """Certify k_{p'}(S) > q^r / (17 r^2).

    With an observed brute-force k_{p'} the comparison is pure-integer:
    observed * 17 * r^2 vs q^r.  Without one, the family's closed-form
    lower-bound chain is evaluated and compared against q^r/(17 r^2); an
    Indeterminate or Less verdict means the chain alone does not settle the
    point (not that the theorem fails there)."""
    r = params.r
    qr = params.rank_power
    c = RANK_POWER_CONSTANT
    claim = f"rank-power-bound-{c}"
    rhs = Fraction(qr, c * r * r)
    if k_pprime_observed is not None:
        lhs = Fraction(k_pprime_observed)
        verdict = _compare(lhs * c * r * r, Fraction(qr))
        return BoundCertificate(claim, (params.family, r, params.q),
                                lhs, rhs, verdict)
    lhs = _chain_lower_bound(params)
    return BoundCertificate(claim, (params.family, r, params.q), lhs, rhs,
                            _compare(lhs, rhs))


def _chain_lower_bound(params: LieParams):
    """The per-family closed-form lower bound on k_{p'}(S), valid for every
    prime p (minimum over the per-case bounds of the source analysis)."""
    family, r, q = params.family, params.r, params.q
    if family in ("A", "2A"):
        eps = 1 if family == "A" else -1
        n = r + 1
        h = _H_enclosure(n, q, eps)
        return (h * Fraction(q**r)) / Fraction(n * gcd(n, q - eps))
    if family in ("B", "C"):
        # partition-type bound for odd p, q^r/8r for p = 2
        lem = symplectic_kpprime_lower_formula(r, q)
        return Fraction(min(Fraction(lem), Fraction(q**r, 8 * r)))
    if family in ("D", "2D"):
        eps = 1 if family == "D" else -1
        k = 0
        while not (2**k >= 4 and q ** (2**k) >= 4 * r):
            k += 1
        inner = Fraction(q - 1, q * 2**k)
        root = _sqrt_of_enclosure(Enclosure.exact(inner) / e_enclosure())
        pre = Fraction(q**r * gcd(2, q**r - eps),
                       8 * r * gcd(4, q**r - eps))
        return root * Fraction(pre)
    # exceptional families: c * (q-1)^s / denom, worst case over p
    c, s = {
        "2B2": (Fraction(2, 5), 1),
        "G2": (Fraction(1, 7), 2),
        "2G2": (Fraction(2, 7), 1),
        "F4": (Fraction(1, 12), 4),
        "2F4": (Fraction(2, 13), 2),
        "3D4": (Fraction(1, 4), 4),
        "E6": (Fraction(1, 9 * gcd(3, q - 1)), 6),
        "2E6": (Fraction(1, 9 * gcd(3, q + 1)), 6),
        "E7": (Fraction(1, 15 * gcd(2, q - 1)), 7),
        "E8": (Fraction(81, 775), 8),
    }[family]
    return c * Fraction((q - 1) ** s)


# ---------------------------------------------------------------------------
# minimal centralizer sizes (the family-A chain)
# ---------------------------------------------------------------------------

def _sqrt_of_enclosure(x: Enclosure) -> Enclosure:
    if x.lo < 0:
        raise ValueError("sqrt of a possibly-negative enclosure")
    return Enclosure(sqrt_enclosure(x.lo).lo, sqrt_enclosure(x.hi).hi)


def _H_enclosure(n: int, q: int, epsilon: int) -> Enclosure:
    if epsilon == 1:
        r = 1
        while q**r < n + 1:
            r += 1
        return Enclosure.exact(1) / (e_enclosure() * Fraction(r))
    rp = 1
    while rp % 2 == 0 or q**rp < n + 1:
        rp += 1
    inner = Enclosure.exact(Fraction(q * q - 1, (q + 1) ** 2)) \
        / (e_enclosure() * Fraction(rp))
    return _sqrt_of_enclosure(inner)


# ---------------------------------------------------------------------------
# symplectic / orthogonal partition bounds
# ---------------------------------------------------------------------------

def symplectic_kpprime_lower_formula(n: int, q: int) -> int:
    """The p-independent part of the symplectic bound (valid for any odd
    prime p not dividing q)."""
    if q % 2:
        part = sum(partition_count(i) * odd_partition_count(n - i)
                   for i in range(n + 1))
        return part + _ceil_div(q**n - 2, 4 * n)
    return partition_count(n) + _ceil_div(q**n - 2, 2 * n)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def orthogonal_unipotent_lower(n: int, q: int, epsilon: int) -> int:
    """Lower bound on the number of unipotent classes of the simple
    orthogonal group on a 2n-space of sign epsilon."""
    if n < 4 or epsilon not in (1, -1):
        raise ValueError("require n >= 4 and epsilon = +-1")
    if q % 2:
        return sum(partition_count(i) * odd_partition_count(2 * n - 4 * i)
                   for i in range(n // 2 + 1))
    if epsilon == 1:
        extra = sum(partition_count(n - i - j)
                    for i in range(1, n + 1, 2)
                    for j in range(1, n + 1, 2)
                    if i != j and i + j <= n)
        return partition_count(n) + extra
    return sum(partition_count(n - i) for i in range(1, n + 1, 2))


# ---------------------------------------------------------------------------
# grid certification
# ---------------------------------------------------------------------------

def prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(max(lo, 2), hi + 1):
        fac = factorize(q)
        if len(fac.pairs) == 1:
            out.append(q)
    return out


def _sq_cmp_strict(lhs: Fraction, radicand: int) -> int:
    """Compare positive rational lhs against 2*sqrt(radicand), exactly."""
    if lhs <= 0:
        return LESS if radicand > 0 else EQUAL
    return _compare(lhs * lhs, Fraction(4 * radicand))


@dataclass(frozen=True)
class GridClaim:
    claim_id: str
    description: str
    strict: bool  # strict '>' vs non-strict '>='
    expected_exceptions: tuple


def _psl3_grid():
    return [q for q in prime_powers(11, 128) if q not in (13, 16, 19)]


def _psl3_eval(q):
    _, f = prime_power_decomposition(q)
    g3 = gcd(3, q - 1)
    lhs = Fraction(q * q, 3 * f * g3 * g3)
    radicand = cyclotomic_value(3, q) // g3 - 1
    return lhs, radicand


def _suzuki_grid():
    return [2 ** (2 * m + 1) for m in range(3, 8)]


def _suzuki_eval(q):
    _, f = prime_power_decomposition(q)
    lhs = Fraction(3 * (q - 1), 4 * f)
    radicand = twisted_cyclotomic(4, 1, q) - 1
    return lhs, radicand


def _g2_grid():
    return [q for q in prime_powers(7, 128) if q % 3 != 1]


def _g2_eval(q):
    ell, f = prime_power_decomposition(q)
    g = 2 if ell == 3 else 1
    lhs = Fraction(5 * (q - 1) ** 2, 6 * f * g)
    radicand = cyclotomic_value(3, q) - 1
    return lhs, radicand


_CLAIMS = {
    "psl3-pregular-orbit-threshold": (
        GridClaim("psl3-pregular-orbit-threshold",
                  "q^2/(3f gcd(3,q-1)^2) >= 2 sqrt(Phi_3(q)/gcd(3,q-1) - 1) "
                  "over prime powers 11..128 minus {13,16,19}",
                  False, (25, 49, 64)),
        _psl3_grid, _psl3_eval),
    "suzuki-pregular-orbit-threshold": (
        GridClaim("suzuki-pregular-orbit-threshold",
                  "3(q-1)/(4(2m+1)) > 2 sqrt(Phi4+(q) - 1) over q = 2^(2m+1),"
                  " 2^7..2^15",
                  True, (128,)),
        _suzuki_grid, _suzuki_eval),
    "g2-pregular-orbit-threshold": (
        GridClaim("g2-pregular-orbit-threshold",
                  "5(q-1)^2/(6fg) > 2 sqrt(Phi_3(q) - 1) over prime powers "
                  "7..128 with q != 1 mod 3",
                  True, (9,)),
        _g2_grid, _g2_eval),
}


class GridPointError(ValueError):
    """A grid point outside the domain of its claim."""


def _check_grid_point(claim_id: str, q: int) -> None:
    """Prime powers for every claim; odd powers of 2 for the Suzuki one."""
    try:
        ell, f = prime_power_decomposition(q)
    except ValueError:
        raise GridPointError(f"grid point {q} is not a prime power") from None
    if claim_id == "suzuki-pregular-orbit-threshold" and (ell != 2 or f % 2 == 0):
        raise GridPointError(f"grid point {q} is not 2^(2m+1)")


def grid_claims() -> list[str]:
    return sorted(_CLAIMS)


def claim_info(claim_id: str) -> GridClaim:
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}")
    return _CLAIMS[claim_id][0]


def grid_certify(claim_id: str, grid=None):
    """Evaluate the claim inequality at every grid point.

    Returns (certificates, computed exception set).  The exception set is
    exact: a point fails a strict claim when lhs <= threshold and a
    non-strict claim when lhs < threshold.  A point outside the claim's
    domain raises `GridPointError` before any point is evaluated."""
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}")
    claim, default_grid, evaluate = _CLAIMS[claim_id]
    points = list(grid) if grid is not None else default_grid()
    for q in points:
        _check_grid_point(claim_id, q)
    certs = []
    failures = []
    for q in points:
        lhs, radicand = evaluate(q)
        cmp_val = _sq_cmp_strict(lhs, radicand)
        ok = cmp_val == GREATER or (not claim.strict and cmp_val == EQUAL)
        certs.append(BoundCertificate(claim_id, (q,), lhs,
                                      sqrt_enclosure(radicand) * Fraction(2),
                                      cmp_val))
        if not ok:
            failures.append(q)
    return certs, tuple(failures)


__all__ = [
    "FAMILIES", "INDETERMINATE", "LieParams", "BoundCertificate",
    "GridClaim", "GridPointError", "prime_powers", "thm4_certify",
    "symplectic_kpprime_lower_formula", "orthogonal_unipotent_lower",
    "grid_claims", "grid_certify", "claim_info",
]
