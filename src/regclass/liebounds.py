"""Exact evaluators for closed-form class-count lower bounds in groups of
Lie type, and grid certifiers for the threshold inequalities they feed.

Everything is computed in exact rational arithmetic; the only irrational
constants that occur (Euler's number e, square roots) enter through sound
rational interval enclosures, so a certified verdict can never be an
artifact of rounding.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .numtheory import (EQUAL, GREATER, LESS, Enclosure, cyclotomic_value,
                        divisors, e_enclosure, euler_phi, factorize, is_prime,
                        odd_partition_count, partition_count,
                        prime_power_decomposition, sqrt_enclosure,
                        twisted_cyclotomic)

INDETERMINATE = 2

FAMILIES = ("A", "2A", "B", "C", "D", "2D", "G2", "2B2", "3D4", "F4", "2F4",
            "E6", "2E6", "E7", "E8", "2G2")

# families whose natural parameter q is the full field size while the
# ambient-rank bound q^r reads q as the square root of that size
_HALF_EXPONENT_FAMILIES = {"2B2", "2G2", "2F4"}

_EXCEPTIONAL_RANK = {"G2": 2, "2B2": 2, "2G2": 2, "F4": 4, "2F4": 4,
                     "3D4": 4, "E6": 6, "2E6": 6, "E7": 7, "E8": 8}


@dataclass(frozen=True)
class LieParams:
    """Parameters of a simple group of Lie type over GF(q).

    r is the rank of the ambient simple algebraic group; d the order of the
    diagonal-automorphism group; out_order = |Out(S)|.  For the very twisted
    families (2B2, 2G2, 2F4) q is the full field size 2^(2m+1) / 3^(2m+1)
    and the rank bound q^r is read with q^(1/2), i.e. it equals
    (field size)^(r/2)."""

    family: str
    r: int
    q: int
    d: int = field(init=False)
    out_order: int = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        ell, f = prime_power_decomposition(self.q)
        if self.family in _EXCEPTIONAL_RANK:
            if self.r != _EXCEPTIONAL_RANK[self.family]:
                raise ValueError(
                    f"family {self.family} has rank {_EXCEPTIONAL_RANK[self.family]}")
        elif self.r < 1:
            raise ValueError("rank must be positive")
        if self.family in ("2B2", "2F4") and (ell != 2 or f % 2 == 0):
            raise ValueError(f"{self.family} requires q = 2^(2m+1)")
        if self.family == "2G2" and (ell != 3 or f % 2 == 0):
            raise ValueError("2G2 requires q = 3^(2m+1)")
        d, out = _diagonal_and_out(self.family, self.r, self.q, ell, f)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "out_order", out)

    @property
    def rank_power(self) -> int:
        """q^r, with the half-exponent convention for 2B2/2G2/2F4."""
        if self.family in _HALF_EXPONENT_FAMILIES:
            return self.q ** (self.r // 2)
        return self.q ** self.r


def _diagonal_and_out(family, r, q, ell, f):
    n = r + 1
    if family == "A":
        d = gcd(n, q - 1)
        return d, d * f * (2 if n >= 3 else 1)
    if family == "2A":
        d = gcd(n, q + 1)
        return d, d * 2 * f
    if family in ("B", "C"):
        d = gcd(2, q - 1)
        return d, d * f
    if family == "D":
        d = gcd(4, q**r - 1)
        return d, d * f * (6 if r == 4 else 2)
    if family == "2D":
        d = gcd(4, q**r + 1)
        return d, d * 2 * f
    if family == "G2":
        return 1, f * (2 if ell == 3 else 1)
    if family == "F4":
        return 1, f * (2 if ell == 2 else 1)
    if family in ("2B2", "2G2", "2F4"):
        return 1, f
    if family == "3D4":
        return 1, 3 * f
    if family == "E6":
        d = gcd(3, q - 1)
        return d, 2 * d * f
    if family == "2E6":
        d = gcd(3, q + 1)
        return d, 2 * d * f
    if family == "E7":
        d = gcd(2, q - 1)
        return d, d * f
    if family == "E8":
        return 1, f
    raise AssertionError(family)


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
# semisimple classes and the rank-power theorem
# ---------------------------------------------------------------------------

def semisimple_class_count(params: LieParams) -> int:
    """The number of semisimple classes of the simply connected group: q^r.
    Downstream: k_{p'}(S) >= q^r / d."""
    return params.rank_power


def thm4_certify(params: LieParams, k_pprime_observed: int | None = None,
                 constant: int = 17) -> BoundCertificate:
    """Certify k_{p'}(S) > q^r / (constant * r^2).

    With an observed brute-force k_{p'} the comparison is pure-integer:
    observed * constant * r^2 vs q^r.  Without one, the family's
    closed-form lower-bound chain is evaluated and compared against
    q^r/(constant r^2); an Indeterminate or Less verdict means the chain
    alone does not settle the point (not that the theorem fails there)."""
    r = params.r
    qr = params.rank_power
    claim = f"rank-power-bound-{constant}"
    if k_pprime_observed is not None:
        lhs = Fraction(k_pprime_observed)
        rhs = Fraction(qr, constant * r * r)
        verdict = _compare(lhs * constant * r * r, Fraction(qr))
        return BoundCertificate(claim, (params.family, r, params.q),
                                lhs, rhs, verdict)
    lhs = _chain_lower_bound(params)
    rhs = Fraction(qr, constant * r * r)
    return BoundCertificate(claim, (params.family, r, params.q), lhs, rhs,
                            _compare(lhs, rhs))


def _chain_lower_bound(params: LieParams):
    """The per-family closed-form lower bound on k_{p'}(S), valid for every
    prime p (minimum over the per-case bounds of the source analysis)."""
    family, r, q = params.family, params.r, params.q
    ell, f = prime_power_decomposition(q)
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
# torus-driven orbit bounds
# ---------------------------------------------------------------------------

def psl_torus_orbit_bound(n: int, q: int, p: int, epsilon: int) -> Fraction:
    """Orbit lower bound from a cyclic maximal torus of PSL_n(q) of order
    m = (q^n-1)/((q-1) gcd(n,q-1)): if p | m it bounds the orbits on
    classes of p-elements, (p-1)/(eps f n); otherwise the orbits on
    p-regular classes, phi(m)/(eps f n).  epsilon is 1 for n = 2 and 2 for
    n > 2 (the graph automorphism)."""
    if epsilon not in (1, 2) or (n == 2) != (epsilon == 1):
        raise ValueError("epsilon must be 1 for n = 2 and 2 for n > 2")
    _, f = prime_power_decomposition(q)
    m = (q**n - 1) // ((q - 1) * gcd(n, q - 1))
    if m % p == 0:
        return Fraction(p - 1, epsilon * f * n)
    return Fraction(euler_phi(m), epsilon * f * n)


def ssc_torus_bounds(order_G: int, order_T: int, w: int,
                     p_divides_T: bool) -> tuple[Fraction, Fraction]:
    """Element-proportion bounds from a strongly self-centralizing subgroup
    T with |N_G(T)/T| = w: (lower bound on |G_p'|/|G|, on |G_p|/|G|)."""
    if w < 1 or order_T < 2:
        raise ValueError("require w >= 1 and |T| >= 2")
    if order_G % order_T:
        raise ValueError("|T| must divide |G|")
    frac_T = Fraction(order_T - 1, order_T)
    if p_divides_T:
        return Fraction(w - 1, w), Fraction(1, w) * frac_T
    return Fraction(1, w) * frac_T, Fraction(0)


def ssc_multi_torus_pprime(ws) -> Fraction:
    """Summed p-regular proportion over pairwise non-conjugate strongly
    self-centralizing subgroups of coprime-to-p order: sum 1/(w_i + 1)."""
    return sum((Fraction(1, w + 1) for w in ws), Fraction(0))


# ---------------------------------------------------------------------------
# minimal centralizer sizes
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


def min_centralizer_H(n: int, q: int, epsilon: int) -> Enclosure:
    """H(n,q,+) = 1/(e r) with r least with q^r >= n+1;
    H(n,q,-) = ((q^2-1)/(e r' (q+1)^2))^(1/2) with r' the least odd such."""
    if n < 4:
        raise ValueError("require n >= 4")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    return _H_enclosure(n, q, epsilon)


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


def symplectic_kpprime_lower(n: int, q: int, p: int,
                             odd_dimensional: bool = False) -> int:
    """Lower bound on k_{p'} of PSp_{2n}(q) (or of the odd-dimensional
    orthogonal group on a (2n+1)-space when odd_dimensional is set)."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if q % p == 0:
        raise ValueError("p must not divide q")
    if n < 2:
        raise ValueError("require n >= 2")
    if not odd_dimensional:
        return symplectic_kpprime_lower_formula(n, q)
    if q % 2:
        part = sum(partition_count(i) * odd_partition_count(2 * n + 1 - 4 * i)
                   for i in range((2 * n + 1) // 4 + 1))
        return part + _ceil_div(q**n - 2, 4 * n)
    return partition_count(n) + _ceil_div(q**n - 2, 2 * n)


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


def orthogonal_semisimple_orbit_lower(n: int, q: int, epsilon: int,
                                      p: int) -> int:
    """Lower bound on the orbits (under the full automorphism group) of
    p-regular semisimple classes of the simple orthogonal group on a
    2n-space; requires p odd and (n, epsilon) != (4, +)."""
    if n < 4 or epsilon not in (1, -1):
        raise ValueError("require n >= 4 and epsilon = +-1")
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if (n, epsilon) == (4, 1):
        raise ValueError("(n, epsilon) = (4, +) is excluded")
    _, f = prime_power_decomposition(q)
    g4 = gcd(4, q**n - epsilon)
    return 1 + _ceil_div(q ** (n - 1) - 2, 4 * f * (n - 1) * g4 * g4)


def orthogonal_lower_bounds(n: int, q: int, epsilon: int,
                            p: int) -> tuple[int, int]:
    """(unipotent class lower bound, semisimple orbit lower bound)."""
    return (orthogonal_unipotent_lower(n, q, epsilon),
            orthogonal_semisimple_orbit_lower(n, q, epsilon, p))


# ---------------------------------------------------------------------------
# exceptional-family data
# ---------------------------------------------------------------------------

def _phi(d):
    return ("phi", d)


def _phit(kind, sign):
    return ("phit", kind, sign)


def eval_cyclotomic_symbol(sym, q: int) -> int:
    if sym[0] == "phi":
        return cyclotomic_value(sym[1], q)
    _, kind, sign = sym
    return twisted_cyclotomic(kind, sign, q)


@dataclass(frozen=True)
class ExceptionalData:
    family: str
    max_prime_symbol: tuple  # Psi_S as a cyclotomic symbol
    tori: tuple  # ((order symbols as a product tuple, torus divisor, w), ...)
    order_q_exponent: int
    order_symbols: tuple  # cyclotomic symbols whose product * q^N * 1/div = |S|
    order_divisor_symbol: str  # "", "3,q-1", "3,q+1", "2,q-1"

    def max_prime_bound(self, q: int) -> int:
        return eval_cyclotomic_symbol(self.max_prime_symbol, q)

    def torus_list(self, q: int):
        """[(torus order, w)] at a concrete q (condition-filtered)."""
        out = []
        for symbols, div_expr, w, cond in self.tori:
            if cond == "q!=1mod3" and q % 3 == 1:
                continue
            if cond == "q!=2mod3" and q % 3 == 2:
                continue
            order = 1
            for s in symbols:
                order *= eval_cyclotomic_symbol(s, q)
            order //= _eval_divisor(div_expr, q)
            out.append((order, w))
        return out

    def group_order(self, q: int) -> int:
        order = q ** self.order_q_exponent
        for s in self.order_symbols:
            order *= eval_cyclotomic_symbol(s, q)
        return order // _eval_divisor(self.order_divisor_symbol, q)


def _eval_divisor(expr: str, q: int) -> int:
    if not expr:
        return 1
    k, shift = expr.split(",")
    sign = 1 if shift.endswith("-1") else -1
    return gcd(int(k), q - sign)


def _order_symbols_from_factors(minus_exponents, plus_exponents):
    """Cyclotomic symbols for prod (q^k - 1) * prod (q^k + 1)."""
    syms = []
    for k in minus_exponents:
        syms.extend(_phi(d) for d in divisors(k))
    for k in plus_exponents:
        syms.extend(_phi(d) for d in divisors(2 * k) if k % d)
    return tuple(syms)


def _twisted_order_symbols(family):
    if family == "2B2":  # q^2 (q^2+1)(q-1); q^2+1 = phi4+ * phi4-
        return 2, (_phit(4, 1), _phit(4, -1), _phi(1))
    if family == "2G2":  # q^3 (q^3+1)(q-1); q^3+1 = phi2 * phi6+ * phi6-
        return 3, (_phi(2), _phit(6, 1), _phit(6, -1), _phi(1))
    # 2F4: q^12 (q^6+1)(q^4-1)(q^3+1)(q-1);
    # q^6+1 = phi4 * phi12+ * phi12-; q^3+1 = phi2 * phi6
    return 12, (_phi(4), _phit(12, 1), _phit(12, -1),
                _phi(1), _phi(2), _phi(4),
                _phi(2), _phi(6), _phi(1))


_EXCEPTIONAL = {
    "2B2": ExceptionalData(
        "2B2", _phit(4, 1),
        (((_phit(4, 1),), "", 4, ""), ((_phit(4, -1),), "", 4, "")),
        *_twisted_order_symbols("2B2"), ""),
    "G2": ExceptionalData(
        "G2", _phi(3),
        (((_phi(3),), "", 6, "q!=1mod3"), ((_phi(6),), "", 6, "q!=2mod3")),
        6, _order_symbols_from_factors([6, 2], []), ""),
    "2G2": ExceptionalData(
        "2G2", _phit(6, 1),
        (((_phit(6, 1),), "", 6, ""), ((_phit(6, -1),), "", 6, "")),
        *_twisted_order_symbols("2G2"), ""),
    "F4": ExceptionalData(
        "F4", _phi(8),
        (((_phi(12),), "", 12, ""),),
        24, _order_symbols_from_factors([2, 6, 8, 12], []), ""),
    "2F4": ExceptionalData(
        "2F4", _phit(12, 1),
        (((_phit(12, 1),), "", 12, ""), ((_phit(12, -1),), "", 12, "")),
        *_twisted_order_symbols("2F4"), ""),
    "3D4": ExceptionalData(
        "3D4", _phi(12),
        (((_phi(12),), "", 4, ""),),
        12, _order_symbols_from_factors([6, 2], []) + (_phi(12), _phi(3),
                                                       _phi(6)),
        ""),
    "E6": ExceptionalData(
        "E6", _phi(9),
        (((_phi(9),), "3,q-1", 9, ""),),
        36, _order_symbols_from_factors([2, 5, 6, 8, 9, 12], []), "3,q-1"),
    "2E6": ExceptionalData(
        "2E6", _phi(18),
        (((_phi(18),), "3,q+1", 9, ""),),
        36, _order_symbols_from_factors([2, 6, 8, 12], [5, 9]), "3,q+1"),
    "E7": ExceptionalData(
        "E7", _phi(7),
        (),
        63, _order_symbols_from_factors([2, 6, 8, 10, 12, 14, 18], []),
        "2,q-1"),
    "E8": ExceptionalData(
        "E8", _phi(30),
        (((_phi(24),), "", 24, ""), ((_phi(15),), "", 30, ""),
         ((_phi(30),), "", 30, "")),
        120, _order_symbols_from_factors([2, 8, 12, 14, 18, 20, 24, 30], []),
        ""),
}


def exceptional_data(family: str) -> ExceptionalData:
    if family not in _EXCEPTIONAL:
        raise ValueError(f"no exceptional data for family {family!r}")
    return _EXCEPTIONAL[family]


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
    "GridClaim", "GridPointError", "ExceptionalData",
    "prime_powers", "semisimple_class_count", "thm4_certify",
    "psl_torus_orbit_bound", "ssc_torus_bounds", "ssc_multi_torus_pprime",
    "min_centralizer_H", "symplectic_kpprime_lower",
    "symplectic_kpprime_lower_formula", "orthogonal_unipotent_lower",
    "orthogonal_semisimple_orbit_lower", "orthogonal_lower_bounds",
    "exceptional_data", "eval_cyclotomic_symbol", "grid_claims",
    "grid_certify", "claim_info",
]
