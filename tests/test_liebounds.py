"""Lie-type class-count bounds and grid certifications."""

from fractions import Fraction

import pytest
import sympy

from regclass.liebounds import (LieParams, _H_enclosure, claim_info,
                                grid_certify, grid_claims,
                                orthogonal_unipotent_lower,
                                prime_power_decomposition, prime_powers,
                                symplectic_kpprime_lower_formula, thm4_certify)
from regclass.numtheory import EQUAL, GREATER, LESS


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(121) == (11, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_decomposition(bad)
    assert prime_powers(7, 13) == [7, 8, 9, 11, 13]


def test_rank_power_half_exponent_convention():
    assert LieParams("2B2", 2, 8).rank_power == 8
    assert LieParams("2G2", 2, 27).rank_power == 27
    assert LieParams("2F4", 4, 8).rank_power == 64
    assert LieParams("A", 3, 2).rank_power == 8
    assert LieParams("C", 2, 3).rank_power == 9


def test_lieparams_validation():
    with pytest.raises(ValueError):
        LieParams("X", 1, 2)
    with pytest.raises(ValueError):
        LieParams("A", 0, 2)
    with pytest.raises(ValueError):
        LieParams("G2", 3, 2)      # wrong rank for an exceptional family
    with pytest.raises(ValueError):
        LieParams("2B2", 2, 4)     # needs an odd power of 2
    with pytest.raises(ValueError):
        LieParams("2G2", 2, 9)     # needs an odd power of 3
    # ranks at which a classical family has no simple group of its own
    for args in [("D", 3, 3), ("D", 2, 3), ("D", 1, 2), ("2D", 3, 2),
                 ("2A", 1, 3), ("B", 1, 3), ("C", 1, 3)]:
        with pytest.raises(ValueError):
            LieParams(*args)
    # the least valid ranks, PSU3(3) and PSp4(3) among them
    for args in [("A", 1, 2), ("2A", 2, 3), ("B", 2, 3), ("C", 2, 3),
                 ("D", 4, 2), ("2D", 4, 2)]:
        assert LieParams(*args).r == args[1]


def test_thm4_certify_with_observed_count():
    cert = thm4_certify(LieParams("A", 1, 7), k_pprime_observed=4)
    assert cert.verdict == GREATER
    assert cert.lhs == Fraction(4) and cert.rhs == Fraction(7, 17)
    # the comparison is exact: 1 * 17 = 17 > 7 but 0 * 17 < 7
    assert thm4_certify(LieParams("A", 1, 7), 1).verdict == GREATER
    assert thm4_certify(LieParams("A", 1, 7), 0).verdict == LESS


def test_thm4_chain_verdicts():
    # closed-form chains settle small exceptional points ...
    assert thm4_certify(LieParams("2B2", 2, 8)).verdict == GREATER
    assert thm4_certify(LieParams("G2", 2, 4)).verdict == GREATER
    # ... but not E7/E8 at q = 2, where the chain bound sits below the target
    assert thm4_certify(LieParams("E7", 7, 2)).verdict == LESS
    assert thm4_certify(LieParams("E8", 8, 2)).verdict == LESS


def test_min_centralizer_bracket():
    # split case with q^1 >= n+1: the value is exactly 1/e
    h = _H_enclosure(4, 5, 1)
    assert h.lo < Fraction(36788, 100000)
    assert h.hi > Fraction(36787, 100000)
    # twisted case: enclosure is positive and nontrivial
    hm = _H_enclosure(4, 3, -1)
    assert 0 < hm.lo <= hm.hi


# ---------------------------------------------------------------------------
# classical-family partition bounds against independent partition oracles
# ---------------------------------------------------------------------------

def _odd_part_count(n):
    """Partitions of n into odd parts, by direct recursion."""
    def rec(n, largest):
        if n == 0:
            return 1
        return sum(rec(n - part, part)
                   for part in range(1, min(n, largest) + 1, 2))
    return rec(n, n if n % 2 else n - 1) if n else 1


def test_symplectic_formula_against_oracle():
    for n in range(2, 7):
        for q in (2, 3, 4, 5, 9):
            if q % 2:
                part = sum(int(sympy.partition(i)) * _odd_part_count(n - i)
                           for i in range(n + 1))
                expected = part + -((2 - q**n) // (4 * n))
            else:
                expected = int(sympy.partition(n)) + -((2 - q**n) // (2 * n))
            assert symplectic_kpprime_lower_formula(n, q) == expected, (n, q)


def test_orthogonal_lower_bounds():
    # odd q: partition-pair sum
    for n in (4, 5, 8):
        expected = sum(int(sympy.partition(i)) * _odd_part_count(2 * n - 4 * i)
                       for i in range(n // 2 + 1))
        assert orthogonal_unipotent_lower(n, 3, 1) == expected
        assert orthogonal_unipotent_lower(n, 3, -1) == expected
    # even q, frozen small values
    assert orthogonal_unipotent_lower(4, 2, -1) == 4   # p(3) + p(1)
    assert orthogonal_unipotent_lower(4, 2, 1) == 7    # p(4) + 2 p(0)
    with pytest.raises(ValueError):
        orthogonal_unipotent_lower(3, 3, 1)


# ---------------------------------------------------------------------------
# grid certifications
# ---------------------------------------------------------------------------

def test_grid_claim_registry():
    assert grid_claims() == ["g2-pregular-orbit-threshold",
                             "psl3-pregular-orbit-threshold",
                             "suzuki-pregular-orbit-threshold"]
    info = claim_info("suzuki-pregular-orbit-threshold")
    assert info.strict and info.expected_exceptions == (128,)
    assert not claim_info("psl3-pregular-orbit-threshold").strict
    with pytest.raises(ValueError):
        claim_info("nope")
    with pytest.raises(ValueError):
        grid_certify("nope")


def test_grid_computed_exception_sets():
    _, fails = grid_certify("psl3-pregular-orbit-threshold")
    assert set(fails) == {25, 31, 49, 64}
    _, fails = grid_certify("suzuki-pregular-orbit-threshold")
    assert set(fails) == {128, 512}
    _, fails = grid_certify("g2-pregular-orbit-threshold")
    assert set(fails) == {8, 9}


def test_grid_certify_custom_grid():
    certs, fails = grid_certify("g2-pregular-orbit-threshold", grid=[9, 127])
    assert [c.point for c in certs] == [(9,), (127,)]
    assert fails == (9,)
    assert all(c.verdict in (LESS, EQUAL, GREATER) for c in certs)
    # every enclosure right-hand side brackets 2 sqrt(radicand) strictly
    for c in certs:
        assert c.rhs.lo <= c.rhs.hi
