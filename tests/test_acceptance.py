"""End-to-end acceptance checks: every certified number is compared exactly.

Where a published exception list disagrees with exact recomputation, the test
asserting the published value is marked strict-xfail and a companion test
freezes the recomputed value.
"""

import time

import pytest

from regclass.autorbits import orbit_counts
from regclass.catalog import default_catalog, entry_by_key
from regclass.harness import (built_entry, class_table_for, fused_partition,
                              quotient_pairs, verify_lemma72, verify_lemma81,
                              verify_table1, verify_theorem1, verify_theorem3)
from regclass.chartab import MAX_ORDER
from regclass.liebounds import (LieParams, _chain_lower_bound, claim_info,
                                grid_certify, orthogonal_unipotent_lower,
                                symplectic_kpprime_lower_formula, thm4_certify)
from regclass.numtheory import (EQUAL, GREATER, LESS, Enclosure, cmp_threshold,
                                cyclotomic_value, divisors, factorize)
from regclass.gf import make_field
from regclass.permgroup import burnside_class_count, class_counts

FROBENIUS_EQUALITY_CASES = [["frobenius(101,10)", 101], ["frobenius(17,4)", 17],
                            ["frobenius(37,6)", 37], ["frobenius(5,2)", 5]]


@pytest.fixture(scope="module")
def thm1_report():
    return verify_theorem1()


@pytest.fixture(scope="module")
def table1_report():
    return verify_table1()


@pytest.fixture(scope="module")
def thm3_report():
    return verify_theorem3()


@pytest.fixture(scope="module")
def union_sweep():
    """(key, p) -> (orbit count on p-element plus p-regular classes, verdict)
    over every simple entry of the default catalog."""
    out = {}
    for e in default_catalog():
        if not e.simple:
            continue
        table = class_table_for(e.key)
        part = fused_partition(e.key)
        for p in factorize(e.order).primes():
            n = orbit_counts(part, table, p).n_union
            out[(e.key, p)] = (n, cmp_threshold(n, p))
    return out


# ---------------------------------------------------------------------------
# 1: k_p + k_{p'} >= 2 sqrt(p-1) over the catalog, equality classified
# ---------------------------------------------------------------------------

def test_classcount_sum_sweep(thm1_report):
    rep = thm1_report
    assert rep.passed
    assert rep.duration_ms < 120_000
    covered = [e for e in default_catalog() if e.order <= 20_000]
    assert len(covered) >= 60
    (eq,) = [c for c in rep.cases if c.id == "thm1:equality-set"]
    assert eq.verdict == "pass"
    assert eq.computed["equal_cases"] == FROBENIUS_EQUALITY_CASES
    # every per-prime comparison ran on exact integers: no skips at this scale
    assert rep.summary["skip"] == 0


# ---------------------------------------------------------------------------
# 2: automorphism orbits on p-regular classes, published exception rows
# ---------------------------------------------------------------------------

def test_exception_table_default_rows(table1_report):
    rep = table1_report
    assert rep.passed
    assert rep.duration_ms < 60_000
    values = {(c.group, c.p): c.computed["n_aut_pregular"]
              for c in rep.cases if c.verdict == "pass"}
    assert values == {
        ("A5", 5): 3, ("PSL2(7)", 7): 4, ("A6", 5): 4, ("PSL2(8)", 7): 4,
        ("PSL2(11)", 11): 6, ("PSL2(16)", 17): 5, ("PSL2(27)", 13): 5,
        ("PSL2(32)", 11): 6, ("PSL2(32)", 31): 6, ("PSL2(81)", 41): 10,
        ("PSL2(128)", 43): 12, ("PSL2(128)", 127): 12, ("PSL2(243)", 61): 15,
        ("PSL2(256)", 257): 21, ("PSL3(8)", 73): 13,
    }
    assert rep.summary["skip"] == 0


# ---------------------------------------------------------------------------
# 3: orbits on the union of p-element and p-regular classes
# ---------------------------------------------------------------------------

A5_ALIASES = {"alt(5)", "psl2(4)", "psl2(5)"}


@pytest.mark.xfail(
    strict=True,
    reason="exact recomputation finds two further failing pairs, "
    "(psl2(32), 31) and (psl2(128), 127); see the companion test")
def test_union_orbit_exceptions_published(union_sweep):
    failing = {k for k, (_, cmp) in union_sweep.items() if cmp != GREATER}
    expected = {(k, 5) for k in A5_ALIASES} | {("psl2(16)", 17)}
    assert failing == expected


def test_union_orbit_exceptions_recomputed(union_sweep):
    failing = {k: n for k, (n, cmp) in union_sweep.items() if cmp != GREATER}
    assert failing == {
        ("alt(5)", 5): 4, ("psl2(4)", 5): 4, ("psl2(5)", 5): 4,
        ("psl2(16)", 17): 7, ("psl2(32)", 31): 9, ("psl2(128)", 127): 21,
    }
    # the published exceptions miss the strict bound with the published
    # values: 4 meets 2 sqrt(4) exactly; 7 falls below 2 sqrt(16)
    assert union_sweep[("alt(5)", 5)] == (4, EQUAL)
    assert union_sweep[("psl2(16)", 17)] == (7, LESS)
    # every remaining pair exceeds the threshold strictly
    for key, (n, cmp) in union_sweep.items():
        if key not in failing:
            assert cmp == GREATER, key


# ---------------------------------------------------------------------------
# 4: character suite (orthogonality and Galois cross-checks run inside the
# table builder; rationality floors and the union bound per prime)
# ---------------------------------------------------------------------------

def test_character_rationality_sweep(thm3_report):
    rep = thm3_report
    assert rep.passed
    assert rep.duration_ms < 300_000
    # equality in the union bound occurs exactly on the sharp Frobenius entries
    equal = sorted([c.group, c.p] for c in rep.cases
                   if c.verdict == "pass"
                   and c.computed.get("union_cmp") == EQUAL)
    assert equal == FROBENIUS_EQUALITY_CASES
    # every feasible entry got the Galois cross-check; floors were recorded
    checked = [c for c in rep.cases if c.id.endswith("galois-cross-check")]
    assert len(checked) >= 50
    assert any("two_rational_floor" in c.computed for c in rep.cases)
    assert all(c.computed["n_p_rational"] >= c.computed["k_p_prime"]
               for c in rep.cases if "k_p_prime" in c.computed)


# ---------------------------------------------------------------------------
# 5: coprime module bound fixtures
# ---------------------------------------------------------------------------

def test_module_bound_fixtures():
    rep = verify_lemma72()
    assert rep.passed
    rows = {c.id.split(":")[1]: (c.computed["value"], c.computed["sharp"])
            for c in rep.cases}
    assert rows == {"C2-on-GF5": (4, True), "C4-on-GF17": (8, True),
                    "C2-on-GF7": (5, False)}


# ---------------------------------------------------------------------------
# 6: grid certifications — published exception sets vs exact recomputation
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True,
                   reason="exact arithmetic also fails the grid at q = 31")
def test_grid_psl3_published():
    _, fails = grid_certify("psl3-pregular-orbit-threshold")
    assert set(fails) == set(
        claim_info("psl3-pregular-orbit-threshold").expected_exceptions)


@pytest.mark.xfail(strict=True,
                   reason="exact arithmetic also fails the grid at q = 512")
def test_grid_suzuki_published():
    _, fails = grid_certify("suzuki-pregular-orbit-threshold")
    assert set(fails) == set(
        claim_info("suzuki-pregular-orbit-threshold").expected_exceptions)


@pytest.mark.xfail(strict=True,
                   reason="exact arithmetic also fails the grid at q = 8")
def test_grid_g2_published():
    _, fails = grid_certify("g2-pregular-orbit-threshold")
    assert set(fails) == set(
        claim_info("g2-pregular-orbit-threshold").expected_exceptions)


def test_grid_exception_sets_recomputed():
    assert set(grid_certify("psl3-pregular-orbit-threshold")[1]) == \
        {25, 31, 49, 64}
    assert set(grid_certify("suzuki-pregular-orbit-threshold")[1]) == \
        {128, 512}
    assert set(grid_certify("g2-pregular-orbit-threshold")[1]) == {8, 9}


@pytest.mark.xfail(strict=True,
                   reason="the partition evaluator gives 70, not 69")
def test_orthogonal_unipotent_published_value():
    assert orthogonal_unipotent_lower(8, 3, 1) == 69


def test_orthogonal_unipotent_recomputed_value():
    assert orthogonal_unipotent_lower(8, 3, 1) == 70


# ---------------------------------------------------------------------------
# 7: closed-form lower bounds against brute-force class counts
# ---------------------------------------------------------------------------

def test_rank_power_bound_on_psl2():
    for e in default_catalog():
        if e.family != "psl2":
            continue
        q = e.params[0]
        table = class_table_for(e.key)
        for p in factorize(e.order).primes():
            kpp = class_counts(table, p).k_p_prime
            cert = thm4_certify(LieParams("A", 1, q), k_pprime_observed=kpp)
            assert cert.verdict == GREATER, (q, p)


def test_chain_lower_bound_below_exact_counts():
    """The closed-form chain is a lower bound on k_{p'} for every prime p:
    on every psl2 entry up to the character-table order cap (family A,
    r = 1, where no other check reaches the chain) and on sp4(2), sp4(3)
    (family C, r = 2), whose symplectic partition formula is checked too.
    An enclosure is compared by its upper end."""
    cases = [(e, LieParams("A", 1, e.params[0])) for e in default_catalog()
             if e.family == "psl2" and e.order <= MAX_ORDER]
    cases += [(entry_by_key(f"sp4({q})"), LieParams("C", 2, q))
              for q in (2, 3)]
    assert len(cases) == 15
    for e, params in cases:
        chain = _chain_lower_bound(params)
        upper = chain.hi if isinstance(chain, Enclosure) else chain
        table = class_table_for(e.key)
        for p in factorize(e.order).primes():
            kpp = class_counts(table, p).k_p_prime
            assert upper <= kpp, (e.key, p)
            if params.family == "C":
                assert symplectic_kpprime_lower_formula(2, params.q) <= kpp, \
                    (e.key, p)


# ---------------------------------------------------------------------------
# 8: engine property suite
# ---------------------------------------------------------------------------

def test_engine_properties():
    t0 = time.monotonic()

    # class equation and fixed-point class count for every small entry
    for e in default_catalog():
        if e.order > 10_000:
            continue
        group, _ = built_entry(e.key)
        table = class_table_for(e.key)
        assert sum(table.sizes) == group.order
        assert burnside_class_count(group) == len(table)

    # quotient monotonicity of the per-prime class counts
    rep = verify_lemma81()
    assert rep.passed
    assert len(quotient_pairs()) >= 10

    # field axioms, exhaustively on two non-prime fields
    for ell, f in [(2, 3), (3, 2)]:
        F = make_field(ell, f)
        elems = range(F.q)
        for a in elems:
            for b in elems:
                assert F.mul(a, b) == F.mul(b, a)
                for c in elems:
                    assert F.mul(a, F.add(b, c)) == \
                        F.add(F.mul(a, b), F.mul(a, c))
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one

    # cyclotomic product identity
    for q in (2, 3, 5, 10):
        for n in range(1, 31):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_value(d, q)
            assert prod == q**n - 1

    assert time.monotonic() - t0 < 120
