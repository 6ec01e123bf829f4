"""Character tables: degrees, Galois actions, rationality counts, caching."""

import copy
import dataclasses
import itertools
import re
from math import gcd, prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from regclass import chartab, harness
from regclass.catalog import default_catalog, entry_by_key
from regclass.chartab import (CHUNK, CycValue, RationalityFlags,
                              _aux_primes, _charpoly_mod, _check_int64,
                              _eigen_split, _lift, _nullspace_mod,
                              _galois_closure, _root_powers, _solve_coords,
                              _unit_generators,
                              _verify_exact_orthogonality, brauer_cross_check,
                              character_count_report, character_table,
                              class_matrix, classify_rationality, dixon_prime,
                              load_character_table, save_character_table)
from regclass.numtheory import (EQUAL, GREATER, cyclotomic_coeffs, divisors,
                                factorize, p_part, primitive_root)
from regclass.permgroup import (ClassTable, ConsistencyError, PermGroup,
                                ResourceLimitError, class_counts,
                                conjugacy_classes, inverse_rows, perm_power,
                                power_class_map)


def _listed_units(e):
    """The residues mod e coprime to e, ascending (just 0 when e = 1), by
    gcd: the references list them, the engine never does."""
    return [k for k in range(e) if gcd(k, e) == 1]


# degree multisets frozen from standard character-table references
KNOWN_DEGREES = {
    "alt(5)": [1, 3, 3, 4, 5],
    "psl2(7)": [1, 3, 3, 6, 7, 8],
    "psl2(9)": [1, 5, 5, 8, 8, 9, 10],          # A6
    "psl2(11)": [1, 5, 5, 10, 10, 11, 12, 12],
    "psl2(13)": [1, 7, 7, 12, 12, 12, 13, 14, 14],
    "psl2(16)": [1, 15, 15, 15, 15, 15, 15, 15, 15,
                 16, 17, 17, 17, 17, 17, 17, 17],
    "sym(4)": [1, 1, 2, 3, 3],
    "sym(5)": [1, 1, 4, 4, 5, 5, 6],
    "sl2(5)": [1, 2, 2, 3, 3, 4, 4, 5, 6],
    "frobenius(5,2)": [1, 1, 2, 2],
}


@pytest.fixture(scope="module")
def tables():
    cache = {}

    def get(key):
        if key not in cache:
            group, _ = entry_by_key(key).build()
            table = conjugacy_classes(group)
            cache[key] = (group, table, character_table(group, table))
        return cache[key]

    return get


@pytest.mark.parametrize("key", sorted(KNOWN_DEGREES))
def test_known_degree_multisets(tables, key):
    group, _, ct = tables(key)
    assert sorted(ct.degrees) == KNOWN_DEGREES[key]
    assert sum(d * d for d in ct.degrees) == group.order


@pytest.mark.parametrize("key", ["alt(5)", "sym(4)", "psl2(7)", "sl2(5)",
                                 "frobenius(5,2)"])
def test_identity_column_and_linear_characters(tables, key):
    group, table, ct = tables(key)
    for r, d in enumerate(ct.degrees):
        v = ct.values[r][0]
        assert v.support == (0,) and v.mults == (d,)
    # number of linear characters = index of the derived subgroup
    linear = sum(1 for d in ct.degrees if d == 1)
    known = {"alt(5)": 1, "sym(4)": 2, "psl2(7)": 1, "sl2(5)": 1,
             "frobenius(5,2)": 2}
    assert linear == known[key]


@pytest.mark.parametrize("key", ["alt(5)", "psl2(7)", "psl2(9)", "sym(5)",
                                 "sl2(5)", "frobenius(5,2)", "cyclic(12)",
                                 "dihedral(7)"])
def test_brauer_cross_check(tables, key):
    _, _, ct = tables(key)
    brauer_cross_check(ct)  # raises on any Galois mismatch


@pytest.mark.parametrize("key", ["alt(5)", "psl2(7)", "psl2(11)", "sl2(5)",
                                 "frobenius(5,2)", "dihedral(7)"])
def test_p_rational_count_matches_class_side(tables, key):
    """For odd p, {k = 1 mod e_p'} is cyclic, generated by the k that is a
    primitive root mod e_p and 1 mod e_p' (CRT); by Brauer's permutation
    lemma the p-rational characters are as many as the classes g -> g^k
    fixes."""
    group, table, ct = tables(key)
    e = table.exponent
    for p in factorize(group.order).primes():
        if p == 2 or p_part(e, p) == 1:
            continue
        rep = character_count_report(ct, p)
        e_p = p_part(e, p)
        e_pp = e // e_p
        k = (primitive_root(e_p) * e_pp * pow(e_pp, -1, e_p)
             + e_p * pow(e_p, -1, e_pp)) % e
        fixed = sum(j == i for i, j in enumerate(power_class_map(table, k)))
        assert rep.n_p_rational == fixed
        assert rep.n_p_rational >= class_counts(table, p).k_p_prime


def test_frobenius10_report():
    group, _ = entry_by_key("frobenius(5,2)").build()
    table = conjugacy_classes(group)
    ct = character_table(group, table)
    rep = character_count_report(ct, 5)
    assert (rep.n_p_rational, rep.n_p_prime_rational) == (2, 4)
    assert rep.n_union == 4
    assert rep.union_vs_bound == EQUAL
    assert rep.n_rational == 2


def test_alt5_report():
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    ct = character_table(group, table)
    rep = character_count_report(ct, 5)
    assert rep.n_p_rational == 3       # 1, 4, 5 are 5-rational
    assert rep.n_p_prime_rational == 5  # all values lie in Q(sqrt 5)
    assert rep.union_vs_bound == GREATER


def test_rationality_flag_consistency(tables):
    _, table, ct = tables("sl2(5)")
    for p in (2, 3, 5):
        for f in classify_rationality(ct, p):
            assert f.is_rational == (f.is_p_rational and f.is_p_prime_rational)
            if f.is_rational:
                assert f.is_Qp_valued


def test_galois_action_permutes_rows(tables):
    _, table, ct = tables("psl2(7)")
    e = ct.exponent
    row_keys = sorted(tuple((v.support, v.mults) for v in row)
                      for row in ct.values)
    for k in range(1, e):
        if gcd(k, e) != 1:
            continue
        mapped = sorted(tuple((w.support, w.mults)
                              for w in (v.galois(k) for v in row))
                        for row in ct.values)
        assert mapped == row_keys


def test_cyclotomic_coeffs_match_sympy():
    for n in list(range(1, 40)) + [105, 420, 546, 1010, 1155, 4920]:
        oracle = tuple(int(c) for c in reversed(
            sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs()))
        assert cyclotomic_coeffs(n) == oracle


def test_dixon_prime():
    assert dixon_prime(30, 60) == 31          # 31 = 1 mod 30, 31^2 > 240
    p = dixon_prime(7, 168)
    assert p % 7 == 1 and p * p > 4 * 168 and sympy.isprime(p)


def _reference_dixon_prime(e, n):
    """The least prime P = 1 (mod e) with P^2 > 4n, scanned from e + 1."""
    p = e + 1
    while not (p * p > 4 * n and sympy.isprime(p)):
        p += e
    return p


def _reference_aux_primes(e, needed):
    """The primes = 1 (mod e) from floor(2^26/e)*e + 1 up, until their
    product exceeds needed."""
    primes, p = [], (1 << 26) // e * e + 1
    while prod(primes) <= needed:
        if sympy.isprime(p):
            primes.append(p)
        p += e
    return primes


def test_prime_scan_keeps_the_dixon_and_auxiliary_primes():
    """P and the auxiliary primes Q of every in-cap table, and of psl2(128)
    (exponent 2*127*129, order 128(128^2 - 1), largest degree 129), are
    those of a scan from e + 1 and one from floor(2^26/e)*e + 1.  The Q
    bound is the one `_verify_exact_orthogonality` uses: the class sizes
    sum to n, so it is n * max(d)^2 + n."""
    cases = [(32766, 2_097_024, 129)]
    for entry in default_catalog():
        if harness.chartab_feasible(entry):
            ct = harness.character_table_for(entry.key)
            assert ct.modular_prime == dixon_prime(ct.exponent, entry.order)
            cases.append((ct.exponent, entry.order, max(ct.degrees)))
    assert len(cases) > 80
    assert dixon_prime(32766, 2_097_024) == 98_299
    for e, n, max_d in cases:
        assert dixon_prime(e, n) == _reference_dixon_prime(e, n)
        bound = n * max_d * max_d + n
        assert _aux_primes(e, bound) == _reference_aux_primes(e, bound)


def test_a_modulus_past_the_int64_bound_is_refused():
    """A sum of `terms` products of residues mod m must stay below 2^63:
    m - 1 = 3,037,000,499 is the largest residue whose square does."""
    _check_int64(3_037_000_500, 1)
    with pytest.raises(ResourceLimitError, match="modulus 3037000500"):
        _check_int64(3_037_000_500, 2)
    _check_int64(1 << 26, 2048)  # a Q near 2^26 allows 2048 characters
    with pytest.raises(ResourceLimitError, match="too large for int64"):
        _check_int64(1 << 26, 2049)
    # P > 2 sqrt(|G|) = 2e6 with 10^12 terms
    with pytest.raises(ResourceLimitError, match="too large for int64"):
        dixon_prime(1, 10**12)


def test_cycvalue_algebra(tables):
    _, _, ct = tables("alt(5)")
    e = ct.exponent
    units = [k for k in range(1, e) if gcd(k, e) == 1]
    for d, row in zip(ct.degrees, ct.values):
        for v in row:
            assert v.galois(1) == v
            assert v.galois(e - 1).galois(e - 1) == v  # complex conjugation
            for a, b in itertools.product(units, repeat=2):
                assert v.galois(a).galois(b) == v.galois(a * b % e)
            # the multiplicities count the d eigenvalues of a representation
            assert sum(v.mults) == d


def test_character_table_cache_roundtrip(tmp_path):
    group, _ = entry_by_key("psl2(7)").build()
    table = conjugacy_classes(group)
    ct = character_table(group, table)
    path = tmp_path / "chars.txt"
    save_character_table(ct, path)
    loaded = load_character_table(table, path)
    assert loaded.degrees == ct.degrees
    assert loaded.exponent == ct.exponent
    assert loaded.values == ct.values
    assert (loaded.mod_values == ct.mod_values).all()


def test_character_table_cache_detects_tampering(tmp_path):
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    ct = character_table(group, table)
    path = tmp_path / "chars.txt"
    save_character_table(ct, path)
    lines = path.read_text().splitlines()
    # bump the degree of a 3-dimensional character: its identity-class cell
    row = 6 + ct.degrees.index(3)
    cells = lines[row].split(" ")
    assert cells[0] == "3"
    lines[row] = " ".join(["4"] + cells[1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError, match="degree squares"):
        load_character_table(table, path)


@pytest.mark.xfail(strict=True, reason=(
    "a load checks no class matrix, and a column permutation that keeps the "
    "class sizes and commutes with the power maps passes every other check"))
def test_cache_load_refuses_a_column_permuted_table(tmp_path):
    """C3 x C3 = <(0 1 2), (3 4 5)>, with classes a^i b^j in canonical
    order (0,0), (0,1), (0,2), (1,0), (1,1), (1,2), (2,0), (2,1), (2,2):
    swapping the lines <(1,0)> and <(0,1)> point by point permutes the
    classes by [0, 3, 6, 1, 4, 5, 2, 7, 8].  The table mod P with its
    columns permuted to match is not the group's (chi(x) chi(y) = chi(xy)
    fails for some rows), and a load should refuse it."""
    group = PermGroup(6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]])
    table = conjugacy_classes(group)
    ct = character_table(group, table)
    swap = [0, 3, 6, 1, 4, 5, 2, 7, 8]
    assert [power_class_map(table, 2)[j] for j in swap] == \
        [swap[j] for j in power_class_map(table, 2)]
    path = tmp_path / "chars.txt"
    save_character_table(
        dataclasses.replace(ct, mod_values=ct.mod_values[:, swap]), path)
    with pytest.raises(ConsistencyError):
        load_character_table(table, path)


# ---------------------------------------------------------------------------
# the matrix-product lift and the Galois table against scalar references
# ---------------------------------------------------------------------------

def _reference_lift(ct):
    """The scalar discrete Fourier lift of ct.mod_values: on a class of order
    o (step e/o), m_s = (1/o) sum_u chi(g^u) z^(-step*s*u) mod P, one term at
    a time, with power maps from perm_power and the scalar class lookup."""
    table, e, P = ct.table, ct.exponent, ct.modular_prime
    z = _root_powers(P, e)
    power_class = [[table.class_of(perm_power(c.rep, u)) for u in range(c.order)]
                   for c in table.classes]
    values = []
    for r in range(len(ct)):
        row = []
        for j, c in enumerate(table.classes):
            o = c.order
            step = e // o
            f = [int(ct.mod_values[r][power_class[j][u]]) for u in range(o)]
            support, mults = [], []
            for sig in range(o):
                m = 0
                for u in range(o):
                    m = (m + f[u] * int(z[(e - step * sig) * u % e])) % P
                m = m * pow(o, -1, P) % P
                if m:
                    support.append(step * sig)
                    mults.append(m)
            row.append(CycValue(e, tuple(support), tuple(mults)))
        values.append(tuple(row))
    return tuple(values)


def _reference_exact_orthogonality(ct, sizes, n):
    """The exact check at every unit k mod e, without the Galois argument or
    the inverse classes: both Gram matrices of the values at zeta -> zq^k
    and zeta -> zq^-k, each value evaluated here as its dense multiplicity
    vector times the column of powers zq^(s*k), must be n I and
    n diag(1/|C_j|) mod each auxiliary prime, whose product exceeds the norm
    bound S on every conjugate of an inner product minus its constant."""
    e, K = ct.exponent, len(ct)
    max_d = max(ct.degrees)
    mass_row = int(np.sum(sizes)) * max_d * max_d
    mass_col = sum(d * d for d in ct.degrees)
    bound = max(mass_row, mass_col) + n
    ids = {}
    value_id = np.array([[ids.setdefault(v, len(ids)) for v in row]
                         for row in ct.values], dtype=np.int64)
    dense = np.zeros((len(ids), e), dtype=np.int64)
    for value, v in ids.items():
        dense[v, list(value.support)] = value.mults
    units = np.array(_listed_units(e), dtype=np.int64)
    s = np.arange(e)
    eye = np.eye(K, dtype=np.int64)
    step = max(1, CHUNK // (K * K))
    for Q in _aux_primes(e, bound):
        z = _root_powers(Q, e)
        size_inv = np.array([pow(int(c), -1, Q) for c in sizes], dtype=np.int64)
        for lo in range(0, len(units), step):
            k = units[lo:lo + step]
            # [unit][character][class] at zeta -> zq^k and zeta -> zq^-k
            A = (dense @ z[np.outer(s, k) % e] % Q).T[:, value_id]
            B = (dense @ z[np.outer(s, -k) % e] % Q).T[:, value_id]
            gram = (A * sizes % Q) @ B.transpose(0, 2, 1) % Q
            if not (gram == (n % Q) * eye).all():
                raise ConsistencyError("exact row orthogonality failed")
            if not (A.transpose(0, 2, 1) @ B % Q
                    == (n % Q) * size_inv % Q * eye).all():
                raise ConsistencyError("exact column orthogonality failed")


def _reference_fixed(ct, ks):
    """{k: per character, fixed by sigma_k}, by CycValue.galois on each
    distinct value of the table."""
    distinct = {v: i for i, v in enumerate(dict.fromkeys(
        v for row in ct.values for v in row))}
    rows = [[distinct[v] for v in row] for row in ct.values]
    out = {}
    for k in ks:
        fixed = [v.galois(k) == v for v in distinct]
        out[k] = [all(fixed[i] for i in row) for row in rows]
    return out


def _reference_flags(ct, p, reference):
    """The flags read from reference = {k: per character, fixed by sigma_k}
    (see `_reference_fixed`) at every unit k of each subgroup {k = 1 mod m}
    of the units mod e."""
    e = ct.exponent
    e_p = p_part(e, p)

    def fixed(m):
        return [all(f) for f in zip(*(row for k, row in reference.items()
                                      if k % m == 1 % m))]

    return [RationalityFlags(*f) for f in zip(
        fixed(1), fixed(e // e_p), fixed(e_p), fixed(gcd(e, p)))]


@pytest.mark.parametrize("key", [e.key for e in default_catalog()])
def test_lift_and_galois_table_match_scalar_references(key):
    group, _ = harness.built_entry(key)
    table = harness.class_table_for(key)
    if not harness.chartab_feasible(entry_by_key(key)):
        with pytest.raises(ResourceLimitError):
            character_table(group, table)
        return
    ct = harness.character_table_for(key)
    assert ct.values == _reference_lift(ct)
    # the canonical row order: by degree, then by each value's dense
    # length-e multiplicity vector, class by class
    e = ct.exponent

    def dense(v):
        vec = [0] * e
        for s, m in zip(v.support, v.mults):
            vec[s] = m
        return vec

    keys = [(d, [dense(v) for v in row]) for d, row in zip(ct.degrees, ct.values)]
    assert keys == sorted(keys)
    sizes = np.array(table.sizes, dtype=np.int64)
    _verify_exact_orthogonality(ct)
    _reference_exact_orthogonality(ct, sizes, group.order)
    # sigma_k of the lift is the lift read along g -> g^k: for k = -1 the
    # complex conjugate at the inverse class, which `_gram` reads in place of
    # an evaluation at zeta -> z^-1, and for each generator of the units
    gens = [g for local in _unit_generators(e).values() for g in local]
    for k in [e - 1] + gens:
        at = power_class_map(table, k)
        assert all(row[at[j]] == v.galois(k)
                   for row in ct.values for j, v in enumerate(row))
    # the closure of the generators' permutations is {pi_k : k a unit}, and
    # the rows it finds fixed at pi_k are those sigma_k fixes, at every unit
    units = _listed_units(e)
    reference = _reference_fixed(ct, units)
    units_read, perms, rows_fixed, _ = ct._galois
    index = {tuple(pi): i for i, pi in enumerate(perms.tolist())}
    assert len(index) == len(perms) == len(units_read)
    for k in units:
        i = index[tuple(power_class_map(table, k))]
        assert rows_fixed[i].tolist() == reference[k]
    assert set(index) == {tuple(power_class_map(table, k)) for k in units}
    for k, pi in zip(units_read, perms.tolist()):
        assert power_class_map(table, k) == pi
    for p in factorize(group.order).primes():
        assert classify_rationality(ct, p) == _reference_flags(ct, p, reference)


def _closure(gens, e):
    """The closure of {1} under multiplication by gens mod e."""
    reached, frontier = {1 % e}, {1 % e}
    while frontier:
        frontier = {x * g % e for x in frontier for g in gens} - reached
        reached |= frontier
    return reached


def test_grouped_unit_generators_generate_each_subgroup():
    """For each e <= 300 the generators, none of them 1, are grouped by the
    primes p | e.  The flags read {k = 1 mod m} on the generators that are
    1 mod m (`_fixed_by`), so for each such p and m = 1, e/e_p, e_p and p
    those must generate it in the units mod e, listed here by gcd: all
    generators give the units, those at p give {k = 1 mod e/e_p}, those at
    the other primes {k = 1 mod e_p}, and the Q_p set {k = 1 mod p}."""
    for e in range(1, 301):
        grouped = _unit_generators(e)
        assert list(grouped) == list(factorize(e).primes())
        every = [g for local in grouped.values() for g in local]
        assert 1 % e not in every
        units = _listed_units(e)

        def one_mod(m):
            return [g for g in every if g % m == 1 % m]

        assert one_mod(1) == every
        assert sorted(_closure(every, e)) == units
        for p, at_p in grouped.items():
            e_p = p_part(e, p)
            assert one_mod(e // e_p) == at_p
            assert one_mod(e_p) == [g for g in every if g not in at_p]
            for m in (e // e_p, e_p, p):
                assert sorted(_closure(one_mod(m), e)) == \
                    [k for k in units if k % m == 1 % m], (e, p, m)


def test_root_powers_are_the_powers_of_z():
    """The outer-product powers equal one pow per power, and are read-only:
    at P and at every auxiliary prime Q of alt(5), of frobenius(101,10)
    (e = 1010) and of the trivial group (e = 1)."""
    trivial = PermGroup(2, [np.arange(2)])
    cts = [harness.character_table_for(key)
           for key in ("alt(5)", "frobenius(101,10)")]
    cts.append(character_table(trivial, conjugacy_classes(trivial)))
    for ct in cts:
        e, n = ct.exponent, ct.table.group.order
        bound = n * max(ct.degrees) ** 2 + n
        for p in [ct.modular_prime] + _aux_primes(e, bound):
            powers = _root_powers(p, e)
            z = pow(primitive_root(p), (p - 1) // e, p)
            assert powers.tolist() == [pow(z, t, p) for t in range(e)]
            assert not powers.flags.writeable
    assert cts[-1].exponent == 1


def test_galois_closure_of_an_exponent_past_the_cap():
    """psl2(263) (e = 4,547,796, phi(e) = 1,362,400 units, 134 classes; no
    character table at this class count) has 2,600 distinct class
    permutations pi_k, each fixing the identity class, and the closure of
    its generators' permutations finds every one: pi_k of 1,000 seeded
    random units k is among them."""
    table = harness.class_table_for("psl2(263)")
    e = table.exponent
    units, perms, _ = _galois_closure(table)
    assert perms.shape == (2600, 134) == (len(units), len(table))
    assert (perms[:, 0] == 0).all()
    found = {pi.tobytes() for pi in perms}
    assert len(found) == 2600
    rng = np.random.default_rng(263)
    checked = 0
    while checked < 1000:
        k = int(rng.integers(1, e))
        if gcd(k, e) == 1:
            pi = np.array(power_class_map(table, k), dtype=perms.dtype)
            assert pi.tobytes() in found
            checked += 1


@st.composite
def _cyclotomic_integers(draw):
    """(e, c) for beta = sum_s c[s] zeta^s: integer multiples of vanishing
    sums zeta^a (1 + zeta^(e/p) + ... + zeta^((p-1)e/p)), p a prime dividing
    e, optionally perturbed at one index."""
    e = draw(st.integers(1, 60))
    c = [0] * e
    primes = factorize(e).primes()
    for _ in range(draw(st.integers(0, 5)) if primes else 0):
        p = draw(st.sampled_from(primes))
        a = draw(st.integers(0, e - 1))
        mult = draw(st.integers(-20, 20))
        for t in range(p):
            c[(a + t * (e // p)) % e] += mult
    if draw(st.booleans()):
        c[draw(st.integers(0, e - 1))] += draw(st.integers(-3, 3))
    return e, c


def _reduce_mod_cyclotomic(c, e):
    """The coefficients of sum_s c[s] x^s mod Phi_e, by long division."""
    phi = cyclotomic_coeffs(e)  # monic, constant first
    deg = len(phi) - 1
    r = list(c)
    for top in range(len(r) - 1, deg - 1, -1):
        q = r[top]
        for i, f in enumerate(phi):
            r[top - deg + i] -= q * f
    return r[:deg]


@settings(max_examples=300, deadline=None)
@given(_cyclotomic_integers())
def test_norm_bound_decides_vanishing(case):
    """|sigma(beta)| <= S = sum |c_s| for every conjugate, so beta vanishes
    mod primes Q = 1 (mod e) of product > S at every embedding zeta -> z^k,
    k a unit, iff beta = 0, i.e. iff sum c_s x^s is 0 mod Phi_e: both for
    the primes of `_aux_primes(e, S)` and for the least single prime Q > S."""
    e, c = case
    S = sum(map(abs, c))
    least = next(q for q in itertools.count(S + 1)
                 if q % e == 1 % e and sympy.isprime(q))
    is_zero = not any(_reduce_mod_cyclotomic(c, e))
    for primes in (_aux_primes(e, S), [least]):
        assert np.prod(primes, dtype=object) > S
        vanishes = all(
            sum(cs * int(z[s * k % e]) for s, cs in enumerate(c)) % Q == 0
            for Q in primes for z in [_root_powers(Q, e)]
            for k in _listed_units(e))
        assert vanishes == is_zero


def test_exact_orthogonality_rejects_a_galois_conjugate_cell(tables):
    """sigma_k on one cell of class j moves its multiplicity at s to
    s*k mod o_j; the mod-P rows still permute under the unit generators, and
    the Gram at zeta -> z must refuse the exact values."""
    _, table, ct = tables("alt(5)")
    _verify_exact_orthogonality(ct)
    e = ct.exponent
    r, j, k = next((r, j, k) for r, row in enumerate(ct.values)
                   for j, v in enumerate(row) for k in range(2, e)
                   if gcd(k, e) == 1 and v.galois(k) != v)
    mults = [m.copy() for m in ct.mults]
    o = mults[j].shape[1]
    mults[j][r, np.arange(o) * k % o] = ct.mults[j][r]
    conjugated = dataclasses.replace(ct, mults=tuple(mults))
    assert conjugated.values[r][j] == ct.values[r][j].galois(k)
    with pytest.raises(ConsistencyError, match="exact row orthogonality"):
        _verify_exact_orthogonality(conjugated)


def test_exact_orthogonality_rejects_rows_not_closed_under_galois(tables):
    """Swapping the two order-7 columns in one row of psl2(7)'s table (values
    and mod-P values alike) makes it equal to the other 3-dimensional
    character: the unit generator acting as a primitive root mod 7 swaps
    those classes and no longer maps the rows onto the rows, and the
    per-unit reference fails as well."""
    _, table, ct = tables("psl2(7)")
    sizes = np.array(table.sizes, dtype=np.int64)
    a, b = [j for j, c in enumerate(table.classes) if c.order == 7]
    r = next(r for r, row in enumerate(ct.values) if row[a] != row[b])
    mults = [m.copy() for m in ct.mults]
    mults[a][r], mults[b][r] = ct.mults[b][r], ct.mults[a][r]
    mod_values = ct.mod_values.copy()
    mod_values[r, [a, b]] = mod_values[r, [b, a]]
    swapped = dataclasses.replace(ct, mults=tuple(mults), mod_values=mod_values)
    assert swapped.values[r][a] == ct.values[r][b]
    with pytest.raises(ConsistencyError, match="does not permute the rows"):
        _verify_exact_orthogonality(swapped)
    with pytest.raises(ConsistencyError, match="exact row orthogonality"):
        _reference_exact_orthogonality(swapped, sizes, table.group.order)


def test_character_values_cannot_be_edited_in_place(tables):
    """The Galois table and the exact values are cached on first use, so the
    multiplicities and the values mod P they are read from are immutable:
    an in-place cell edit raises instead of leaving a cache stale."""
    _, _, ct = tables("alt(5)")

    def galois():
        units, perms, rows_fixed, at = ct._galois
        return units, perms.tolist(), rows_fixed.tolist(), at

    before = galois()
    values = ct.values
    with pytest.raises(TypeError):
        ct.values[1][1] = ct.values[1][1].galois(7)
    with pytest.raises(ValueError):
        ct.mod_values[0, 0] = 1
    with pytest.raises(ValueError):
        ct.mults[1][1, 0] += 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ct.values = ()
    assert ct.values is values
    assert ct.values == dataclasses.replace(ct).values
    assert galois() == before


def test_lift_rejects_a_degree_cell_too_small(tables):
    """One less in a row's identity cell, and so in its degree: the
    identity class lifts, and at every other class the multiplicities still
    sum to the degree and reproduce the value, but each is shifted by
    -1/o mod P, far out of range."""
    _, table, ct = tables("alt(5)")
    mod_values = ct.mod_values.copy()
    r = ct.degrees.index(4)
    mod_values[r, 0] -= 1
    with pytest.raises(ConsistencyError, match="multiplicity out of range"):
        _lift(mod_values, mod_values[:, 0].tolist(), table.power,
              ct.exponent, ct.modular_prime)


def test_lift_rejects_multiplicities_not_summing_to_the_degree(tables):
    """alt(5)'s character of degree 4 vanishes on the involutions.  A power
    list for their class that starts at the class itself instead of the
    identity lifts that 0 to all-zero multiplicities: in range, and the value
    reproduces, but they sum to 0, not 4.  That row is lifted alone, since
    the rows that do not vanish there leave the range first."""
    _, table, ct = tables("alt(5)")
    j = next(j for j, c in enumerate(table.classes) if c.order == 2)
    r = ct.degrees.index(4)
    assert ct.mod_values[r, j] == 0
    power = list(table.power)
    power[j] = np.full(2, j)
    with pytest.raises(ConsistencyError, match="do not sum to the degree"):
        _lift(ct.mod_values[[r]], [4], power, ct.exponent, ct.modular_prime)


def test_lift_rejects_a_lift_that_does_not_reproduce_the_value(tables):
    """Class a of order 5 given the power list of the other class b of
    order 5: its multiplicities are b's, in range and summing to the degree,
    but they evaluate to chi(b), which differs from chi(a) on the
    characters of degree 3."""
    _, table, ct = tables("alt(5)")
    a, b = [j for j, c in enumerate(table.classes) if c.order == 5]
    power = list(table.power)
    power[a] = table.power[b]
    with pytest.raises(ConsistencyError, match="does not reproduce"):
        _lift(ct.mod_values, ct.degrees, power, ct.exponent, ct.modular_prime)


def test_brauer_cross_check_rejects_a_wrong_power_map(tables):
    """On psl2(7) (e = 84) sigma_k swaps the two classes of order 7 for
    every k that is a non-square mod 7; a power table in which one of them
    is fixed by every power map must fail the check, at a permutation whose
    unit is such a k."""
    _, table, ct = tables("psl2(7)")
    j = next(j for j, c in enumerate(table.classes) if c.order == 7)
    tampered = copy.copy(table)
    tampered.power = list(table.power)
    tampered.power[j] = np.full(7, j)
    tampered.power[j][0] = 0
    with pytest.raises(ConsistencyError, match="Brauer count mismatch") as err:
        brauer_cross_check(dataclasses.replace(ct, table=tampered))
    k = int(re.search(r"at k=(\d+):", str(err.value)).group(1))
    assert k % 7 in (3, 5, 6)


def test_brauer_cross_check_counts_2_rational_characters(tables):
    """alt(4) has e = 6, so e_2 = 2 and the check runs at p = 2, where the
    2-rational characters are those fixed by {k = 1 mod 3} = {1}.  A power
    table in which g -> g^k swaps the two classes of order 3 at every unit
    k, 1 included, passes every per-unit count (2 characters and 2 classes
    fixed, both read along that swap) and the counts at p = 3 (k_3' = 2),
    but its 2 classes fixed by {1} are fewer than the k_2' = 3 classes of
    odd order."""
    _, table, ct = tables("alt(4)")
    brauer_cross_check(ct)
    a, b = [j for j, c in enumerate(table.classes) if c.order == 3]
    tampered = copy.copy(table)
    tampered.power = list(table.power)
    tampered.power[a] = np.array([0, b, b])
    tampered.power[b] = np.array([0, a, a])
    with pytest.raises(ConsistencyError, match="below k_p' at p=2$"):
        brauer_cross_check(dataclasses.replace(ct, table=tampered))


# ---------------------------------------------------------------------------
# the eigen-split against the elimination it replaced
# ---------------------------------------------------------------------------

def _reference_class_matrix(table, i):
    """All of M_i, (M_i)[j][k] = #{(x, y) in C_i x C_j : x y = z_k}, by
    columns: over the members x of C_i, column k counts the classes of
    x^-1 z_k, one rank call per column."""
    K = len(table.classes)
    index = table.group.chain.index
    rep_base = np.stack([c.rep[index.base] for c in table.classes])
    members = np.flatnonzero(table.class_id == i)
    M = np.zeros((K, K), dtype=np.int64)
    for start in range(0, len(members), CHUNK):
        xinv = inverse_rows(index.unrank(members[start:start + CHUNK]))
        for k in range(K):
            ranks = index.rank(xinv[:, rep_base[k]])
            M[:, k] += np.bincount(table.class_id[ranks], minlength=K)
    return M


@pytest.mark.parametrize("key", [e.key for e in default_catalog()
                                 if e.order <= 20_000])
def test_class_matrix_rows_match_the_column_reference(key):
    """Every row of every class matrix, and a descending subset of rows,
    against the column reference, on each entry of order <= 20,000.  The
    larger in-cap entries meet the reference through
    `test_eigen_split_matches_reference_elimination`."""
    table = harness.class_table_for(key)
    K = len(table.classes)
    some = np.arange(K)[::-2]  # a subset, descending
    for i in range(K):
        M = _reference_class_matrix(table, i)
        assert (class_matrix(table, i, range(K)) == M).all()
        assert (class_matrix(table, i, some) == M[some]).all()


def test_class_matrix_rejects_counts_not_divisible_by_the_class_size(tables):
    """Moving one member of an order-5 class of alt(5) into the other leaves
    11 members: row 0 of M_i then counts 11 products in a class of 12."""
    _, table, _ = tables("alt(5)")
    a, b = [j for j, c in enumerate(table.classes) if c.order == 5]
    assert (class_matrix(table, a, [0]) == np.eye(len(table))[a]).all()
    class_id = table.class_id.copy()
    class_id[np.flatnonzero(class_id == a)[0]] = b
    moved = ClassTable(table.group, table.classes, class_id)
    with pytest.raises(ConsistencyError, match="not integers"):
        class_matrix(moved, a, [0])


def test_character_table_rejects_rows_of_another_class(monkeypatch):
    """alt(5)'s first class by size is 5A, and M_5B alone splits every
    character, so rows of M_5B served for 5A split the space into the right
    eigenvectors; but their eigenvalue is w[5B], not w[5A], and the check at
    the computed rows must refuse the table."""
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    a, b = [j for j, c in enumerate(table.classes) if c.order == 5]
    swap = {a: b, b: a}
    engine = chartab.class_matrix
    monkeypatch.setattr(chartab, "class_matrix",
                        lambda t, i, rows: engine(t, swap.get(i, i), rows))
    with pytest.raises(ConsistencyError, match="at its computed rows"):
        character_table(group, table)


def _reference_solve_coords(B, Y, p):
    """X with B X = Y (mod p), one column of Y at a time, by scalar
    Gauss-Jordan elimination on [B | y]."""
    K, m = B.shape
    X = np.zeros((m, Y.shape[1]), dtype=np.int64)
    for c in range(Y.shape[1]):
        aug = [[int(x) % p for x in B[r]] + [int(Y[r, c]) % p] for r in range(K)]
        for col in range(m):
            piv = next((r for r in range(col, K) if aug[r][col]), None)
            if piv is None:
                raise ConsistencyError("basis matrix is column-rank deficient")
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = pow(aug[col][col], -1, p)
            aug[col] = [x * inv % p for x in aug[col]]
            for r in range(K):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
        if any(aug[r][m] for r in range(m, K)):
            raise ConsistencyError("inconsistent linear system (not invariant)")
        X[:, c] = [aug[r][m] for r in range(m)]
    return X


def _reference_roots(coeffs, p):
    """{root: multiplicity} over GF(p): the roots by a scan of GF(p), each
    multiplicity by repeated deflation."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % p
    roots = {}
    for r in np.flatnonzero(vals == 0).tolist():
        cur = list(coeffs)
        while len(cur) > 1:
            acc, quotient = 0, []
            for c in reversed(cur):
                acc = (acc * r + c) % p
                quotient.append(acc)
            if acc:
                break
            cur = quotient[-2::-1]
            roots[r] = roots.get(r, 0) + 1
    return roots


def _reference_nullspace(A, p):
    """Columns spanning ker(A) mod p, by scalar Gauss-Jordan elimination."""
    m = len(A)
    M = [[int(x) % p for x in row] for row in A]
    pivots = {}
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, m) if M[r][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][col], -1, p)
        M[row] = [x * inv % p for x in M[row]]
        for r in range(m):
            if r != row and M[r][col]:
                f = M[r][col]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[row])]
        pivots[col] = row
        row += 1
    free = [c for c in range(m) if c not in pivots]
    basis = np.zeros((m, len(free)), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[fc][idx] = 1
        for col, prow in pivots.items():
            basis[col][idx] = -M[prow][fc] % p
    return basis


def _reference_degrees_and_mod_values(table, P):
    """Degrees and mod-P character values as (degree, row) pairs, sorted:
    the eigen-split with algebraic multiplicities by deflation, both
    checks of the split, and the normalization of `character_table`."""
    K, n = len(table.classes), table.group.order
    subspaces = [np.eye(K, dtype=np.int64)]
    for i in sorted(range(1, K), key=lambda i: (table.classes[i].size, i)):
        if all(B.shape[1] == 1 for B in subspaces):
            break
        M = _reference_class_matrix(table, i) % P
        refined = []
        for B in subspaces:
            m = B.shape[1]
            if m == 1:
                refined.append(B)
                continue
            X = _reference_solve_coords(B, M @ B % P, P)
            roots = _reference_roots(_charpoly_mod(X, P), P)
            assert sum(roots.values()) == m, "not split over GF(P)"
            for lam in sorted(roots):
                ns = _reference_nullspace((X - lam * np.eye(m, dtype=np.int64)) % P, P)
                assert ns.shape[1] == roots[lam], "eigenspace dimension mismatch"
                refined.append(B @ ns % P)
        subspaces = refined
    assert all(B.shape[1] == 1 for B in subspaces)
    inv_class = [table.class_of(np.argsort(c.rep)) for c in table.classes]
    sizes = [c.size for c in table.classes]
    rows = []
    for B in subspaces:
        w = [int(x) * pow(int(B[0, 0]), -1, P) % P for x in B[:, 0]]
        s = sum(w[j] * w[inv_class[j]] * pow(sizes[j], -1, P) for j in range(K)) % P
        d_sq = n * pow(s, -1, P) % P
        d = next(x for x in divisors(n) if x * x <= n and x * x % P == d_sq)
        rows.append((d, tuple(d * w[j] * pow(sizes[j], -1, P) % P
                              for j in range(K))))
    return sorted(rows)


@pytest.mark.parametrize("key", [e.key for e in default_catalog()])
def test_eigen_split_matches_reference_elimination(key):
    if not harness.chartab_feasible(entry_by_key(key)):
        return
    ct = harness.character_table_for(key)
    rows = sorted(zip(ct.degrees, map(tuple, ct.mod_values.tolist())))
    assert _reference_degrees_and_mod_values(ct.table, ct.modular_prime) == rows


def _matrix(draw, p, rows, cols):
    """A random rows x cols matrix over GF(p)."""
    n = rows * cols
    return np.array(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
                    dtype=np.int64).reshape(rows, cols)


def _full_rank(draw, p, K, m):
    """A random K x m matrix B of rank m over GF(p), the rows of L [U; R]
    permuted (L, U unit triangular), and the permuted L: its columns m..K-1
    lie outside the column space of B, since U x = 0 forces x = 0."""
    L = np.tril(_matrix(draw, p, K, K), -1) + np.eye(K, dtype=np.int64)
    U = np.triu(_matrix(draw, p, m, m), 1) + np.eye(m, dtype=np.int64)
    perm = np.array(draw(st.permutations(range(K))))
    B = (L @ np.vstack([U, _matrix(draw, p, K - m, m)]) % p)[perm]
    return B, L[perm]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(0, 3),
       st.integers(1, 3), st.data())
def test_solve_coords_recovers_x_and_raises_both_errors(p, m, extra, cols, data):
    K = m + extra
    B, outside = _full_rank(data.draw, p, K, m)
    X = _matrix(data.draw, p, m, cols)
    Y = B @ X % p
    assert (_solve_coords(B, Y, p) == X).all()
    assert (_reference_solve_coords(B, Y, p) == X).all()
    if extra:
        bad = Y.copy()
        bad[:, data.draw(st.integers(0, cols - 1))] += \
            outside[:, data.draw(st.integers(m, K - 1))]
        with pytest.raises(ConsistencyError, match="not invariant"):
            _solve_coords(B, bad % p, p)
    if m > 1:
        dependent = B.copy()
        c = data.draw(st.integers(1, m - 1))
        dependent[:, c] = B[:, :c] @ _matrix(data.draw, p, c, 1)[:, 0] % p
        with pytest.raises(ConsistencyError, match="column-rank deficient"):
            _solve_coords(dependent, Y, p)


def _vectors(p, k):
    """Every vector of GF(p)^k, as the columns of a k x p^k matrix."""
    return np.array(list(itertools.product(range(p), repeat=k)),
                    dtype=np.int64).reshape(p ** k, k).T


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_nullspace_is_the_whole_kernel(p, rows, m, data):
    A = _matrix(data.draw, p, rows, m)
    N, free = _nullspace_mod(A, p)
    assert N.shape[0] == m and not (A @ N % p).any()
    assert (N[free] == np.eye(len(free), dtype=np.int64)).all()
    # by brute force over GF(p)^m: |ker A| = p^(m - rank A), and the
    # columns of N are independent, so they span all of it
    kernel_size = int((~(A @ _vectors(p, m) % p).any(axis=0)).sum())
    assert kernel_size == p ** N.shape[1]
    span = N @ _vectors(p, N.shape[1]) % p
    assert len({tuple(v) for v in span.T}) == kernel_size
    if rows == m:
        assert (N == _reference_nullspace(A, p)).all()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.integers(1, 4), st.integers(0, 3),
       st.data())
def test_eigen_split_reads_only_the_pivot_rows(p, m, extra, data):
    """M = [[A, 0], [R A, 0]] with A = S D S^-1 maps the span of
    B = [I_m; R] into itself (M B = B A); the parts split from the rows
    M[:m] alone are the eigenspaces of M on that span, each the identity at
    its pivot rows."""
    K = m + extra
    D = np.diag(data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    S, _ = _full_rank(data.draw, p, m, m)
    A = S @ D @ _reference_solve_coords(S, np.eye(m, dtype=np.int64), p) % p
    B = np.vstack([np.eye(m, dtype=np.int64), _matrix(data.draw, p, extra, m)])
    M = np.zeros((K, K), dtype=np.int64)
    M[:, :m] = B @ A % p
    assert (M @ B % p == B @ A % p).all()
    pivots = np.arange(m)
    parts = _eigen_split(B, pivots, M[pivots], p)
    assert sum(len(R) for _, R in parts) == m
    eigenvalues = []
    for part, R in parts:
        assert (part[R] == np.eye(len(R), dtype=np.int64)).all()
        lam = int((M @ part % p)[R[0], 0])
        assert (M @ part % p == lam * part % p).all()
        eigenvalues.append(lam)
    assert eigenvalues == sorted(set(np.diag(D).tolist()))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([5, 7, 11]), st.integers(1, 4), st.integers(0, 3),
       st.data())
def test_eigen_split_returns_a_scalar_subspace_unchanged(p, m, extra, data):
    """Rows M[:m] = [lam I, 0] of M = lam [I, 0; R, 0] give X = lam I on the
    span of B = [I_m; R]: the subspace comes back as it went in, with no
    characteristic polynomial, root scan or kernel; the coordinates are
    still solved, so a basis that is not the identity at its pivot rows is
    still refused."""
    def never(*args):
        raise AssertionError("eigen-solve on a scalar subspace")

    lam = data.draw(st.integers(0, p - 1))
    B = np.vstack([np.eye(m, dtype=np.int64), _matrix(data.draw, p, extra, m)])
    rows = np.zeros((m, m + extra), dtype=np.int64)
    rows[:, :m] = lam * np.eye(m, dtype=np.int64)
    pivots = np.arange(m)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_charpoly_mod", "_poly_roots_mod", "_nullspace_mod"):
            mp.setattr(chartab, name, never)
        [(part, R)] = _eigen_split(B, pivots, rows, p)
        assert part is B and R is pivots
        if m > 1:
            singular = B.copy()
            singular[1] = singular[0]
            with pytest.raises(ConsistencyError, match="rank deficient"):
                _eigen_split(singular, pivots, rows, p)


@pytest.mark.parametrize("M", [[[1, 1], [0, 1]],    # Jordan block: one eigenvector
                               [[0, 2], [1, 0]]])   # x^2 - 2 has no root mod 11
def test_eigen_split_rejects_a_matrix_not_diagonalizable(M):
    P = 11
    M = np.array(M, dtype=np.int64)
    B = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.int64)  # invariant in 3 dims
    pivots = np.arange(2)  # B[pivots] = I
    M3 = np.zeros((3, 3), dtype=np.int64)
    M3[:2, :2] = M
    M3[2, :2] = M.sum(axis=0)
    with pytest.raises(ConsistencyError, match="not diagonalizable over GF"):
        _eigen_split(B[:2], pivots, M[pivots], P)
    assert (M3 @ B % P == B @ M % P).all()
    with pytest.raises(ConsistencyError, match="not diagonalizable over GF"):
        _eigen_split(B, pivots, M3[pivots], P)
