"""Character tables: degrees, Galois actions, rationality counts, caching."""

import dataclasses
import itertools
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from regclass import chartab, harness
from regclass.catalog import default_catalog, entry_by_key
from regclass.chartab import (CHUNK, CycValue, RationalityFlags,
                              _aux_primes, _charpoly_mod,
                              _congruence_subgroup_generators, _eigen_split,
                              _evaluations, _intern, _nullspace_mod,
                              _reduction_height, _root_powers, _solve_coords,
                              _units,
                              _verify_exact_orthogonality, brauer_cross_check,
                              character_count_report, character_table,
                              class_matrix, classify_rationality,
                              cyclotomic_coeffs, dixon_prime,
                              galois_fixed_table, load_character_table,
                              save_character_table)
from regclass.numtheory import EQUAL, GREATER, divisors, factorize, p_part
from regclass.permgroup import (ClassTable, ConsistencyError,
                                ResourceLimitError, class_counts,
                                conjugacy_classes, galois_fixed_class_count,
                                inverse_rows, perm_power)

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
        assert v.is_rational_integer() and v.as_integer() == d
    # number of linear characters = index of the derived subgroup
    linear = sum(1 for d in ct.degrees if d == 1)
    known = {"alt(5)": 1, "sym(4)": 2, "psl2(7)": 1, "sl2(5)": 1,
             "frobenius(5,2)": 2}
    assert linear == known[key]


@pytest.mark.parametrize("key", ["alt(5)", "psl2(7)", "psl2(9)", "sym(5)",
                                 "sl2(5)", "frobenius(5,2)", "cyclic(12)",
                                 "dihedral(7)"])
def test_brauer_cross_check(tables, key):
    _, table, ct = tables(key)
    brauer_cross_check(table, ct)  # raises on any Galois mismatch


@pytest.mark.parametrize("key", ["alt(5)", "psl2(7)", "psl2(11)", "sl2(5)",
                                 "frobenius(5,2)", "dihedral(7)"])
def test_p_rational_count_matches_class_side(tables, key):
    group, table, ct = tables(key)
    for p in factorize(group.order).primes():
        if p == 2 or p_part(table.exponent, p) == 1:
            continue
        rep = character_count_report(ct, p)
        assert rep.n_p_rational == galois_fixed_class_count(table, p)
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


def test_cycvalue_algebra(tables):
    _, _, ct = tables("alt(5)")
    e = ct.exponent
    for row in ct.values:
        for v in row:
            assert v.galois(1) == v
            assert v.conjugate().conjugate() == v
            assert v.conjugate() == v.galois(e - 1)
            assert v.total_mass() <= sum(ct.degrees)


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


def test_character_table_cache_detects_tampering(tmp_path):
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    ct = character_table(group, table)
    path = tmp_path / "chars.txt"
    save_character_table(ct, path)
    lines = path.read_text().splitlines()
    # bump a character degree; the sum-of-squares check must catch it
    for i, ln in enumerate(lines):
        if ln.startswith("3 "):
            lines[i] = "4 " + ln[2:]
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception):
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
    """The exact check evaluated at every unit k mod e, without the Galois
    argument: both Gram matrices of the values at zeta -> zq^k and zeta ->
    zq^-k must be n I and n diag(1/|C_j|) mod each auxiliary prime."""
    e, K = ct.exponent, len(ct)
    max_d = max(ct.degrees)
    mass_row = int(np.sum(sizes)) * max_d * max_d
    mass_col = sum(d * d for d in ct.degrees)
    bound = 2 * (max(mass_row, mass_col) + n) * _reduction_height(e)
    distinct, value_id = _intern(ct.values)
    units = _units(e)
    conj = np.searchsorted(units, -units % e)  # column of -k for unit k
    eye = np.eye(K, dtype=np.int64)
    step = max(1, CHUNK // (K * K))
    for Q in _aux_primes(e, bound):
        at = np.concatenate([_evaluations(distinct, e, Q, units[i:i + 64])
                             for i in range(0, len(units), 64)], axis=1).T
        size_inv = np.array([pow(int(s), -1, Q) for s in sizes], dtype=np.int64)
        for lo in range(0, len(units), step):
            A = at[lo:lo + step][:, value_id]
            B = at[conj[lo:lo + step]][:, value_id]
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


def _reference_flags(ct, p):
    e = ct.exponent
    e_p = p_part(e, p)

    def fixed(m):
        gens = _congruence_subgroup_generators(e, m)
        return [all(f) for f in zip([True] * len(ct),
                                    *_reference_fixed(ct, gens).values())]

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
    sizes = np.array(table.sizes, dtype=np.int64)
    _verify_exact_orthogonality(ct)
    _reference_exact_orthogonality(ct, sizes, group.order)
    e = ct.exponent
    units = [k for k in range(1, max(e, 2)) if gcd(k, e) == 1]
    for k, fixed in _reference_fixed(ct, units).items():
        assert ct.fixed_count(k) == sum(fixed)
    for p in factorize(group.order).primes():
        assert classify_rationality(ct, p) == _reference_flags(ct, p)


@st.composite
def _cyc_values(draw):
    """Random values mod a random exponent, some summed over the orbit of a
    unit so that they are fixed by it."""
    e = draw(st.integers(1, 60))
    units = [k for k in range(e) if gcd(k, e) == 1]
    values = []
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.dictionaries(st.integers(0, e - 1), st.integers(1, 3),
                                     max_size=6))
        if draw(st.booleans()):
            h = draw(st.sampled_from(units))
            orbit = {}
            for s, m in cells.items():
                t = s
                while True:
                    orbit[t] = orbit.get(t, 0) + m
                    t = t * h % e
                    if t == s:
                        break
            cells = orbit
        support = tuple(sorted(cells))
        values.append(CycValue(e, support, tuple(cells[s] for s in support)))
    return e, values


@settings(max_examples=300, deadline=None)
@given(_cyc_values())
def test_galois_fixed_table_matches_galois(case):
    e, values = case
    units, fixed = galois_fixed_table(values, e)
    assert units.tolist() == [k for k in range(e) if gcd(k, e) == 1]
    expected = [[v.galois(int(k)) == v for k in units] for v in values]
    assert fixed.tolist() == expected


def test_exact_orthogonality_rejects_a_galois_conjugate_cell(tables):
    _, table, ct = tables("alt(5)")
    _verify_exact_orthogonality(ct)
    e = ct.exponent
    r, j, k = next((r, j, k) for r, row in enumerate(ct.values)
                   for j, v in enumerate(row) for k in range(2, e)
                   if gcd(k, e) == 1 and v.galois(k) != v)
    values = [list(row) for row in ct.values]
    values[r][j] = values[r][j].galois(k)
    with pytest.raises(ConsistencyError, match="exact row orthogonality"):
        _verify_exact_orthogonality(dataclasses.replace(ct, values=values))


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
    values = [list(row) for row in ct.values]
    values[r][a], values[r][b] = values[r][b], values[r][a]
    mod_values = ct.mod_values.copy()
    mod_values[r, [a, b]] = mod_values[r, [b, a]]
    swapped = dataclasses.replace(ct, values=values, mod_values=mod_values)
    with pytest.raises(ConsistencyError, match="does not permute the rows"):
        _verify_exact_orthogonality(swapped)
    with pytest.raises(ConsistencyError, match="exact row orthogonality"):
        _reference_exact_orthogonality(swapped, sizes, table.group.order)


def test_character_values_cannot_be_edited_in_place(tables):
    """The Galois table is cached on first use, so the values it was read
    from are immutable: an in-place cell edit raises instead of leaving the
    cache stale."""
    _, _, ct = tables("alt(5)")
    counts = [ct.fixed_count(k) for k in (1, 7, 11)]
    with pytest.raises(TypeError):
        ct.values[1][1] = ct.values[1][1].galois(7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ct.values = ()
    assert [ct.fixed_count(k) for k in (1, 7, 11)] == counts


def test_brauer_cross_check_rejects_a_wrong_power_map(tables):
    """On psl2(7) (e = 84) sigma_5 swaps the two classes of order 7; a
    power table in which one of them is fixed by every power map must fail
    the check."""
    _, table, ct = tables("psl2(7)")
    j = next(j for j, c in enumerate(table.classes) if c.order == 7)
    power = list(ct.power)
    power[j] = np.full(7, j)
    power[j][0] = 0
    with pytest.raises(ConsistencyError, match="Brauer count mismatch at k=5"):
        brauer_cross_check(table, dataclasses.replace(ct, power=power))


def test_brauer_cross_check_rejects_a_foreign_class_table(tables):
    """The class side reads the power table stored with the character
    table, so a class table other than the one it was built on is refused."""
    group, _, ct = tables("psl2(7)")
    with pytest.raises(ValueError, match="another class table"):
        brauer_cross_check(conjugacy_classes(group), ct)


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
