"""Catalog constructions: orders, outer actions, matrix helpers."""

import hashlib
import re
from math import gcd

import pytest

from regclass import catalog, gf
from regclass.catalog import (default_catalog, entry_by_key, family_order,
                              projective_points, sl2_center)
from regclass.permgroup import (PermGroup, compose, conjugacy_classes,
                                conjugate, inverse, is_identity,
                                perm_from_cycles)


def test_catalog_size_and_uniqueness():
    entries = default_catalog()
    assert len(entries) >= 60
    keys = [e.key for e in entries]
    assert len(keys) == len(set(keys))
    # one catalog: the largest groups are ordinary entries
    assert {"psl2(243)", "psl2(256)", "psl3_with_duality(8)"} <= set(keys)


@pytest.mark.parametrize("key", [e.key for e in default_catalog()])
def test_build_order_matches_formula(key):
    entry = entry_by_key(key)
    group, conjs = entry.build()
    assert group.order == entry.order
    for c in conjs:
        assert group.normality_witness(c) is None


def test_a_conjugator_that_fails_to_normalize_is_named(monkeypatch):
    """A builder whose conjugator (0 1) does not normalize C4 is refused,
    and the error names the 4-cycle and its conjugate."""
    group, _ = catalog._build_cyclic(4)
    c = perm_from_cycles([[0, 1]], 4)
    monkeypatch.setitem(catalog._BUILDERS, "cyclic", lambda n: (group, [c]))
    (g,) = group.generators
    conj = conjugate(c, g, inverse(c))
    with pytest.raises(RuntimeError, match=re.escape(
            f"generator {g.tolist()} goes to {conj.tolist()}")):
        catalog._build_checked.__wrapped__("cyclic", (4,))


def test_every_entry_has_at_most_two_generators():
    assert [e.key for e in default_catalog()
            if len(e.build()[0].generators) > 2] == []


@pytest.mark.parametrize("key", ["psl2(8)", "pgammal2(9)", "sp4(2)", "sp4(3)"])
def test_class_table_does_not_depend_on_generators(key):
    group, _ = entry_by_key(key).build()
    a, b = group.generators
    wider = PermGroup(group.degree, [a, b, compose(a, b), inverse(a)])

    def rows(g):
        return [(c.size, c.order, c.rep.tolist())
                for c in conjugacy_classes(g).classes]

    assert rows(wider) == rows(group)


def test_family_order_values():
    assert family_order("psl2", (7,)) == 168
    assert family_order("psl2", (8,)) == 504
    assert family_order("pgl2", (5,)) == 120
    assert family_order("sl2", (5,)) == 120
    assert family_order("psl3_with_duality", (4,)) == 20160
    assert family_order("sp4", (3,)) == 25920
    assert family_order("sym", (6,)) == 720
    assert family_order("frobenius", (17, 4)) == 68
    with pytest.raises(ValueError):
        family_order("unknown", (1,))


def test_entry_by_key_errors():
    with pytest.raises(KeyError):
        entry_by_key("psl2(6)")
    assert entry_by_key("psl2(243)").order == 243 * (243**2 - 1) // 2


def test_simple_and_solvable_flags():
    assert entry_by_key("alt(5)").simple
    assert not entry_by_key("alt(4)").simple
    assert entry_by_key("alt(4)").solvable
    assert entry_by_key("sym(4)").solvable
    assert not entry_by_key("sym(5)").solvable
    assert entry_by_key("sl2(3)").solvable
    assert not entry_by_key("sl2(5)").solvable


def test_sl2_center_is_central():
    for q in (5, 9):
        group, _ = entry_by_key(f"sl2({q})").build()
        (z,) = sl2_center(q)
        assert group.contains(z)
        assert not is_identity(z)
        assert is_identity(compose(z, z))
        for g in group.generators:
            assert (conjugate(g, z, inverse(g)) == z).all()


def test_frobenius_conjugator_is_outer():
    # |PGammaL2(8) : PSL2(8)| = 3: the field conjugator is not in the group
    group, conjs = entry_by_key("psl2(8)").build()
    assert len(conjs) == 1
    assert not group.contains(conjs[0])


def test_psl3_duality_conjugator_swaps_points_and_lines():
    group, conjs = entry_by_key("psl3_with_duality(2)").build()
    duality = conjs[-1]
    n = group.degree // 2
    assert all(int(duality[i]) == n + i for i in range(n))


def test_projective_point_count():
    for ell, f, dim in [(2, 1, 2), (3, 1, 2), (2, 2, 3), (5, 1, 3)]:
        F = gf.make_field(ell, f)
        q = F.q
        expected = (q**dim - 1) // (q - 1)
        assert len(projective_points(F, dim)) == expected


def _reference_projective_points(F, dim):
    """Every code below q^dim decoded, coordinate t its base-q digit t,
    keeping the vectors whose first nonzero coordinate is 1."""
    points = []
    for code in range(F.q**dim):
        v = []
        for _ in range(dim):
            code, r = divmod(code, F.q)
            v.append(r)
        if next((x for x in v if x != F.zero), None) == F.one:
            points.append(v)
    return points


def test_projective_points_match_the_full_enumeration(monkeypatch):
    """On every (field, dimension) that a catalog builder asks for."""
    used = set()

    def recorded(F, dim):
        used.add((F.ell, F.f, dim))
        return projective_points(F, dim)

    monkeypatch.setattr(catalog, "projective_points", recorded)
    for entry in default_catalog():
        catalog._BUILDERS[entry.family](*entry.params)
    assert (2, 8, 2) in used and (2, 1, 4) in used
    for ell, f, dim in sorted(used):
        F = gf.make_field(ell, f)
        assert projective_points(F, dim).tolist() == \
            _reference_projective_points(F, dim)


def test_catalog_is_frozen():
    """Every entry's degree, generators and outer-automorphism conjugators,
    byte for byte and with their dtypes, as first recorded for the catalog
    of 93 entries: a change of field arithmetic, point order or matrix
    words shows here."""
    h = hashlib.sha256()
    for entry in default_catalog():
        group, conjs = entry.build()
        gens = list(group.generators)
        h.update(f"{entry.key} {group.degree} {len(gens)} {len(conjs)}".encode())
        for perm in gens + conjs:
            h.update(perm.dtype.str.encode())
            h.update(perm.tobytes())
    assert len(default_catalog()) == 93
    assert h.hexdigest() == \
        "fb1d299fd440ae537b8905d84dfed45f467710aaa63f815e2f14f13b5888094b"
