"""Class fusion under outer actions."""

import re

import pytest

from regclass.autorbits import fuse_classes, orbit_counts
from regclass.catalog import entry_by_key
from regclass.numtheory import factorize
from regclass.permgroup import as_perm, class_counts, conjugacy_classes


def _fused(key):
    group, conjs = entry_by_key(key).build()
    table = conjugacy_classes(group)
    return group, table, fuse_classes(table, group, conjs)


def test_trivial_fusion_is_identity_partition():
    group, _ = entry_by_key("psl2(7)").build()
    table = conjugacy_classes(group)
    part = fuse_classes(table, group, [])
    assert part.orbit_count == len(table)
    for p in factorize(group.order).primes():
        oc = orbit_counts(part, table, p)
        cc = class_counts(table, p)
        assert oc.n_pregular == cc.k_p_prime
        assert oc.n_pelement == cc.k_p


def test_alt5_fusion_under_sym5():
    # A5 classes 1A 2A 3A 5A 5B; conjugating by a transposition fuses 5A/5B
    group, table, part = _fused("alt(5)")
    assert len(table) == 5
    assert part.orbit_count == 4
    oc = orbit_counts(part, table, 5)
    assert oc.n_pregular == 3 and oc.n_pelement == 1 and oc.n_union == 4


def test_psl2_9_fusion_realizes_full_outer_action():
    # PSL2(9) = A6 with both outer involutions: 3A/3B fuse and 5A/5B fuse
    group, table, part = _fused("psl2(9)")
    assert len(table) == 7
    assert part.orbit_count == 5
    oc = orbit_counts(part, table, 5)
    assert oc.n_pregular == 4 and oc.n_pelement == 1


def test_psl2_8_field_fusion():
    # orbits: 1, 2, 3, {7A,7B,7C}, {9A,9B,9C}
    _, table, part = _fused("psl2(8)")
    assert len(table) == 9
    assert part.orbit_count == 5
    oc = orbit_counts(part, table, 7)
    assert oc.n_pregular == 4 and oc.n_pelement == 1


def test_orbits_are_order_homogeneous():
    for key in ("psl2(16)", "psl3_with_duality(3)", "alt(7)"):
        _, table, part = _fused(key)
        for orbit in part.orbits:
            orders = {table.classes[i].order for i in orbit}
            assert len(orders) == 1
        # orbit ids numbered by least member, covering every class
        flat = sorted(i for orbit in part.orbits for i in orbit)
        assert flat == list(range(len(table)))
        assert all(part.orbit_of[orbit[0]] == k
                   for k, orbit in enumerate(part.orbits))


def test_inner_conjugator_fuses_nothing():
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    inner = as_perm([0, 2, 1, 4, 3], 5)  # an element of A5 itself
    part = fuse_classes(table, group, [inner])
    assert part.orbit_count == len(table)


def test_fusion_rejects_non_normalizing_conjugator():
    """(0 1) conjugates the 6-cycle of C6 out of the group; the error names
    the cycle and its image."""
    group, _ = entry_by_key("cyclic(6)").build()
    table = conjugacy_classes(group)
    c = as_perm([1, 0, 2, 3, 4, 5], 6)
    (g,) = group.generators
    conj = c[g[c]]  # c g c^-1, with c an involution
    with pytest.raises(ValueError, match=re.escape(
            f"witness generator {g.tolist()} goes to {conj.tolist()}")):
        fuse_classes(table, group, [c])
