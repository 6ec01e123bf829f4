"""Permutation engine: arithmetic, stabilizer chains, conjugacy classes."""

import dataclasses
import itertools
from collections import deque
from functools import lru_cache
from math import gcd, lcm

import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regclass.catalog import (default_catalog, entry_by_key, family_order,
                              sl2_center)
from regclass.harness import quotient_pairs
from regclass.numtheory import factorize, p_part
from regclass import permgroup
from regclass.permgroup import (CLASS_CAP, DEGREE_CAP, ClassTable,
                                ConsistencyError, PermGroup,
                                ResourceLimitError, StabilizerChain, as_perm,
                                burnside_class_count, class_counts,
                                compose, conjugacy_classes, conjugate,
                                identity_perm,
                                inverse, is_identity, load_class_table,
                                orbit_labels, orbits,
                                perm_from_cycles, perm_order, perm_power,
                                power_class_map,
                                quotient_group, save_class_table)


def _perms(degree):
    return st.permutations(range(degree)).map(lambda p: as_perm(list(p), degree))


# ---------------------------------------------------------------------------
# permutation arithmetic
# ---------------------------------------------------------------------------

@given(_perms(7), _perms(7), _perms(7))
def test_compose_associative(p, q, r):
    assert (compose(compose(p, q), r) == compose(p, compose(q, r))).all()


@given(_perms(8))
def test_inverse(p):
    assert is_identity(compose(p, inverse(p)))
    assert is_identity(compose(inverse(p), p))


@given(_perms(8), st.integers(-20, 20))
def test_perm_power_matches_repeated_composition(p, k):
    expected = identity_perm(8)
    step = p if k >= 0 else inverse(p)
    for _ in range(abs(k)):
        expected = compose(step, expected)
    assert (perm_power(p, k) == expected).all()


@given(_perms(9))
def test_perm_order_is_cycle_lcm(p):
    # independent oracle: lcm of cycle lengths
    seen = set()
    lengths = []
    for s in range(9):
        if s in seen:
            continue
        ln, x = 0, s
        while True:
            seen.add(x)
            x = int(p[x])
            ln += 1
            if x == s:
                break
        lengths.append(ln)
    assert perm_order(p) == lcm(*lengths)
    assert is_identity(perm_power(p, perm_order(p)))


@given(_perms(7), _perms(7))
def test_conjugate_preserves_cycle_type(g, x):
    y = conjugate(g, x, inverse(g))
    assert perm_order(y) == perm_order(x)
    assert (y == compose(compose(g, x), inverse(g))).all()


def test_perm_from_cycles():
    p = perm_from_cycles([[0, 1, 2]], 5)
    assert p.tolist() == [1, 2, 0, 3, 4]
    q = perm_from_cycles([[0, 1], [2, 3, 4]], 5)
    assert q.tolist() == [1, 0, 3, 4, 2]


def test_as_perm_rejects_non_permutations():
    with pytest.raises(ValueError):
        as_perm([0, 0, 1], 3)
    with pytest.raises(ValueError):
        as_perm([0, 1, 3], 3)


@pytest.mark.parametrize("images", [[256, 1, 2], [1.7, 0, 2], [257, 0, 2],
                                    [-255, 0, 2], [65536 + 1, 0, 2]])
def test_as_perm_checks_values_before_the_narrowing_cast(images):
    """uint8 wraps 256 to 0 and truncates 1.7 to 1; such images must be
    refused, not read as a permutation."""
    with pytest.raises(ValueError, match="not a permutation"):
        as_perm(images, 3)
    with pytest.raises(ValueError, match="not a permutation"):
        PermGroup(3, [images])
    table = conjugacy_classes(PermGroup(3, [[1, 2, 0], [1, 0, 2]]))
    with pytest.raises(ValueError, match="not a permutation"):
        table.class_of(images)


# ---------------------------------------------------------------------------
# group order via stabilizer chain, against brute-force closure
# ---------------------------------------------------------------------------

def _brute_order(gens, degree):
    elems = {tuple(range(degree))}
    frontier = list(elems)
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = tuple(g[e[i]] for i in range(degree))
                if prod not in elems:
                    elems.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(elems)


@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
def test_group_order_matches_brute_closure(gen_lists):
    gens = [as_perm(list(g), 6) for g in gen_lists]
    group = PermGroup(6, gens)
    assert group.order == _brute_order([g.tolist() for g in gens], 6)


def test_elements_stream_is_exact():
    group, _ = entry_by_key("sym(4)").build()
    elems = [tuple(int(x) for x in e) for e in group.elements()]
    assert len(elems) == 24 == len(set(elems))
    assert sorted(elems) == sorted(
        tuple(p) for p in itertools.permutations(range(4)))


def test_contains():
    group, _ = entry_by_key("alt(5)").build()
    for e in group.elements():
        assert group.contains(e)
    assert not group.contains(as_perm([1, 0, 2, 3, 4], 5))  # odd permutation


@lru_cache(maxsize=None)
def _group(key):
    return entry_by_key(key).build()[0]


# ---------------------------------------------------------------------------
# stabilizer chain against the one-permutation-at-a-time reference
# ---------------------------------------------------------------------------

class _ReferenceChain:
    """Sims' deterministic Schreier-Sims one permutation at a time: dict
    transversals that only grow, levels closed deepest first, and after each
    new strong generator the levels below the closing one closed again,
    deepest first.  A level's Schreier pairs (x, s) are queued as its orbit
    grows: the points found before see the new generators, then each new
    point, breadth first, sees all of them; a pair that finds a new point is
    its tree edge and is not queued."""

    def __init__(self, generators, degree):
        self.degree = degree
        self.base, self.level_gens, self.transversals = [], [], []
        self.inverses, self.found, self.seen = [], [], []
        self.strong = []  # (level, generator) in registration order
        for g in generators:
            if not is_identity(g):
                self.register(g, 0)
        for level in reversed(range(len(self.base))):
            self.close(level)

    def strip(self, g):
        for b, inv in zip(self.base, self.inverses):
            t = inv.get(int(g[b]))
            if t is None:
                break
            g = compose(t, g)
        return g

    def register(self, g, level):
        at = next((i for i, b in enumerate(self.base) if g[b] != b),
                  len(self.base))
        assert at >= level
        if at == len(self.base):
            b = int(np.nonzero(g != np.arange(self.degree))[0][0])
            self.base.append(b)
            self.level_gens.append([])
            self.transversals.append({b: identity_perm(self.degree)})
            self.inverses.append({b: identity_perm(self.degree)})
            self.found.append([b])
            self.seen.append(0)
        self.level_gens[at].append(g)
        self.strong.append((at, g))
        return at

    def gens(self, level):
        return [g for at, g in self.strong if at >= level]

    def extend(self, level):
        gens = self.gens(level)
        tr, inv, found = (self.transversals[level], self.inverses[level],
                          self.found[level])
        known, seen = len(found), self.seen[level]
        self.seen[level] = len(gens)
        pairs = []
        for i, x in enumerate(found):
            for j in range(seen if i < known else 0, len(gens)):
                y = int(gens[j][x])
                if y in tr:
                    pairs.append((x, j))
                else:
                    tr[y] = compose(gens[j], tr[x])
                    inv[y] = inverse(tr[y])
                    found.append(y)
        return pairs

    def close(self, level):
        queue = deque(self.extend(level))
        tr, inv = self.transversals[level], self.inverses[level]
        while queue:
            x, j = queue.popleft()
            s = self.gens(level)[j]
            residue = self.strip(compose(inv[int(s[x])], compose(s, tr[x])))
            if not is_identity(residue):
                at = self.register(residue, level + 1)
                for deeper in range(at, level, -1):
                    self.close(deeper)
                queue.extend(self.extend(level))

    def rank_levels(self):
        """(position, forward, inverse, radix) per level, as the rank index
        holds them."""
        levels, radix = [], 1
        for tr in self.transversals:
            orbit = sorted(tr)
            position = np.full(self.degree, -1, dtype=np.int32)
            position[orbit] = np.arange(len(orbit))
            levels.append((position, np.stack([tr[x] for x in orbit]),
                           np.stack([inverse(tr[x]) for x in orbit]), radix))
            radix *= len(orbit)
        return levels


def _assert_same_chain(chain, ref):
    assert chain.base == ref.base
    assert [[g.tolist() for g in lg] for lg in chain.level_gens] == \
        [[g.tolist() for g in lg] for lg in ref.level_gens]
    assert [{x: t.tolist() for x, t in tr.items()} for tr in chain.transversals] \
        == [{x: t.tolist() for x, t in tr.items()} for tr in ref.transversals]
    got, want = chain.index.levels, ref.rank_levels()
    assert len(got) == len(want)
    for level, expected in zip(got, want):
        assert level[3] == expected[3]
        for a, b in zip(level[:3], expected[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("key", [e.key for e in default_catalog()])
def test_chain_matches_reference_schreier_sims(key):
    group = _group(key)
    _assert_same_chain(StabilizerChain(group.generators, group.degree),
                       _ReferenceChain(group.generators, group.degree))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=4))))
def test_chain_matches_reference_on_random_generators(case):
    degree, images = case
    gens = [as_perm(list(g), degree) for g in images]
    _assert_same_chain(StabilizerChain(gens, degree),
                       _ReferenceChain(gens, degree))


@pytest.mark.parametrize("key", [e.key for e in default_catalog()])
def test_chain_is_a_bsgs(key):
    """Whatever algorithm built the chain: each transversal row maps the base
    point to its orbit point, every Schreier generator t_{s(x)}^-1 s t_x of
    every level strips to the identity through the whole chain, one
    permutation at a time, and the order is the family formula's."""
    entry = entry_by_key(key)
    chain = _group(key).chain
    assert chain.order == family_order(entry.family, entry.params)
    level_gens = chain.level_gens
    for level, (b, tr) in enumerate(zip(chain.base, chain.transversals)):
        gens = [g for lg in level_gens[level:] for g in lg]
        assert gens and all(int(t[b]) == x for x, t in tr.items())
        for x, t in tr.items():
            for s in gens:
                assert int(s[x]) in tr
                residue, positions = chain.strip(
                    compose(inverse(tr[int(s[x])]), compose(s, t)))
                assert len(positions) == len(chain.base)
                assert is_identity(residue)


def test_random_element_beyond_rank_index_cap():
    # C2 x C3 x ... x C29 on disjoint cycles: order 6,469,693,230 > 2^31 - 1,
    # so the rank index refuses the group, but drawing enumerates nothing
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    starts = np.cumsum([0] + primes).tolist()
    degree = starts[-1]
    group = PermGroup(degree, [perm_from_cycles([list(range(a, a + p))], degree)
                               for a, p in zip(starts, primes)])
    assert group.order == 6_469_693_230
    with pytest.raises(ResourceLimitError):
        group.chain.index
    drawn = [group.random_element(random.Random(5)) for _ in range(2)]
    # one draw per level, from the sorted-orbit transversal rows
    rng = random.Random(5)
    expected = identity_perm(degree)
    for tr in group.chain.transversals:
        expected = expected[tr[sorted(tr)[rng.randrange(len(tr))]]]
    assert all((g == expected).all() for g in drawn)
    assert group.contains(drawn[0])


# ---------------------------------------------------------------------------
# rank index
# ---------------------------------------------------------------------------

RANK_KEYS = ["cyclic(12)", "dihedral(7)", "frobenius(11,5)", "sym(5)",
             "alt(6)", "psl2(7)", "sl2(5)", "sp4(2)", "psl2(27)", "sp4(3)"]


@lru_cache(maxsize=None)
def _table(key):
    return conjugacy_classes(_group(key))


@given(st.sampled_from(RANK_KEYS), st.data())
def test_rank_inverts_unrank(key, data):
    group = _group(key)
    index = group.chain.index
    ranks = np.array(data.draw(st.lists(st.integers(0, group.order - 1),
                                        min_size=1, max_size=16)))
    elements = index.unrank(ranks)
    base_images = elements[:, index.base]
    before = base_images.copy()
    assert (index.rank(base_images) == ranks).all()
    assert (index.rank(np.asfortranarray(base_images)) == ranks).all()
    assert (base_images == before).all()
    assert (index.sift(elements) == ranks).all()
    strips = [group.chain.strip(g) for g in elements]
    assert all(is_identity(residue) for residue, _ in strips)
    assert [sum(pos * radix for pos, (_, _, _, radix)
                in zip(positions, index.levels))
            for _, positions in strips] == ranks.tolist()
    table = _table(key)
    assert ([table.class_of(g) for g in elements]
            == table.class_id[ranks].tolist())
    assert all(group.contains(g) for g in elements)


def test_elements_follow_transversal_mixed_radix_order():
    # rank = sum p_i radix_i with level 0 least significant is the order of
    # the transversal-product stream t_0 o t_1 o ... o t_{L-1}
    group = _group("psl2(7)")
    expected = [identity_perm(group.degree)]
    for tr in reversed(group.chain.transversals):
        expected = [compose(tr[x], h) for h in expected for x in sorted(tr)]
    assert [g.tolist() for g in group.elements()] == [g.tolist() for g in expected]
    # the same stream read one point at a time, and in a shuffled rank order
    # (runs of equal rank prefixes are then short)
    rows = np.stack(expected)
    index = group.chain.index
    for point in range(group.degree):
        assert (index.point_images(point) == rows[:, point]).all()
    shuffled = np.random.default_rng(7).permutation(group.order)
    assert (index.unrank(shuffled) == rows[shuffled]).all()
    assert (index.images(shuffled, [3, 0]) == rows[shuffled][:, [3, 0]]).all()


def _reference_orbit_minima(actions, n):
    """Least point of each component of x ~ act[x], by union-find with the
    smaller root kept."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for act in actions:
        for x, y in enumerate(act.tolist()):
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


@given(st.integers(1, 300), st.integers(0, 3), st.booleans(), st.data())
def test_orbit_labels_match_union_find(n, count, bijective, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    actions = [(rng.permutation(n) if bijective else rng.integers(0, n, n))
               .astype(np.int32) for _ in range(count)]
    want = _reference_orbit_minima(actions, n)
    assert orbit_labels(actions, n).tolist() == want
    # orbits numbers the union-find minima densely, in ascending order
    roots, orbit_id = orbits(actions, n)
    assert roots.tolist() == sorted(set(want))
    assert orbit_id.tolist() == [roots.tolist().index(w) for w in want]
    # hooking in slices of CHUNK << 6 = 64 points reaches the same labels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(permgroup, "CHUNK", 1)
        assert orbit_labels(actions, n).tolist() == want


@pytest.mark.parametrize("key", ["sym(5)", "psl2(7)", "frobenius(7,6)"])
def test_rank_actions_are_the_products(key):
    """For each generator s, the maps r -> rank(s x_r), r -> rank(x_r s) and
    r -> rank(s x_r s^-1) equal, at every rank, the sift of the product
    built in full."""
    group = _group(key)
    index = group.chain.index
    one = group.identity()
    elements = index.unrank(np.arange(group.order))
    for s in group.generators:
        pairs = [(s, one), (one, s), (s, inverse(s))]
        for act, (u, v) in zip(permgroup._rank_actions(index, pairs), pairs):
            assert act.tolist() == index.sift(u[elements[:, v]]).tolist()


@given(st.sampled_from([k for k in RANK_KEYS if k not in ("sym(5)", "sl2(5)")]),
       st.data())
def test_class_of_rejects_member_base_images_outside_group(key, data):
    group = _group(key)
    index = group.chain.index
    free = sorted(set(range(group.degree)) - set(index.base.tolist()))
    a, b = data.draw(st.lists(st.sampled_from(free), min_size=2, max_size=2,
                              unique=True))
    g = index.unrank([data.draw(st.integers(0, group.order - 1))])[0]
    fake = g.copy()
    fake[[a, b]] = g[[b, a]]
    # the base images of g determine g, so fake is outside the group
    assert (fake[index.base] == g[index.base]).all()
    assert not group.contains(fake)
    with pytest.raises(ValueError, match="not in the enumerated group"):
        _table(key).class_of(fake)
    with pytest.raises(ValueError, match="not in the enumerated group"):
        _table(key).classes_of(np.stack([g, fake]))
    # the base images are g's, so every level is passed, leaving g^-1 o fake
    residue, positions = group.chain.strip(fake)
    assert len(positions) == len(index.base) and not is_identity(residue)


def _closure(start, step):
    """Everything reachable from the tuples in `start` by `step`, which maps
    a tuple to its neighbours."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _cycle_order(images):
    seen = set()
    order = 1
    for start in range(len(images)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = images[x]
            length += 1
        order = lcm(order, length)
    return order


def _reference_classes(group):
    """Conjugacy classes by a plain generator-conjugation closure over image
    tuples: the sorted (order, size, lex-least rep) list, and the class
    index of each element."""
    n = group.degree
    gens = [tuple(int(x) for x in g) for g in group.generators]
    invs = [tuple(sorted(range(n), key=g.__getitem__)) for g in gens]
    elements = _closure([tuple(range(n))],
                        lambda e: [tuple(g[x] for x in e) for g in gens])
    class_key = {}
    for x in sorted(elements):
        if x in class_key:
            continue
        members = _closure([x], lambda z: [
            tuple(g[z[ginv[i]]] for i in range(n)) for g, ginv in zip(gens, invs)])
        rep = min(members)
        key = (_cycle_order(rep), len(members), rep)
        for y in members:
            class_key[y] = key
    classes = sorted(set(class_key.values()))
    position = {key: i for i, key in enumerate(classes)}
    return classes, {x: position[key] for x, key in class_key.items()}


@pytest.mark.parametrize("key", [e.key for e in sorted(
    default_catalog(), key=lambda e: (e.order, e.key)) if e.order <= 20_000])
def test_classes_match_reference_closure(key):
    group = _group(key)
    table = conjugacy_classes(group)
    classes, class_of = _reference_classes(group)
    assert [(c.order, c.size, tuple(c.rep.tolist())) for c in table.classes] \
        == classes
    elements = sorted(class_of)
    assert table.classes_of(np.array(elements)).tolist() == \
        [class_of[x] for x in elements]
    assert [table.class_of(np.array(rep)) for _, _, rep in classes] == \
        list(range(len(classes)))


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

SAMPLE_KEYS = ["cyclic(12)", "dihedral(7)", "frobenius(11,5)", "sym(5)",
               "alt(6)", "psl2(7)", "sl2(5)", "sp4(2)", "psl3_with_duality(2)"]


@pytest.fixture(scope="module", params=SAMPLE_KEYS)
def keyed_table(request):
    group, _ = entry_by_key(request.param).build()
    return request.param, group, conjugacy_classes(group)


def test_class_equation(keyed_table):
    _, group, table = keyed_table
    assert sum(table.sizes) == group.order
    assert all(group.order % s == 0 for s in table.sizes)
    assert table.classes[0].size == 1 and table.classes[0].order == 1


def test_class_count_against_burnside(keyed_table):
    _, group, table = keyed_table
    assert burnside_class_count(group) == len(table)


def test_class_of_consistency(keyed_table):
    _, group, table = keyed_table
    rng = random.Random(7)
    for i, c in enumerate(table.classes):
        assert table.class_of(c.rep) == i
        g = group.random_element(rng)
        assert table.class_of(conjugate(g, c.rep, inverse(g))) == i


def test_canonical_class_order(keyed_table):
    _, _, table = keyed_table
    keys = [(c.order, c.size, bytes(c.rep)) for c in table.classes]
    assert keys == sorted(keys)


def test_known_class_counts():
    # frozen from standard character-table references
    expected = {"sym(5)": 7, "sym(6)": 11, "alt(5)": 5, "alt(6)": 7,
                "psl2(7)": 6, "psl2(11)": 8, "psl2(13)": 9, "psl2(8)": 9,
                "sl2(3)": 7, "sp4(2)": 11, "psl3_with_duality(3)": 12}
    for key, k in expected.items():
        group, _ = entry_by_key(key).build()
        assert len(conjugacy_classes(group)) == k, key


def test_enumeration_cap():
    """sym(11), of order 39,916,800, is above the cap: its chain is cheap
    and the refusal comes before any enumeration."""
    group = PermGroup(11, [perm_from_cycles([list(range(11))], 11),
                           perm_from_cycles([[0, 1]], 11)])
    with pytest.raises(ResourceLimitError, match=f"enumeration cap {CLASS_CAP}"):
        conjugacy_classes(group)


# ---------------------------------------------------------------------------
# p-parts and class counts
# ---------------------------------------------------------------------------

def test_class_counts_partition(keyed_table):
    _, group, table = keyed_table
    for p in factorize(group.order).primes():
        cc = class_counts(table, p)
        mixed = sum(1 for c in table.classes
                    if c.order % p == 0 and p_part(c.order, p) != c.order)
        assert cc.k_p + cc.k_p_prime + mixed == len(table)
        assert cc.k_p_prime >= 1  # the identity class


def test_power_class_map_properties(keyed_table):
    _, _, table = keyed_table
    e = table.exponent
    assert power_class_map(table, 1) == list(range(len(table)))
    for k in range(2, min(e, 30)):
        if gcd(k, e) != 1:
            with pytest.raises(ValueError):
                power_class_map(table, k)
            continue
        m = power_class_map(table, k)
        assert sorted(m) == list(range(len(table)))  # a bijection
        kinv = pow(k, -1, e)
        minv = power_class_map(table, kinv)
        assert [minv[i] for i in m] == list(range(len(table)))


def test_power_table_must_be_closed_under_inversion():
    """The lift reads a conjugate at the class of the inverse, so
    `ClassTable.power` refuses a table in which i = power[j][-1] has another
    size than class j or power[i] is not power[j] read backwards.  On alt(5)
    rep_a^-1 lies in a's own class; labelling that one element with the
    other class b of 5-cycles sends power[a][-1] to b, whose power map is
    not a's reversed.  On psl2(7) the two classes of order 7 are each
    other's inverses; changing the size of the second one breaks the
    first."""
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    a, b = [j for j, c in enumerate(table.classes) if c.order == 5]
    assert table.power[a][-1] == a
    class_id = table.class_id.copy()
    class_id[group.chain.index.sift(inverse(table.classes[a].rep)[None])] = b
    tampered = ClassTable(group, table.classes, class_id)
    with pytest.raises(ConsistencyError,
                       match=f"not closed under inversion at class {a}$"):
        tampered.power

    group, _ = entry_by_key("psl2(7)").build()
    table = conjugacy_classes(group)
    i, j = [k for k, c in enumerate(table.classes) if c.order == 7]
    assert (table.power[i][-1], table.power[j][-1]) == (j, i)
    classes = list(table.classes)
    classes[j] = dataclasses.replace(classes[j], size=classes[j].size + 1)
    with pytest.raises(ConsistencyError,
                       match=f"not closed under inversion at class {i}$"):
        ClassTable(group, classes, table.class_id).power


def test_galois_fixed_class_count_brute(keyed_table):
    """The class permutation of g -> g^k read off the power table
    (`power_class_map`), and so the classes it fixes, against the classes of
    the k-th powers of the representatives, at every unit k mod e."""
    _, _, table = keyed_table
    e = table.exponent
    for k in (k for k in range(e) if gcd(k, e) == 1):
        powers = np.stack([perm_power(c.rep, k) for c in table.classes])
        assert power_class_map(table, k) == table.classes_of(powers).tolist()


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_sym4_by_v4():
    group, _ = entry_by_key("sym(4)").build()
    v4 = [perm_from_cycles([[0, 1], [2, 3]], 4),
          perm_from_cycles([[0, 2], [1, 3]], 4)]
    quo = quotient_group(group, v4)
    assert quo.order == 6
    assert len(conjugacy_classes(quo)) == 3  # S3


def _reference_n_orbits(degree, normal_gens):
    """The N-orbits of the points, each found by closing a point's set under
    N's generators, in the order of their least points."""
    found, placed = [], set()
    for x in range(degree):
        if x in placed:
            continue
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for z in {int(n[y]) for n in normal_gens} - orbit:
                orbit.add(z)
                todo.append(z)
        placed |= orbit
        found.append(frozenset(orbit))
    return found


def _reference_quotient_images(group, normal_gens):
    """Coset action of the generators, cosets told apart by the images of the
    N-orbits as sets and then by membership."""
    n_group = PermGroup(group.degree, normal_gens)
    n_orbits = _reference_n_orbits(group.degree, normal_gens)

    def fingerprint(g):
        return tuple(frozenset(int(g[x]) for x in orb) for orb in n_orbits)

    reps, buckets = [group.identity()], {fingerprint(group.identity()): [0]}

    def coset_id(x):
        for i in buckets.get(fingerprint(x), ()):
            if n_group.contains(compose(inverse(reps[i]), x)):
                return i
        reps.append(x)
        buckets.setdefault(fingerprint(x), []).append(len(reps) - 1)
        return len(reps) - 1

    actions = [[] for _ in group.generators]
    i = 0
    while i < len(reps):
        for gi, g in enumerate(group.generators):
            actions[gi].append(coset_id(compose(g, reps[i])))
        i += 1
    return PermGroup(len(reps), actions).generators


def _reference_orbit_action(group, normal_gens):
    """The action of the generators on the N-orbits, numbered by least
    point; a generator maps each orbit, as a set, onto an orbit."""
    n_orbits = _reference_n_orbits(group.degree, normal_gens)
    number = {orbit: i for i, orbit in enumerate(n_orbits)}
    return PermGroup(len(n_orbits), [
        [number[frozenset(int(g[y]) for y in orbit)] for orbit in n_orbits]
        for g in group.generators])


def _assert_relabelled(gens, want, n):
    """gens acts on 0..n-1 as want relabelled: the map sigma built breadth
    first from point 0 by sigma(w(x)) = g(sigma(x)), for each pair (g, w) of
    gens and want, is a bijection that carries every w onto its g."""
    assert len(gens) == len(want)
    sigma, todo = {0: 0}, deque([0])
    while todo:
        x = todo.popleft()
        for g, w in zip(gens, want):
            y = int(w[x])
            if y not in sigma:
                sigma[y] = int(g[sigma[x]])
                todo.append(y)
    assert sorted(sigma) == sorted(sigma.values()) == list(range(n))
    for g, w in zip(gens, want):
        assert all(g[sigma[x]] == sigma[int(w[x])] for x in range(n))


QUOTIENT_PAIRS = [(name, group, normal_gens)
                  for name, _, group, normal_gens in quotient_pairs()]
QUOTIENT_IDS = [name for name, _, _ in QUOTIENT_PAIRS]
# the pairs whose G acts on the N-orbits as G/N
ORBIT_PATH = {"cyclic(12)/C2", "cyclic(12)/C3"} | {
    f"sl2({q})/center" for q in (3, 5, 7, 9, 11, 13)}


def _class_multiset(group):
    return sorted((c.order, c.size) for c in conjugacy_classes(group).classes)


@pytest.mark.parametrize("name, group, normal_gens", QUOTIENT_PAIRS,
                         ids=QUOTIENT_IDS)
def test_quotient_matches_orbit_set_fingerprint(name, group, normal_gens):
    """On the orbit path the quotient is the reference action on the
    N-orbits, with the classes of the reference coset action; on the regular
    path it is the reference coset action relabelled: the map built breadth
    first from point 0 is a bijection that carries each reference generator
    onto its counterpart.  Every pair acting on |G:N| points is checked
    against the coset action that way."""
    quotient = quotient_group(group, normal_gens)
    index = group.order // PermGroup(group.degree, normal_gens).order
    coset = _reference_quotient_images(group, normal_gens)
    on_orbits = _reference_orbit_action(group, normal_gens)
    assert (on_orbits.order == index) == (name in ORBIT_PATH)
    if name in ORBIT_PATH:
        assert [g.tolist() for g in quotient.generators] == \
            [g.tolist() for g in on_orbits.generators]
        assert _class_multiset(quotient) == \
            _class_multiset(PermGroup(index, coset))
    else:
        assert quotient.degree == index
    if quotient.degree == index:
        _assert_relabelled(quotient.generators, coset, index)


def _gf8_mul(a, b):
    """Product in GF(8) = GF(2)[x]/(x^3 + x + 1), elements as 3-bit codes."""
    r = 0
    for i in range(3):
        if b >> i & 1:
            r ^= a << i
    for i in (4, 3):
        if r >> i & 1:
            r ^= 0b1011 << (i - 3)
    return r


def test_regular_quotient_is_the_left_coset_action():
    """AGammaL(1,8) mod its translations is the Frobenius group of order 21,
    on the images of x -> 2x (order 7) and x -> x^2 (order 3).  The
    translations are transitive, so the regular path runs.  Inverting both
    generators is not an automorphism of that group, so acting on the
    cosets from the right (an anti-homomorphism) would give generators that
    no relabelling carries onto the left coset action."""
    group = PermGroup(8, [[x ^ 1 for x in range(8)],
                          [_gf8_mul(2, x) for x in range(8)],
                          [_gf8_mul(x, x) for x in range(8)]])
    translations = [[x ^ t for x in range(8)] for t in (1, 2, 4)]
    quotient = quotient_group(group, translations)
    coset = _reference_quotient_images(group, translations)
    assert group.order == 168 and quotient.degree == 21
    assert len(quotient.generators) == 2
    _assert_relabelled(quotient.generators, coset, 21)


@pytest.mark.parametrize("name, group, normal_gens", QUOTIENT_PAIRS,
                         ids=QUOTIENT_IDS)
def test_quotient_is_g_mod_n_by_its_graph(name, group, normal_gens):
    """phi maps each generator of G to the quotient generator it gave: the
    identity if it lies in N, the image of an earlier generator in its coset
    of N, else the next quotient generator.  The graph group generated by
    g + phi(g) (g on the first G.degree points, phi(g) on the Q.degree
    points after them) has order |G|, so phi extends to a homomorphism onto
    Q; Q has order |G:N|, so its kernel has order |N|; each N generator +
    identity lies in the graph, so N is that kernel."""
    n_group = PermGroup(group.degree, normal_gens)
    quotient = quotient_group(group, normal_gens)
    index = group.order // n_group.order
    assert quotient.order == index
    fresh = iter(quotient.generators)
    phi = []
    for i, g in enumerate(group.generators):
        same = next((j for j in range(i) if n_group.contains(
            compose(inverse(group.generators[j]), g))), None)
        if n_group.contains(g):
            phi.append(quotient.identity())
        else:
            phi.append(next(fresh) if same is None else phi[same])
    assert next(fresh, None) is None

    def graph_point(g, q):
        return np.concatenate([g.astype(np.int64),
                               q.astype(np.int64) + group.degree])

    graph = PermGroup(group.degree + quotient.degree,
                      [graph_point(g, q) for g, q in zip(group.generators, phi)])
    assert graph.order == group.order
    for n in n_group.generators:
        assert graph.contains(graph_point(n, quotient.identity()))


@pytest.mark.parametrize("name, group, normal_gens", QUOTIENT_PAIRS,
                         ids=QUOTIENT_IDS)
def test_coset_canonical_names_the_coset(name, group, normal_gens):
    """On the ranks of G, the orbits of right multiplication by N, r ->
    rank(x_r n), are the cosets, and each is named by its least rank: g and
    g o n share an orbit, the element of the orbit's root lies in gN, and no
    member of gN has a smaller rank (N is small here, so gN is listed in
    full)."""
    n_group = PermGroup(group.degree, normal_gens)
    index = group.chain.index
    one = group.identity()
    roots, orbit_id = orbits(permgroup._rank_actions(
        index, [(one, n) for n in n_group.generators]), group.order)
    assert len(roots) == group.order // n_group.order
    rng = random.Random(81)
    members = list(n_group.elements())
    for _ in range(32):
        g, n = group.random_element(rng), n_group.random_element(rng)
        r, rn = index.sift(np.stack([g, compose(g, n)]))
        assert orbit_id[r] == orbit_id[rn]
        root = roots[orbit_id[r]]
        assert n_group.contains(compose(inverse(g), index.unrank([root])[0]))
        assert root == index.sift(np.stack([compose(g, m) for m in members])).min()


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_central_quotient_of_sl2_matches_catalog_psl2(q):
    """SL(2,q)/Z, built on the Z-orbits of nonzero vectors, has the classes
    of the catalog's PSL(2,q), built on the projective line: the multisets
    of (element order, class size) agree."""
    quotient = quotient_group(_group(f"sl2({q})"), sl2_center(q))
    expected = conjugacy_classes(_group(f"psl2({q})"))
    assert sorted((c.order, c.size) for c in conjugacy_classes(quotient).classes) \
        == sorted((c.order, c.size) for c in expected.classes)


class _SiftLog(StabilizerChain):
    """A chain that logs (level, strong generator count of the level and of
    each deeper one) at the first sift of each close of a level.  Closes
    nest, so the levels opened and not yet sifted are a set, and a sift
    through levels start.. is credited to level start - 1."""

    def __init__(self, generators, degree):
        self.log, self._opened = [], set()
        super().__init__(generators, degree)

    def _close_level(self, level):
        self._opened.add(level)
        return super()._close_level(level)

    def _sift_rows(self, rows, start, stop):
        level = start - 1
        if level in self._opened:
            self._opened.remove(level)
            self.log.append((level, tuple(map(len, self.level_gens[level:]))))
        return super()._sift_rows(rows, start, stop)


@pytest.mark.parametrize("key", ["sym(6)", "psl2(27)", "sp4(2)", "sl2(13)",
                                 "sl2(13)/center"])
def test_chain_never_sifts_a_level_twice_with_one_stamp(key):
    """A level whose strong generators (its own and the deeper ones) are
    those of an earlier sift is not sifted again; the chain is unchanged."""
    if key.endswith("/center"):
        # the regular representation of PSL(2,13), on its 1,092 elements
        group = PermGroup(1092, _reference_quotient_images(_group("sl2(13)"),
                                                           sl2_center(13)))
    else:
        group = _group(key)
    logged = _SiftLog(group.generators, group.degree)
    assert logged.log and len(set(logged.log)) == len(logged.log)
    chain = StabilizerChain(group.generators, group.degree)
    assert logged.base == chain.base
    assert [[g.tolist() for g in lg] for lg in logged.level_gens] == \
        [[g.tolist() for g in lg] for lg in chain.level_gens]


def test_quotient_rejects_non_normal():
    """<(0 1)> in S4: the error names the first generator of G that moves
    it out, and the conjugate."""
    group, _ = entry_by_key("sym(4)").build()
    ng = perm_from_cycles([[0, 1]], 4)
    g, conj = next((g, conj) for g in group.generators
                   if (conj := conjugate(g, ng, inverse(g)).tolist())
                   not in ([0, 1, 2, 3], [1, 0, 2, 3]))
    with pytest.raises(ValueError, match=re.escape(
            f"conjugate {conj} of its generator {ng.tolist()} "
            f"by {g.tolist()} lies outside it")):
        quotient_group(group, [ng])


@pytest.mark.parametrize("group_gens, normal_gens", [
    ([[[0, 1], [2, 3]]], [[[0, 1]]]),  # passes the normality test
    ([[[0, 1]]], [[[2, 3]]]),  # its orbit action is not a G/N
], ids=["normalized", "disjoint"])
def test_quotient_refuses_a_subgroup_outside_g(group_gens, normal_gens):
    group = PermGroup(4, [perm_from_cycles(c, 4) for c in group_gens])
    normal = [perm_from_cycles(c, 4) for c in normal_gens]
    with pytest.raises(ValueError, match=re.escape(
            f"generator {normal[0].tolist()} of N is not in G")):
        quotient_group(group, normal)


def test_quotient_refuses_the_regular_path_above_the_degree_cap():
    """S4 x C15015 mod V4: V4 fixes the 15015-cycle's points, so the orbit
    action keeps C15015 and is not a G/N, and the regular quotient would
    have degree |G:N| = 90,090.  It is refused before any rank action is
    built."""
    cycle = perm_from_cycles([list(range(4 + m, 4 + m + k)) for m, k in
                              ((0, 3), (3, 5), (8, 7), (15, 11), (26, 13))], 43)
    group = PermGroup(43, [perm_from_cycles([[0, 1, 2, 3]], 43),
                           perm_from_cycles([[0, 1]], 43), cycle])
    v4 = [perm_from_cycles([[0, 1], [2, 3]], 43),
          perm_from_cycles([[0, 2], [1, 3]], 43)]
    assert group.order == 360_360
    with pytest.raises(ResourceLimitError, match=f"index 90090 exceeds degree cap {DEGREE_CAP}"):
        quotient_group(group, v4)


def test_quotient_refuses_the_regular_path_above_the_class_cap():
    """S11/A11: A11 is transitive, so the orbit action is trivial, and the
    regular path needs a rank index on the 39,916,800 elements of S11."""
    cycle = perm_from_cycles([list(range(11))], 11)
    group = PermGroup(11, [cycle, perm_from_cycles([[0, 1]], 11)])
    alt = [cycle, perm_from_cycles([[0, 1, 2]], 11)]
    with pytest.raises(ResourceLimitError, match=f"enumeration cap {CLASS_CAP}"):
        quotient_group(group, alt)


# ---------------------------------------------------------------------------
# class table save/load
# ---------------------------------------------------------------------------

def test_class_table_roundtrip(tmp_path):
    group, _ = entry_by_key("psl2(11)").build()
    table = conjugacy_classes(group)
    path = tmp_path / "classes.txt"
    save_class_table(table, path)
    loaded = load_class_table(group, path)
    assert len(loaded) == len(table)
    assert loaded.sizes == table.sizes
    assert loaded.orders == table.orders
    assert all((a.rep == b.rep).all()
               for a, b in zip(loaded.classes, table.classes))


def test_class_table_load_detects_tampering(tmp_path):
    group, _ = entry_by_key("alt(5)").build()
    table = conjugacy_classes(group)
    path = tmp_path / "classes.txt"
    save_class_table(table, path)
    lines = path.read_text().splitlines()
    size, rest = lines[5].split(" ", 1)  # first class line: "size order rep"
    lines[5] = f"{int(size) + 1} {rest}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError):
        load_class_table(group, path)


def _tampered_cache(tmp_path, key, edit):
    """A saved class table of `key` with its class lines passed through
    `edit` (a function of the list of (size, order, rep) line fields)."""
    group = _group(key)
    path = tmp_path / "classes.txt"
    save_class_table(conjugacy_classes(group), path)
    lines = path.read_text().splitlines()
    rows = [ln.split(" ", 2) for ln in lines[5:]]
    edit(rows, group)
    path.write_text("\n".join(lines[:5] + [" ".join(r) for r in rows]) + "\n")
    return group, path


def test_class_table_load_detects_swapped_sizes(tmp_path):
    def swap(rows, group):
        # sym(4): the two order-2 classes have sizes 3 and 6; the sum stays 24
        assert [(r[0], r[1]) for r in rows[1:3]] == [("3", "2"), ("6", "2")]
        rows[1][0], rows[2][0] = rows[2][0], rows[1][0]

    group, path = _tampered_cache(tmp_path, "sym(4)", swap)
    with pytest.raises(ConsistencyError):
        load_class_table(group, path)


def test_class_table_load_detects_non_least_representative(tmp_path):
    def replace_rep(rows, group):
        rep = as_perm([int(x) for x in rows[-1][2].split(",")], group.degree)
        rng = random.Random(3)
        other = rep
        while (other == rep).all():
            g = group.random_element(rng)
            other = conjugate(g, rep, inverse(g))
        rows[-1][2] = ",".join(map(str, other.tolist()))

    group, path = _tampered_cache(tmp_path, "alt(5)", replace_rep)
    with pytest.raises(ConsistencyError):
        load_class_table(group, path)
