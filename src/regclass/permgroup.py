"""Permutation group engine.

Groups are given by generator permutations on {0..degree-1}.  Permutations are
numpy arrays (uint8 for degree <= 255, else uint16); composition is fancy
indexing, (p o q)(i) = p[q(i)], so q is applied first.

Provides exact order via a deterministic stabilizer chain (Sims'
Schreier-Sims: levels closed deepest first, and the levels below each new
strong generator closed again before the next Schreier generator; a level's
Schreier generators are sifted as batches of rows, and each level is stored
once, as arrays that the rank index reads too), one scalar strip through
the chain (`contains`, and the rank that `ClassTable.class_of` reads), a
rank index on the chain that numbers the elements 0..|G|-1 (ranked in a
column-major copy, one 1-D gather per base column and level), the actions
r -> rank(u x_r v) on those ranks, one orbit numbering (`orbits`),
conjugacy classes as the orbits of conjugation on the ranks (a class table
is one class id per rank), class counts, power maps on classes, and
quotient groups G/N as G on the N-orbits of a G-set: the points when G
acts on their N-orbits as G/N, else its own elements, whose N-orbits
under right multiplication are the cosets of N.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, lcm

import numpy as np

from .numtheory import p_part

CLASS_CAP = 20_000_000  # above every catalog entry; psl2(256) is 16,776,960
BURNSIDE_CAP = 10_000  # group order above which the Burnside oracle refuses
DEGREE_CAP = 1 << 16  # largest degree of a PermGroup
CHUNK = 1 << 14  # elements per batch in rank-index sweeps
BATCH = 1 << 16  # entries (rows x degree) per batch of chain-build rows


class ResourceLimitError(RuntimeError):
    """An enumeration cap was exceeded."""


class ConsistencyError(RuntimeError):
    """An internal exact cross-check failed; results must not be trusted."""


# ---------------------------------------------------------------------------
# permutation primitives
# ---------------------------------------------------------------------------

def perm_dtype(degree: int):
    return np.uint8 if degree <= 255 else np.uint16


def identity_perm(degree: int) -> np.ndarray:
    return np.arange(degree, dtype=perm_dtype(degree))


def as_perm(images, degree: int | None = None) -> np.ndarray:
    """A copy of images as a permutation array; the values are checked
    before the cast to the narrow dtype, which would wrap or truncate."""
    arr = np.asarray(images)
    n = degree if degree is not None else len(arr)
    if sorted(arr.tolist()) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    return arr.astype(perm_dtype(n))


def perm_from_cycles(cycles, degree: int) -> np.ndarray:
    p = identity_perm(degree).copy()
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
    if sorted(p.tolist()) != list(range(degree)):
        raise ValueError("cycles overlap or exceed degree")
    return p


def compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p o q: apply q first, then p."""
    return p[q]


def inverse(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def inverse_rows(perms: np.ndarray) -> np.ndarray:
    """The inverse of each row of an N x degree array of permutations."""
    inv = np.empty_like(perms)
    inv[np.arange(len(perms))[:, None], perms] = np.arange(perms.shape[1],
                                                           dtype=perms.dtype)
    return inv


def conjugate(g: np.ndarray, x: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """g o x o g^-1."""
    return g[x[ginv]]


def perm_power(p: np.ndarray, k: int) -> np.ndarray:
    if k < 0:
        return perm_power(inverse(p), -k)
    result = identity_perm(len(p))
    base = p
    while k:
        if k & 1:
            result = base[result]
        base = base[base]
        k >>= 1
    return result


def perm_order(p: np.ndarray) -> int:
    order = 1
    images = p.tolist()
    seen = [False] * len(images)
    for i in range(len(images)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        order = lcm(order, length)
    return order


def is_identity(p: np.ndarray) -> bool:
    return bool((p == np.arange(len(p), dtype=p.dtype)).all())


# ---------------------------------------------------------------------------
# stabilizer chain (deterministic Schreier-Sims)
# ---------------------------------------------------------------------------

def _gather_rows(table: np.ndarray, rows, perms: np.ndarray) -> np.ndarray:
    """table[rows[k]][perms[k]] for each k, as one flat gather (int32 offsets
    row * width + image while they fit)."""
    dtype = np.int32 if table.size < 1 << 31 else np.int64
    offsets = np.asarray(rows, dtype=dtype) * table.shape[1]
    return table.ravel()[offsets[:, None] + perms]


class StabilizerChain:
    """Base, strong generators and transversals (Sims' deterministic
    Schreier-Sims algorithm; Seress, Permutation Group Algorithms, ch. 4).

    A new level's base point is the least point moved by the strong
    generator that opens it, so the chain is deterministic.  Level i is
    stored once, as arrays (position, forward, inverse): position maps a
    point to its place in the sorted orbit of base[i] (-1 outside the orbit),
    forward holds the transversal rows t_x in that order and inverse their
    inverses.  The rank index reads the same arrays.

    Levels are closed deepest first, so a level sifts its Schreier
    generators t_{s(x)}^-1 o s o t_x only through deeper levels that already
    form a stabilizer chain of the group their generators make.  A
    non-identity residue is registered at once, and the levels below the
    closing one are closed again, deepest first, before the level goes on.
    An orbit only grows and a point keeps the row it was found with, so each
    Schreier generator (x, s) is sifted once, and the pairs whose
    breadth-first tree edge defined t_{s(x)} = s o t_x (the identity by
    construction) are never built.  Schreier generators are sifted in
    batches of rows; after each registration the batch's remaining
    non-identity rows are sifted again from their residues.  That gives the
    same chain as sifting each one afresh: a row strips as before through
    every level whose orbit held its base image, and its residue fixes those
    base points, whose rows are the identity."""

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # strong generators in registration order, each with the number of
        # leading base points it fixes
        self._strong: list[tuple[int, np.ndarray]] = []
        # per level: orbit points in the order found, and how many of the
        # level's generators the orbit has been closed under
        self._found: list[list[int]] = []
        self._seen: list[int] = []
        for g in generators:
            if not is_identity(g):
                self._register(g, 0)
        for level in reversed(range(len(self.base))):
            self._close_level(level)

    @property
    def level_gens(self) -> list[list[np.ndarray]]:
        """The strong generators registered at each level, in order."""
        gens = [[] for _ in self.base]
        for at, g in self._strong:
            gens[at].append(g)
        return gens

    @property
    def transversals(self) -> list[dict[int, np.ndarray]]:
        """Each level as {orbit point: transversal row}."""
        return [dict(zip(np.flatnonzero(position >= 0).tolist(), forward))
                for position, forward, _ in self.levels]

    def strip(self, g: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The residue of g stripped level by level, and the orbit position
        of the transversal row used at each level passed; fewer positions
        than levels where a base image leaves its orbit."""
        positions = []
        for b, (position, _, inv) in zip(self.base, self.levels):
            pos = int(position[g[b]])
            if pos < 0:
                break
            positions.append(pos)
            g = inv[pos][g]
        return g, positions

    def _fixed_level(self, g: np.ndarray) -> int:
        """Number of leading base points fixed by g."""
        for i, b in enumerate(self.base):
            if int(g[b]) != b:
                return i
        return len(self.base)

    def _register(self, g: np.ndarray, level: int) -> int:
        """Record a copy of g as a strong generator at the deepest level whose
        leading base points it fixes, creating a new level if it fixes all of
        them; returns that level."""
        at = self._fixed_level(g)
        if at < level:
            raise ConsistencyError("sifted element moves an earlier base point")
        if at == len(self.base):
            moved = np.nonzero(g != np.arange(self.degree, dtype=g.dtype))[0]
            b = int(moved[0])
            position = np.full(self.degree, -1, dtype=np.int32)
            position[b] = 0
            identity = identity_perm(self.degree)[None]
            self.base.append(b)
            self.levels.append((position, identity, identity.copy()))
            self._found.append([b])
            self._seen.append(0)
        self._strong.append((at, g.copy()))
        return at

    def _gens_from(self, level: int) -> list[np.ndarray]:
        """All strong generators fixing base[:level], in registration order."""
        return [g for at, g in self._strong if at >= level]

    def _extend(self, level: int) -> list[tuple[int, int]]:
        """Close the orbit at `level` under the generators it has not seen and
        return the Schreier pairs (x, generator index) this adds, in order,
        less the tree edges.  The points found before see only the new
        generators, then each new point, breadth first, sees all of them;
        the first hit of y from x by s gives t_y = s o t_x, and every
        earlier row is kept."""
        gens = self._gens_from(level)
        found, seen = self._found[level], self._seen[level]
        if seen == len(gens):
            return []
        self._seen[level] = len(gens)
        images = [s.tolist() for s in gens]
        known = len(found)
        depth = dict.fromkeys(found, 0)
        pairs = []
        tree = []  # per depth: (new points, their parents, generator indices)
        for i, x in enumerate(found):  # found grows while it is read
            for j in range(seen if i < known else 0, len(gens)):
                y = images[j][x]
                if y in depth:
                    pairs.append((x, j))
                    continue
                depth[y] = depth[x] + 1
                if depth[y] > len(tree):
                    tree.append(([], [], []))
                points, parents, via = tree[-1]
                points.append(y)
                parents.append(x)
                via.append(j)
                found.append(y)
        if tree:
            self.levels[level] = self._grown(self.levels[level], found, tree,
                                             gens)
        return pairs

    def _grown(self, level_arrays, found, tree, gens):
        """Level arrays for the orbit `found`: the rows of the points in
        `level_arrays` are kept, and the new points' rows are built a
        breadth-first layer of the tree at a time."""
        old_position, old_forward, old_inv = level_arrays
        orbit = np.sort(np.array(found))
        position = np.full(self.degree, -1, dtype=np.int32)
        position[orbit] = np.arange(len(orbit))
        forward = np.empty((len(orbit), self.degree), dtype=old_forward.dtype)
        inv = np.empty_like(forward)
        kept = position[np.flatnonzero(old_position >= 0)]
        forward[kept] = old_forward
        inv[kept] = old_inv
        stacked = np.stack(gens)
        step = max(1, BATCH // self.degree)
        for points, parents, via in tree:
            for lo in range(0, len(points), step):
                hi = lo + step
                forward[position[points[lo:hi]]] = _gather_rows(
                    stacked, via[lo:hi], forward[position[parents[lo:hi]]])
        new = position[[y for points, _, _ in tree for y in points]]
        for lo in range(0, len(new), step):
            inv[new[lo:lo + step]] = inverse_rows(forward[new[lo:lo + step]])
        return position, forward, inv

    def _sift_rows(self, rows: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Strip each row in place through levels start..stop-1 and return the
        rows; a row stays as it is from the first level where its base image
        leaves the orbit."""
        active = np.arange(len(rows))
        for b, (position, _, inv) in zip(self.base[start:stop],
                                         self.levels[start:stop]):
            pos = position[rows[active, b]]
            inside = pos >= 0
            active = active[inside]
            rows[active] = _gather_rows(inv, pos[inside], rows[active])
        return rows

    def _close_level(self, level: int) -> None:
        """Sift every Schreier generator of `level` that is new since its last
        close.  The deeper levels are closed already; a non-identity residue
        is registered, the levels from its own up to level + 1 are closed
        again, deepest first, and the orbit at `level` grows by the new
        generators before the remaining rows are sifted again."""
        queue = self._extend(level)
        identity = identity_perm(self.degree)
        step = max(1, BATCH // self.degree)
        lo = 0
        while lo < len(queue):  # the queue grows while it is read
            x, s = np.array(queue[lo:lo + step]).T
            lo += step
            position, forward, inv = self.levels[level]
            stacked = np.stack(self._gens_from(level))
            residues = _gather_rows(inv, position[stacked[s, x]],
                                    _gather_rows(stacked, s, forward[position[x]]))
            pending = np.arange(len(residues))
            while len(pending):
                residues[pending] = self._sift_rows(residues[pending], level + 1,
                                                    len(self.base))
                pending = pending[(residues[pending] != identity).any(axis=1)]
                if len(pending):
                    at = self._register(residues[pending[0]], level + 1)
                    for deeper in range(at, level, -1):
                        self._close_level(deeper)
                    queue += self._extend(level)
                    pending = pending[1:]

    @property
    def order(self) -> int:
        return reduce(lambda a, level: a * len(level[1]), self.levels, 1)

    @cached_property
    def index(self) -> "RankIndex":
        return RankIndex(self)

    def random_element(self, rng) -> np.ndarray:
        g = identity_perm(self.degree)
        for _, forward, _ in self.levels:
            g = g[forward[rng.randrange(len(forward))]]
        return g


# ---------------------------------------------------------------------------
# rank index: a bijection G -> [0, |G|) through the stabilizer chain
# ---------------------------------------------------------------------------

class RankIndex:
    """Mixed-radix numbering of the elements of a chained group.

    Every element is g = t_0 o t_1 o ... o t_{L-1}, t_i at position p_i in
    the sorted orbit of level i, and rank(g) = sum p_i * radix_i (level 0
    least significant).  t_1.. fix base[0], so g(base[0]) gives p_0; strip
    t_0 and repeat: the base images determine the rank.  Each level holds the
    chain's own (position, forward, inverse) arrays and a radix."""

    def __init__(self, chain: "StabilizerChain"):
        check_class_cap(chain.order, (1 << 31) - 1)
        self.degree = chain.degree
        self.order = chain.order
        self.base = np.array(chain.base, dtype=np.intp)
        self.levels = []
        radix = 1
        for position, forward, inv in chain.levels:
            self.levels.append((position, forward, inv, radix))
            radix *= len(forward)

    def images(self, ranks, points) -> np.ndarray:
        """len(ranks) x len(points): the image of each point under the
        element of each rank.  Ranks that agree from level i up share the
        images under t_i o ... o t_{L-1}, so each level composes one row per
        run of equal rank prefixes (few runs above level 0 for sorted ranks;
        any order gives the same images)."""
        if len(points) > self.degree:  # whole elements gather less
            return self.unrank(ranks)[:, points]
        prefix = np.asarray(ranks, dtype=np.int64)
        digits = []
        for _, forward, _, _ in self.levels:
            high = prefix // len(forward)
            run = np.ones(len(high), dtype=bool)
            np.not_equal(high[1:], high[:-1], out=run[1:])
            digits.append((forward, prefix % len(forward), np.cumsum(run) - 1))
            prefix = high[run]
        out = np.broadcast_to(np.asarray(points, dtype=perm_dtype(self.degree)),
                              (len(prefix), len(points)))
        for forward, digit, at in reversed(digits):
            out = _gather_rows(forward, digit, out[at])
        return np.ascontiguousarray(out)  # a copy only for the trivial group

    def point_images(self, point: int) -> np.ndarray:
        """The image of one point under every element, in rank order: each
        level, from the top, extends the images by one mixed-radix digit."""
        out = np.array([point], dtype=perm_dtype(self.degree))
        for _, forward, _, _ in reversed(self.levels):
            out = forward[:, out].T.ravel()
        return out

    def unrank(self, ranks) -> np.ndarray:
        return self.images(ranks, np.arange(self.degree))

    def rank(self, base_images) -> np.ndarray:
        """Ranks of the group elements with the given rows of base images;
        -1 where an image leaves its orbit.  Only rows that come from group
        elements are ranked correctly: `sift` checks arbitrary permutations."""
        images = np.array(base_images, dtype=perm_dtype(self.degree), order="F")
        ranks = np.zeros(len(images), dtype=np.int32)  # the order is < 2^31
        outside = np.zeros(len(images), dtype=bool)
        for i, (position, _, inv, radix) in enumerate(self.levels):
            pos = position[images[:, i]]
            missing = pos < 0
            outside |= missing
            pos[missing] = 0
            ranks += pos * radix
            offsets = pos.astype(np.intp) * self.degree
            for col in range(i + 1, len(self.levels)):
                images[:, col] = inv.ravel()[offsets + images[:, col]]
        ranks[outside] = -1
        return ranks

    def sift(self, perms) -> np.ndarray:
        """Ranks of the given permutations, -1 for rows outside the group: a
        row is a member iff it is the element its base images rank to."""
        perms = np.asarray(perms)
        ranks = self.rank(perms[:, self.base])
        inside = ranks >= 0
        inside[inside] = (self.unrank(ranks[inside]) == perms[inside]).all(axis=1)
        ranks[~inside] = -1
        return ranks


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

class PermGroup:
    def __init__(self, degree: int, generators, name: str | None = None):
        if degree < 1 or degree > DEGREE_CAP:
            raise ValueError("degree out of range")
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            arr = as_perm(g, degree)
            k = arr.tobytes()
            if k not in seen and not is_identity(arr):
                seen.add(k)
                gens.append(arr)
        self.generators = gens
        self.name = name or f"group(deg={degree})"
        self._chain: StabilizerChain | None = None

    def __repr__(self):
        return f"PermGroup({self.name}, degree={self.degree})"

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order

    def contains(self, g) -> bool:
        """A member strips to the identity through every level."""
        residue, positions = self.chain.strip(as_perm(g, self.degree))
        return len(positions) == len(self.chain.base) and is_identity(residue)

    def elements(self):
        """Every group element exactly once, in rank order."""
        for start in range(0, self.order, CHUNK):
            yield from self.chain.index.unrank(
                np.arange(start, min(start + CHUNK, self.order)))

    def random_element(self, rng) -> np.ndarray:
        return self.chain.random_element(rng)

    def identity(self) -> np.ndarray:
        return identity_perm(self.degree)

    def normality_witness(self, c) -> tuple[np.ndarray, np.ndarray] | None:
        """The first generator g whose conjugate c g c^-1 leaves the group,
        with that conjugate; None when c normalizes the group."""
        c = as_perm(c, self.degree)
        cinv = inverse(c)
        conjugates = ((g, conjugate(c, g, cinv)) for g in self.generators)
        return next(((g, x) for g, x in conjugates if not self.contains(x)), None)


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyClass:
    rep: np.ndarray  # lexicographically least member
    size: int
    order: int


class ClassTable:
    """Canonical conjugacy class list.

    Classes sorted by (element order, class size, lex-least representative);
    the identity class is index 0.  `class_id[r]` is the class index of the
    element of rank r in the group's rank index; `classes_of` sifts rows to
    ranks, rejecting any outside the group, and reads that array.  `power`,
    the classes of the powers of each representative, is built on first use.
    """

    def __init__(self, group: PermGroup, classes: list[ConjugacyClass],
                 class_id: np.ndarray):
        self.group = group
        self.classes = classes
        self.class_id = class_id
        self.exponent = reduce(lcm, (c.order for c in classes), 1)

    def __len__(self):
        return len(self.classes)

    @property
    def sizes(self):
        return [c.size for c in self.classes]

    @property
    def orders(self):
        return [c.order for c in self.classes]

    @cached_property
    def power(self) -> list[np.ndarray]:
        """power[j][u] = class of rep_j^u for u below the order of class j,
        from one batched lookup of all the stacked powers; i = power[j][-1]
        must have |C_i| = |C_j| and power[i][u] = power[j][-u mod o]."""
        rows = []
        for c in self.classes:
            g = identity_perm(self.group.degree)
            for _ in range(c.order):
                rows.append(g)
                g = c.rep[g]
        power = np.split(self.classes_of(np.stack(rows)),
                         np.cumsum(self.orders)[:-1])
        if any(pw[0] != 0 or pw[1 % len(pw)] != j for j, pw in enumerate(power)):
            raise ConsistencyError("power table disagrees with the class list")
        for j, pw in enumerate(power):
            i = pw[-1]
            if (self.classes[i].size != self.classes[j].size or not
                    np.array_equal(power[i], pw[-np.arange(len(pw)) % len(pw)])):
                raise ConsistencyError(
                    f"power table is not closed under inversion at class {j}")
        return power

    def classes_of(self, perms) -> np.ndarray:
        """Class index of each row of an N x degree array."""
        perms = np.asarray(perms)
        degree = self.group.degree
        if perms.ndim != 2 or perms.shape[1] != degree:
            raise ValueError(f"expected rows of {degree} images")
        if perms.size and (perms.min() < 0 or perms.max() >= degree):
            raise ValueError("image out of range")
        ranks = self.group.chain.index.sift(perms)
        if (ranks < 0).any():
            raise ValueError("element not in the enumerated group")
        return self.class_id[ranks]

    def class_of(self, x) -> int:
        """Class index of one element: its strip through the chain gives the
        rank sum p_i * radix_i, and a member strips to the identity."""
        chain = self.group.chain
        residue, positions = chain.strip(as_perm(x, self.group.degree))
        if len(positions) < len(chain.base) or not is_identity(residue):
            raise ValueError("element not in the enumerated group")
        return int(self.class_id[sum(pos * radix for pos, (_, _, _, radix)
                                     in zip(positions, chain.index.levels))])


def check_class_cap(order: int, cap: int) -> None:
    if order > cap:
        raise ResourceLimitError(
            f"group order {order} exceeds enumeration cap {cap}")


def orbit_labels(actions, n: int) -> np.ndarray:
    """Least point of the orbit of each of 0..n-1 under the given int arrays
    (maps of 0..n-1 into itself).  A label is always a point of the same
    orbit and never above its own point.  Each round hooks labels along every
    map that does not preserve them (`_hook`), then jumps pointers
    (labels[labels]) to a fixpoint; a round in which every map preserves the
    labels ends it."""
    labels = np.arange(n, dtype=np.int32)
    while True:
        hooked = [_hook(labels, act) for act in actions]
        if not any(hooked):
            return labels
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def _hook(labels: np.ndarray, act: np.ndarray) -> bool:
    """Hook the larger of labels[x] and labels[act[x]] to the smaller, in
    place, for x in slices of CHUNK << 6 points (the smaller one's own label
    is never above it, so hooking it too would change nothing); False if act
    preserves the labels.  Each pair it hooks lies in one orbit, so labels
    stay in their orbits however the slices see each other's hooks."""
    step = CHUNK << 6
    hooked = False
    for lo in range(0, len(labels), step):
        here = labels[lo:lo + step]
        ahead = labels[act[lo:lo + step]]
        if np.array_equal(ahead, here):
            continue
        hooked = True
        least = np.minimum(here, ahead)
        np.minimum.at(labels, np.maximum(here, ahead, out=ahead), least)
    return hooked


def orbits(actions, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of 0..n-1 under the given maps (`orbit_labels`), numbered
    by their least points in ascending order: (roots, orbit_id), roots[i] the
    least point of orbit i and orbit_id[x] the number of the orbit of x."""
    labels = orbit_labels(actions, n)
    is_root = labels == np.arange(n, dtype=np.int32)
    return np.flatnonzero(is_root), (np.cumsum(is_root, dtype=np.int32) - 1)[labels]


def _rank_actions(index: RankIndex, pairs) -> list[np.ndarray]:
    """For each pair (u, v), the map r -> rank(u x_r v) of the ranks, from
    base images only: (u x v)(b) = u[x[v[b]]].  Each chunk also re-ranks its
    own base images, which must give the chunk back."""
    n, width = index.order, len(index.base)
    points = np.concatenate([index.base] + [v[index.base] for _, v in pairs])
    actions = [np.empty(n, dtype=np.int32) for _ in pairs]
    for start in range(0, n, CHUNK):
        ranks = np.arange(start, min(start + CHUNK, n), dtype=np.int32)
        images = index.images(ranks, points)
        if not np.array_equal(index.rank(images[:, :width]), ranks):
            raise ConsistencyError("rank index is not a bijection on this chunk")
        for j, (u, _) in enumerate(pairs, 1):
            actions[j - 1][ranks] = index.rank(u[images[:, width * j:width * (j + 1)]])
    if any((act < 0).any() for act in actions):
        raise ConsistencyError("a product left the group")
    return actions


def _lex_least(index: RankIndex, class_id: np.ndarray, k: int) -> np.ndarray:
    """Rank of the lex-least member of each of the k classes: candidates are
    filtered point by point to those whose image of the point is least in
    their class, until one per class is left."""
    cand = np.arange(index.order, dtype=np.int32)
    for point in range(index.degree):
        if len(cand) == k:
            break
        image = index.point_images(point)[cand]
        # one dtype for both: ufunc.at has no fast path for a mixed pair
        least = np.full(k, np.iinfo(image.dtype).max, dtype=image.dtype)
        np.minimum.at(least, class_id[cand], image)
        cand = cand[image == least[class_id[cand]]]
    if len(cand) != k:
        raise ConsistencyError("distinct elements share every image")
    return cand[np.argsort(class_id[cand])]


def _classify(group: PermGroup) -> ClassTable:
    """The classes are the orbits of the generators' conjugation actions on
    the ranks; sizes are label counts, representatives the lex-least."""
    index = group.chain.index
    n = index.order
    roots, found_id = orbits(_rank_actions(
        index, [(s, inverse(s)) for s in group.generators]), n)
    k = len(roots)
    sizes = np.bincount(found_id, minlength=k).tolist()
    reps = index.unrank(_lex_least(index, found_id, k))
    if sum(sizes) != n:
        raise ConsistencyError(f"class sizes sum to {sum(sizes)}, group order is {n}")
    if any(n % size for size in sizes):
        raise ConsistencyError("class size does not divide group order")
    orders = [perm_order(r) for r in reps]
    # canonical order: (element order, class size, lex-least representative)
    images = reps.tolist()
    perm_sort = sorted(range(k), key=lambda i: (orders[i], sizes[i], images[i]))
    classes = [ConjugacyClass(rep=reps[i], size=sizes[i], order=orders[i])
               for i in perm_sort]
    if classes[0].order != 1 or classes[0].size != 1:
        raise ConsistencyError("identity class is not first")
    remap = np.empty(k, dtype=np.int32)
    remap[perm_sort] = np.arange(k, dtype=np.int32)
    return ClassTable(group, classes, remap[found_id])


def conjugacy_classes(group: PermGroup) -> ClassTable:
    """Enumerate the conjugacy classes of `group` on its rank index."""
    check_class_cap(group.order, CLASS_CAP)
    return _classify(group)


# ---------------------------------------------------------------------------
# class counts, power maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCounts:
    p: int
    k: int
    k_p: int
    k_p_prime: int


def class_counts(table: ClassTable, p: int) -> ClassCounts:
    """k_p = classes of nontrivial p-elements, k_{p'} = p-regular classes."""
    k_p = 0
    k_pp = 0
    for c in table.classes:
        if c.order % p == 0:
            if p_part(c.order, p) == c.order and c.order > 1:
                k_p += 1
        else:
            k_pp += 1
    return ClassCounts(p=p, k=len(table.classes), k_p=k_p, k_p_prime=k_pp)


def power_class_map(table: ClassTable, k: int) -> list[int]:
    """The permutation of class indices induced by g -> g^k."""
    e = table.exponent
    if gcd(k, e) != 1:
        raise ValueError(f"k={k} is not coprime to the exponent {e}")
    return [int(pw[k % len(pw)]) for pw in table.power]


# ---------------------------------------------------------------------------
# quotient groups
# ---------------------------------------------------------------------------

def _on_orbits(n_actions, g_actions, n: int, name: str) -> PermGroup:
    """G acting on the N-orbits of 0..n-1, numbered by their least points:
    each map of g_actions must permute the orbits of n_actions."""
    roots, orbit_id = orbits(n_actions, n)
    return PermGroup(len(roots), [orbit_id[g[roots]] for g in g_actions],
                     name=name)


def quotient_group(group: PermGroup, normal_gens,
                   name: str | None = None) -> PermGroup:
    """The quotient G/N as a faithful permutation group: G on the N-orbits
    of a G-set (`_on_orbits`).

    N must lie in G, and a generator of N outside G is named.  Normality is
    verified exhaustively on generators; a failing conjugate is reported as
    a witness.  Because N is normal, each generator of G permutes the
    N-orbits of the points, and N acts trivially on them; so that action is
    a faithful G/N exactly when its order is |G:N|, and then it is
    returned.  Otherwise the G-set is G itself, numbered by rank: N
    acts by right multiplication, r -> rank(x_r n), whose orbits are the
    cosets xN, and G by left multiplication, r -> rank(g x_r), which
    permutes them (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, ch. 4).  That path needs G's rank index, so |G| is held to the
    class-enumeration cap; its degree is |G:N|, which is held to
    `DEGREE_CAP` before any rank action is built; and its result must have
    order |G:N|."""
    n_group = PermGroup(group.degree, normal_gens, name="N")
    for ng in n_group.generators:
        if not group.contains(ng):
            raise ValueError(f"generator {ng.tolist()} of N is not in G")
    for g in group.generators:
        if (escaped := n_group.normality_witness(g)) is not None:
            ng, conj = escaped
            raise ValueError(
                f"subgroup is not normal: conjugate {conj.tolist()} of its "
                f"generator {ng.tolist()} by {g.tolist()} lies outside it")
    index = group.order // n_group.order
    name = name or f"{group.name}/N"
    quotient = _on_orbits(n_group.generators, group.generators, group.degree, name)
    if quotient.order == index:
        return quotient

    if index > DEGREE_CAP:
        raise ResourceLimitError(
            f"index {index} exceeds degree cap {DEGREE_CAP} of the regular quotient")
    check_class_cap(group.order, CLASS_CAP)
    one = group.identity()
    actions = _rank_actions(group.chain.index,
                            [(one, ng) for ng in n_group.generators]
                            + [(g, one) for g in group.generators])
    k = len(n_group.generators)
    quotient = _on_orbits(actions[:k], actions[k:], group.order, name)
    if quotient.order != index:
        raise ConsistencyError("quotient action is not faithful of full size")
    return quotient


# ---------------------------------------------------------------------------
# Burnside cross-check
# ---------------------------------------------------------------------------

def burnside_class_count(group: PermGroup) -> int:
    """Number of classes as the average number of fixed points of the
    conjugation action, computed exhaustively (an independent oracle).
    g x g^-1 = x is tested on the base points, whose images determine an
    element: (g x g^-1)(b) = g[x[g^-1[b]]]."""
    n = group.order
    if n > BURNSIDE_CAP:
        raise ResourceLimitError(
            f"group order {n} exceeds Burnside cap {BURNSIDE_CAP}")
    base = np.array(group.chain.base, dtype=np.intp)
    elements = np.stack(list(group.elements()))
    at_base = elements[:, base]
    total = 0
    for g in elements:
        conj_at_base = g[elements[:, inverse(g)[base]]]
        total += int((conj_at_base == at_base).all(axis=1).sum())
    if total % n:
        raise ConsistencyError("fixed-point total not divisible by |G|")
    return total // n


# ---------------------------------------------------------------------------
# class table cache files
# ---------------------------------------------------------------------------

CACHE_FORMAT_VERSION = 1


def save_class_table(table: ClassTable, path):
    lines = [
        f"regclass-classtable {CACHE_FORMAT_VERSION}",
        f"degree {table.group.degree}",
        f"order {table.group.order}",
        f"generators {';'.join(','.join(map(str, g.tolist())) for g in table.group.generators)}",
        f"classes {len(table.classes)}",
    ]
    for c in table.classes:
        rep = ",".join(map(str, c.rep.tolist()))
        lines.append(f"{c.size} {c.order} {rep}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_class_table(group: PermGroup, path) -> ClassTable:
    """Reread a cached table and verify it against `group`: the group is
    labelled afresh and every cached row (class count, size, element order,
    lex-least representative) must match exactly.  A malformed file raises
    ValueError."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        head, ver = lines[0].split()
        if head != "regclass-classtable" or int(ver) != CACHE_FORMAT_VERSION:
            raise ValueError("unrecognized cache file format")
        degree = int(lines[1].split()[1])
        order = int(lines[2].split()[1])
        gen_field = lines[3].split(" ", 1)[1] if " " in lines[3] else ""
        count = int(lines[4].split()[1])
    except IndexError as exc:
        raise ValueError("truncated class-table cache header") from exc
    gens = [tuple(map(int, part.split(","))) for part in gen_field.split(";") if part]
    if degree != group.degree or order != group.order:
        raise ConsistencyError("cache does not match the group")
    if sorted(map(tuple, (g.tolist() for g in group.generators))) != sorted(gens):
        raise ConsistencyError("cache generator list does not match the group")
    cached = []
    for line in lines[5:5 + count]:
        size_s, order_s, rep_s = line.split(" ", 2)
        rep = as_perm(tuple(map(int, rep_s.split(","))), degree)
        cached.append((int(size_s), int(order_s), rep.tolist()))
    table = _classify(group)
    fresh = [(c.size, c.order, c.rep.tolist()) for c in table.classes]
    if count != len(cached) or cached != fresh:
        bad = next((i for i, (a, b) in enumerate(zip(cached, fresh)) if a != b),
                   min(len(cached), len(fresh)))
        raise ConsistencyError(f"cached class {bad} does not match the group")
    return table


__all__ = [
    "PermGroup", "StabilizerChain", "RankIndex", "ClassTable", "ConjugacyClass",
    "ClassCounts", "ResourceLimitError", "ConsistencyError",
    "identity_perm", "as_perm", "perm_from_cycles", "compose", "inverse",
    "inverse_rows", "conjugate", "perm_power", "perm_order", "is_identity",
    "conjugacy_classes", "check_class_cap",
    "orbit_labels", "orbits", "class_counts",
    "power_class_map", "quotient_group",
    "burnside_class_count", "save_class_table", "load_class_table",
    "CLASS_CAP", "DEGREE_CAP", "CHUNK",
]
