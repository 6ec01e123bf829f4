"""Fusion of conjugacy classes under a supplied outer action.

Orbits of classes under conjugation by normalizing permutations: each
conjugator maps class(x) to class(c x c^-1), found by one batched lookup, and
the orbits of those maps are labelled by their least class.  Orbit counts
split by p give the quantities n(Aut, Cl_p'), n(Aut, Cl_p) and their sum.
"""

from dataclasses import dataclass

import numpy as np

from .numtheory import p_part
from .permgroup import ClassTable, PermGroup, inverse, orbits


@dataclass(frozen=True)
class OrbitPartition:
    orbit_of: tuple[int, ...]  # orbit id per class index
    orbits: tuple[tuple[int, ...], ...]  # member class indices per orbit

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def fuse_classes(table: ClassTable, group: PermGroup, conjugators) -> OrbitPartition:
    """Equivalence closure of class(x) ~ class(c x c^-1) for each conjugator.

    Each conjugator must normalize the group; violations are rejected with a
    witness.  Orbits are numbered by least member class index."""
    for c in conjugators:
        if (witness := group.normality_witness(c)) is not None:
            g, conj = witness
            raise ValueError(
                f"conjugator does not normalize the group; witness generator "
                f"{g.tolist()} goes to {conj.tolist()}")

    # conjugation by a normalizing c permutes the classes
    reps = np.stack([cls.rep for cls in table.classes])
    maps = [table.classes_of(c[reps[:, inverse(c)]]) for c in conjugators]
    roots, orbit_id = orbits(maps, len(reps))
    orbit_of = orbit_id.tolist()
    members = [[] for _ in roots]
    for i, o in enumerate(orbit_of):
        members[o].append(i)
    return OrbitPartition(orbit_of=tuple(orbit_of), orbits=tuple(map(tuple, members)))


@dataclass(frozen=True)
class OrbitCounts:
    p: int
    n_pregular: int
    n_pelement: int

    @property
    def n_union(self) -> int:
        return self.n_pregular + self.n_pelement


def orbit_counts(partition: OrbitPartition, table: ClassTable, p: int) -> OrbitCounts:
    """Orbits of p-regular classes and of nontrivial p-element classes.

    Fusion preserves element orders, so every orbit is homogeneous; orbits of
    mixed-order classes (order divisible by p but not a p-power) count in
    neither bucket, matching the disjoint union Cl_p' u Cl_p."""
    n_pregular = 0
    n_pelement = 0
    for orbit in partition.orbits:
        order = table.classes[orbit[0]].order
        if any(table.classes[i].order != order for i in orbit[1:]):
            raise ValueError("fusion orbit mixes element orders")
        if order % p:
            n_pregular += 1
        elif order > 1 and p_part(order, p) == order:
            n_pelement += 1
    return OrbitCounts(p=p, n_pregular=n_pregular, n_pelement=n_pelement)


__all__ = ["OrbitPartition", "OrbitCounts", "fuse_classes", "orbit_counts"]
