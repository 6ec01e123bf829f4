"""The verification corpus: deterministic constructions of concrete groups.

Each catalog entry builds a permutation group together with `aut_conjugators`:
permutations of the same degree that normalize the group and generate the
outer action used for class fusion.  Outer automorphisms are always realized
by ambient conjugation (diagonal/field/graph automorphisms as explicit
permutations), never by abstract generator maps.

Every entry has at most two generators (class enumeration costs one
conjugation action per generator).  For the matrix families each is a fixed
word in the natural matrices, or in their permutations; `_build_checked`
compares the built order with the family formula, and that check is the proof
that the two generate the whole group.

There is one catalog, and every entry is below the one class-enumeration cap
(`permgroup.CLASS_CAP`); the largest is psl2(256), of order 16,776,960.

Matrix groups act projectively, except sl2 on the nonzero vectors: points
are normalized vectors (first nonzero coordinate 1) ordered by the integer
encoding of their coordinates.  The points are one N x dim array of field
codes, and `matrix_indices` maps all of them under a matrix at once.  No
matrix is inverted: PSL3 moves lines by the inverse of the permutation that
the transpose induces on points.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd

import numpy as np

from . import gf
from .numtheory import (is_prime, multiplicative_order,
                        prime_power_decomposition)
from .permgroup import PermGroup, as_perm, compose, inverse, perm_from_cycles


# ---------------------------------------------------------------------------
# matrices and vectors over GF(q): numpy arrays of field codes
# ---------------------------------------------------------------------------

def mat_mul(F, A, B):
    return F.dot(A[:, None, :], B.T[None, :, :])


def vectors(q, codes, dim):
    """One row per code: coordinate t is base-q digit t of the code."""
    return np.asarray(codes, dtype=np.int64)[:, None] // q ** np.arange(dim) % q


def point_indices(F, points, images):
    """The row of `points` equal to each row of `images`, by one lookup in
    an array indexed by the vector codes."""
    weights = F.q ** np.arange(points.shape[1])
    index = np.full(F.q ** points.shape[1], -1, dtype=np.int64)
    index[points @ weights] = np.arange(len(points))
    return index[images @ weights]


def matrix_indices(F, points, A, projective):
    """The row of `points` that v -> A v sends each row v to; when
    projective, images are first scaled to leading coordinate 1."""
    images = F.dot(A, points[:, None, :])
    if projective:
        lead = images[np.arange(len(images)), (images != 0).argmax(axis=1)]
        images = F.mul(F.inv(lead)[:, None], images)
    return point_indices(F, points, images)


# ---------------------------------------------------------------------------
# projective and linear actions
# ---------------------------------------------------------------------------

def projective_points(F, dim):
    """Normalized projective points of F^dim, in integer-encoding order.

    Coordinate t is base-q digit t of the code, so the points whose first
    nonzero coordinate is t = j (and equal to 1) have the codes
    q^j + q^(j+1) m for m < q^(dim-1-j): only these are listed and decoded."""
    q = F.q
    codes = np.sort(np.concatenate(
        [q**j + q**(j + 1) * np.arange(q**(dim - 1 - j)) for j in range(dim)]))
    return vectors(q, codes, dim)


def projective_perm(F, points, A):
    """The permutation induced by matrix A on the listed projective points."""
    return as_perm(matrix_indices(F, points, A, projective=True), len(points))


def linear_perm(F, points, A):
    """The permutation induced by matrix A on the listed vectors."""
    return as_perm(matrix_indices(F, points, A, projective=False), len(points))


def frobenius_point_perm(F, points):
    """Coordinate-wise Frobenius x -> x**ell on projective points."""
    return as_perm(point_indices(F, points, F.frobenius(points, 1)), len(points))


# ---------------------------------------------------------------------------
# family order formulas (checked at build time)
# ---------------------------------------------------------------------------

def family_order(family: str, params: tuple) -> int:
    if family == "cyclic":
        return params[0]
    if family == "dihedral":
        return 2 * params[0]
    if family == "frobenius":
        return params[0] * params[1]
    if family == "sym":
        return factorial(params[0])
    if family == "alt":
        return factorial(params[0]) // 2
    if family == "psl2":
        q = params[0]
        return q * (q * q - 1) // gcd(2, q - 1)
    if family == "pgl2":
        q = params[0]
        return q * (q * q - 1)
    if family == "pgammal2":
        q = params[0]
        _, f = prime_power_decomposition(q)
        return q * (q * q - 1) * f
    if family == "sl2":
        q = params[0]
        return q * (q * q - 1)
    if family == "psl3_with_duality":
        q = params[0]
        return q**3 * (q**3 - 1) * (q**2 - 1) // gcd(3, q - 1)
    if family == "sp4":
        q = params[0]
        return q**4 * (q**2 - 1) * (q**4 - 1) // gcd(2, q - 1)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_cyclic(n):
    g = PermGroup(n, [perm_from_cycles([list(range(n))], n)], name=f"C{n}")
    return g, []


def _build_dihedral(n):
    rot = perm_from_cycles([list(range(n))], n)
    refl = as_perm([(-i) % n for i in range(n)], n)
    return PermGroup(n, [rot, refl], name=f"D{2 * n}"), []


def _build_frobenius(p, d):
    if not is_prime(p) or (p - 1) % d:
        raise ValueError("frobenius(p, d) requires p prime and d | p-1")
    mult = next(a for a in range(2, p)
                if multiplicative_order(a, p) == d)
    shift = as_perm([(i + 1) % p for i in range(p)], p)
    scale = as_perm([i * mult % p for i in range(p)], p)
    return PermGroup(p, [shift, scale], name=f"F{p * d}"), []


def _build_sym(n):
    gens = [perm_from_cycles([[0, 1]], n)]
    if n > 2:
        gens.append(perm_from_cycles([list(range(n))], n))
    return PermGroup(n, gens, name=f"S{n}"), []


def _build_alt(n):
    if n < 3:
        raise ValueError("alt(n) needs n >= 3")
    gens = [perm_from_cycles([[0, 1, 2]], n)]
    if n > 3:
        if n % 2:
            gens.append(perm_from_cycles([list(range(n))], n))
        else:
            gens.append(perm_from_cycles([list(range(1, n))], n))
    # a transposition realizes the S_n outer action by ambient conjugation
    return PermGroup(n, gens, name=f"A{n}"), [perm_from_cycles([[0, 1]], n)]


def _sl2_matrices(F):
    """Two generators of SL2(q): the transvection T and D.T.W, where D is
    the diagonal of the least primitive element and W the Weyl element."""
    a = F.primitive_element()
    T = np.array([[1, 1], [0, 1]])
    D = np.array([[a, 0], [0, F.inv(a)]])
    W = np.array([[0, 1], [F.neg(1), 0]])
    return [T, mat_mul(F, mat_mul(F, D, T), W)]


def _field(q):
    ell, f = prime_power_decomposition(q)
    return gf.make_field(ell, f)


def _is_square(F, x):
    return F.pow(x, (F.q - 1) // 2) == F.one


def _build_psl2(q):
    F = _field(q)
    points = projective_points(F, 2)
    gens = [projective_perm(F, points, M) for M in _sl2_matrices(F)]
    conjs = []
    if q % 2:
        b = next(x for x in range(2, q) if not _is_square(F, x))
        conjs.append(projective_perm(F, points, np.array([[b, 0], [0, 1]])))
    if F.f > 1:
        conjs.append(frobenius_point_perm(F, points))
    return PermGroup(len(points), gens, name=f"PSL2({q})"), conjs


def _build_pgl2(q):
    """Generators T and D.T.W.diag(b, 1), b the least primitive element."""
    F = _field(q)
    points = projective_points(F, 2)
    T, DTW = _sl2_matrices(F)
    b = F.primitive_element()
    gens = [projective_perm(F, points, M)
            for M in (T, mat_mul(F, DTW, np.array([[b, 0], [0, 1]])))]
    conjs = [frobenius_point_perm(F, points)] if F.f > 1 else []
    return PermGroup(len(points), gens, name=f"PGL2({q})"), conjs


def _build_pgammal2(q):
    """Generators diag(b, 1), b the least primitive element, and D.T.W
    composed with the Frobenius map (applied first)."""
    F = _field(q)
    points = projective_points(F, 2)
    _, DTW = _sl2_matrices(F)
    b = F.primitive_element()
    gens = [projective_perm(F, points, np.array([[b, 0], [0, 1]])),
            compose(projective_perm(F, points, DTW),
                    frobenius_point_perm(F, points))]
    return PermGroup(len(points), gens, name=f"PGammaL2({q})"), []


def _sl2_vectors(F):
    """The nonzero vectors of GF(q)^2, the points of the sl2(q) catalog
    action: vector (c // q, c % q) for c = 1, ..., q^2 - 1."""
    return vectors(F.q, np.arange(1, F.q**2), 2)[:, ::-1]


def _build_sl2(q):
    F = _field(q)
    points = _sl2_vectors(F)
    gens = [linear_perm(F, points, M) for M in _sl2_matrices(F)]
    return PermGroup(len(points), gens, name=f"SL2({q})"), []


def sl2_center(q):
    """Generators of the center {+-I} of the sl2(q) catalog action."""
    F = _field(q)
    return [linear_perm(F, _sl2_vectors(F), F.neg(np.eye(2, dtype=np.int64)))]


def _psl3_combined_perm(F, points, A):
    """Permutation on points + lines: points by A, lines (indexed by their
    normal vectors) by the inverse-transpose, whose permutation is the
    inverse of the transpose's, the projective action being a homomorphism."""
    n = len(points)
    images = [matrix_indices(F, points, A, projective=True),
              n + inverse(matrix_indices(F, points, A.T, projective=True))]
    return as_perm(np.concatenate(images), 2 * n)


def _build_psl3(q):
    F = _field(q)
    points = projective_points(F, 3)
    n = len(points)
    a = F.primitive_element()
    T = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    W = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    D = np.array([[a, 0, 0], [0, 1, 0], [0, 0, F.inv(a)]])
    WTD = mat_mul(F, mat_mul(F, W, T), D)
    gens = [_psl3_combined_perm(F, points, M) for M in (T, WTD)]
    conjs = []
    if gcd(3, q - 1) == 3:
        diag = np.array([[a, 0, 0], [0, 1, 0], [0, 0, 1]])
        conjs.append(_psl3_combined_perm(F, points, diag))
    if F.f > 1:
        frob = point_indices(F, points, F.frobenius(points, 1))
        conjs.append(as_perm(np.concatenate([frob, n + frob]), 2 * n))
    duality = as_perm([n + i for i in range(n)] + list(range(n)), 2 * n)
    conjs.append(duality)
    return PermGroup(2 * n, gens, name=f"PSL3({q})"), conjs


def _build_sp4(q):
    """Generators t_{e0} o t_{e1} and t_{e2} o t_{e0+e1} o t_{e2+e3}, where
    t_v is the transvection x -> x + B(x, v) v for the form
    B(x, y) = x0 y2 - x2 y0 + x1 y3 - x3 y1 = x^T J y: its matrix is
    I + v (J v)^T."""
    if q not in (2, 3):
        raise ValueError("sp4 is built only for q in {2, 3}")
    F = _field(q)
    points = projective_points(F, 4)
    minus = F.neg(1)
    J = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [minus, 0, 0, 0], [0, minus, 0, 0]])
    I = np.eye(4, dtype=np.int64)
    t = [projective_perm(F, points, F.add(I, F.mul(v[:, None], F.dot(J, v))))
         for v in np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                            [1, 1, 0, 0], [0, 0, 1, 1]])]
    gens = [compose(t[0], t[1]), compose(compose(t[2], t[3]), t[4])]
    return PermGroup(len(points), gens, name=f"PSp4({q})"), []


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

_BUILDERS = {
    "cyclic": _build_cyclic,
    "dihedral": _build_dihedral,
    "frobenius": _build_frobenius,
    "sym": _build_sym,
    "alt": _build_alt,
    "psl2": _build_psl2,
    "pgl2": _build_pgl2,
    "pgammal2": _build_pgammal2,
    "sl2": _build_sl2,
    "psl3_with_duality": _build_psl3,
    "sp4": _build_sp4,
}


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    params: tuple
    simple: bool = False
    solvable: bool = False
    out_description: str = ""

    @property
    def key(self) -> str:
        return f"{self.family}({','.join(map(str, self.params))})"

    @property
    def order(self) -> int:
        return family_order(self.family, self.params)

    def build(self):
        """(PermGroup, aut_conjugators); order checked against the family
        formula, conjugators checked to normalize the group."""
        return _build_checked(self.family, self.params)


@lru_cache(maxsize=None)
def _build_checked(family, params):
    group, conjs = _BUILDERS[family](*params)
    expected = family_order(family, params)
    if group.order != expected:
        raise RuntimeError(
            f"{family}{params}: built order {group.order} != formula {expected}")
    for c in conjs:
        if (witness := group.normality_witness(c)) is not None:
            g, conj = witness
            raise RuntimeError(
                f"{family}{params}: conjugator fails to normalize: generator "
                f"{g.tolist()} goes to {conj.tolist()}")
    return group, list(conjs)


def _entries():
    out = []

    def add(family, params, **kw):
        out.append(CatalogEntry(family, tuple(params), **kw))

    for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 21, 27, 30, 101):
        add("cyclic", [n], solvable=True)
    for n in (3, 4, 6, 7, 8, 9, 10, 12, 15, 17):
        add("dihedral", [n], solvable=True)
    for p, d in ((5, 2), (5, 4), (7, 2), (7, 3), (7, 6), (11, 2), (11, 5),
                 (11, 10), (13, 3), (13, 4), (13, 6), (17, 4), (17, 8),
                 (17, 16), (19, 6), (23, 11), (29, 4), (31, 5), (37, 6),
                 (41, 8), (101, 10)):
        add("frobenius", [p, d], solvable=True)
    for n in (3, 4, 5, 6, 7, 8):
        add("sym", [n], solvable=n <= 4)
    for n in (4, 5, 6, 7, 8, 9):
        add("alt", [n], simple=n >= 5, solvable=n == 4)
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 81, 128, 243, 256, 263):
        add("psl2", [q], simple=True)
    for q in (5, 7, 9, 11):
        add("pgl2", [q])
    for q in (8, 9):
        add("pgammal2", [q])
    for q in (3, 5, 7, 9, 11, 13):
        add("sl2", [q], solvable=q == 3)
    for q in (2, 3, 4, 8):
        add("psl3_with_duality", [q], simple=True)
    add("sp4", [2])
    add("sp4", [3], simple=True)
    return out


_CATALOG = tuple(_entries())
_BY_KEY = {e.key: e for e in _CATALOG}


def default_catalog() -> list[CatalogEntry]:
    return list(_CATALOG)


def entry_by_key(key: str) -> CatalogEntry:
    entry = _BY_KEY.get(key)
    if entry is None:
        raise KeyError(f"no catalog entry {key!r}")
    return entry


__all__ = [
    "CatalogEntry", "default_catalog", "entry_by_key",
    "family_order", "sl2_center", "mat_mul", "vectors",
    "point_indices", "matrix_indices", "projective_points", "projective_perm",
    "linear_perm",
]
