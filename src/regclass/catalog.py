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

Matrix groups act projectively: points are normalized vectors (first nonzero
coordinate 1) ordered by the integer encoding of their coordinates.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, gcd

from . import gf
from .numtheory import (is_prime, multiplicative_order,
                        prime_power_decomposition)
from .permgroup import PermGroup, as_perm, compose, perm_from_cycles


# ---------------------------------------------------------------------------
# matrices over a FieldSpec
# ---------------------------------------------------------------------------

def mat_mul(F, A, B):
    n = len(A)
    return tuple(
        tuple(_dot(F, A[i], tuple(B[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def _dot(F, row, col):
    acc = F.zero
    for a, b in zip(row, col):
        acc = F.add(acc, F.mul(a, b))
    return acc


def mat_identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def mat_transpose(A):
    n = len(A)
    return tuple(tuple(A[j][i] for j in range(n)) for i in range(n))


def mat_inv(F, A):
    """Inverse by Gauss-Jordan elimination over the field."""
    n = len(A)
    aug = [list(A[i]) + list(mat_identity(F, n)[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != F.zero), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = F.inv(aug[col][col])
        aug[col] = [F.mul(inv, x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != F.zero:
                c = aug[r][col]
                aug[r] = [F.sub(x, F.mul(c, y)) for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_apply(F, A, v):
    return tuple(_dot(F, row, v) for row in A)


# ---------------------------------------------------------------------------
# projective and linear actions
# ---------------------------------------------------------------------------

def projective_points(F, dim):
    """Normalized projective points of F^dim, in integer-encoding order.

    Coordinate t is base-q digit t of the code, so the points whose first
    nonzero coordinate is t = j (and equal to 1) have the codes
    q^j + q^(j+1) m for m < q^(dim-1-j): only these are listed and decoded."""
    q = F.q
    codes = sorted(q**j + q**(j + 1) * m
                   for j in range(dim) for m in range(q**(dim - 1 - j)))
    elements = F.elements()
    points = []
    for code in codes:
        v = []
        for _ in range(dim):
            code, r = divmod(code, q)
            v.append(elements[r])
        points.append(tuple(v))
    return points


def normalize_point(F, v):
    lead = next((x for x in v if x != F.zero), None)
    if lead is None:
        raise ValueError("zero vector is not projective")
    if lead == F.one:
        return tuple(v)
    inv = F.inv(lead)
    return tuple(F.mul(inv, x) for x in v)


def projective_perm(F, points, index, A):
    """The permutation induced by matrix A on the listed projective points."""
    return as_perm([index[normalize_point(F, mat_apply(F, A, p))] for p in points],
                   len(points))


def point_index(points):
    return {p: i for i, p in enumerate(points)}


def frobenius_point_perm(F, points, index):
    """Coordinate-wise Frobenius x -> x**ell on projective points."""
    return as_perm(
        [index[tuple(F.frobenius(x, 1) for x in p)] for p in points], len(points))


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
    T = ((F.one, F.one), (F.zero, F.one))
    D = ((a, F.zero), (F.zero, F.inv(a)))
    W = ((F.zero, F.one), (F.neg(F.one), F.zero))
    return [T, mat_mul(F, mat_mul(F, D, T), W)]


def _projective_line(q):
    """GF(q), the points of PG(1, q) and their index."""
    ell, f = prime_power_decomposition(q)
    F = gf.make_field(ell, f)
    points = projective_points(F, 2)
    return F, points, point_index(points)


def _is_square(F, x):
    return F.pow(x, (F.q - 1) // 2) == F.one


def _build_psl2(q):
    F, points, index = _projective_line(q)
    gens = [projective_perm(F, points, index, M) for M in _sl2_matrices(F)]
    conjs = []
    if q % 2:
        b = next(x for x in (F.from_int(i) for i in range(2, q))
                 if not _is_square(F, x))
        conjs.append(projective_perm(F, points, index,
                                     ((b, F.zero), (F.zero, F.one))))
    if F.f > 1:
        conjs.append(frobenius_point_perm(F, points, index))
    return PermGroup(len(points), gens, name=f"PSL2({q})"), conjs


def _build_pgl2(q):
    """Generators T and D.T.W.diag(b, 1), b the least primitive element."""
    F, points, index = _projective_line(q)
    T, DTW = _sl2_matrices(F)
    b = F.primitive_element()
    gens = [projective_perm(F, points, index, M)
            for M in (T, mat_mul(F, DTW, ((b, F.zero), (F.zero, F.one))))]
    conjs = [frobenius_point_perm(F, points, index)] if F.f > 1 else []
    return PermGroup(len(points), gens, name=f"PGL2({q})"), conjs


def _build_pgammal2(q):
    """Generators diag(b, 1), b the least primitive element, and D.T.W
    composed with the Frobenius map (applied first)."""
    F, points, index = _projective_line(q)
    _, DTW = _sl2_matrices(F)
    b = F.primitive_element()
    gens = [projective_perm(F, points, index, ((b, F.zero), (F.zero, F.one))),
            compose(projective_perm(F, points, index, DTW),
                    frobenius_point_perm(F, points, index))]
    return PermGroup(len(points), gens, name=f"PGammaL2({q})"), []


def _sl2_points(q):
    """GF(q), the nonzero vectors of GF(q)^2 (the points of the sl2(q)
    catalog action) and their index."""
    ell, f = prime_power_decomposition(q)
    F = gf.make_field(ell, f)
    vectors = [tuple(map(F.from_int, divmod(code, q))) for code in range(1, q * q)]
    return F, vectors, {v: i for i, v in enumerate(vectors)}


def _build_sl2(q):
    F, vectors, index = _sl2_points(q)
    gens = [as_perm([index[mat_apply(F, M, v)] for v in vectors], len(vectors))
            for M in _sl2_matrices(F)]
    return PermGroup(len(vectors), gens, name=f"SL2({q})"), []


def sl2_center(q):
    """Generators of the center {+-I} of the sl2(q) catalog action."""
    F, vectors, index = _sl2_points(q)
    neg = as_perm([index[(F.neg(v[0]), F.neg(v[1]))] for v in vectors],
                  len(vectors))
    return [neg]


def _psl3_combined_perm(F, points, index, A):
    """Permutation on points + lines: points by A, lines by inverse-transpose."""
    n = len(points)
    dual = mat_transpose(mat_inv(F, A))
    images = [index[normalize_point(F, mat_apply(F, A, p))] for p in points]
    images += [n + index[normalize_point(F, mat_apply(F, dual, p))] for p in points]
    return as_perm(images, 2 * n)


def _build_psl3(q):
    ell, f = prime_power_decomposition(q)
    F = gf.make_field(ell, f)
    points = projective_points(F, 3)
    index = point_index(points)
    n = len(points)
    a = F.primitive_element()
    one, zero = F.one, F.zero
    T = ((one, one, zero), (zero, one, zero), (zero, zero, one))
    W = ((zero, zero, one), (one, zero, zero), (zero, one, zero))
    D = ((a, zero, zero), (zero, one, zero), (zero, zero, F.inv(a)))
    WTD = mat_mul(F, mat_mul(F, W, T), D)
    gens = [_psl3_combined_perm(F, points, index, M) for M in (T, WTD)]
    conjs = []
    if gcd(3, q - 1) == 3:
        diag = ((a, zero, zero), (zero, one, zero), (zero, zero, one))
        conjs.append(_psl3_combined_perm(F, points, index, diag))
    if f > 1:
        frob_block = [index[tuple(F.frobenius(x, 1) for x in p)] for p in points]
        conjs.append(as_perm(frob_block + [n + i for i in frob_block], 2 * n))
    duality = as_perm([n + i for i in range(n)] + list(range(n)), 2 * n)
    conjs.append(duality)
    return PermGroup(2 * n, gens, name=f"PSL3({q})"), conjs


def _symplectic_form(F, x, y):
    """B(x, y) = x0 y2 - x2 y0 + x1 y3 - x3 y1."""
    t1 = F.sub(F.mul(x[0], y[2]), F.mul(x[2], y[0]))
    t2 = F.sub(F.mul(x[1], y[3]), F.mul(x[3], y[1]))
    return F.add(t1, t2)


def _build_sp4(q):
    """Generators t_{e0} o t_{e1} and t_{e2} o t_{e0+e1} o t_{e2+e3}, where
    t_v is the transvection x -> x + B(x, v) v."""
    if q not in (2, 3):
        raise ValueError("sp4 is built only for q in {2, 3}")
    ell, f = prime_power_decomposition(q)
    F = gf.make_field(ell, f)
    points = projective_points(F, 4)
    index = point_index(points)
    one, zero = F.one, F.zero
    e = [tuple(one if i == j else zero for j in range(4)) for i in range(4)]

    def transvection_perm(v):
        def image(x):
            s = _symplectic_form(F, x, v)
            return tuple(F.add(xi, F.mul(s, vi)) for xi, vi in zip(x, v))
        return as_perm([index[normalize_point(F, image(p))] for p in points],
                       len(points))

    def plus(u, v):
        return tuple(F.add(a, b) for a, b in zip(u, v))

    t = [transvection_perm(v)
         for v in (e[0], e[1], e[2], plus(e[0], e[1]), plus(e[2], e[3]))]
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
        if not group.normalized_by(c):
            raise RuntimeError(f"{family}{params}: conjugator fails to normalize")
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
    "family_order", "sl2_center", "mat_mul", "mat_inv", "mat_transpose",
    "mat_identity", "projective_points", "projective_perm",
]
