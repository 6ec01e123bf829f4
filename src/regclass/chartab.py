"""Exact ordinary character tables via the Burnside-Dixon method.

Class-multiplication matrices are simultaneously diagonalized over GF(P) for
a deterministic prime P = 1 (mod exponent), P > 2*sqrt(|G|): each step
splits a subspace into the eigenspaces of one class matrix, whose dimensions
must sum to its dimension, with one Gauss-Jordan elimination (`rref_mod`,
the package's only one) for both the coordinates and the kernels.
Eigenvector rows are lifted to exact cyclotomic integers (multiplicity
vectors over e-th roots of unity) by the discrete Fourier lift over power
maps.

As in Schneider's refinement ("Dixon's character table algorithm
revisited", J. Symbolic Comput. 9, 1990), a class matrix is computed only
where a split reads it.  Each subspace is a basis B that is the identity at
its pivot rows R, so M B = B X gives X = M[R] B, and class i is computed only
at the union of the pivot rows of the subspaces of dimension > 1 (row j of
M_i is a bincount over C_i, `class_matrix`).  Classes are taken one per orbit
of the power maps g -> g^k (k a unit mod e) first, then the rest, each part
by size: the rest of an orbit has Galois-conjugate eigenvalues and rarely
splits anything more.  An eigenspace's pivot rows are R at the free columns
of its kernel basis, which is the identity there.  Where X is a scalar
lambda*I, M_i acts on the subspace as lambda, so the subspace is kept as it
is, with no characteristic polynomial, root scan or kernel; X is still
solved from B[R], which must be invertible.  Rows alone cannot show that a
subspace is invariant; in its place every final eigenvector w, scaled to
w[0] = 1, must satisfy M_i[R_i] w = w[i] w[R_i] for each class i used and
its computed rows R_i (row 0 of M_i is e_i, so the eigenvalue is w[i]).

The power maps come from one power table: the powers rep^0..rep^(o-1) of
every class representative, stacked and classified by one batched class
lookup.  For a class of order o, the K x o slice of mod-P values along its
power map times the o x o matrix of roots z^(-(e/o)*s*u) is the matrix of
eigenvalue multiplicities of all characters on that class; one matrix
product mod P per class replaces a scalar loop over (character, s, u).

A table is finished in one place, `_from_mod_values`, from its values mod P:
a fresh build gets them from the eigenvectors, a cache load reads them from
the file.  Either way the degrees, mod-P orthogonality, the lift and exact
row and column orthogonality are checked before a table is returned, the
last modulo auxiliary primes Q = 1 (mod e); P and each Q come from one scan
and meet the int64 bound of `_check_int64`.  An inner product minus its
constant is a cyclotomic integer beta whose conjugates are all at most S
(the coefficient mass plus |G|) in absolute value; if it vanishes mod Q at
every embedding zeta -> z^k, it lies in Q Z[zeta], so once the product of
the primes exceeds S its norm forces beta = 0.  Each distinct value is
evaluated at z only, once per prime, its conjugate read at the inverse class;
once every generator of the units mod e permutes the rows, the Galois action
carries the check to every primitive e-th root.  One row Gram, `_gram`, gives
the degrees and both relations: in a square table, rows imply columns.

Every question "fixed by the subgroup {k = 1 mod m} of the units mod e" is
read off a table over the units by masking its columns, and there is one
Galois action: sigma_k(chi)(g) = chi(g^k).  For a unit k, pi_k sends class j
to the class of rep_j^k, power[j][k mod o_j] in the power table.  sigma_k
fixes chi iff chi's row mod P read along pi_k is that row: the lift reads a
row mod P only along the power maps, so equal rows mod P lift to equal exact
rows.  g -> g^k fixes class j iff pi_k[j] = j.  The units act through far
fewer distinct permutations than there are units, and each distinct pi_k is
read once, for the characters (rational, p-rational, p'-rational, Q_p-valued)
and the classes alike; the Brauer cross-check compares the two sides.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import gcd, isqrt

import numpy as np

from .numtheory import (cmp_threshold, divisors, factorize, is_prime,
                        p_part, primitive_root)
from .permgroup import (CHUNK, ClassTable, ConsistencyError, PermGroup,
                        ResourceLimitError, class_counts, orbits,
                        power_class_map)

MAX_CLASSES = 80
MAX_ORDER = 3_000_000


# ---------------------------------------------------------------------------
# cyclotomic integers as multiplicity vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycValue:
    """sum_s m_s zeta^s with zeta a fixed primitive e-th root of unity.

    Multiplicities are nonnegative (they count character eigenvalues); the
    support holds the indices with m_s > 0, strictly increasing."""

    e: int
    support: tuple[int, ...]
    mults: tuple[int, ...]

    def galois(self, k: int) -> "CycValue":
        """sigma_k: zeta -> zeta^k, i.e. index multiplication by k."""
        pairs = sorted((s * k % self.e, m) for s, m in zip(self.support, self.mults))
        return CycValue(self.e, tuple(s for s, _ in pairs),
                        tuple(m for _, m in pairs))

    def dense_key(self) -> tuple:
        """Sort key ordering values as their dense length-e multiplicity
        vectors, lexicographically: where two supports first differ, the
        value holding the smaller index s has the larger dense vector, and
        (-s, m_s) sorts it last."""
        return tuple((-s, m) for s, m in zip(self.support, self.mults))


def _units(e: int) -> np.ndarray:
    """The residues mod e coprime to e, ascending (just 0 when e = 1)."""
    return np.array([k for k in range(e) if gcd(k, e) == 1], dtype=np.int64)


def _unit_generators(e: int) -> list[int]:
    """Generators of the units mod e, none equal to 1: for each p^a || e, a
    primitive root mod p^a (or -1 and 5 mod 2^a, a >= 3, where there is
    none), lifted by CRT to 1 mod the rest of e."""
    gens = []
    for p, a in factorize(e).pairs:
        pa = p**a
        rest = e // pa
        local = [primitive_root(pa)] if p > 2 or a < 3 else [pa - 1, 5]
        gens += [(g * rest * pow(rest, -1, pa) + pa * pow(pa, -1, rest)) % e
                 for g in local]
    return [g for g in gens if g != 1 % e]


def _intern(values) -> tuple[list[CycValue], np.ndarray]:
    """The distinct values of a table in `dense_key` order, and the matrix
    of their indices; permuting the rows of the table permutes the rows of
    the matrix."""
    ids: dict[CycValue, int] = {}
    value_id = np.array([[ids.setdefault(v, len(ids)) for v in row]
                         for row in values], dtype=np.int64)
    found = list(ids)
    by_key = sorted(range(len(found)), key=lambda v: found[v].dense_key())
    rank = np.empty(len(found), dtype=np.int64)
    rank[by_key] = np.arange(len(found))
    return [found[v] for v in by_key], rank[value_id]


def _fixed_mod(fixed: np.ndarray, units: np.ndarray, m: int) -> np.ndarray:
    """Per row of fixed[row, u]: fixed by every unit k = 1 (mod m), the
    columns of that subgroup of the units."""
    return fixed[:, units % m == 1 % m].all(axis=1)


def _evaluations(values, e: int, q: int) -> np.ndarray:
    """values[v] at zeta -> z mod q, z as in `_root_powers`: the sum of
    m_s z^s over the support entries (s, m_s) of each value, as differences
    of one cumulative sum taken at the bounds between values."""
    s = np.array([s for v in values for s in v.support], dtype=np.int64)
    m = np.array([m for v in values for m in v.mults], dtype=np.int64)
    bounds = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([len(v.support) for v in values], out=bounds[1:])
    acc = np.zeros(len(s) + 1, dtype=np.int64)
    np.cumsum(_root_powers(q, e)[s] * m % q, out=acc[1:])
    return (acc[bounds[1:]] - acc[bounds[:-1]]) % q


# ---------------------------------------------------------------------------
# modular primes and roots
# ---------------------------------------------------------------------------

def _primes_one_mod(e: int, lo: int):
    """The primes p = 1 (mod e) from floor(lo/e)*e + 1 upward, ascending."""
    return filter(is_prime, count(lo // e * e + 1, e))


def _check_int64(m: int, terms: int) -> None:
    """Refuse a modulus m unless a sum of `terms` products of residues mod m
    stays below 2^63, as every matrix product `@ ... % m` here assumes."""
    if terms * (m - 1) ** 2 >= 1 << 63:
        raise ResourceLimitError(f"modulus {m} too large for int64 products")


def dixon_prime(e: int, group_order: int) -> int:
    """Least prime P = 1 (mod e) with P^2 > 4|G|, checked for products of
    |G| terms, a bound on every class count and element order."""
    root = isqrt(4 * group_order)
    p = next(p for p in _primes_one_mod(e, root) if p > root)
    _check_int64(p, group_order)
    return p


@lru_cache(maxsize=None)
def _root_powers(p: int, e: int) -> np.ndarray:
    """z^0, ..., z^(e-1) mod p, z = g^((p-1)/e) for the least primitive root
    g mod p (e | p - 1); read-only, since every caller shares one array."""
    z = pow(primitive_root(p), (p - 1) // e, p)
    powers = np.array([pow(z, t, p) for t in range(e)], dtype=np.int64)
    powers.flags.writeable = False
    return powers


def _aux_primes(e: int, needed_product: int) -> list[int]:
    """The scan's primes from 2**26, until their product > needed_product."""
    primes, product = [], 1
    for q in _primes_one_mod(e, 1 << 26):
        if product > needed_product:
            return primes
        primes.append(q)
        product *= q


# ---------------------------------------------------------------------------
# class algebra
# ---------------------------------------------------------------------------

def class_matrix(table: ClassTable, i: int, rows) -> np.ndarray:
    """The given rows of M_i, (M_i)[j][k] = #{(x, y) in C_i x C_j : x y = z_k}.

    Counting the triples x y = z with x in C_i, y in C_j, z in C_k gives
    |C_k| (M_i)[j][k] = |C_j| #{x in C_i : x z_j in C_k}, so row j is a
    bincount of the classes of x z_j over the members x of C_i.  The base
    images of x z_j are the images under x of the points z_j(base); the
    members are read from the class-id array, and every requested row of a
    chunk of them is ranked in one batched call.  The division by |C_k| must
    be exact."""
    rows = np.asarray(rows, dtype=np.intp)
    K = len(table.classes)
    index = table.group.chain.index
    width = len(index.base)
    points = np.concatenate([table.classes[j].rep[index.base] for j in rows])
    offsets = np.arange(len(rows)) * K
    members = np.flatnonzero(table.class_id == i)
    counts = np.zeros(len(rows) * K, dtype=np.int64)
    step = max(1, CHUNK // len(rows))
    for start in range(0, len(members), step):
        images = index.images(members[start:start + step], points)
        ranks = index.rank(images.reshape(-1, width))
        ids = table.class_id[ranks].reshape(-1, len(rows)) + offsets
        counts += np.bincount(ids.ravel(), minlength=len(counts))
    sizes = np.array(table.sizes, dtype=np.int64)
    M, rest = np.divmod(counts.reshape(len(rows), K) * sizes[rows, None], sizes)
    if rest.any():
        raise ConsistencyError(f"class {i} structure constants are not integers")
    return M


# ---------------------------------------------------------------------------
# mod-P linear algebra
# ---------------------------------------------------------------------------

def rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced row echelon form of A mod p and its pivot columns, by
    Gauss-Jordan elimination with one vectorized row update per pivot."""
    R = np.asarray(A, dtype=np.int64) % p
    pivots = []
    for col in range(R.shape[1]):
        row = len(pivots)
        if row == len(R):
            break
        nz = R[row:, col].nonzero()[0]
        if not len(nz):
            continue
        if nz[0]:
            R[[row, row + nz[0]]] = R[[row + nz[0], row]]
        if R[row, col] != 1:
            R[row] = R[row] * pow(int(R[row, col]), -1, p) % p
        factor = R[:, col].copy()
        factor[row] = 0
        if factor.any():  # a column that is already a unit vector needs none
            R = (R - factor[:, None] * R[row]) % p
        pivots.append(col)
    return R, pivots


def _solve_coords(B: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """X with B X = Y (mod p); B is K x m with full column rank."""
    m = B.shape[1]
    R, pivots = rref_mod(np.concatenate([B, Y], axis=1), p)
    if pivots[:m] != list(range(m)):
        raise ConsistencyError("basis matrix is column-rank deficient")
    if len(pivots) > m:
        raise ConsistencyError("inconsistent linear system (not invariant)")
    return R[:m, m:]


def _charpoly_mod(A: np.ndarray, p: int) -> list[int]:
    """Characteristic polynomial mod p (Hessenberg method), constant first."""
    m = len(A)
    H = A.copy() % p
    # reduce to upper Hessenberg by similarity transformations
    for col in range(m - 2):
        piv = next((r for r in range(col + 1, m) if H[r][col] % p), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[[col + 1, piv]] = H[[piv, col + 1]]
            H[:, [col + 1, piv]] = H[:, [piv, col + 1]]
        inv = pow(int(H[col + 1][col]), -1, p)
        for r in range(col + 2, m):
            factor = int(H[r][col]) * inv % p
            if factor:
                H[r] = (H[r] - factor * H[col + 1]) % p
                H[:, col + 1] = (H[:, col + 1] + factor * H[:, r]) % p
    # p_k(x) = charpoly of leading k x k block, by the Hessenberg recurrence
    polys = [np.array([1], dtype=np.int64)]
    for k in range(1, m + 1):
        # p_k = (x - H[k-1][k-1]) p_{k-1} - sum over trailing products
        prev = polys[k - 1]
        term = np.zeros(k + 1, dtype=np.int64)
        term[1:] = prev
        term[:-1] = (term[:-1] - int(H[k - 1][k - 1]) * prev) % p
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = prod * int(H[i + 1][i]) % p
            coef = prod * int(H[i][k - 1]) % p
            if coef:
                term[: len(polys[i])] = (term[: len(polys[i])]
                                         - coef * polys[i]) % p
        polys.append(term % p)
    return [int(c) for c in polys[m]]


def _poly_roots_mod(coeffs: list[int], p: int) -> list[int]:
    """The distinct roots in GF(p), ascending, by vectorized scan."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % p
    return np.flatnonzero(vals == 0).tolist()


def _nullspace_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Columns spanning ker(A) mod p, one per non-pivot column of the
    reduced row echelon form, and those free columns: at them the basis is
    the identity."""
    m = A.shape[1]
    R, pivots = rref_mod(A, p)
    free = [c for c in range(m) if c not in pivots]
    basis = np.zeros((m, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = -R[:len(pivots)][:, free] % p
    return basis, free


def _eigen_split(B: np.ndarray, pivots: np.ndarray, rows: np.ndarray,
                 p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The eigenspaces of M on the M-invariant subspace spanned by the
    columns of B, with B[pivots] = I, from rows = M[pivots] alone: as
    (basis, pivot rows) pairs by ascending eigenvalue in GF(p).

    M B = B X gives X = (M B)[pivots] = rows B.  A scalar X is one
    eigenspace, and (B, pivots) comes back as it went in.  An eigenspace
    B N has pivot rows pivots[free], since N is the identity at its free
    rows.  The dimensions sum to m = B.shape[1] iff M is diagonalizable
    there over GF(p): an eigenspace is no larger than the root's
    multiplicity in the characteristic polynomial, and the multiplicities of
    the roots in GF(p) sum to at most m."""
    m = B.shape[1]
    X = _solve_coords(B[pivots], rows @ B % p, p)
    eye = np.eye(m, dtype=np.int64)
    if (X == X[0, 0] * eye).all():  # M is scalar here: one eigenspace
        return [(B, pivots)]
    spaces = [_nullspace_mod((X - lam * eye) % p, p)
              for lam in _poly_roots_mod(_charpoly_mod(X, p), p)]
    if sum(len(free) for _, free in spaces) != m:
        raise ConsistencyError("class matrix not diagonalizable over GF(P)")
    return [(B @ ns % p, pivots[free]) for ns, free in spaces]


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    table: ClassTable
    degrees: list[int]
    values: tuple[tuple[CycValue, ...], ...]  # [character][class]
    exponent: int
    modular_prime: int
    mod_values: np.ndarray  # [character][class] mod P

    def __len__(self):
        return len(self.degrees)

    @cached_property
    def _interned(self) -> tuple[list[CycValue], np.ndarray]:
        """`_intern(self.values)`: the distinct values and their indices
        (`_from_mod_values` seeds it with the ids it sorted the rows by)."""
        return _intern(self.values)

    @cached_property
    def _galois(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The units k mod e (see `_units`), rows_fixed[character, unit] and
        classes_fixed[class, unit], both read along pi_k, the class
        permutation j -> power[j][k mod o_j] of g -> g^k: sigma_k fixes a
        character iff its row mod P read along pi_k is that row, and g -> g^k
        fixes class j iff pi_k[j] = j.  Each distinct pi_k is read once."""
        units = _units(self.exponent)
        maps = np.stack([pw[units % len(pw)] for pw in self.table.power], axis=1)
        # distinct by a dict: np.unique imports numpy.ma on its first call
        ids: dict[bytes, int] = {}
        which = np.array([ids.setdefault(pi.tobytes(), len(ids)) for pi in maps],
                         dtype=np.intp)
        perms = np.empty((len(ids), maps.shape[1]), dtype=maps.dtype)
        perms[which] = maps
        X = self.mod_values
        rows_fixed = np.stack([(X[:, pi] == X).all(axis=1) for pi in perms], axis=1)
        classes_fixed = (perms == np.arange(len(X))).T
        return units, rows_fixed[:, which], classes_fixed[:, which]


def _gram(X: np.ndarray, table: ClassTable, m: int) -> np.ndarray:
    """The row Gram sum_j |C_j| X[a, j] conj(X[b, j]) mod m, each conjugate
    read at the inverse class (exact by `ClassTable.power`'s closure check)."""
    sizes = np.array(table.sizes, dtype=np.int64)
    return (X * sizes % m) @ X[:, [pw[-1] for pw in table.power]].T % m


def _lift(mod_values: np.ndarray, degrees, power, e: int, P: int):
    """Exact values from mod-P character values, one discrete Fourier
    transform per class: on a class of order o (step = e/o), the
    multiplicity of zeta^(step*s) in chi(g) is (1/o) sum_u chi(g^u)
    z^(-step*s*u) mod P, for all characters at once."""
    z_pows = _root_powers(P, e)
    degs = np.array(degrees, dtype=np.int64)
    values: list[list[CycValue]] = [[] for _ in degrees]
    for j, pw in enumerate(power):
        o = len(pw)
        step = e // o
        s = np.arange(o)
        roots = z_pows[-step * np.outer(s, s) % e]
        mults = mod_values[:, pw] @ roots % P * pow(o, -1, P) % P
        if (mults > degs[:, None]).any():
            raise ConsistencyError("lifted multiplicity out of range")
        if (mults.sum(axis=1) != degs).any():
            raise ConsistencyError("eigenvalue multiplicities do not sum to the degree")
        if (mults @ z_pows[step * s] % P != mod_values[:, j]).any():
            raise ConsistencyError("lift does not reproduce the modular value")
        # one nonzero scan per class, split by character with list slices
        at, s_nz = np.nonzero(mults)
        support = (step * s_nz).tolist()
        counts = mults[at, s_nz].tolist()
        bounds = np.searchsorted(at, np.arange(len(degs) + 1)).tolist()
        for row, lo, hi in zip(values, bounds, bounds[1:]):
            row.append(CycValue(e, tuple(support[lo:hi]), tuple(counts[lo:hi])))
    return tuple(map(tuple, values))


def character_table(group: PermGroup, table: ClassTable) -> CharacterTable:
    K = len(table.classes)
    n = group.order
    if K > MAX_CLASSES:
        raise ResourceLimitError(f"{K} classes exceeds cap {MAX_CLASSES}")
    if n > MAX_ORDER:
        raise ResourceLimitError(f"group order {n} exceeds cap {MAX_ORDER}")
    P = dixon_prime(table.exponent, n)
    return _from_mod_values(table, _mod_table(table, P), P)


def _mod_table(table: ClassTable, P: int) -> np.ndarray:
    """The K x K character table mod P, one row per character in the order
    the eigenspaces split, from simultaneous eigenvectors of the class
    matrices over GF(P), taken one per Galois class orbit first."""
    K = len(table.classes)
    n = table.group.order
    # each subspace is (basis B, pivot rows R) with B[R] = I; class i is
    # computed only at the pivot rows of the subspaces still to be split
    subspaces = [(np.eye(K, dtype=np.int64), np.arange(K))]
    computed = []
    at = np.empty(K, dtype=np.intp)
    maps = [power_class_map(table, k) for k in _unit_generators(table.exponent)]
    roots, orbit_id = orbits(maps, K)
    later = roots[orbit_id] != np.arange(K)
    order = sorted(range(1, K), key=lambda i: (later[i], table.classes[i].size, i))
    for i in order:
        unsplit = [R for _, R in subspaces if len(R) > 1]
        if not unsplit:
            break
        # their union by a mask: np.unique imports numpy.ma on its first call
        need = np.zeros(K, dtype=bool)
        need[np.concatenate(unsplit)] = True
        rows = np.flatnonzero(need)
        M = class_matrix(table, i, rows) % P
        computed.append((i, rows, M))
        at[rows] = np.arange(len(rows))
        subspaces = [part for B, R in subspaces for part in
                     ([(B, R)] if len(R) == 1 else _eigen_split(B, R, M[at[R]], P))]
    if any(len(R) != 1 for _, R in subspaces):
        raise ConsistencyError("class matrices failed to separate characters")

    # --- normalize (w[0] = 1), check, recover degrees and mod-P values -----
    W = np.stack([B[:, 0] for B, _ in subspaces], axis=1) % P
    if not W[0].all():
        raise ConsistencyError("eigenvector vanishes on the identity class")
    W = W * np.array([pow(int(w), -1, P) for w in W[0]], dtype=np.int64) % P
    # row 0 of M_i is e_i, so w's eigenvalue under M_i is w[i]; this stands
    # in for the invariance that rows alone cannot show
    for i, rows, M in computed:
        if not np.array_equal(M @ W % P, W[i] * W[rows] % P):
            raise ConsistencyError(f"eigenvectors fail class matrix {i} "
                                   "at its computed rows")
    # w / |C| is chi / d: Gram diagonal n / d^2, one d since P > 2 sqrt(n)
    X = W.T * np.array([pow(s, -1, P) for s in table.sizes],
                       dtype=np.int64) % P
    squares = {x * x % P: x for x in divisors(n) if x * x <= n}
    degrees = [squares.get(n * pow(s, -1, P) % P) if s else None
               for s in np.diagonal(_gram(X, table, P)).tolist()]
    if None in degrees:
        raise ConsistencyError("no degree matches the eigenvector")
    return np.array(degrees, dtype=np.int64)[:, None] * X % P


def _from_mod_values(table: ClassTable, mod_values: np.ndarray,
                     P: int) -> CharacterTable:
    """The verified character table whose values mod P are `mod_values`
    (entries in [0, P), rows in any order): the degrees are its identity
    column, their squares must sum to |G|, the rows must be orthogonal mod
    P, the lift must reproduce them, and the canonically sorted table must
    pass exact orthogonality."""
    n = table.group.order
    e = table.exponent
    degrees = mod_values[:, 0].tolist()
    if sum(d * d for d in degrees) != n:
        raise ConsistencyError("degree squares do not sum to the group order")
    gram = _gram(mod_values, table, P)
    if not np.array_equal(gram, n % P * np.eye(len(degrees), dtype=np.int64)):
        raise ConsistencyError("mod-P row orthogonality failed")

    # --- exact lift, canonical ordering by (degree, lexicographic values) --
    # rows compare as their tuples of value ids, which are the values'
    # ranks by dense key; the sorted table's ids are these rows, sorted
    values = _lift(mod_values, degrees, table.power, e, P)
    distinct, value_id = _intern(values)
    ranks = value_id.tolist()
    order = sorted(range(len(degrees)), key=lambda r: (degrees[r], ranks[r]))
    result = CharacterTable(table=table, degrees=[degrees[i] for i in order],
                            values=tuple(values[i] for i in order),
                            exponent=e, modular_prime=P,
                            mod_values=mod_values[order])
    # read-only, since the cached `_galois` reads it
    result.mod_values.flags.writeable = False
    vars(result)["_interned"] = (distinct, value_id[order])
    _verify_exact_orthogonality(result)
    return result


def _verify_exact_orthogonality(ct: CharacterTable):
    """Exact row and column orthogonality over the cyclotomic integers.

    Each inner product B equals its rational constant c iff beta = B - c is
    0.  beta is a sum of roots of unity with integer coefficients of total
    absolute value at most S = (row or column mass) + n, so every conjugate
    has |sigma(beta)| <= S.  A prime Q = 1 (mod e) splits completely in
    Z[zeta], into the primes (Q, zeta - z^k) for the units k, so if beta
    vanishes mod Q at every embedding zeta -> z^k, then beta lies in
    Q Z[zeta].  Over auxiliary primes Q_i, beta lies in (prod Q_i) Z[zeta];
    a nonzero beta would then have |N(beta)| >= (prod Q_i)^phi(e), against
    |N(beta)| <= S^phi(e).  So prod Q_i > S forces beta = 0.

    Only zeta -> z is evaluated; the Galois action gives the other embeddings.
    The values are the lift of mod_values, since `_from_mod_values` computes
    them from it, whether the table was built or loaded.  So sigma_k(chi) is
    chi read along g -> g^k, the lift of that mod-P row; for k = -1, chi at the
    inverse classes, where `_gram` reads it.  If each generator k of the units
    mod e maps the rows of mod_values onto the rows, every sigma_k therefore
    permutes the characters, and the row Gram matrix at z^k is the one at z
    with its rows and columns permuted.  For the square X over GF(Q),
    X D (X I')^T = n I, with D = diag(|C_j|) and I' the involution
    j -> j^-1, gives the column relations X^T (X I') = n D^-1."""
    e = ct.exponent
    n = ct.table.group.order
    rows = sorted(map(tuple, ct.mod_values.tolist()))
    for k in _unit_generators(e):
        mapped = ct.mod_values[:, power_class_map(ct.table, k)]
        if sorted(map(tuple, mapped.tolist())) != rows:
            raise ConsistencyError(f"exact row orthogonality failed: sigma_{k} "
                                   "does not permute the rows")
    max_d = max(ct.degrees)
    # coefficient mass of any inner product; the constant adds at most n
    mass_row = sum(ct.table.sizes) * max_d * max_d
    mass_col = sum(d * d for d in ct.degrees)
    distinct, value_id = ct._interned
    eye = np.eye(len(ct.degrees), dtype=np.int64)
    for Q in _aux_primes(e, max(mass_row, mass_col) + n):
        _check_int64(Q, len(ct.degrees))
        X = _evaluations(distinct, e, Q)[value_id]
        if not (_gram(X, ct.table, Q) == (n % Q) * eye).all():
            raise ConsistencyError("exact row orthogonality failed")


# ---------------------------------------------------------------------------
# rationality classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalityFlags:
    is_rational: bool
    is_p_rational: bool
    is_p_prime_rational: bool
    is_Qp_valued: bool


def classify_rationality(ct: CharacterTable, p: int) -> list[RationalityFlags]:
    """Rational, p-rational, p'-rational and Q_p-valued: fixed by every unit
    k mod e with k = 1 mod 1, e_p', e_p and gcd(e, p) respectively."""
    e = ct.exponent
    e_p = p_part(e, p)
    units, rows_fixed, _ = ct._galois
    flags = []
    columns = zip(*(_fixed_mod(rows_fixed, units, m).tolist()
                    for m in (1, e // e_p, e_p, gcd(e, p))))
    for r, rp, rpp, qp in columns:
        if r != (rp and rpp):
            raise ConsistencyError("rationality flags are inconsistent")
        flags.append(RationalityFlags(is_rational=r, is_p_rational=rp,
                                      is_p_prime_rational=rpp, is_Qp_valued=qp))
    return flags


@dataclass(frozen=True)
class CharacterCounts:
    p: int
    n_p_rational: int
    n_p_prime_rational: int
    n_union: int
    n_rational: int
    n_qp_union: int  # |Irr_p-rat union Irr_{Q_p}|
    union_vs_bound: int  # cmp of n_union against 2*sqrt(p-1)
    qp_union_vs_bound: int  # cmp of n_qp_union against 2*sqrt(p-1)


def character_count_report(ct: CharacterTable, p: int) -> CharacterCounts:
    flags = classify_rationality(ct, p)
    n_union = sum(f.is_p_rational or f.is_p_prime_rational for f in flags)
    n_qp_union = sum(f.is_p_rational or f.is_Qp_valued for f in flags)
    return CharacterCounts(
        p=p,
        n_p_rational=sum(f.is_p_rational for f in flags),
        n_p_prime_rational=sum(f.is_p_prime_rational for f in flags),
        n_union=n_union,
        n_rational=sum(f.is_rational for f in flags),
        n_qp_union=n_qp_union,
        union_vs_bound=cmp_threshold(n_union, p),
        qp_union_vs_bound=cmp_threshold(n_qp_union, p),
    )


# ---------------------------------------------------------------------------
# Brauer cross-check
# ---------------------------------------------------------------------------

def brauer_cross_check(ct: CharacterTable) -> None:
    """For every Galois element sigma_k: the number of fixed characters must
    equal the number of classes fixed by g -> g^k, both read along the power
    table ct was built from.  For each prime p dividing |G|, the characters
    fixed by H_p = {k = 1 mod e_p'} (the p-rational ones) must be as many as
    the classes H_p fixes and at least k_{p'}, wherever H_p, which is
    (Z/e_p)^*, is cyclic: for odd p, and for p = 2 when e_2 <= 4 (by
    Brauer's permutation lemma both counts are then those of a generator).
    Any mismatch is a hard engine failure."""
    units, rows_fixed, classes_fixed = ct._galois
    chars_count = rows_fixed.sum(axis=0)
    classes_count = classes_fixed.sum(axis=0)
    bad = np.flatnonzero(chars_count != classes_count)
    if len(bad):
        u = bad[0]
        raise ConsistencyError(
            f"Brauer count mismatch at k={units[u]}: {chars_count[u]} characters "
            f"vs {classes_count[u]} classes")
    e = ct.exponent
    for p in factorize(ct.table.group.order).primes():
        e_p = p_part(e, p)
        if p == 2 and e_p > 4:
            continue
        table_count = int(_fixed_mod(rows_fixed, units, e // e_p).sum())
        class_count = int(_fixed_mod(classes_fixed, units, e // e_p).sum())
        if table_count != class_count:
            raise ConsistencyError(
                f"p-rational count mismatch at p={p}: table {table_count} "
                f"vs classes {class_count}")
        if table_count < class_counts(ct.table, p).k_p_prime:
            raise ConsistencyError(
                f"p-rational count below k_p' at p={p}")


# ---------------------------------------------------------------------------
# cache files
# ---------------------------------------------------------------------------

_CACHE_MAGIC = "chartable-cache"
_CACHE_VERSION = 2


def save_character_table(ct: CharacterTable, path) -> None:
    """Text cache: header (group id, order, exponent, modular prime,
    character count), then one line per character: its values mod P."""
    lines = [f"{_CACHE_MAGIC} {_CACHE_VERSION}",
             f"group {ct.table.group.name or 'anonymous'}",
             f"order {ct.table.group.order}",
             f"exponent {ct.exponent}",
             f"prime {ct.modular_prime}",
             f"characters {len(ct.degrees)}"]
    lines += [" ".join(map(str, row)) for row in ct.mod_values.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_character_table(table: ClassTable, path) -> CharacterTable:
    """Load a cached table mod P against the given class table and finish
    it as a fresh build does (`_from_mod_values`): every check that follows
    the eigen phase runs again.  A header that does not match, a row of the
    wrong length, a missing or extra row, or a cell that is not an integer
    in [0, P) raises ConsistencyError or ValueError."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != f"{_CACHE_MAGIC} {_CACHE_VERSION}":
        raise ConsistencyError("unrecognized cache header")
    try:
        head = dict(ln.split(" ", 1) for ln in lines[1:6])
        order, e_cached = int(head["order"]), int(head["exponent"])
        P, K = int(head["prime"]), int(head["characters"])
    except KeyError as exc:
        raise ValueError(f"cache header lacks {exc}") from exc
    n = table.group.order
    e = table.exponent
    if order != n or e_cached != e:
        raise ConsistencyError("cache does not match the class table")
    if P != dixon_prime(e, n):
        raise ConsistencyError("cached modular prime is not the Dixon prime")
    if K != len(table.classes):
        raise ConsistencyError("character count does not match class count")
    rows = [ln.split(" ") for ln in lines[6:]]
    if len(rows) != K or any(len(row) != K for row in rows):
        raise ConsistencyError("malformed cache row")
    # range-checked as Python ints, so no cell can overflow the int64 array
    cells = [int(c) for row in rows for c in row]
    if not all(0 <= c < P for c in cells):
        raise ConsistencyError("cached value out of range mod P")
    mod_values = np.array(cells, dtype=np.int64).reshape(K, K)
    return _from_mod_values(table, mod_values, P)


__all__ = [
    "CycValue", "CharacterTable", "RationalityFlags", "CharacterCounts",
    "MAX_CLASSES", "MAX_ORDER", "dixon_prime", "class_matrix",
    "character_table", "classify_rationality", "character_count_report",
    "rref_mod", "brauer_cross_check", "save_character_table",
    "load_character_table",
]
