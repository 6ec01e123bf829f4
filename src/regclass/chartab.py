"""Exact ordinary character tables via the Burnside-Dixon method.

Class-multiplication matrices are simultaneously diagonalized over GF(P) for
a deterministic prime P = 1 (mod exponent), P > 2*sqrt(|G|): each step
splits a subspace into the eigenspaces of one class matrix, whose dimensions
must sum to its dimension, with one Gauss-Jordan elimination (`rref_mod`,
the package's only one) for both the coordinates and the kernels.
Eigenvector rows are lifted exactly by the discrete Fourier lift over power
maps: on class j of order o_j, each character value is the sum of m_s
zeta^(s*e/o_j), zeta a primitive e-th root of unity, and the table keeps one
K x o_j array of the multiplicities m_s per class.

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
product mod P per class replaces a scalar loop over (character, s, u).  The
rows are sorted by degree, then by those arrays class by class, which orders
each value as its dense length-e multiplicity vector.

A table is finished in one place, `_from_mod_values`, from its values mod P:
a fresh build gets them from the eigenvectors, a cache load reads them from
the file.  Either way the degrees, mod-P orthogonality, the lift and exact
orthogonality are checked before a table is returned, the last modulo
auxiliary primes Q = 1 (mod e) at zeta -> z only, the Galois action of the
unit generators carrying it to every primitive e-th root
(`_verify_exact_orthogonality`); P and each Q come from one scan and meet
the int64 bound of `_check_int64`.  One row Gram, `_gram`, gives the degrees
and both relations: in a square table, rows imply columns.

There is one Galois action, sigma_k(chi)(g) = chi(g^k), read from the unit
generators alone (`_unit_generators`): the units mod e are never listed.
pi_k sends class j to the class of rep_j^k, power[j][k mod o_j]; sigma_k
fixes chi iff chi's row mod P read along pi_k is that row (the lift reads
rows mod P only along the power maps), and g -> g^k fixes class j iff
pi_k[j] = j.  {k = 1 mod m} fixes what its generators, those = 1 (mod m),
fix (`_fixed_by`).  The closure of the generators' permutations holds each
distinct pi_k once (`_galois_closure`); the Brauer check compares both sides.
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


def _unit_generators(e: int) -> dict[int, list[int]]:
    """Generators of the units mod e by prime p | e: for p^a || e, a
    primitive root mod p^a (-1 and 5 if p = 2, a >= 3) and for odd p, a >= 2
    also 1 + p, each but 1 lifted by CRT to 1 mod e/p^a.  For m = 1, e/p^a,
    p^a and p, those = 1 (mod m) generate {k = 1 mod m}."""
    gens = {}
    for p, a in factorize(e).pairs:
        pa = p**a
        u = e // pa * pow(e // pa, -1, pa)  # 1 mod p^a, 0 mod e/p^a
        local = ([pa - 1, 5] if p == 2 and a >= 3 else
                 [primitive_root(pa)] + [1 + p] * (p > 2 and a >= 2))
        gens[p] = [(1 + (g - 1) * u) % e for g in local if g % pa != 1]
    return gens


def _generator_maps(table: ClassTable) -> dict[int, np.ndarray]:
    """pi_k, class j -> the class of rep_j^k, for k = 1 and each generator."""
    e = table.exponent
    ks = [1 % e] + [g for gens in _unit_generators(e).values() for g in gens]
    return {k: np.array(power_class_map(table, k), dtype=np.intp) for k in ks}


def _galois_closure(table: ClassTable):
    """(units, perms, at): each distinct pi_k of the units k mod e once, by
    a breadth-first search over the generators' maps (k*g reached as
    pi_g[pi_k]) with the unit that reached it first; at[k] indexes pi_k for
    k = 1 (first) and each generator.  No other unit is listed."""
    e = table.exponent
    maps = _generator_maps(table)
    index: dict[bytes, int] = {}  # a dict: np.unique imports numpy.ma
    units, perms, queue = [], [], list(maps.items())
    for k, pi in queue:  # the queue grows as it is read
        if index.setdefault(pi.tobytes(), len(units)) == len(units):
            units.append(k)
            perms.append(pi)
            queue += [(k * g % e, pg[pi]) for g, pg in maps.items()]
    at = {k: index[pi.tobytes()] for k, pi in maps.items()}
    return units, np.stack(perms), at


def _fixed_by(fixed: np.ndarray, at: dict[int, int], m: int) -> np.ndarray:
    """Per column of fixed[perm, x]: fixed by {k = 1 mod m}, that is by pi_k
    for 1 and each generator k = 1 (mod m), at[k] its perm."""
    return fixed[[i for k, i in at.items() if k % m == 1 % m]].all(axis=0)


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
    g mod p (e | p - 1), as z^(aB+b) = (z^B)^a z^b, B = ceil(sqrt(e)), in one
    outer product; read-only, since every caller shares one array."""
    _check_int64(p, 1)
    z = pow(primitive_root(p), (p - 1) // e, p)
    B = isqrt(e - 1) + 1
    low, high = (np.array([pow(z, s * t, p) for t in range(B)], dtype=np.int64)
                 for s in (1, B))
    powers = (np.outer(high, low) % p).ravel()[:e]
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
    # [class][character, s]: the multiplicity of zeta^(s*e/o_j) in chi(g_j)
    mults: tuple[np.ndarray, ...]
    exponent: int
    modular_prime: int
    mod_values: np.ndarray  # [character][class] mod P

    def __len__(self):
        return len(self.degrees)

    @cached_property
    def values(self) -> tuple[tuple[CycValue, ...], ...]:
        """[character][class]: `mults` as exact cyclotomic integers, built on
        first read, one nonzero scan per class split by character."""
        e = self.exponent
        values: list[list[CycValue]] = [[] for _ in self.degrees]
        for m in self.mults:
            at, s = np.nonzero(m)
            support = (e // m.shape[1] * s).tolist()
            counts = m[at, s].tolist()
            bounds = np.searchsorted(at, np.arange(len(values) + 1)).tolist()
            for row, lo, hi in zip(values, bounds, bounds[1:]):
                row.append(CycValue(e, tuple(support[lo:hi]), tuple(counts[lo:hi])))
        return tuple(map(tuple, values))

    @cached_property
    def _galois(self):
        """`_galois_closure` with rows_fixed[i, character]: sigma_k fixes it
        for pi_k = perms[i], i.e. its row mod P read along pi_k is that row."""
        units, perms, at = _galois_closure(self.table)
        X = self.mod_values
        rows_fixed = np.stack([(X[:, pi] == X).all(axis=1) for pi in perms])
        return units, perms, rows_fixed, at


def _gram(X: np.ndarray, table: ClassTable, m: int) -> np.ndarray:
    """The row Gram sum_j |C_j| X[a, j] conj(X[b, j]) mod m, each conjugate
    read at the inverse class (exact by `ClassTable.power`'s closure check)."""
    sizes = np.array(table.sizes, dtype=np.int64)
    return (X * sizes % m) @ X[:, [pw[-1] for pw in table.power]].T % m


def _lift(mod_values: np.ndarray, degrees, power, e: int,
          P: int) -> list[np.ndarray]:
    """Exact values from mod-P character values, one discrete Fourier
    transform per class: on a class of order o (step = e/o), the
    multiplicity of zeta^(step*s) in chi(g) is (1/o) sum_u chi(g^u)
    z^(-step*s*u) mod P, for all characters at once.  The K x o matrix of
    class j is entry j of the result."""
    z_pows = _root_powers(P, e)
    degs = np.array(degrees, dtype=np.int64)
    lifted = []
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
        lifted.append(mults)
    return lifted


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
    roots, orbit_id = orbits(_generator_maps(table).values(), K)
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
    # class 0 is the identity, so its one-column block is the degree; the
    # values at class j are sums over zeta^(s*e/o_j), so two of them compare
    # as dense length-e multiplicity vectors as their o_j-long rows do
    mults = _lift(mod_values, degrees, table.power, e, P)
    order = np.lexsort(np.hstack(mults).T[::-1])
    mults = tuple(m[order] for m in mults)
    result = CharacterTable(table=table, degrees=[degrees[i] for i in order],
                            mults=mults, exponent=e, modular_prime=P,
                            mod_values=mod_values[order])
    # read-only, since the cached `_galois` and `values` read them
    for a in (result.mod_values, *mults):
        a.flags.writeable = False
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

    Only zeta -> z is evaluated, one product per class: class j's K x o_j
    multiplicity matrix times the powers z^(s*e/o_j).  The multiplicities
    are the lift of mod_values (`_from_mod_values` computes them from it,
    built or loaded), so sigma_k(chi) is chi read along pi_k, the lift of
    that mod-P row; for k = -1, chi at the inverse classes, where `_gram`
    reads it.  If each generator's pi_k (`_generator_maps`) maps the rows of
    mod_values onto the rows, every sigma_k permutes the characters, and the
    Gram at z^k is the one at z with rows and columns permuted.  For the
    square X over GF(Q), X D (X I')^T = n I, with D = diag(|C_j|) and I' the
    involution j -> j^-1, gives the column relations X^T (X I') = n D^-1."""
    e = ct.exponent
    n = ct.table.group.order
    rows = sorted(map(tuple, ct.mod_values.tolist()))
    for k, pi in _generator_maps(ct.table).items():
        if sorted(map(tuple, ct.mod_values[:, pi].tolist())) != rows:
            raise ConsistencyError(f"exact row orthogonality failed: sigma_{k} "
                                   "does not permute the rows")
    max_d = max(ct.degrees)
    # coefficient mass of any inner product; the constant adds at most n
    mass_row = sum(ct.table.sizes) * max_d * max_d
    mass_col = sum(d * d for d in ct.degrees)
    orders = [m.shape[1] for m in ct.mults]
    eye = np.eye(len(ct.degrees), dtype=np.int64)
    for Q in _aux_primes(e, max(mass_row, mass_col) + n):
        # the evaluations sum o_j products, the Gram K
        _check_int64(Q, max(len(ct.degrees), *orders))
        z = _root_powers(Q, e)
        X = np.stack([m @ z[e // o * np.arange(o)] % Q
                      for m, o in zip(ct.mults, orders)], axis=1)
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
    k mod e with k = 1 mod 1, e_p', e_p and gcd(e, p) respectively, each
    subgroup read on its generators (`_fixed_by`).  The generators of the
    first are those of the second and third together, so a character is
    rational iff it is p-rational and p'-rational."""
    e = ct.exponent
    e_p = p_part(e, p)
    _, _, rows_fixed, at = ct._galois
    columns = (_fixed_by(rows_fixed, at, m).tolist()
               for m in (1, e // e_p, e_p, gcd(e, p)))
    return [RationalityFlags(*f) for f in zip(*columns)]


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
    """At every distinct class permutation pi_k: the characters sigma_k fixes
    must be as many as the classes g -> g^k fixes, both read along the power
    table ct was built from.  For each prime p dividing |G|, the characters
    fixed by H_p = {k = 1 mod e_p'} (the p-rational ones), read on the
    generators at p, must be as many as the classes those fix and at least
    k_{p'}, wherever H_p = (Z/e_p)^* is cyclic: for odd p, and for p = 2
    when e_2 <= 4 (by Brauer's permutation lemma both counts are then those
    of a generator).  Any mismatch is a hard engine failure."""
    units, perms, rows_fixed, at = ct._galois
    classes_fixed = perms == np.arange(perms.shape[1])
    counts = zip(units, rows_fixed.sum(axis=1), classes_fixed.sum(axis=1))
    for k, chars, classes in counts:
        if chars != classes:
            raise ConsistencyError(f"Brauer count mismatch at k={k}: {chars} "
                                   f"characters vs {classes} classes")
    e = ct.exponent
    for p in factorize(ct.table.group.order).primes():
        e_p = p_part(e, p)
        if p == 2 and e_p > 4:
            continue
        table_count = int(_fixed_by(rows_fixed, at, e // e_p).sum())
        class_count = int(_fixed_by(classes_fixed, at, e // e_p).sum())
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
