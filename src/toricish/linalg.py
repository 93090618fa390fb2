"""Exact linear algebra over Q and Z, done in integers, plus wedge-power bases.

Every invariant computed by this package reduces to ranks and kernels of the
matrices built here, so arithmetic is exact throughout and in integers:
never floats.  Lattice work (kernels, coordinates of one lattice basis in
another, right inverses) and the contraction blocks are read off one
column-Hermite reduction.  A contraction block takes the values of its
functional on the source basis (the pairings of a cover pair,
cones.cover_pairings) and is written as sparse rows, which the complexes
offset straight into their differentials.
Matrices are stored as sparse rows throughout (RatMatrix); ranks are
eliminated modulo a Mersenne prime that a Hadamard bound proves large
enough to give the rank over Q (RatMatrix.rank).  Input is integer only:
RatMatrix and primitive_vector reject any other entry, so no rational ever
enters.  All functions are pure and all returned objects immutable, apart
from the memo dict that callers may hand to WedgeBasis (the complexes hand
over the cone's memo dict, cones.Cone.memo).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def primitive_vector(vec) -> tuple[int, ...]:
    """Scale an integer vector to the primitive vector on the same ray: divide
    it by its gcd.  The direction is preserved: (0, -5) maps to (0, -1).  A
    non-integer entry raises TypeError (from math.gcd)."""
    vec = tuple(vec)
    g = math.gcd(*vec)
    if not g:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


# Exponents of the Mersenne primes 2^e - 1 that RatMatrix.rank tries in turn.
MERSENNE_EXPONENTS = (127, 521, 1279, 4423, 9941, 19937, 44497)


def _certified_prime(rows: list[dict[int, int]]) -> int:
    """First Mersenne prime p = 2^e - 1 above a bound H of every minor of
    the nonzero integer rows, compared as H^2 < p^2.  H^2 is the product of
    all squared row norms or, if that is too big, the smaller product of the
    k largest squared row or column norms, k = min(#rows, #nonzero columns).
    """
    norms = [sum(x * x for x in r.values()) for r in rows]
    bound = math.prod(norms)
    if bound >= ((1 << MERSENNE_EXPONENTS[0]) - 1) ** 2:
        cols: dict[int, int] = {}
        for r in rows:
            for j, x in r.items():
                cols[j] = cols.get(j, 0) + x * x
        k = min(len(rows), len(cols))
        bound = min(math.prod(sorted(norms)[-k:]), math.prod(sorted(cols.values())[-k:]))
    for e in MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if bound < p * p:
            return p
    raise ArithmeticError("Hadamard bound exceeds every Mersenne prime tried")


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank modulo p of sparse rows with entries 0 < |x| < p (consumed).

    Each row is reduced by the pivot rows of its leading columns until it is
    zero or leads in a new column.  Entries stay signed and are reduced only
    once |x| >= p.  A pivot a other than +-1 (where 1/a == a) is not
    inverted: the row is scaled by a instead.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            a, b = prow[c], row[c]
            if a == 1 or a == -1:
                b *= a
            else:
                row = {j: y % p if (y := a * x) >= p or y <= -p else y for j, x in row.items()}
            for j, x in prow.items():
                y = row.get(j, 0) - b * x
                if y >= p or y <= -p:
                    y %= p
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots)


class RatMatrix:
    """Immutable exact matrix, stored as sparse rows.

    `rows` holds, per row, a tuple of (column, value) pairs in increasing
    column order, with no zero value.  The constructor takes dense rows of
    ints and rejects any other entry with ValueError; from_sparse takes rows
    already in that form and trusts them.

    rank() is the rank over Q: sparse elimination of the integer rows
    modulo a Mersenne prime p (_rank_mod).  The rank modulo p never exceeds
    the rank over Q, and equals it when p lies above a Hadamard bound of
    every minor (_certified_prime), as no nonzero minor then vanishes mod p.
    Each entry, a 1 x 1 minor, then also lies below p, as _rank_mod needs.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int | None = None):
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("declared column count does not match rows")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(type(x) is not int for r in rows for x in r):
            raise ValueError("matrix entries must be integers")
        self.rows = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in rows)
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def from_sparse(cls, rows: tuple[tuple[tuple[int, int], ...], ...], ncols: int) -> "RatMatrix":
        m = cls.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for _, x in row)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for j, x in row:
                for c, y in other.rows[j]:
                    acc[c] = acc.get(c, 0) + x * y
            out.append(tuple((c, acc[c]) for c in sorted(acc) if acc[c]))
        return RatMatrix.from_sparse(tuple(out), other.ncols)

    def rank(self) -> int:
        rows = [dict(r) for r in self.rows if r]
        return _rank_mod(rows, _certified_prime(rows)) if rows else 0

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"


def _column_echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], int]:
    """Column-style Hermite reduction with a unimodular transform.

    Returns (cols, r): column j of rows . u stacked on column j of u, for a
    unimodular u.  The first r columns of rows . u are in column echelon form
    and the others are zero; for independent rows (r == len(rows)), entry i
    of column i is the pivot of row i, and entry i of column j > i is zero.
    """
    m = len(rows)
    cols = [[int(r[j]) for r in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    col = 0
    for row in range(m):
        while True:
            nz = [j for j in range(col, ncols) if cols[j][row]]
            if len(nz) <= 1:
                break
            j1 = min(nz, key=lambda j: abs(cols[j][row]))
            for j2 in nz:
                if j2 != j1:
                    q = cols[j2][row] // cols[j1][row]
                    cols[j2] = [x - q * y for x, y in zip(cols[j2], cols[j1])]
        nz = [j for j in range(col, ncols) if cols[j][row]]
        if nz:
            cols[col], cols[nz[0]] = cols[nz[0]], cols[col]
            col += 1
    return cols, col


def integer_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Z-basis of {x in Z^ncols : r . x == 0 for every row r}.

    The trailing columns of the column-Hermite transform; the result is a
    basis of the full integer kernel, i.e. the returned lattice is saturated.
    """
    cols, r = _column_echelon(rows, ncols)
    return tuple(tuple(c[len(rows):]) for c in cols[r:])


def _coordinate_solver(basis: Sequence[Sequence[int]], ambient: int) -> tuple[tuple, tuple]:
    """(h, u) from the column-Hermite reduction basis . u == [h | 0] of p
    independent basis rows: h[j] holds entries j..p-1 of the lower
    triangular column j of h, pivot first, and u the columns of u."""
    cols, p = _column_echelon(basis, ambient)
    if p != len(basis):
        raise ValueError("basis rows are linearly dependent")
    return tuple(tuple(c[j:p]) for j, c in enumerate(cols[:p])), tuple(tuple(c[p:]) for c in cols)


def _solve_coordinates(solver: tuple[tuple, tuple], vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Coordinates x with x . basis == v for each v: y = v . u, then
    x . h == y[:p], which needs y[p:] == 0 and an exact division."""
    h, u = solver
    p = len(h)
    out = []
    for v in vectors:
        y = [dot(v, c) for c in u]
        if any(y[p:]):
            raise ValueError("vector outside the span of the basis")
        x = [0] * p
        for j in reversed(range(p)):
            x[j], rem = divmod(y[j] - sum(x[i] * h[j][i - j] for i in range(j + 1, p)), h[j][0])
            if rem:
                raise ValueError("vector not in the lattice generated by the basis")
        out.append(tuple(x))
    return tuple(out)


def _integer_right_inverse(a: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """Integer B (ncols x t, flat in row-major order) with a . B == I for the
    t x ncols integer a.

    With a . u == [h | 0] from the column-Hermite reduction, B is the first t
    columns of u times h^-1.  That inverse is integral exactly when every
    pivot is a unit, i.e. when the rows of a span a saturated sublattice;
    otherwise ValueError.
    """
    t = len(a)
    cols, r = _column_echelon(a, ncols)
    if r != t or any(cols[i][i] not in (1, -1) for i in range(t)):
        raise ValueError("target lattice is not saturated in the source lattice")
    # h, the top t x t block of the reduced columns, is lower triangular:
    # forward substitution, where dividing by a unit pivot is multiplying.
    c = [[0] * t for _ in range(t)]
    for j in range(t):
        for i in range(j, t):
            c[i][j] = ((i == j) - sum(cols[m][i] * c[m][j] for m in range(j, i))) * cols[i][i]
    return tuple(sum(cols[m][t + i] * c[m][j] for m in range(t)) for i in range(ncols) for j in range(t))


@lru_cache(maxsize=None)
def _ksubsets(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k < 0:
        return ()
    return tuple(itertools.combinations(range(m), k))


def _wedge_power(b: tuple[int, ...], nrows: int, ncols: int, prev: tuple[int, ...], j: int) -> tuple[int, ...]:
    """j-th exterior power of the nrows x ncols integer matrix b: its j x j
    minors, rows and columns indexed by lexicographically ordered j-subsets.
    Matrices are flat in row-major order.  Each minor is a Laplace expansion
    along its first row over `prev`, the (j-1)-th power."""
    prev_row = {s: i for i, s in enumerate(_ksubsets(nrows, j - 1))}
    prev_col = {s: i for i, s in enumerate(_ksubsets(ncols, j - 1))}
    width = len(prev_col)
    out = []
    for rows in _ksubsets(nrows, j):
        first, base = rows[0] * ncols, prev_row[rows[1:]] * width
        for cols in _ksubsets(ncols, j):
            val = 0
            for q, c in enumerate(cols):
                if b[first + c]:
                    m = b[first + c] * prev[base + prev_col[cols[:q] + cols[q + 1:]]]
                    val += -m if q % 2 else m
            out.append(val)
    return tuple(out)


@dataclass(frozen=True)
class WedgeBasis:
    """Basis of the k-th wedge power of a subspace of Q^ambient.

    The subspace is given by a basis (rows); the wedge basis is indexed by
    k-element subsets of the row indices in lexicographic order, with the
    standard sign convention (sorting transpositions contribute -1 each).

    `memo`, when given, is a dict in which interior_product_matrix keeps,
    for each (source, target) subspace pair, the target's coordinates in
    the source basis, the integer right inverse and its wedge powers, so
    that the blocks of every wedge degree share them.  The complexes pass
    the cone's memo dict (Cone.memo), which is freed with the cone; its keys
    are the pairs of subspace bases themselves.
    """

    vectors: tuple[tuple[int, ...], ...]
    degree: int
    ambient: int
    memo: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("negative wedge degree")
        for v in self.vectors:
            if len(v) != self.ambient:
                raise ValueError("vector length does not match ambient dimension")

    @functools.cached_property
    def coordinate_solver(self) -> tuple[tuple, tuple]:
        """_coordinate_solver of the basis vectors, computed on first use, so
        that the blocks from this basis to each of its targets share it."""
        return _coordinate_solver(self.vectors, self.ambient)

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return _ksubsets(len(self.vectors), self.degree)

    @property
    def dim(self) -> int:
        return len(self.subsets)


def interior_product_matrix(source: WedgeBasis, target: WedgeBasis, pairings: Sequence[int]) -> RatMatrix:
    """Matrix of contraction in the first slot by a functional on the source
    subspace V, from wedge degree k of V to degree k-1 of the target W, as
    an integer matrix in sparse rows.

    The functional is given by its values `pairings` on the basis of V.  The
    blocks of the complexes have V = perp(mu) and W = perp(tau) for a cover
    pair mu < tau, and pair with the lattice step from mu to tau
    (cones.cover_pairings).  A caller holding a step vector s passes
    [dot(v, s) for v in source.vectors].

    Well defined only when W lies in the part of V that the functional
    annihilates: it must vanish on every target basis vector, which is
    checked from the target's coordinates in the source basis, and the
    contracted image must land in the span of the target wedges (otherwise
    the face pair is wrong and a ValueError is raised).

    The block is computed relative to V, in integers.  With A the
    coordinates of W's basis in V's basis, a right inverse B (A . B == I)
    maps V onto W and fixes W, so the wedge powers of B turn the contracted
    image into target coordinates: column S is
    sum_pos (-1)^pos pairings[S[pos]] (row S minus S[pos] of wedge^(k-1) B).
    B is integral because W is saturated in V, as perp(tau) is in perp(mu);
    an unsaturated W raises ValueError.
    """
    if source.degree != target.degree + 1:
        raise ValueError("target degree must be one below the source degree")
    if source.ambient != target.ambient:
        raise ValueError("mismatched ambient dimensions")
    k, p, t = source.degree, len(source.vectors), len(target.vectors)
    if len(pairings) != p:
        raise ValueError("need one pairing per source basis vector")
    memo = {} if source.memo is None else source.memo
    key = (source.vectors, target.vectors)
    entry = memo.get(key)  # (A flat, wedge^1 B, wedge^2 B, ...), extended on demand
    if entry is None:
        coords = _solve_coordinates(source.coordinate_solver, target.vectors)
        entry = (tuple(x for row in coords for x in row),)
    a = [entry[0][i * p:(i + 1) * p] for i in range(t)]
    if any(dot(row, pairings) for row in a):
        raise ValueError("functional must annihilate the target subspace")
    powers = entry[1:] or (_integer_right_inverse(a, p),)
    # If the functional is nonzero on V, the image is wedge^(k-1) of the part
    # of V that it annihilates, which lies in wedge^(k-1) W only when W is
    # all of it.
    if 2 <= k <= p and t != p - 1 and any(pairings):
        raise ValueError("target subspace does not contain image")
    while len(powers) < k - 1:
        powers += (_wedge_power(powers[0], p, t, powers[-1], len(powers) + 1),)
    memo[key] = entry[:1] + powers
    wedge = powers[k - 2] if k > 1 else (1,)
    width = target.dim
    row_of = {s: i * width for i, s in enumerate(_ksubsets(p, k - 1))}
    rows = [[] for _ in range(width)]
    for j, sub in enumerate(source.subsets):
        col = [0] * width
        for pos, i in enumerate(sub):
            c = -pairings[i] if pos % 2 else pairings[i]
            if c:
                base = row_of[sub[:pos] + sub[pos + 1:]]
                for slot in range(width):
                    col[slot] += c * wedge[base + slot]
        for slot, x in enumerate(col):
            if x:
                rows[slot].append((j, x))
    return RatMatrix.from_sparse(tuple(map(tuple, rows)), source.dim)
