"""Exact linear algebra over Q and Z, done in integers, plus contractions
of wedge powers.

Every invariant computed by this package reduces to ranks and kernels of the
matrices built here, so arithmetic is exact throughout and in integers:
never floats.  Lattice work (kernels, coordinates in a lattice basis) is
read off one column-Hermite reduction, which keeps the inverse of its
transform too: a kernel basis comes with its dual and span checks.  A
Contraction holds one functional phi on a lattice, given by its values on
the basis (the pairings of a cover pair, cones.cover_pairings), and needs
no matrix inverse: a source vector e on which phi is g projects the source
onto the target, v -> v - (phi(v) / g) e, so the target's dual on the
source basis and on e gives the coordinates of the projected basis, whose
wedge powers as sparse rows turn the contracted image into target
coordinates.  Each block (interior_product_matrix) is written as sparse
rows, built once per source degree and kept by its Contraction, which the
complexes offset straight into their differentials.  Matrices are stored
as sparse rows throughout (RatMatrix); ranks are eliminated modulo a
Mersenne prime that a Hadamard bound of the matrix's own rows proves large
enough to give the rank over Q (RatMatrix.rank).  Input is integer only:
primitive_vector rejects any other entry, as cli.load_cone_file does for a
cone file, so no rational ever enters.
All functions are pure and all returned objects immutable, apart from the
wedge powers and blocks a Contraction builds on demand.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Sequence


def dot(u: Sequence, v: Sequence):
    return sum(map(operator.mul, u, v))


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


class NoCertifiedPrime(ArithmeticError):
    """No Mersenne prime tried lies above the Hadamard bound of a matrix."""


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
    raise NoCertifiedPrime("Hadamard bound exceeds every Mersenne prime tried")


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank modulo p of sparse rows with entries 0 < |x| < p (consumed).

    Each row is reduced by the pivot rows of its leading columns until it is
    zero or leads in a new column.  Entries stay signed and are reduced only
    once |x| >= p.  A pivot a other than +-1 (where 1/a == a) is not
    inverted: the row is scaled by a instead.  A row leading with +-1 takes
    the place of a stored pivot that does not, which is reduced in its
    stead, so that as many pivots as possible are units.
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
            if (b == 1 or b == -1) and a != 1 and a != -1:
                pivots[c], row, prow, a, b = row, prow, row, b, a
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
    column order, with no zero integer value.  from_sparse, the only
    constructor, takes rows already in that form and trusts them.

    rank() is the rank over Q: sparse elimination of the integer rows
    modulo a Mersenne prime p (_rank_mod).  The rank modulo p never exceeds
    the rank over Q, and equals it when p lies above a Hadamard bound of
    every minor (_certified_prime), as no nonzero minor then vanishes mod p.
    Each entry, a 1 x 1 minor, then also lies below p, as _rank_mod needs.
    """

    __slots__ = ("rows", "nrows", "ncols")

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


def _column_echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[list[int]], int]:
    """Column-style Hermite reduction with a unimodular transform.

    Returns (cols, inv, r): column j of rows . u stacked on column j of u,
    for a unimodular u, and the rows of u^-1, kept by the inverse row
    operations.  The first r columns of rows . u are in column echelon form
    and the others are zero; for independent rows (r == len(rows)), entry i
    of column i is the pivot of row i, and entry i of column j > i is zero.
    """
    m = len(rows)
    cols = [[int(r[j]) for r in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    inv = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
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
                    inv[j1] = [x + q * y for x, y in zip(inv[j1], inv[j2])]
        nz = [j for j in range(col, ncols) if cols[j][row]]
        if nz:
            cols[col], cols[nz[0]] = cols[nz[0]], cols[col]
            inv[col], inv[nz[0]] = inv[nz[0]], inv[col]
            col += 1
    return cols, inv, col


def integer_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple, tuple]:
    """Z-basis of {x in Z^ncols : r . x == 0 for every row r} and its
    coordinate_solver form (dual, checks, 1), from one reduction: the basis
    is the columns r.. of the transform u, so it is saturated (det 1), the
    dual is rows r.. of u^-1 (dual . basis == I) and the checks, which
    vanish exactly on the span of the basis, are rows ..r of u^-1."""
    cols, inv, r = _column_echelon(rows, ncols)
    basis = tuple(tuple(c[len(rows):]) for c in cols[r:])
    return basis, (tuple(map(tuple, inv[r:])), tuple(map(tuple, inv[:r])), 1)


def coordinate_solver(basis: Sequence[Sequence[int]], ambient: int) -> tuple[tuple, tuple, int]:
    """(dual, checks, det) of p independent basis rows: v lies in their span
    when every check pairs to zero with it, and then v == x . basis for
    x_j = dual_j . v / det, exact when v lies in the lattice they generate.
    From basis . u == [h | 0]: the checks are the columns p.. of u, and the
    dual is u[:, :p] times det h^-1, det = |det h|, by forward substitution.
    """
    cols, _, p = _column_echelon(basis, ambient)
    if p != len(basis):
        raise ValueError("basis rows are linearly dependent")
    det = abs(math.prod(cols[j][j] for j in range(p)))
    scaled = [[0] * p for _ in range(p)]  # det h^-1; h[i][k] is cols[k][i]
    for c in range(p):
        for i in range(c, p):
            scaled[i][c] = (det * (i == c) - sum(cols[k][i] * scaled[k][c] for k in range(c, i))) // cols[i][i]
    u = [c[p:] for c in cols]
    dual = tuple(tuple(sum(u[k][a] * scaled[k][j] for k in range(p)) for a in range(ambient)) for j in range(p))
    return dual, tuple(map(tuple, u[p:])), det


@lru_cache(maxsize=None)
def _laplace(m: int, k: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per k-subset S of range(m), in lexicographic order, the terms of an
    expansion along S: (S[q], (-1)^q, index of S minus S[q] among the
    (k-1)-subsets) for each position q."""
    index = {s: i for i, s in enumerate(itertools.combinations(range(m), k - 1))}
    return tuple(
        tuple((x, -1 if q % 2 else 1, index[s[:q] + s[q + 1:]]) for q, x in enumerate(s))
        for s in itertools.combinations(range(m), k)
    )


@lru_cache(maxsize=None)
def _insertions(m: int, k: int) -> tuple[dict[int, tuple[int, int]], ...]:
    """_laplace(m, k) inverted: per (k-1)-subset index, x -> ((-1)^q, index
    of the k-subset that holds x at position q), for each x not in it."""
    out = tuple({} for _ in range(math.comb(m, k - 1)))
    for i, terms in enumerate(_laplace(m, k)):
        for x, sign, rest in terms:
            out[rest][x] = (sign, i)
    return out


def _wedge_rows(b, prev, p: int, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse rows of the j-th wedge power of the p x (p - 1) integer matrix
    with sparse rows b, from `prev`, its (j-1)-th power: the j x j minors,
    rows and columns indexed by lexicographically ordered j-subsets.  Each
    minor is a Laplace expansion along its first row."""
    insert = _insertions(p - 1, j)
    out = []
    for terms in _laplace(p, j):
        first, _, rest = terms[0]
        acc: dict[int, int] = {}
        for c, x in b[first]:
            for d, y in prev[rest]:
                hit = insert[d].get(c)
                if hit:
                    sign, col = hit
                    acc[col] = acc.get(col, 0) + sign * x * y
        out.append(tuple((c, v) for c, v in acc.items() if v))
    return tuple(out)


class Contraction:
    """Contraction by a nonzero functional phi on a lattice V onto the part
    W of V that phi annihilates, at every wedge degree.  V is given by its
    basis (source_vectors), W by the coordinate_solver of its basis, phi by
    its values `pairings` on the basis of V.  In the complexes, V = perp(mu),
    W = perp(tau) and phi is the lattice step of a cover pair mu < tau.

    With e in V pairing to g, the gcd of the pairings up to sign, the map
    v -> v - (phi(v) / g) e takes V onto W and fixes W.  Row i of the
    integer p x (p - 1) matrix B holds the target coordinates of the image
    of the i-th basis vector, by linearity the solver's values on v_i minus
    phi(v_i) / g times those on e.  `powers` holds wedge^0 B, wedge^1 B = B,
    ... as sparse rows, extended on demand (wedge) and shared by every degree,
    and `blocks` the contraction matrix from each source degree k (block).

    ValueError unless phi is nonzero and W is all of ker phi, of rank
    p - 1 and saturated in V: an image that a check does not vanish on means
    that phi does not vanish on W, one outside the lattice W that W is not
    saturated.
    """

    __slots__ = ("pairings", "powers", "blocks")

    def __init__(self, source_vectors: Sequence[Sequence[int]], target_solver: tuple[tuple, tuple, int], pairings: Sequence[int]):
        dual, checks, det = target_solver
        p, q = len(source_vectors), len(dual)
        if len(pairings) != p:
            raise ValueError("need one pairing per source basis vector")
        if q != p - 1:
            raise ValueError("target rank must be one below the source rank")
        if not any(pairings):
            raise ValueError("the functional is zero")
        values = [[dot(f, v) for f in dual + checks] for v in source_vectors]
        # e: a basis vector where a pairing is +-1, else a Bezout combination
        i0 = next((i for i, x in enumerate(pairings) if x == 1 or x == -1), None)
        if i0 is None:
            cols, _, _ = _column_echelon([pairings], p)
            g, e = cols[0][0], cols[0][1:]  # pairings . e == g
            ev = [sum(c * x for c, x in zip(e, col) if c) for col in zip(*values)]
        else:
            g, ev = pairings[i0], values[i0]
        b = []
        for vals, f in zip(values, pairings):
            image = [x - f // g * y for x, y in zip(vals, ev)] if f else vals
            if any(image[q:]):
                raise ValueError("functional must annihilate the target subspace")
            coords = [divmod(x, det) for x in image[:q]]
            if any(r for _, r in coords):
                raise ValueError("target lattice is not saturated in the source lattice")
            b.append(tuple((c, x) for c, (x, _) in enumerate(coords) if x))
        self.pairings = tuple(pairings)
        self.powers = [(((0, 1),),), tuple(b)]
        self.blocks = {}

    def wedge(self, j: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """wedge^j B, rows and columns indexed by j-subsets."""
        powers, p = self.powers, len(self.pairings)
        while len(powers) <= j:
            powers.append(_wedge_rows(powers[1], powers[-1], p, len(powers)))
        return powers[j]

    def block(self, k: int) -> "RatMatrix":
        """interior_product_matrix(self, k), built on first use and kept."""
        if k not in self.blocks:
            self.blocks[k] = interior_product_matrix(self, k)
        return self.blocks[k]


def interior_product_matrix(contraction: Contraction, k: int) -> RatMatrix:
    """Matrix of the contraction from wedge degree k >= 1 of V to degree
    k - 1 of W, as an integer matrix in sparse rows.  Its C(p, k) columns
    and C(p - 1, k - 1) rows are indexed by the lexicographically ordered
    subsets of the basis indices, with the standard sign convention
    (sorting transpositions contribute -1 each).

    B fixes W, so its wedge powers turn the contracted image into target
    coordinates: column S is sum_pos (-1)^pos pairings[S[pos]] (row S minus
    S[pos] of wedge^(k-1) B).
    """
    if k < 1:
        raise ValueError("contraction needs a source degree of at least 1")
    pairings = contraction.pairings
    p = len(pairings)
    wedge = contraction.wedge(k - 1)
    rows = [[] for _ in range(math.comb(p - 1, k - 1))]
    for j, terms in enumerate(_laplace(p, k)):
        acc: dict[int, int] = {}
        for i, sign, rest in terms:
            c = pairings[i]
            if c:
                c *= sign
                for slot, y in wedge[rest]:
                    acc[slot] = acc.get(slot, 0) + c * y
        for slot, x in acc.items():
            if x:
                rows[slot].append((j, x))
    return RatMatrix.from_sparse(tuple(map(tuple, rows)), math.comb(p, k))
