"""Reference constructions over Q, used as oracles by the tests.

The contraction blocks are built in ambient coordinates, the original, slow
route: every wedge is expanded into the standard wedge basis of Q^ambient
with Fraction determinants, and each contracted image is solved against the
target wedges by exact Gaussian elimination (ambient_contraction).  It makes
no use of lattices or projections, which makes it an independent oracle
both for toricish.linalg.interior_product_matrix, whose bases are each
face's free coordinates (rational vectors here), and for the lattice route
of lattice_reference, whose bases are integral.  Its bases are AmbientBasis
records of its own; the wedge coordinates and target solver of each basis
and degree are kept in a bounded cache, as every block reuses them.
dense_matrix, the dense constructor of a RatMatrix, takes integers only,
so a lattice block is checked to be integral on the way (integral), and
normalised reads a package block as the Fractions it stands for.

bareiss_rank (fraction-free elimination over Z) is the oracle for
RatMatrix.rank, which eliminates modulo a prime; kernel_basis is a rational
kernel by Gauss-Jordan elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from toricish.linalg import Contraction, RatMatrix, dot, interior_product_matrix


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its denominators."""
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        out.append([int(f * den) for f in fracs])
    return out


def integral(rows: Sequence[Sequence]) -> list[list[int]]:
    """The rows as ints, asserting that every entry has denominator 1: the
    contraction blocks and differentials are integral, and this checks it."""
    fracs = [[Fraction(x) for x in row] for row in rows]
    assert all(f.denominator == 1 for row in fracs for f in row), "non-integral entry"
    return [[int(f) for f in row] for row in fracs]


def bareiss_rank(rows: Sequence[Sequence], ncols: int) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination on integer rows."""
    a = [r for r in _integer_rows(rows) if any(r)]
    m, n = len(a), ncols
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            x = a[i][c]
            if x and (piv is None or abs(x) < abs(a[piv][c])):
                piv = i
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pc = a[r][c]
        for i in range(r + 1, m):
            ic = a[i][c]
            row_i, row_r = a[i], a[r]
            for j in range(c, n):
                row_i[j] = (row_i[j] * pc - ic * row_r[j]) // prev
        prev = pc
        r += 1
    return r


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel over Q; rank + len(basis) == ncols."""
    m, n = len(rows), ncols
    a = [[Fraction(x) for x in row] for row in rows]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    basis = []
    for free in range(n):
        if free in piv_cols:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for prow, pcol in enumerate(piv_cols):
            v[pcol] = -a[prow][free]
        basis.append(tuple(v))
    return basis


class ColumnSolver:
    """Expresses vectors exactly in the span of a fixed list of columns.

    The elimination is done once at construction; solve() is then a couple of
    dot products per call.  Returns None when the target is outside the span.
    """

    def __init__(self, columns: Sequence[Sequence], height: int):
        self.ncols = len(columns)
        self.height = height
        # Augment with the identity so solve() can replay row operations.
        a = []
        for i in range(height):
            row = [Fraction(col[i]) for col in columns]
            row.extend(Fraction(1) if k == i else Fraction(0) for k in range(height))
            a.append(row)
        pivots: list[tuple[int, int]] = []
        r = 0
        for c in range(self.ncols):
            piv = next((i for i in range(r, height) if a[i][c]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = 1 / a[r][c]
            a[r] = [x * inv for x in a[r]]
            for i in range(height):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append((r, c))
            r += 1
        # the row operations to replay, as sparse rows
        self._replay = [[(j, x) for j, x in enumerate(row[self.ncols:]) if x] for row in a]
        self._pivots = pivots
        self._rank = r

    def solve(self, target: Sequence):
        target = {j: t for j, t in enumerate(target) if t}
        vals = [sum(x * target[j] for j, x in row if j in target) for row in self._replay]
        if any(vals[i] for i in range(self._rank, self.height)):
            return None
        # Free columns (if any) take coordinate zero; pivot rows then read off
        # directly because the pivot columns are reduced.
        x = [Fraction(0)] * self.ncols
        for prow, pcol in self._pivots:
            x[pcol] = vals[prow]
        return tuple(x)


def _det(rows: list[list]) -> Fraction:
    """Determinant by exact Gaussian elimination (small matrices only)."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def wedge_coordinates(vectors: Sequence[Sequence], ambient: int) -> list[Fraction]:
    """Coordinates of v_1 ^ ... ^ v_k in the standard wedge basis of Q^ambient,
    indexed by lexicographically ordered k-subsets of the coordinates."""
    return [
        _det([[v[j] for j in subset] for v in vectors])
        for subset in itertools.combinations(range(ambient), len(vectors))
    ]


@dataclass(frozen=True)
class AmbientBasis:
    """Basis of the degree-th wedge power of the subspace of Q^ambient
    spanned by `vectors`, indexed by the lexicographically ordered
    degree-subsets of the vector indices, with the standard sign convention
    (sorting transpositions contribute -1 each)."""

    vectors: tuple[tuple[int, ...], ...]
    degree: int
    ambient: int

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.combinations(range(len(self.vectors)), self.degree))

    @property
    def dim(self) -> int:
        return len(self.subsets)


@lru_cache(maxsize=1024)
def _wedges(basis: AmbientBasis) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """wedge_coordinates of every basis wedge, by subset."""
    return {sub: tuple(wedge_coordinates([basis.vectors[i] for i in sub], basis.ambient)) for sub in basis.subsets}


@lru_cache(maxsize=1024)
def _wedge_solver(basis: AmbientBasis) -> ColumnSolver:
    """A ColumnSolver for the basis wedges in ambient wedge coordinates."""
    return ColumnSolver(list(_wedges(basis).values()), math.comb(basis.ambient, basis.degree))


def ambient_contraction(source: AmbientBasis, target: AmbientBasis, step) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the contraction by `step` from the source wedges to the
    target wedges, computed in ambient wedge coordinates, in Fractions: the
    bases and the step may be rational."""
    if source.degree != target.degree + 1:
        raise ValueError("target degree must be one below the source degree")
    for u in target.vectors:
        if dot(u, step) != 0:
            raise ValueError("functional must annihilate the target subspace")
    height = math.comb(source.ambient, target.degree)
    solver = _wedge_solver(target)
    rest_wedges = _wedges(AmbientBasis(source.vectors, target.degree, source.ambient))
    pairings = [dot(v, step) for v in source.vectors]
    columns = []
    for sub in source.subsets:
        image = [Fraction(0)] * height
        for pos, i in enumerate(sub):
            if not pairings[i]:
                continue
            sign = -1 if pos % 2 else 1
            for slot, val in enumerate(rest_wedges[sub[:pos] + sub[pos + 1:]]):
                image[slot] += sign * pairings[i] * val
        coeffs = solver.solve(image)
        if coeffs is None:
            raise ValueError("target subspace does not contain image")
        columns.append(coeffs)
    return tuple(tuple(col[i] for col in columns) for i in range(target.dim))


def ambient_interior_product_matrix(source: AmbientBasis, target: AmbientBasis, step) -> RatMatrix:
    """ambient_contraction in integral bases, as a RatMatrix; every entry is
    checked to be an integer."""
    return dense_matrix(integral(ambient_contraction(source, target, step)), ncols=source.dim)


def dense_matrix(rows: Sequence[Sequence[int]], ncols: int | None = None) -> RatMatrix:
    """A RatMatrix from dense rows of ints.  ValueError on any other entry,
    on ragged rows, or on a column count that does not match the rows."""
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
    return RatMatrix.from_sparse(tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in rows), ncols)


def dense(m: RatMatrix, ncols: int | None = None) -> tuple[tuple, ...]:
    """The sparse rows of m written out in full, ncols (m.ncols by default)
    entries each."""
    out = []
    for row in m.rows:
        full = [0] * (m.ncols if ncols is None else ncols)
        for j, x in row:
            full[j] = x
        out.append(tuple(full))
    return tuple(out)


def own_columns(cone, cx, s: int) -> RatMatrix:
    """Differential s of the complex cx with its slot-wide column labels,
    pos(mu) C + a for mu at place pos(mu) of its dimension in by_dim, moved
    to the complex's own, j C + a for mu the j-th face of slot s; KeyError
    on an entry in a column of a face outside the slot."""
    d, ids = cx.differentials[s], cx.term_faces[s]
    if not ids:
        return d
    fl = cone.face_lattice()
    width, by_dim = d.ncols // len(ids), fl.by_dim[fl.faces[ids[0]].dim]
    new = {by_dim.index(fid) * width + a: j * width + a for j, fid in enumerate(ids) for a in range(width)}
    return RatMatrix.from_sparse(tuple(tuple((new[c], x) for c, x in row) for row in d.rows), d.ncols)


def normalised(c: Contraction, k: int) -> list[list[Fraction]]:
    """interior_product_matrix(c, k, 0, 1) divided by c's denominator: the
    contraction by phi / |phi(e_q0)|, as dense Fraction rows."""
    return [[Fraction(x, c.denominator) for x in row] for row in dense(interior_product_matrix(c, k, 0, 1))]
