"""The lattice route of the contraction blocks, used as an oracle by the tests.

The package writes the blocks of its complexes in each face's free
coordinates (cones.Face.perp_frame).  This module keeps the route it took
before: a saturated Z-basis of each perp(F) (perp_lattice, the integer
kernel of the face's rays) and of each span (span_lattice, the integer
kernel of perp_lattice), the lattice step of each cover pair
(normal_step_vector, from the span lattice and Bezout coefficients), and a
LatticeContraction that writes the contraction by the step in the two
lattice bases: a source vector e on which the step is g projects perp(mu)
onto perp(tau), v -> v - (phi(v) / g) e, whose target coordinates form the
integer p x (p - 1) matrix B, and lattice_block reads each block off the
wedge powers of B.  lattice_complex assembles a complex over any set of
faces from these blocks.  Its cohomology is that of the package's complex
over the same faces, which the tests check: the two differ by a change of
basis of each perp(F) and a positive scale per face.

The lattice bases come from a column-Hermite reduction with a unimodular
transform (_column_echelon); coordinate_solver, on the same reduction, gives
coordinates in a lattice basis.  The package needs neither.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

from toricish.ishida import IshidaComplex
from toricish.linalg import RatMatrix, dot, primitive_vector


def _column_echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], int]:
    """Column-style Hermite reduction with a unimodular transform.

    Returns (cols, r): column j of rows . u stacked on column j of u, for a
    unimodular u.  The first r columns of rows . u are in column echelon
    form and the others are zero; for independent rows (r == len(rows)),
    entry i of column i is the pivot of row i, and entry i of column j > i
    is zero.
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


def coordinate_solver(basis: Sequence[Sequence[int]], ambient: int) -> tuple[tuple, tuple, int]:
    """(dual, checks, det) of p independent basis rows: v lies in their span
    when every check pairs to zero with it, and then v == x . basis for
    x_j = dual_j . v / det, exact when v lies in the lattice they generate.
    From basis . u == [h | 0]: the checks are the columns p.. of u, and the
    dual is u[:, :p] times det h^-1, det = |det h|, by forward substitution.
    """
    cols, p = _column_echelon(basis, ambient)
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


def integer_kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Z-basis of {x in Z^ncols : r . x == 0 for every row r}: the columns
    r.. of the unimodular transform of one column-Hermite reduction, so it is
    saturated."""
    cols, r = _column_echelon(rows, ncols)
    return tuple(tuple(c[len(rows):]) for c in cols[r:])


@lru_cache(maxsize=None)
def _perp(vectors: tuple, rank: int) -> tuple[tuple[int, ...], ...]:
    return integer_kernel_basis(vectors, rank)


def perp_lattice(face) -> tuple[tuple[int, ...], ...]:
    """A saturated Z-basis of the annihilator M intersect face^perp: pairing
    with it is an exact coordinate system for N / (N intersect <face>)."""
    return _perp(face.vectors, face.rank)


def span_lattice(face) -> tuple[tuple[int, ...], ...]:
    """A Z-basis of N intersected with the linear span of the face: the
    integer kernel of its perp lattice, so it is saturated."""
    return integer_kernel_basis(perp_lattice(face), face.rank)


def _bezout(values: Sequence[int]) -> tuple[int, list[int]]:
    """(g, c) with g = gcd(values) >= 0 and sum c_i values_i == g."""
    g, coeffs = 0, []
    for v in values:
        # extended Euclid on (g, v): x g + y v == d
        r0, r1, x0, x1, y0, y1 = g, v, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        if r0 < 0:
            r0, x0, y0 = -r0, -x0, -y0
        g, coeffs = r0, [x0 * c for c in coeffs] + [y0]
    return g, coeffs


def normal_step_vector(mu, tau) -> tuple[int, ...]:
    """Integer vector in the span of tau whose class generates the image ray
    of tau in N / (N intersect <mu>), oriented to pair nonnegatively with the
    dual face of mu.

    The span lattice of tau projects (by pairing with perp(mu)) onto
    multiples c_i g0 of one primitive vector g0; Bezout coefficients of the
    c_i combine the span basis into a preimage of g0.  Any two valid outputs
    differ by an element of <mu> intersect N.
    """
    if tau.dim != mu.dim + 1 or not set(mu.rays) <= set(tau.rays):
        raise ValueError("faces do not form a cover pair")
    if mu.dim == 0:
        return tau.vectors[0]
    proj = perp_lattice(mu)
    images = [tuple(dot(u, b) for u in proj) for b in span_lattice(tau)]
    g0 = primitive_vector(next(v for v in images if any(v)))
    j0 = next(j for j, x in enumerate(g0) if x)
    factors = [v[j0] // g0[j0] for v in images]
    if any(tuple(c * x for x in g0) != v for c, v in zip(factors, images)):
        raise ValueError("projected span is not one-dimensional")
    g, coeffs = _bezout(factors)
    if g != 1:
        raise ValueError("projected span lattice is not generated by its primitive vector")
    ray = next(v for i, v in zip(tau.rays, tau.vectors) if i not in mu.rays)
    sign = -1 if dot(proj[j0], ray) * g0[j0] < 0 else 1
    return tuple(sign * dot(coeffs, col) for col in zip(*span_lattice(tau)))


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
    """Sparse rows of the j-th wedge power of the p x (p - 1) matrix with
    sparse rows b, from `prev`, its (j-1)-th power: the j x j minors, each a
    Laplace expansion along its first row."""
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


class LatticeContraction:
    """Contraction by a nonzero functional phi on a lattice V onto the part
    W of V that phi annihilates, at every wedge degree.  V is given by its
    basis, W by the coordinate_solver of its basis, phi by its values
    `pairings` on the basis of V.

    ValueError unless phi is nonzero and W is all of ker phi, of rank
    p - 1 and saturated in V.
    """

    def __init__(self, source_vectors, target_solver, pairings):
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
            cols, _ = _column_echelon([pairings], p)
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

    def wedge(self, j: int):
        """wedge^j B, rows and columns indexed by j-subsets."""
        while len(self.powers) <= j:
            self.powers.append(_wedge_rows(self.powers[1], self.powers[-1], len(self.pairings), len(self.powers)))
        return self.powers[j]


def lattice_contraction(source, target, pairings) -> LatticeContraction:
    """The LatticeContraction from the lattice spanned by `source` onto the
    one spanned by `target`, both in Z^n for n the source vectors' length."""
    return LatticeContraction(source, coordinate_solver(target, len(source[0])), pairings)


def lattice_block(contraction: LatticeContraction, k: int) -> RatMatrix:
    """Matrix of the contraction from wedge degree k >= 1 of V to degree
    k - 1 of W in the two lattice bases: column S is sum_pos (-1)^pos
    pairings[S[pos]] (row S minus S[pos] of wedge^(k-1) B)."""
    if k < 1:
        raise ValueError("contraction needs a source degree of at least 1")
    pairings = contraction.pairings
    p = len(pairings)
    wedge = contraction.wedge(k - 1)
    rows = [[] for _ in range(math.comb(p - 1, k - 1))]
    for j, terms in enumerate(_laplace(p, k)):
        acc: dict[int, int] = {}
        for i, sign, rest in terms:
            if c := pairings[i]:
                for slot, y in wedge[rest]:
                    acc[slot] = acc.get(slot, 0) + sign * c * y
        for slot, x in acc.items():
            if x:
                rows[slot].append((j, x))
    return RatMatrix.from_sparse(tuple(map(tuple, rows)), math.comb(p, k))


@lru_cache(maxsize=4096)
def _pair_contraction(cone, mid: int, tid: int) -> LatticeContraction:
    """The lattice contraction of the cover pair of face ids mid < tid, by
    the pairings of perp_lattice(mu) with the lattice step."""
    fl = cone.face_lattice()
    mu, tau = fl.faces[mid], fl.faces[tid]
    step = normal_step_vector(mu, tau)
    return lattice_contraction(perp_lattice(mu), perp_lattice(tau), [dot(v, step) for v in perp_lattice(mu)])


@lru_cache(maxsize=16384)
def _pair_block(cone, mid: int, tid: int, k: int) -> RatMatrix:
    return lattice_block(_pair_contraction(cone, mid, tid), k)


def lattice_complex(cone, degree: int, term_faces) -> IshidaComplex:
    """The complex at wedge degree `degree` over the faces term_faces[s] of
    dimension d + s, on the lattice route: per face tau, the lattice block
    of each cover pair mu < tau with mu in the slot below, at mu's
    slot-wide columns."""
    fl = cone.face_lattice()
    lo = fl.faces[term_faces[0][0]].dim
    widths = [math.comb(cone.rank - d, degree - d) for d in range(lo, lo + len(term_faces))]
    term_dims = tuple(len(ids) * w for ids, w in zip(term_faces, widths))
    starts = tuple(fl.by_dim[d][0] for d in range(lo, lo + len(term_faces)))
    diffs = []
    for s in range(len(term_faces) - 1):
        offset = {fid: (fid - starts[s]) * widths[s] for fid in term_faces[s]}
        rows = []
        for tid in term_faces[s + 1]:
            block_rows = [[] for _ in range(widths[s + 1])]
            for mid in fl.children[tid]:
                if mid in offset:
                    for row, brow in zip(block_rows, _pair_block(cone, mid, tid, degree - lo - s).rows):
                        row.extend((offset[mid] + j, x) for j, x in brow)
            rows.extend(map(tuple, block_rows))
        diffs.append(RatMatrix.from_sparse(tuple(rows), term_dims[s]))
    scales = tuple((1,) * len(ids) for ids in term_faces[1:])
    return IshidaComplex(degree, tuple(term_faces), term_dims, tuple(diffs), scales, starts)
