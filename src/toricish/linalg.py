"""Exact linear algebra over Q and Z, done in integers, plus contractions
of wedge powers in free coordinates.

Every invariant computed by this package reduces to ranks of the matrices
built here, so arithmetic is exact throughout and in integers: never
floats.  A face's annihilator is read off one integer Gauss-Jordan pass over
its rays (free_kernel): the non-pivot columns, and one integer kernel vector
per free column, so that restriction to the free columns identifies the
annihilator with Q^free.  Three facts make the contractions of the complexes
cheap in that frame (the proofs are in ishida): contraction by the step of a
cover pair mu < tau maps wedge^k perp(mu) into wedge^(k-1) perp(tau); the
pivots of mu are pivots of tau, so free(tau) is free(mu) without one column
q0; and normalising the contraction to phi(e_q0) = +-1 differs from the
lattice step by a coboundary.  So a Contraction is only its pairings and
q0, and each block (interior_product_matrix) is the interior product by the
pairings onto the target subsets that avoid q0, written as integer sparse
rows, with no lattice basis, solver or wedge power of a change of basis.  A
block's entries stand for themselves divided by the denominator
|phi(e_q0)|; a complex scales each face's blocks by one integer that clears
their denominators.  Matrices are stored as sparse rows throughout
(RatMatrix); ranks are eliminated modulo a Mersenne prime that a Hadamard
bound of the matrix's own rows proves large enough to give the rank over Q
(RatMatrix.rank).  Input is integer only: primitive_vector rejects any
other entry, as cli.load_cone_file does for a cone file, so no rational
ever enters.  _gauss_jordan is the one eliminator: through free_kernel it
gives the frames, and through scaled_inverse the rays' Gram matrix and the
seed rays of the double description, whose pivot columns it gives directly.
All functions are pure and all returned objects immutable.
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
    norms = [sum(map(operator.mul, r.values(), r.values())) for r in rows]
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
    constructor, takes rows already in that form and trusts them.  A
    complex's differential labels its columns slot-wide (ishida), so a
    label may exceed ncols; rank reads only which labels occur.

    rank() is the rank over Q: sparse elimination of the integer rows, each
    divided by the gcd of its entries, modulo a Mersenne prime p
    (_rank_mod), shortest rows first to keep the fill-in low.  Dividing a
    row by a nonzero scalar keeps the rank; it undoes what a face's scale
    puts into its rows (ishida._face_rows).
    The rank modulo p never exceeds the rank over Q, and equals it when p
    lies above a Hadamard bound of every minor of the rows eliminated
    (_certified_prime), as no nonzero minor then vanishes mod p.  Each
    entry, a 1 x 1 minor, then also lies below p, as _rank_mod needs.
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
        for d in rows:
            if (g := math.gcd(*d.values())) != 1:
                for j in d:
                    d[j] //= g
        rows.sort(key=len)
        return _rank_mod(rows, _certified_prime(rows)) if rows else 0

    def __repr__(self):
        return f"RatMatrix({self.nrows}x{self.ncols})"


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    """Pivot column -> row of the integer reduced echelon form of the rows,
    primitive, > 0 at its pivot and 0 at the others.  A column is a pivot
    when some vector of the rows' span has its first nonzero entry there.

    Each row is reduced by the pivot rows so far, each step a positive
    multiple of it minus a multiple of a pivot row, so no fraction arises.
    What is left of it vanishes on every pivot, so it leads in a column that
    is no pivot yet; made primitive and positive there, it is eliminated
    from the other pivot rows the same way.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for c, prow in pivots.items():
            if x := row[c]:
                row = [prow[c] * y - x * z for y, z in zip(row, prow)]
        lead = next((j for j, y in enumerate(row) if y), None)
        if lead is None:
            continue
        g = math.gcd(*row) if row[lead] > 0 else -math.gcd(*row)
        row = [y // g for y in row]
        for c, prow in pivots.items():
            if x := prow[lead]:
                prow = [row[lead] * y - x * z for y, z in zip(prow, row)]
                g = math.gcd(*prow)
                pivots[c] = [y // g for y in prow]
        pivots[lead] = row
    return pivots


def free_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(free, kernel) of integer rows: free lists, ascending, the columns
    that are not pivots of _gauss_jordan.  kernel[j] is the integer vector
    that is D > 0 at free[j] and 0 at the other free columns, and annihilates
    every row; D is the same for every j.  So restriction to the free columns
    maps the annihilator of the rows onto Q^free, kernel[j] to D e_j."""
    pivots = _gauss_jordan(rows)
    d = math.lcm(*(prow[c] for c, prow in pivots.items()))
    free = tuple(j for j in range(ncols) if j not in pivots)
    scales = [(c, -(d // prow[c]), prow) for c, prow in pivots.items()]
    kernel = []
    for s in free:
        vec = [0] * ncols
        vec[s] = d
        for c, m, prow in scales:
            vec[c] = m * prow[s]
        kernel.append(tuple(vec))
    return free, tuple(kernel)


def scaled_inverse(a: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The columns of D A^-1, D > 0, for an invertible integer n x n matrix
    A: the free columns of free_kernel of the rows [A | -I] are n..2n-1, and
    kernel vector t, D at n + t, starts with column t of D A^-1."""
    n = len(a)
    _, kernel = free_kernel([list(row) + [-(i == j) for j in range(n)] for i, row in enumerate(a)], 2 * n)
    return tuple(k[:n] for k in kernel)


@lru_cache(maxsize=None)
def _contraction_terms(p: int, k: int, q0: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per (k-1)-subset T of range(p) without q0, in lexicographic order,
    the terms (x, (-1)^q, index of T + {x} among the lexicographically
    ordered k-subsets) for each x not in T, at position q in T + {x}.  The
    terms come by ascending x, which orders their indices too."""
    index = {s: i for i, s in enumerate(itertools.combinations(range(p), k))}
    out = []
    for t in itertools.combinations([x for x in range(p) if x != q0], k - 1):
        terms = []
        for x in range(p):
            if x not in t:
                q = sum(y < x for y in t)
                terms.append((x, -1 if q % 2 else 1, index[tuple(sorted(t + (x,)))]))
        out.append(tuple(terms))
    return tuple(out)


class Contraction:
    """Contraction by a nonzero functional phi on Q^p onto its kernel W, at
    every wedge degree, in coordinates.  phi is given by its values
    `pairings` on the unit vectors, kept in lowest terms: only the ratios
    matter, as the block is read as phi / |phi(e_q0)|.  q0 is the first
    coordinate where phi is nonzero; dropping it maps W isomorphically onto
    Q^(p-1), since e_q0 lies outside W.  denominator is |phi(e_q0)|: the
    block divided by it is the contraction by phi normalised to phi(e_q0) =
    +-1.

    In the complexes, Q^p is perp(mu) and Q^(p-1) is perp(tau) for a cover
    pair mu < tau, each identified with Q^free by restriction to its free
    columns (free_kernel), phi the pairings of mu's kernel vectors with a
    ray of tau outside mu, and q0 the one free column of mu that is a pivot
    of tau (see ishida).
    """

    __slots__ = ("pairings", "q0", "denominator")

    def __init__(self, pairings: Sequence[int]):
        g = math.gcd(*pairings)
        if not g:
            raise ValueError("the functional is zero")
        self.pairings = tuple(x // g for x in pairings)
        self.q0 = next(i for i, x in enumerate(self.pairings) if x)
        self.denominator = abs(self.pairings[self.q0])


def interior_product_matrix(contraction: Contraction, k: int, offset: int, factor: int) -> RatMatrix:
    """Matrix of the contraction by phi from wedge degree k >= 1 of Q^p to
    degree k - 1 of its kernel W, written in Q^(p-1) by dropping q0, as an
    integer matrix in sparse rows, times the denominator.  Its C(p, k)
    columns are the lexicographically ordered k-subsets of range(p), its
    C(p - 1, k - 1) rows the (k - 1)-subsets without q0, with the standard
    sign convention (sorting transpositions contribute -1 each).

    The contraction sends e_S to sum_pos (-1)^pos phi(e_S[pos]) e_(S minus
    S[pos]), which lies in wedge^(k-1) W; dropping q0 keeps the terms whose
    subset avoids q0, and is injective on wedge^(k-1) W.  So row T holds
    +-pairings[x] at the column of T + {x}, for each x not in T.  Labels
    are shifted by offset and entries multiplied by factor; nrows and ncols
    stay the block's.
    """
    if k < 1:
        raise ValueError("contraction needs a source degree of at least 1")
    a = contraction.pairings
    b = a if factor == 1 else [factor * x for x in a]
    rows = tuple(
        tuple([(offset + col, sign * b[x]) for x, sign, col in terms if b[x]])
        for terms in _contraction_terms(len(a), k, contraction.q0)
    )
    return RatMatrix.from_sparse(rows, math.comb(len(a), k))
