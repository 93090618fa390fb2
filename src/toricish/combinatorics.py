"""Face-number arithmetic: h-vectors, the two transforms attached to
simplicial and simple cross-sections, Stanley's g-polynomial recursion for
intersection-cohomology stalks, and Hodge-Deligne / Hodge-Du Bois tables of
projective toric varieties of simple polytopes.

Every face-number function takes the f-vector of a cone, apex first:
f[0] = 1 for the apex, f[n] = 1 for the cone of rank n, so the vector's
length fixes the dimension.  For a cone over a polytope, f[j] counts the
polytope's (j-1)-faces, with the apex as the empty face; the polytope has
dimension len(f) - 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cones import FaceLattice


def h_vector(f: Sequence[int]) -> tuple[int, ...]:
    """h_j = sum_{l >= j} (-1)^{l-j} C(l, j) f_{n-1-l} for a cone of rank
    n, the transform whose entries are the even Betti numbers of a
    simplicial projective toric variety when the cone is over a simplicial
    polytope."""
    n = len(f) - 1
    return tuple(
        sum((-1) ** (l - j) * math.comb(l, j) * f[n - 1 - l] for l in range(j, n))
        for j in range(n)
    )


def h_tilde_vector(f: Sequence[int]) -> tuple[int, ...]:
    """The companion transform with the roles of the face numbers reversed;
    symmetric and unimodal for cones over simple polytopes."""
    n = len(f) - 1
    return tuple(
        sum(f[n - l] * math.comb(n - 1 - l, j - l) * (-1) ** (j - l) for l in range(j + 1))
        for j in range(n)
    )


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class ICStalkPoly:
    """Stalk dimensions of the intersection complex at the torus fixed
    point, as coefficients of the even powers: coefficients[j] multiplies
    q^(2j).  Equals the g-vector of the cross-section polytope."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("stalk polynomial must have constant term 1")


def g_polynomial(fl: FaceLattice) -> ICStalkPoly:
    """Stanley's mutual recursion evaluated on the cross-section polytope
    poset: faces of the cone minus the apex, dimensions shifted down by one,
    with the apex playing the empty face.

    h(F, t) = sum over proper faces G of F (apex included) of
    g(G, t) * (t-1)^(dim F - dim G - 1), with dims taken in the cone;
    g truncates h at half the polytope dimension by first differences.

    The faces are walked upwards in lattice order, so every g below a face
    is known when the face is reached.  A simplicial face (the apex
    included) is over a simplex, whose g is 1.  The faces walked so far
    are kept as one bitmask per class (dim, g).  For any other face, the g
    below it are summed per dimension d as the sum over the classes (d, g)
    of g times the popcount of the class within its down-set
    (FaceLattice.down_sets, built when such a face is first reached).  Each
    sum is multiplied once by (t-1)^k, read off a table of signed binomials
    built once per call.
    """
    n = fl.rank
    t_minus_one = [[(-1) ** (k - j) * math.comb(k, j) for j in range(k + 1)] for k in range(n)]
    below = None
    # (dim, g) -> the ids of the faces walked so far with that dim and g
    classes: dict[tuple[int, tuple[int, ...]], int] = {}
    for face in fl.faces:
        if len(face.rays) == face.dim:
            g = (1,)
        else:
            below = below or fl.down_sets()
            down = below[face.index]
            # a d-face's g has at most d + 1 coefficients, so each product
            # below has at most face.dim
            sums = [[0] * (d + 1) for d in range(face.dim)]
            for (d, gamma), members in classes.items():
                count = (down & members).bit_count()  # 0 unless d < face.dim
                if count:
                    total = sums[d]
                    for i, x in enumerate(gamma):
                        total[i] += count * x
            h = [0] * face.dim
            for d, total in enumerate(sums):
                for i, x in enumerate(_poly_mul(total, t_minus_one[face.dim - d - 1])):
                    h[i] += x
            half = (face.dim - 1) // 2
            coeffs = [h[0]] + [h[i] - h[i - 1] for i in range(1, half + 1)]
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            g = tuple(coeffs)
        classes[face.dim, g] = classes.get((face.dim, g), 0) | 1 << face.index
    return ICStalkPoly(g)  # the top face comes last


def hodge_deligne_coefficients(f: Sequence[int]) -> tuple[int, ...]:
    """Coefficients c_p of (uv)^p in sum_{j=0..n} f[j] (uv - 1)^(n-j), for
    the polytope of dimension n = len(f) - 2 that the cone is over."""
    n = len(f) - 2
    coeffs = [0] * (n + 1)
    for j in range(n + 1):
        for p in range(n - j + 1):
            coeffs[p] += f[j] * math.comb(n - j, p) * (-1) ** (n - j - p)
    return tuple(coeffs)


def hodge_du_bois_table(f: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Table T with T[p][q] the (p, q) Hodge-Du Bois number of the projective
    toric variety of the simple polytope of dimension n = len(f) - 2 that
    the cone is over: ones on the diagonal except f[1] - n (vertices less
    n) at (n-1, n-1), an extra row at q = n-1, zero elsewhere.  For n = 0
    the index n-1 is the last, where f[1] - n = 1 as well."""
    n = len(f) - 2
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        if p != n - 1:
            table[p][p] = 1
    table[n - 1][n - 1] = f[1] - n
    for p in range(1, n - 1):
        total = (-1) ** (n - p)
        for j in range(n - p + 1):
            sign = 1 if j % 2 else -1
            total += sign * f[j] * math.comb(n - j, p)
        table[p][n - 1] = total
    return tuple(tuple(row) for row in table)


def betti_numbers(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Anti-diagonal sums of a Hodge-Du Bois table."""
    n = len(table) - 1
    return tuple(
        sum(table[p][k - p] for p in range(max(0, k - n), min(k, n) + 1))
        for k in range(2 * n + 1)
    )
