"""Reference values the benchmark's output checks compare against.

Written from the textbook formulas, without importing toricish, so that a
fault in the program cannot also sit in the reference.  A polytope is
described by its face numbers as a list `faces` with faces[k] the number of
k-dimensional faces, the polytope itself included and the empty face left
out.  The cone over a polytope of dimension d has rank n = d + 1, and its
f-vector is (1,) + faces: the apex stands for the empty face.
"""

from __future__ import annotations

from math import comb


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def simplex_faces(a: int) -> list[int]:
    """The a-simplex: every (k+1)-subset of its a+1 vertices is a k-face."""
    return [comb(a + 1, k + 1) for k in range(a + 1)]


def cube_faces(d: int) -> list[int]:
    """The d-cube: a k-face frees k coordinates and fixes the other d-k to
    one of two values, so the face numbers are the coefficients of (2+t)^d."""
    return [comb(d, k) * 2 ** (d - k) for k in range(d + 1)]


def cross_faces(d: int) -> list[int]:
    """The d-cross-polytope: a proper k-face picks k+1 of the d axes and a
    sign on each."""
    return [comb(d, k + 1) * 2 ** (k + 1) for k in range(d)] + [1]


def product_faces(*factors: list[int]) -> list[int]:
    """Faces of a product are the products of faces of the factors."""
    out = [1]
    for f in factors:
        out = _mul(out, f)
    return out


def pyramid_faces(faces: list[int]) -> list[int]:
    """Faces of a pyramid: the faces of the base, and the cone from the apex
    over every face of the base, the empty face giving the apex itself."""
    below = [1] + faces
    return [faces[k] + below[k] if k < len(faces) else below[k] for k in range(len(faces) + 1)]


def prism_faces(faces: list[int]) -> list[int]:
    """The prism over P is P times a segment."""
    return product_faces(faces, simplex_faces(1))


def cone_f_vector(faces: list[int]) -> tuple[int, ...]:
    return (1,) + tuple(faces)


def h_vector(cone_f: tuple[int, ...]) -> tuple[int, ...]:
    """h_j is the coefficient of t^j in sum_i f_{i-1} (t-1)^(d-i), with
    f_{i-1} = cone_f[i] the number of (i-1)-faces of the cross-section."""
    d = len(cone_f) - 2
    total = [0] * (d + 1)
    for i in range(d + 1):
        term = [cone_f[i]]
        for _ in range(d - i):
            term = _mul(term, [-1, 1])
        for p, x in enumerate(term):
            total[p] += x
    return tuple(total)


def h_tilde_vector(cone_f: tuple[int, ...]) -> tuple[int, ...]:
    """The same transform with the face numbers counted by codimension,
    i.e. the h-vector of the polar polytope read from the other end."""
    return tuple(reversed(h_vector(tuple(reversed(cone_f)))))


def g_vector(h: tuple[int, ...]) -> tuple[int, ...]:
    """g_0 = 1 and g_i = h_i - h_{i-1} for 1 <= i <= d/2."""
    d = len(h) - 1
    return (1,) + tuple(h[i] - h[i - 1] for i in range(1, d // 2 + 1))


def g1(cone_f: tuple[int, ...]) -> int:
    """g_1 = f_0 - d - 1 for any d-polytope."""
    return cone_f[1] - (len(cone_f) - 2) - 1


def ext_simplicial(cone_f: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Nonzero dim Ext^i(Omega^k, omega), i > 0, at the apex class of a cone
    of rank n over a simplicial polytope, keyed (i, k): Ext^l(Omega^(n-l))
    is g_l for l <= n/2, and Ext^(l-1)(Omega^(n-l)) is g_(n-l) above."""
    n = len(cone_f) - 1
    h = h_vector(cone_f)
    g = [1] + [h[i] - h[i - 1] for i in range(1, n)]
    out = {}
    for l in range(1, n):
        i, val = (l, g[l]) if 2 * l <= n else (l - 1, g[n - l])
        if i > 0 and val:
            out[(i, n - l)] = val
    return out


def multiplicities(cone_f: tuple[int, ...], family: str) -> dict[tuple[int, int], int]:
    """Nonzero IC multiplicities keyed (l, j) for a cone over a simplicial
    polytope (g_j at l = n - 2j - 1) or a simple one (first differences of
    h-tilde at l = 0).  A simplicial cone carries none."""
    n = len(cone_f) - 1
    if cone_f[1] == n:
        return {}
    out = {}
    for j in range(1, (n + 1) // 2):
        if family == "simplicial":
            h = h_vector(cone_f)
            l, val = n - 2 * j - 1, h[j] - h[j - 1]
        elif family == "simple":
            ht = h_tilde_vector(cone_f)
            l, val = 0, ht[j] - ht[j - 1]
        else:
            raise ValueError(f"no closed form for family {family!r}")
        if l >= 0 and val:
            out[(l, j)] = val
    return out


def euler_characteristic(betti: list[int]) -> int:
    return sum((-1) ** k * b for k, b in enumerate(betti))
