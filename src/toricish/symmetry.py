"""Linear symmetries of a cone, and the orbits of its faces under them.

A linear automorphism of a full-dimensional cone permutes its primitive
rays, and a ray permutation comes from one exactly when it preserves the
rays' projector Gram matrix (_projector_gram), as in Bremner, Dutour
Sikiric, Pasechnik, Rehn and Schuermann, "Computing symmetry groups of
polyhedra" (LMS J. Comput. Math. 17, 2014).  Such maps are Q-linear, not
in general lattice automorphisms.  Generators of the group come from a
backtracking search along a point-stabiliser chain, pruned by Gram
colours (_ray_automorphisms); face_orbits turns them into orbits of face
ids.  Everything is computed in integers, the Gram matrix through
linalg.scaled_inverse from free_kernel, on the package's one eliminator.
"""

from __future__ import annotations

from typing import Sequence

from .cones import Cone
from .linalg import dot, scaled_inverse


def _projector_gram(rays: Sequence[Sequence[int]]) -> list[list[int]]:
    """G = R (D A^-1) R^T, R the rays as rows and A = R^T R: D > 0 times the
    projector onto the column space of R, so it has the same automorphisms.
    The rays span, so A is invertible, and linalg.scaled_inverse gives the
    columns of D A^-1, which is symmetric: they are its rows too."""
    inv = scaled_inverse([[dot(u, v) for v in zip(*rays)] for u in zip(*rays)])
    ra = [[dot(r, row) for row in inv] for r in rays]
    return [[dot(x, r) for r in rays] for x in ra]


def _ray_automorphisms(gram: list[list[int]]) -> list[tuple[int, ...]]:
    """Generators of the group of permutations pi of the rays with
    gram[pi i][pi j] == gram[i][j], along the stabiliser chain of a base.

    A ray's colour against points B is (gram[i][i], gram[i][b] for b in B).
    The base takes points until every colour is distinct, so a permutation
    is fixed by the base's images (extend backtracks over them).  Level m
    fixes the first m base points; levels go deepest first, so every
    generator found so far fixes them.  Each point j outside the orbit of
    base point m with its colour against the fixed points gets one search
    for a permutation taking base point m to j."""
    k = len(gram)

    def colours(points):
        return [(row[t], *(row[b] for b in points)) for t, row in enumerate(gram)]

    base = []
    while len(cs := colours(base)) != len(set(cs)):
        base.append(next(i for i, c in enumerate(cs) if cs.count(c) > 1))

    def extend(images):
        if len(images) == len(base):
            where = dict(zip(colours(images), range(k)))
            perm = tuple(where.get(c) for c in colours(base))
            ok = None not in perm and all([gram[p][q] for q in perm] == gram[i] for i, p in enumerate(perm))
            return perm if ok else None
        b = base[len(images)]
        want = (gram[b][b], *(gram[b][x] for x in base[: len(images)]))
        for t, c in enumerate(colours(images)):
            if c == want and t not in images and (perm := extend(images + [t])):
                return perm
        return None

    gens = []
    for m in reversed(range(len(base))):
        orbit, want = {base[m]}, colours(base[:m])
        for j in range(k):
            if j not in orbit and want[j] == want[base[m]] and (perm := extend(base[:m] + [j])):
                gens.append(perm)
                orbit = _orbit(base[m], gens)
    return gens


def _orbit(x: int, gens) -> set[int]:
    """The orbit of x under the group generated by the permutations gens."""
    orbit, todo = {x}, [x]
    while todo:
        x = todo.pop()
        for y in (g[x] for g in gens):
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def face_orbits(cone: Cone) -> list[int]:
    """Per face id, the least face id in its orbit under the linear
    automorphisms of the cone, which permute its rays: exactly the ray
    permutations that preserve the projector Gram matrix."""
    fl = cone.face_lattice()
    gens = [
        [fl.by_mask[sum(map(bits.__getitem__, face.rays))] for face in fl.faces]
        for bits in ([1 << i for i in g] for g in _ray_automorphisms(_projector_gram(cone.rays)))
    ]
    rep = list(range(len(fl.faces)))
    for f in range(len(rep)):
        if rep[f] == f:  # f is the least id of its orbit
            for x in _orbit(f, gens):
                rep[x] = f
    return rep
