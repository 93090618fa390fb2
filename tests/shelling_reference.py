"""Reference shelling search and g-polynomial, without memoised outcomes.

These are the original routes.  The line shelling runs in Fractions: its
interior point is the barycentre of the cross-section's vertices and its
direction the rational projection of a moment vector.  The shelling search remembers only the
failed partial orders of one sub-search and reruns every inner sub-search
each time a branch reaches it; the g-polynomial scans all faces of the
lattice for the faces below each face and expands (t - 1)^k by repeated
multiplication.  Both are slow but plainly follow the definitions, which
makes them oracles for toricish.shelling and toricish.combinatorics.
"""

from __future__ import annotations

from fractions import Fraction

from toricish.cones import Cone, Face, FaceLattice
from toricish.linalg import dot
from toricish.shelling import Shelling, StepCertificate


def _facet_normal(cone: Cone, facet: Face) -> tuple[int, ...]:
    """The facet normal that vanishes on every ray of the facet."""
    for h in cone.facet_normals:
        if all(dot(h, cone.rays[i]) == 0 for i in facet.rays):
            return h
    raise ValueError("face is not a facet")


def _candidate_direction(cone: Cone, t: int) -> tuple[Fraction, ...] | None:
    """Deterministic rational direction inside the cross-section hyperplane."""
    n = cone.rank
    w = [0] * n
    for h in cone.facet_normals:
        w = [a + b for a, b in zip(w, h)]
    raw = tuple(Fraction(t**k) for k in range(n))
    ww = dot(w, w)
    wr = dot(w, raw)
    d = tuple(r - Fraction(wr, ww) * wi for r, wi in zip(raw, w))
    if not any(d):
        return None
    return d


def reference_shelling(cone: Cone, max_tries: int = 500) -> Shelling:
    if cone.rank < 1:
        raise ValueError("shelling needs a cone of dimension at least 1")
    fl = cone.face_lattice()
    n = cone.rank
    facet_ids = fl.by_dim[n - 1]
    if n == 1:
        order = tuple(fl.faces[i].rays for i in facet_ids)
        certs = reference_certify(fl, [fl.faces[i] for i in facet_ids])
        return Shelling(order, 0, tuple(certs))
    w = [0] * n
    for h in cone.facet_normals:
        w = [a + b for a, b in zip(w, h)]
    vertices = []
    for r in cone.rays:
        s = dot(w, r)
        vertices.append(tuple(Fraction(x, s) for x in r))
    p = tuple(sum(col, Fraction(0)) / len(vertices) for col in zip(*vertices))

    for t in range(1, max_tries + 1):
        d = _candidate_direction(cone, t)
        if d is None:
            continue
        params = []
        ok = True
        for fid in facet_ids:
            h = _facet_normal(cone, fl.faces[fid])
            hd = dot(h, d)
            if hd == 0:
                ok = False
                break
            params.append((fid, Fraction(-dot(h, p), hd)))
        if not ok:
            continue
        values = [s for _, s in params]
        if len(set(values)) != len(values):
            continue
        positive = sorted((s, fid) for fid, s in params if s > 0)
        negative = sorted((s, fid) for fid, s in params if s < 0)
        ordered = [fl.faces[fid] for _, fid in positive] + [fl.faces[fid] for _, fid in negative]
        certs = reference_certify(fl, ordered)
        if certs is not None:
            order = tuple(f.rays for f in ordered)
            return Shelling(order, t, tuple(certs))
    raise RuntimeError("no admissible shelling direction found")


def reference_certify(fl: FaceLattice, ordered: list[Face]) -> list[StepCertificate] | None:
    if fl.rank == 1:
        return [StepCertificate(f.rays, (), ()) for f in ordered]
    memo: dict = {}
    certs = []
    for j, face in enumerate(ordered):
        earlier = ordered[:j]
        prefix = _covered_facets(fl, face, earlier)
        if j > 0:
            if not prefix:
                return None
            if not _intersections_covered(fl, face, earlier, prefix):
                return None
        ext = _find_shelling(fl, face, frozenset(f.index for f in prefix), memo)
        if ext is None:
            return None
        ext_faces = [fl.faces[i] for i in ext]
        prefix_sorted = tuple(f.rays for f in ext_faces[: len(prefix)])
        certs.append(StepCertificate(face.rays, prefix_sorted, tuple(f.rays for f in ext_faces)))
    return certs


def _covered_facets(fl: FaceLattice, face: Face, earlier: list[Face]) -> list[Face]:
    out = []
    for g in (fl.faces[i] for i in fl.children[face.index]):
        if any(set(g.rays) <= set(e.rays) for e in earlier):
            out.append(g)
    return out


def _intersections_covered(fl: FaceLattice, face: Face, earlier: list[Face], covered: list[Face]) -> bool:
    for e in earlier:
        common = set(face.rays) & set(e.rays)
        if not any(common <= set(g.rays) for g in covered):
            return False
    return True


def _find_shelling(fl: FaceLattice, face: Face, prefix: frozenset[int], memo: dict):
    if face.dim <= 1:
        return tuple(fl.children[face.index])

    facet_ids = tuple(fl.children[face.index])

    def extend(used: tuple[int, ...], used_set: frozenset[int]):
        if len(used) == len(facet_ids):
            return ()
        key = (face.index, used_set, prefix)
        if key in memo and memo[key] is False:
            return None
        if len(used_set) < len(prefix):
            candidates = [i for i in facet_ids if i in prefix and i not in used_set]
        else:
            candidates = [i for i in facet_ids if i not in used_set]
        for cand in candidates:
            g = fl.faces[cand]
            earlier = [fl.faces[i] for i in used]
            sub_prefix = frozenset(gg.index for gg in _covered_facets(fl, g, earlier))
            if used:
                if not sub_prefix:
                    continue
                if not _intersections_covered(fl, g, earlier, [fl.faces[i] for i in sub_prefix]):
                    continue
            if _find_shelling(fl, g, sub_prefix, memo) is None:
                continue
            rest = extend(used + (cand,), used_set | {cand})
            if rest is not None:
                return (cand,) + rest
        memo[key] = False
        return None

    return extend((), frozenset())


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _t_minus_one_power(k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, [-1, 1])
    return out


def reference_g_polynomial(fl: FaceLattice) -> tuple[int, ...]:
    """Coefficients of Stanley's g-polynomial of the cone's cross-section."""
    n = fl.rank
    if n == 0:
        return (1,)
    memo: dict[int, list[int]] = {fl.apex.index: [1]}

    def g_of(face_id: int) -> list[int]:
        if face_id in memo:
            return memo[face_id]
        face = fl.faces[face_id]
        h = _h_poly(face)
        half = (face.dim - 1) // 2
        g = [h[0]] + [h[i] - h[i - 1] for i in range(1, half + 1)]
        while len(g) > 1 and g[-1] == 0:
            g.pop()
        memo[face_id] = g
        return g

    def _h_poly(face) -> list[int]:
        h = [0] * max(face.dim, 1)
        for other in fl.faces:
            if other.index == face.index or not set(other.rays) <= set(face.rays):
                continue
            term = _poly_mul(g_of(other.index), _t_minus_one_power(face.dim - other.dim - 1))
            for i, x in enumerate(term):
                if i >= len(h):
                    h.extend([0] * (i - len(h) + 1))
                h[i] += x
        return h

    return tuple(g_of(fl.top.index))
