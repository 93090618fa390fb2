"""Cochain complexes of contraction maps attached to a cone, and everything
read off from their cohomology: graded Ext tables for reflexive
differentials, depth, and the local cohomological defect.

For a full-dimensional cone of rank n and 0 <= l <= n, the degree-zero
complex has, in cohomological degree i, one block per i-dimensional face mu,
namely the (l - i)-th wedge power of the annihilator of mu; the differential
is contraction in the first slot by the lattice step u of each cover pair
mu < tau.  Its cohomology over Q does not change under a Q-linear
isomorphism of each perp(F), so the blocks are written in each face's free
coordinates (cones.Face.perp_frame), which need no lattice basis:

* The contraction lands in perp(tau).  perp(tau) is the kernel of phi =
  <., u> on perp(mu), so perp(mu) = Q e + perp(tau) for any e with
  phi(e) != 0, and contraction by phi sends e ^ w to phi(e) w and kills
  wedge^k perp(tau): it maps wedge^k perp(mu) into wedge^(k-1) perp(tau).
* Pivots grow along the face lattice.  A column is a pivot of F when some
  vector of span F has its first nonzero entry there; span mu in span tau
  gives pivots(mu) in pivots(tau), one fewer, so free(tau) = free(mu) minus
  one column q0.  Restricting perp(tau) to free(tau) is restricting it to
  free(mu) and dropping q0.  A ray r of tau outside mu, reduced modulo
  span mu, has free entries a_s / D, a_s = <K_s, r> for mu's kernel vectors
  K_s; it leads at q0, the first free column where a_s != 0.  So the block
  is the contraction by e_s -> a_s, a positive multiple of phi, onto the
  target subsets that avoid q0 (linalg.interior_product_matrix).
* The normalisation is a coboundary.  r is c u plus a vector of span mu,
  c > 0, so a_s = c D phi(e_s); the block is read as a_s / |a_q0| =
  phi(e_s) / |phi(e_q0)|.  By Cramer's rule, |phi(e_q0)| = |w_tau(b, u)| /
  |w_mu(b)| for any basis b of span mu, w_F the volume form of span F in
  its pivot coordinates.  For b a basis of N meet span mu, (b, u) is one of
  N meet span tau, so |phi(e_q0)| = V_tau / V_mu, V_F = |w_F / w^lat_F|
  the ratio to the lattice volume form.  So each block is V_mu / V_tau
  times the contraction by u, and dividing the terms of each face F by V_F
  turns the lattice complex into this one, over any set of faces.

Each cover pair has one linalg.Contraction, built on mu's frame and one ray
(contractions), which every wedge degree shares.  A block is a_s, an integer
matrix, divided by |a_q0|.  _face_rows stores each pair's block once per
degree, times L_tau / |a_q0|, L_tau the lcm of tau's pairs' denominators,
with columns labelled by mu's place among all faces of its dimension
(slot-wide).  Every complex is assembled (_assemble), over a set of faces,
by concatenating each face's kept stored rows: tau's are L_tau times the
normalised ones, which keeps the rank.  d^2 = 0 is checked as
D^(s+1) diag(L / L_tau) D^s = 0, L the slot's lcm: in the rows of nu that
is L L_nu N^(s+1) N^s, N the normalised blocks.  Each complex is ranked
modulo a prime certified for its own differentials.  The
whole complex (ishida_complex) takes every face; the faces containing a face
mu form an up-set, so their blocks form a subcomplex (link_complex); the
faces of a face F form a down-set, so theirs form a quotient complex
(class_complex), whose cohomology is that of the graded piece of the sheaf
complex for the lattice points in the relative interior class of F.  The
face-intrinsic cohomology of F (core_table) is read off its base when F is a
pyramid, and otherwise solved for from its class complexes, for one face per
orbit of the cone's linear automorphisms, and copied to the rest of the
orbit.  The cohomology of every face class at every degree is assembled from
it once, in ext_table, which graded_class_cohomology and the checks read.

All functions are pure.  The cone's memo dict holds the memoized results
(cones.memoized) and nothing else, the contractions and stored rows
included; complexes are built, ranked and dropped, never memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cones import Cone, Face, is_simple_in_dim, memoized
from .linalg import Contraction, RatMatrix, dot, interior_product_matrix
from .symmetry import face_orbits


@dataclass(frozen=True)
class IshidaComplex:
    """The complex of one cone for one wedge degree l over the faces that
    contain a face mu (the apex for the degree-zero complex), or over the
    faces of a face.

    term_faces[s] lists the face ids of dimension dim(mu) + s, whose blocks
    are wedge powers of degree l - dim(mu) - s; differentials[s] maps slot s
    to slot s+1, with term_dims[s] columns labelled slot-wide, face f's from
    (f - starts[s]) C on, C its block's width and starts[s] the least id of
    its dimension; the rows of its j-th face are scales[s][j] times the
    normalised blocks.
    """

    degree: int
    term_faces: tuple[tuple[int, ...], ...]
    term_dims: tuple[int, ...]
    differentials: tuple[RatMatrix, ...]
    scales: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]

    def d_squared_is_zero(self) -> bool:
        """d^(s+1) diag(L / L_tau) d^s = 0 for every s (module docstring),
        the rows of d^s placed at the column labels of d^(s+1) they name."""
        for s, (a, b, scales) in enumerate(zip(self.differentials, self.differentials[1:], self.scales)):
            faces, start, lcm = self.term_faces[s + 1], self.starts[s + 1], math.lcm(*scales)
            w = a.nrows // (len(faces) or 1)
            by_label = [()] * ((faces[-1] + 1 - start) * w if faces else 0)
            for i, f in enumerate(faces):
                m, rows = lcm // scales[i], a.rows[i * w:(i + 1) * w]
                by_label[(f - start) * w:(f - start + 1) * w] = [tuple((j, m * x) for j, x in r) for r in rows] if m > 1 else rows
            b = RatMatrix.from_sparse(b.rows, len(by_label))
            if not b.matmul(RatMatrix.from_sparse(tuple(by_label), a.ncols)).is_zero():
                return False
        return True


@memoized
def contractions(cone: Cone, tid: int) -> tuple[Contraction, ...]:
    """The contractions from perp(mu) onto perp(tau) for the face tau of id
    tid and each facet mu of it, in the order of its children, for every
    wedge degree: the pairings of mu's kernel vectors with a ray of tau
    outside mu."""
    fl = cone.face_lattice()
    tau = fl.faces[tid]
    out = []
    for mid in fl.children[tid]:
        mu = fl.faces[mid]
        ray = tau.cone_rays[next(i for i in tau.rays if not mu.mask >> i & 1)]
        out.append(Contraction([dot(k, ray) for k in mu.perp_frame[1]]))
    return tuple(out)


@memoized
def _face_rows(cone: Cone, tid: int, degree: int) -> tuple[int, tuple]:
    """(L_tau, pairs) for the face tau of id tid at wedge degree `degree`:
    per child mu, in children order, (mu's id, the rows of its block times
    L_tau / denominator, labelled from pos(mu) C(n - dim mu, k) on), pos(mu)
    the place of mu in by_dim."""
    fl = cone.face_lattice()
    cs = contractions(cone, tid)
    scale, d = math.lcm(*(c.denominator for c in cs)), fl.faces[tid].dim - 1
    # faces are indexed by dimension first, so by_dim[d] is a range
    first, width = fl.by_dim[d][0], math.comb(cone.rank - d, degree - d)
    return scale, tuple(
        (mid, interior_product_matrix(c, degree - d, (mid - first) * width, scale // c.denominator).rows)
        for mid, c in zip(fl.children[tid], cs)
    )


def _assemble(cone: Cone, degree: int, term_faces) -> IshidaComplex:
    """The complex at wedge degree `degree` over the faces term_faces[s] of
    dimension d + s, d that of term_faces[0][0], each slot's faces in index
    order: per face tau, the stored rows (_face_rows) of its pairs mu < tau
    with mu in the slot below.  From the apex up (d = 0) the faces form a
    down-set, the whole cone's or a face's, which keeps every pair."""
    fl = cone.face_lattice()
    lo = fl.faces[term_faces[0][0]].dim
    term_dims = tuple(len(ids) * math.comb(cone.rank - d, degree - d) for d, ids in enumerate(term_faces, lo))
    diffs, scales = [], []
    for s in range(len(term_faces) - 1):
        below = set(term_faces[s]) if lo else None
        rows, slot_scales = [], []
        for tid in term_faces[s + 1]:
            scale, pairs = _face_rows(cone, tid, degree)
            slot_scales.append(scale)
            blocks = [r for _, r in pairs] if below is None else [r for mid, r in pairs if mid in below]
            # Children come in index order, so every row stays sorted.
            rows += blocks[0] if len(blocks) == 1 else [sum(parts, ()) for parts in zip(*blocks)]
        diffs.append(RatMatrix.from_sparse(tuple(rows), term_dims[s]))
        scales.append(tuple(slot_scales))
    starts = tuple(fl.by_dim[d][0] for d in range(lo, lo + len(term_faces)))
    return IshidaComplex(degree, term_faces, term_dims, tuple(diffs), tuple(scales), starts)


def ishida_complex(cone: Cone, degree: int) -> IshidaComplex:
    """The degree-zero complex at wedge degree `degree`, over every face of
    dimension at most `degree`."""
    if not 0 <= degree <= cone.rank:
        raise ValueError(f"wedge degree must lie in 0..{cone.rank}")
    return _assemble(cone, degree, cone.face_lattice().by_dim[: degree + 1])


def cohomology_dims(cx: IshidaComplex) -> tuple[int, ...]:
    """h^s = dim ker d^s - rank d^{s-1} for every slot s of the complex."""
    ranks = [0] + [d.rank() for d in cx.differentials] + [0]
    return tuple(dim - ranks[s] - ranks[s + 1] for s, dim in enumerate(cx.term_dims))


@memoized
def core_table(cone: Cone) -> dict:
    """h^i of the face-intrinsic complexes, for every face and every degree.

    Maps face id -> tuple over m = 0..dim(face) of cohomology tuples.  The
    class complex of a face F at degree m has the cohomology
    sum_j C(n - dim F, j) core[F][m - j], whose term j = 0 is core[F][m]:
    it is solved for degree by degree.  The top face's class complex is the
    whole complex.

    A pyramid F, with a facet G that holds all of F's rays but one, r, is
    not computed: core[F] = core[G] + ((0,) * (dim F + 1),).  Over Q, in
    the dual of span F, let r* vanish on G and take 1 on r.  A face lam of
    G has annihilator P + Q r*, P the part that vanishes on r, and the face
    lam + r has P.  Taking the volume form of lam + r to be that of lam
    wedged with r rescales the lattice ones per face, a coboundary (as
    below); then the step of lam + r < nu + r is that of lam < nu, which
    kills r*, and the step of lam < lam + r is r.  So in C_F(m) the blocks
    of the faces containing r, an up-set, form C_G(m - 1) shifted one slot.
    The block of lam is wedge^k P + r* ^ wedge^(k-1) P, k = m - dim lam,
    and contraction by r maps its r*-part isomorphically onto the block of
    lam + r and kills the rest.  The r*-parts and the up-set form a
    subcomplex, the cone of an isomorphism, so acyclic, and the quotient by
    it is C_G(m).  Hence h(C_F(m)) = h(C_G(m)) for m <= dim G, and
    C_F(dim F) is acyclic, as C_G(dim G + 1) has no terms.  A simplicial
    face is an iterated pyramid over the apex: its rows are (1,), 0, 0, ...

    Only the least face of each orbit (symmetry.face_orbits) is computed;
    the rest of its orbit gets its rows.  The rows are Q-dimensions, and a
    Q-linear automorphism A of the cone carries each face's intrinsic
    complex isomorphically onto its image's: A^-T takes perp(mu) onto
    perp(A mu) with its wedge powers, and the lattice step of a cover pair
    mu < tau to s_tau / s_mu times that of A mu < A tau, with s_F > 0 the
    |det| of A from the lattice of span F to that of span A F.  Such a
    rescaling is a coboundary: scaling the blocks of each face mu by s_mu
    turns one complex into the other.
    """
    n = cone.rank
    fl = cone.face_lattice()
    orbit = face_orbits(cone)
    table = {}
    for face in fl.faces:
        if orbit[face.index] != face.index:
            table[face.index] = table[orbit[face.index]]
            continue
        base = next((g for g in fl.children[face.index] if len(fl.faces[g].rays) == len(face.rays) - 1), None)
        if base is not None:
            table[face.index] = table[base] + ((0,) * (face.dim + 1),)
            continue
        nd, rows = n - face.dim, []
        for m in range(face.dim + 1):
            # rows holds the degrees below m, so this sums the terms j >= 1
            h = [a - b for a, b in zip(cohomology_dims(class_complex(cone, face, m)), _face_class_dims(nd, rows, m))]
            if min(h) < 0:
                raise RuntimeError(f"negative intrinsic cohomology {h} at face {list(face.rays)}, degree {m}")
            rows.append(tuple(h))
        table[face.index] = tuple(rows)
    return table


def _face_class_dims(nd: int, face_rows, degree: int) -> tuple[int, ...]:
    """Assemble the cohomology of the graded piece attached to the class of
    a face of codimension nd from the face's intrinsic rows: the sum over j
    of C(nd, j) times h^i(intrinsic complex at degree l - j), over the
    degrees that face_rows holds."""
    out = [0] * (degree + 1)
    for j in range(nd + 1):
        if 0 <= degree - j < len(face_rows):
            for i, x in enumerate(face_rows[degree - j]):
                out[i] += math.comb(nd, j) * x
    return tuple(out)


@dataclass(frozen=True)
class ExtTable:
    """Graded Ext dimensions of the reflexive differentials against the
    dualizing sheaf, per face class, plus the per-face intrinsic table they
    are assembled from.

    assembled[(face_id, i, k)] is the dimension of the degree-u piece of
    Ext^i(Omega^k, omega) for u in the face's class; zero entries are
    omitted.  depth[k] is None when every Ext^i with i > 0 vanishes, i.e.
    when the depth is maximal.
    """

    core: dict
    assembled: dict
    depth: dict
    lcdef: int


@memoized
def ext_table(cone: Cone) -> ExtTable:
    """The one assembly of the face-class cohomology from the core table: the
    degree-(n - k) piece of every face class at every k, and the depth."""
    n = cone.rank
    fl = cone.face_lattice()
    core = core_table(cone)
    assembled = {}
    max_positive_i = {k: 0 for k in range(n + 1)}
    for face in fl.faces:
        rows = core[face.index]
        for k in range(n + 1):
            dims = _face_class_dims(n - face.dim, rows, n - k)
            for i, d in enumerate(dims):
                if d:
                    assembled[(face.index, i, k)] = d
                    if i > 0:
                        max_positive_i[k] = max(max_positive_i[k], i)
    depth = {
        k: (n - mi if mi > 0 else None) for k, mi in max_positive_i.items()
    }
    return ExtTable(core, assembled, depth, lcdef(cone))


def graded_class_cohomology(cone: Cone, degree: int, face: Face) -> tuple[int, ...]:
    """Cohomology dimensions of the degree-u piece of the sheaf complex at
    wedge degree `degree`, for any lattice point u in the relative-interior
    class of the face: the Ext table's entries at k = n - degree."""
    if not 0 <= degree <= cone.rank:
        raise ValueError(f"wedge degree must lie in 0..{cone.rank}")
    assembled = ext_table(cone).assembled
    return tuple(assembled.get((face.index, i, cone.rank - degree), 0) for i in range(degree + 1))


def lcdef(cone: Cone) -> int:
    """Local cohomological defect: the smallest c such that the sheaf-level
    complex of every wedge degree n - l has no cohomology above degree
    c + l, read off the core table."""
    best = 0
    core = core_table(cone)
    for face in cone.face_lattice().faces:
        for m, h in enumerate(core[face.index]):
            lp = face.dim - m
            for i, val in enumerate(h):
                if val and i > lp:
                    best = max(best, i - lp)
    return best


def check_report(name: str, failures: list | tuple = (), **extra) -> dict:
    """The report of one verification check: it holds when nothing failed."""
    return {"name": name, "ok": not failures, "failures": list(failures), **extra}


def verify_d_squared(cone: Cone) -> dict:
    failures = []
    for l in range(cone.rank + 1):
        if not ishida_complex(cone, l).d_squared_is_zero():
            failures.append({"degree": l})
    return check_report("d_squared", failures)


def verify_dualizing_exactness(cone: Cone) -> dict:
    """The top-degree sheaf complex resolves the dualizing sheaf: per face
    class, cohomology concentrated in degree 0 with dimension one at the
    apex class and zero elsewhere.  Read off the Ext table at k = 0."""
    n = cone.rank
    failures = []
    for face in cone.face_lattice().faces:
        dims = graded_class_cohomology(cone, n, face)
        if dims[0] != (face.dim == 0) or any(dims[1:]):
            failures.append({"face": list(face.rays), "dims": list(dims)})
    return check_report("dualizing_exactness", failures)


def verify_surjectivity(cone: Cone) -> dict:
    """Vanishing of the top cohomology of every graded piece of the complex
    at wedge degree n - k, for all k up to n/2: no Ext^(n-k)(Omega^k, omega)
    entry in the Ext table."""
    n = cone.rank
    assembled = ext_table(cone).assembled
    failures = [
        {"k": k, "face": list(face.rays), "top_dim": assembled[(face.index, n - k, k)]}
        for k in range(n // 2 + 1)
        for face in cone.face_lattice().faces
        if (face.index, n - k, k) in assembled
    ]
    return check_report("surjectivity", failures)


def verify_codim_vanishing(cone: Cone) -> dict:
    """If every quotient by a c-dimensional face is simplicial, all graded
    Ext^i with i > c vanish.  Checked at the smallest such c (the property
    is monotone in c)."""
    n = cone.rank
    c = next(c for c in range(n + 1) if is_simple_in_dim(cone, c))
    table = ext_table(cone)
    failures = [
        {"face_class": key[0], "i": key[1], "k": key[2], "dim": d, "c": c}
        for key, d in table.assembled.items()
        if key[1] > c
    ]
    return check_report("codim_vanishing", failures)


def facet_inequalities_report(cone: Cone) -> dict:
    """The dimension-5 inequalities between the degree-3 cohomology of a
    cone and of its facets: sum of h^1 over facets >= h^1, and sum of
    h^2 over facets <= h^2.  Other dimensions are reported as skipped."""
    if cone.rank != 5:
        return check_report("facet_inequalities", skipped="only meaningful in dimension 5")
    fl = cone.face_lattice()
    core = core_table(cone)
    h_sigma = core[fl.top.index][3]
    s1 = sum(core[fid][3][1] for fid in fl.by_dim[4])
    s2 = sum(core[fid][3][2] for fid in fl.by_dim[4])
    failures = []
    if not s1 >= h_sigma[1]:
        failures.append({"inequality": "sum h1(facets) >= h1", "lhs": s1, "rhs": h_sigma[1]})
    if not s2 <= h_sigma[2]:
        failures.append({"inequality": "sum h2(facets) <= h2", "lhs": s2, "rhs": h_sigma[2]})
    return check_report("facet_inequalities", failures)


def link_complex(cone: Cone, mu: Face, degree: int) -> IshidaComplex:
    """The subcomplex of ishida_complex(cone, degree) over the faces
    containing mu (an up-set), from the block of mu (slot 0) up to the
    faces of dimension `degree`."""
    if not mu.dim <= degree <= cone.rank:
        raise ValueError("degree out of range for the face")
    parents = cone.face_lattice().parents
    # the faces containing mu one dimension up are their slot's parents
    term_faces = [(mu.index,)]
    for _ in range(mu.dim, degree):
        term_faces.append(tuple(sorted({p for f in term_faces[-1] for p in parents[f]})))
    return _assemble(cone, degree, tuple(term_faces))


def class_complex(cone: Cone, face: Face, degree: int) -> IshidaComplex:
    """The quotient complex of ishida_complex(cone, degree) over the faces
    of `face`, `face` included: slot s holds the blocks of its s-dimensional
    faces, and is empty above dim(face).  The faces of `face` form a
    down-set, so every block into a kept face comes from a kept one.  Its
    cohomology is graded_class_cohomology(cone, degree, face)."""
    fl = cone.face_lattice()
    term_faces = tuple(tuple(i for i in fl.by_dim[d] if fl.faces[i].mask & ~face.mask == 0) for d in range(degree + 1))
    return _assemble(cone, degree, term_faces)


def link_complex_cohomology(cone: Cone, mu: Face, degree: int) -> tuple[int, ...]:
    """Cohomology of the subcomplex over the faces containing mu, running
    from the block of mu (slot 0) up to wedge degree `degree`."""
    return cohomology_dims(link_complex(cone, mu, degree))


def verify_link_exactness(cone: Cone) -> dict:
    """Exactness of the subcomplex over the faces containing mu, for every
    wedge degree strictly above dim(mu), at every positive-dimensional face
    mu whose quotient is simplicial."""
    fl = cone.face_lattice()
    failures = []
    for mu in fl.faces:
        if mu.dim and fl.quotient_is_simplicial(mu):
            for l in range(mu.dim + 1, cone.rank + 1):
                dims = link_complex_cohomology(cone, mu, l)
                if any(dims):
                    failures.append({"face": list(mu.rays), "degree": l, "dims": list(dims)})
    return check_report("link_exactness", failures)
