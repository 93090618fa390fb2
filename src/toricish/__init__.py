"""Exact combinatorial invariants of rational polyhedral cones and the
affine/projective toric varieties they define."""

__version__ = "0.1.0"

from .combinatorics import (
    ICStalkPoly,
    betti_numbers,
    g_polynomial,
    h_tilde_vector,
    h_vector,
    hodge_deligne_coefficients,
    hodge_du_bois_table,
)
from .cones import (
    Cone,
    Face,
    FaceLattice,
    cone_over_polytope,
    dual_description,
    is_cone_over_simple,
    is_cone_over_simplicial,
    is_simple_in_dim,
    is_simplicial,
)
from .decomposition import (
    ICMultiplicities,
    decomposition_report,
    ic_multiplicities,
    multiplicities_from_cohomology,
    multiplicities_simple_class,
    multiplicities_simplicial_class,
)
from .ishida import (
    ExtTable,
    IshidaComplex,
    cohomology_dims,
    core_table,
    ext_table,
    facet_inequalities_report,
    graded_class_cohomology,
    ishida_complex,
    lcdef,
    verify_codim_vanishing,
    verify_d_squared,
    verify_dualizing_exactness,
    verify_link_exactness,
    verify_surjectivity,
)
from .linalg import (
    Contraction,
    RatMatrix,
    interior_product_matrix,
    primitive_vector,
)
from .shelling import Shelling, is_shelling, shelling

__all__ = [name for name in dir() if not name.startswith("_")]
