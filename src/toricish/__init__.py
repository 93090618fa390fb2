"""Exact combinatorial invariants of rational polyhedral cones and the
affine/projective toric varieties they define.

The exported names load their defining module on first access (PEP 562),
so `import toricish` loads no submodule and a command-line process
compiles only the modules its command reaches.  The function `shelling`
is not exported: `toricish.shelling` is the module.
"""

import importlib

__version__ = "0.1.0"

# The exported names by defining module.
_EXPORTS = {
    "combinatorics": "ICStalkPoly betti_numbers g_polynomial h_tilde_vector h_vector hodge_deligne_coefficients hodge_du_bois_table",
    "cones": "Cone Face FaceLattice cone_over_polytope dual_description is_cone_over_simple is_cone_over_simplicial is_simple_in_dim is_simplicial",
    "decomposition": "ICMultiplicities decomposition_report ic_multiplicities multiplicities_from_cohomology multiplicities_simple_class multiplicities_simplicial_class",
    "ishida": "ExtTable IshidaComplex cohomology_dims core_table ext_table facet_inequalities_report graded_class_cohomology ishida_complex lcdef verify_codim_vanishing verify_d_squared verify_dualizing_exactness verify_link_exactness verify_surjectivity",
    "linalg": "Contraction RatMatrix interior_product_matrix primitive_vector",
    "shelling": "Shelling is_shelling",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
