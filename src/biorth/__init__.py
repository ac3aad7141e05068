"""Exact bi-orthogonal machinery for the open q-exclusion chain.

The package imports none of its layers: a public name is looked up in
``_EXPORTS`` and read off its defining module at each access, and that
module is imported on the first one.  So ``import biorth`` compiles no
layer, and a process compiles only the layers it uses.  The name is never
stored here: each access reads the module's current attribute, as the
benchmark tracer's patching of module attributes requires.
"""

import importlib

__version__ = "0.1.0"

# The defining module of each public name.
_EXPORTS = {
    "core": (
        "AWParams", "BiorthError", "DenominatorVanishes", "HoppingRates", "InvalidParams",
        "NotIrreducible", "ShapeError", "SingularParams", "SizeLimit", "UnsupportedQ",
        "ZeroParameter", "d_natural", "e_natural", "g_coeff", "is_valid", "parse_rational",
        "phi_terminating", "qpoch", "to_aw_exact", "to_rates", "validate",
    ),
    "bimoment": ("BimomentMatrix", "bimoment_block", "bimoment_table"),
    "ldu": (
        "build_D", "build_L", "build_L_inverse", "build_U", "build_U_inverse", "det_bimoment",
        "det_closed_form", "verify_ldu",
    ),
    "biortho": (
        "PolySeq", "biorthogonality_check", "bordered_determinant_check",
        "monomial_expansion_check", "pairing", "polys_from_inverse", "polys_from_recurrence",
    ),
    "wordfun": (
        "WordPoly", "check_defining_relations", "eval_by_elimination", "functional",
        "normal_order", "parse_word",
    ),
    "band": ("rep_rational",),
    "repmat": (
        "aw_coeffs", "aw_eval", "jacobi_moments", "verify_algebra", "verify_aw_match",
        "verify_boundary", "verify_uchiyama_algebra",
    ),
    "asep": (
        "ComparisonReport", "StationaryDistribution", "ansatz_weight", "certify_stationary",
        "compare", "stationary_ansatz", "stationary_exact",
    ),
    "reporting": ("VerificationReport",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
