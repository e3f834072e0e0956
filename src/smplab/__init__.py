"""smplab: spectrum-maximizing-product laboratory for pairs of real 2x2 matrices.

Region classification of matrix pairs, joint-spectral-radius bounds with
exact certificates where the region theory allows them, Sturmian and
Christoffel word machinery, exact trace polynomials in the five pair
invariants, and the explicit invariant-polygon example family.
"""

__version__ = "0.1.0"

from .linalg import (
    FiveTuple,
    Mat2,
    MatrixPair,
    Spectrum,
    SpectrumKind,
    commutator_invariant,
    five_tuple,
    is_reducible,
    operator_norm_2,
    realizable,
    spectral_radius,
    spectrum,
    word_product,
)
from .words import (
    christoffel,
    christoffel_tree,
    is_primitive,
    is_sturmian_word,
    lyndon_rotation,
    mechanical_prefix,
    signature,
    sturmian_class_words,
)
from .fricke import Poly5, evaluate, fricke_poly, monomial_at_uv0
from .regions import (
    AxisConfig,
    AxisKind,
    RegionArrays,
    RegionFlags,
    classify,
    classify_arrays,
    classify_tuple,
    geometric_oracle,
    monte_carlo_regions,
)
from .jsr import BoundsReport, SmpCandidate, brute_force, certify, gelfand_scan
from .sturmian import (
    ConcavityReport,
    copar_gap,
    lyapunov_irrational,
    lyapunov_rational,
    maximize_sturmian,
)
from .constructions import (
    ExampleFamily,
    Polygon,
    counterexample_family,
    lambert_c,
    polygon_gauge,
    polygon_operator_norm,
    realize_from_tuple,
    symmetrize,
    verify_example,
)

__all__ = [
    "__version__",
    "Mat2", "MatrixPair", "FiveTuple", "Spectrum", "SpectrumKind",
    "spectrum", "spectral_radius", "operator_norm_2", "five_tuple",
    "word_product", "commutator_invariant", "is_reducible", "realizable",
    "is_primitive", "lyndon_rotation", "signature", "mechanical_prefix",
    "christoffel", "christoffel_tree", "is_sturmian_word", "sturmian_class_words",
    "Poly5", "fricke_poly", "evaluate", "monomial_at_uv0",
    "RegionFlags", "RegionArrays", "AxisConfig", "AxisKind", "classify",
    "classify_arrays", "classify_tuple",
    "geometric_oracle", "monte_carlo_regions",
    "BoundsReport", "SmpCandidate", "brute_force", "gelfand_scan", "certify",
    "ConcavityReport", "lyapunov_rational", "lyapunov_irrational",
    "maximize_sturmian", "copar_gap",
    "Polygon", "ExampleFamily", "symmetrize", "realize_from_tuple",
    "lambert_c", "counterexample_family", "polygon_gauge",
    "polygon_operator_norm", "verify_example",
]
