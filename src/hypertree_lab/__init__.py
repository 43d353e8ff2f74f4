"""Exact homology and local-to-global bounds for complexes squeezed
between consecutive skeleta of a simplex."""

from .bounds import (
    BoundCertificate,
    DualBoundVerdict,
    MonotonicityVerdict,
    TrichotomyReport,
    bound_B,
    bound_F,
    equality_trichotomy,
    lambda_pair,
    monotonicity_check,
    verify_dual_bound,
    verify_upper_bound,
)
from .collapse import collapse
from .complex_io import emit_complex, parse_complex_file, parse_complex_text
from .constructions import (
    FANO_BLOCKS,
    SumComplexSpec,
    build_J,
    build_X_nkl,
    steiner_complex,
    sum_complex,
)
from .errors import HypertreeLabError
from .fields import GF2, GF3, RATIONALS, FieldSpec, parse_field
from .garland import garland_check, garland_weights, weighted_laplacian
from .homology import LinkBetti, betti, betti_table, link_profile
from .randomness import SplitMix64, random_skeleton_complex
from .simplexes import (
    GeneralComplex,
    SkeletonComplex,
    as_skeleton_complex,
    closure,
    f_vector,
    faces,
    from_top_faces,
    full_skeleton,
    link,
    make_simplex,
    remove_top_face,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
