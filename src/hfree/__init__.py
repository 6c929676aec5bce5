"""Construction and numerical certification of partial immersions and
partially free maps along distribution frames."""

from .expr import (
    EvalError,
    Expr,
    NestingError,
    ParseError,
    diff,
    free_vars,
    parse,
    simplify,
    substitute,
    to_str,
)
from .fields import (
    Chart,
    ChartMismatch,
    Frame,
    OutsideDomain,
    SmoothMap,
    VectorField,
    lie_derivative,
)
from .jets import (
    BelowCriticalDimension,
    d1_exprs,
    d1_matrix,
    d2_exprs,
    d2_matrix,
    s,
)
from .constructions import (
    DetIdentity,
    compose,
    monomial_free_map,
    standard_frame,
)
from .brackets import (
    RPStructure,
    SymplecticChart,
    contact_frame,
    hamiltonian_field,
    novikov_structure,
    poisson_bracket,
)
from .gallery import fixture, list_fixtures
from .checks import (
    Report,
    check_points,
    frame_rank_check,
    is_free_at,
    is_immersion_at,
    run_check,
    run_fixture,
)
from .manifest import Manifest, ManifestError, load_manifest, parse_manifest_text
from .sampling import SplitMix64, sample_points

__version__ = "0.1.0"
