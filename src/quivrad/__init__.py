"""Nilpotency index of the radical of the module category of a
representation-finite bound quiver algebra, with executable checkers for the
vertex-reduction rules (sink/source exclusion, zero-relation vertices for
monomial ideals, one vertex per relation, the toupie shape)."""

from .errors import (
    InconsistencyError,
    LimitsExceededError,
    MethodInapplicableError,
    NotAdmissibleError,
    ParseError,
    QuivradError,
    ShapeError,
    SplitFieldNeededError,
)
from .linalg import RatMatrix, Subspace
from .quiver import (
    AlgebraPresentation,
    Classification,
    Path,
    Quiver,
    Relation,
    ToupieShape,
    classify,
    parse_presentation,
    path_basis,
    sinks_and_sources,
    validate_admissible,
    zero_relation_vertices,
)
from .rep import (
    HomSpace,
    ModuleMorphism,
    Representation,
    are_isomorphic,
    decompose,
    hom_space,
    is_indecomposable,
    projective,
    projective_cover,
    radical_submodule,
    socle,
)
from .artrans import (
    ARQuiver,
    EnumerationLimits,
    almost_split_middle,
    ar_quiver,
    ar_translate,
    ar_translate_inverse,
    transpose,
)
from .radical import (
    NilpotencyReport,
    RadicalFiltration,
    canonical_r,
    nilpotency_index,
)

__version__ = "0.1.0"
