"""Multi-time quantum property logic on finite-dimensional Hilbert spaces.

Time-translates projectors, builds the orthocomplemented lattice of property
classes, validates single- and multi-time contexts through commutation,
computes Born probabilities, and cross-checks the results against history
operators and their consistency conditions.
"""

from .config import DEFAULT_TOLERANCES, Tolerances
from .linop import (
    DensityOperator,
    EigenSpace,
    HermitianOperator,
    Operator,
    Projector,
    SpectralWindow,
    UnitaryOperator,
    alternating_projection_limit,
    evolution_operator,
    max_entry_norm,
    projector_from_span,
    spectral_decompose,
    spectral_projectors,
    subspace_inclusion,
    subspace_intersection,
)
from .lattice import (
    PropertyClass,
    TimedProperty,
    class_born_probability,
    class_implies,
    class_join,
    class_meet,
    class_negate,
    class_of,
    equivalent,
    translate,
)
from .contexts import (
    CompositeProperty,
    Context,
    GeneralizedContext,
    build_generalized_context,
    composite_join,
    composite_meet,
    composite_negate,
    composite_probability,
    conditional_probability,
    property_projector,
)
from .histories import (
    ConsistencyReport,
    HistoryFamily,
    family_from_generalized_context,
    gmh_check,
    griffiths_check,
    history_probability,
    omnes_implies,
)
from .spin import (
    Direction,
    antipodal_pairs,
    compatible_directions,
    coplanarity_defect,
    direction_context,
    gmh_directions,
    griffiths_directions,
    sphere_grid,
    sphere_points,
    spin_projectors,
)
from .specio import (
    ContextSpec,
    SystemSpec,
    load_system_spec,
    parse_system_spec,
    realize_system,
    spec_to_mapping,
)

__version__ = "0.1.0"
