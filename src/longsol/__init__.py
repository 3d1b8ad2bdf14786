"""Symbolic toolkit for long solenoids.

Exact ordinal arithmetic below epsilon_0, points of the closed long ray
and its finite tower levels, finite covering stages with threads and
verifiable homeomorphism recipes, arc combinatorics for
indecomposability witnesses, and first Cech cohomology of classical
solenoids through supernatural numbers.
"""

from .arcs import (
    Arc,
    WitnessReport,
    arcs_intersect,
    circular_chain_check,
    format_position,
    indecomposability_witness,
    preimage_components,
    uncovered_point,
)
from .cohomology import (
    DirectLimitElement,
    SequenceDescriptor,
    SupernaturalNumber,
    dl_add,
    dl_element,
    dl_of_rational,
    dl_value,
    h1_action,
    inequivalent_family,
    mccord_equivalent,
    member,
    supernatural_of,
)
from .errors import (
    CommandError,
    DepthBoundError,
    EndpointError,
    InvalidPointError,
    LevelMismatchError,
    LongSolError,
    NotSameOrbitError,
    ParseError,
    StageDomainError,
    ThreadMismatchError,
    TokenUndefinedError,
    UnsupportedTranslationError,
    WitnessInputError,
)
from .longline import (
    INTERVAL_KIND,
    NG_KIND,
    NOT_PROVEN,
    PROVEN_DISTINCT,
    SAME,
    UNKNOWN,
    LongPoint,
    OrbitAnswer,
    OrbitClassLabel,
    distinct_orbit_proof,
    is_ng,
    partition_class,
    same_orbit_recipe,
)
from .ordinal import (
    DEFAULT_DEPTH_BOUND,
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    add,
    compare,
    mul,
    nat,
    omega_pow,
)
from .parsing import (
    parse_arc,
    parse_descriptor,
    parse_long_point,
    parse_ordinal,
    parse_rational,
    parse_stage_point,
    parse_thread,
    parse_tower_point,
)
from .stages import (
    LONG_MODE,
    RECIPE,
    TOWER_MODE,
    HomeoRecipe,
    StagePoint,
    SynthesisResult,
    Thread,
    apply_recipe,
    extend_thread,
    fiber,
    stage_size,
    synthesize_recipe,
    verify_commutes,
)
from .tokens import IDENTITY_TOKEN, IntervalAutToken
from .tower import (
    MIN,
    Address,
    TowerPoint,
    base_automorphism_token,
    compare_base,
    point_type,
    same_orbit,
    strip_top,
    within_copy_hat,
)

__version__ = "0.1.0"
