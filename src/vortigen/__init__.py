"""vortigen: compressible-flow nonequilibrium diagnostics.

Computes the entropy evolutionary-form coefficients and commutator as a
nonequilibrium/instability indicator on 2-D structured flow fields, runs a
1-D unsteady nonisentropic method-of-characteristics solver with
shock-formation (envelope) detection, and verifies the derivative-jump
relations across trajectories and characteristics.
"""

from .errors import VortigenError
from .thermo import (
    DerivedState,
    GasModel,
    PrimitiveState,
    derive_state,
    gibbs_residual,
)
from .fields import (
    FieldSet,
    Snapshot,
    StructuredGrid2D,
    Trajectory,
    curl2d,
    frame_along,
    gradient,
    time_derivative,
    trace_streamline,
    trace_streamlines,
)
from .evoform import (
    A1Variant,
    Commutator,
    CroccoSign,
    FlowRegime,
    ForceModel,
    TransportModel,
    classify_regime,
    commutator,
    crocco_normal_coefficient,
    equilibrium_classifier,
    equilibrium_tolerance,
    ideal_a1,
    lagrange_criterion,
    sample_anu,
    viscous_a1,
)
from .moc import (
    CharNet,
    EnvelopeEvent,
    advance_net,
    compat_residual,
    detect_envelope,
    pseudostructure_residual,
    riemann_invariants,
)
from .jumps import (
    JumpCheckReport,
    Surface,
    SurfaceKind,
    WeakDiscontinuity,
    char_jump_check,
    consistency_determinant,
    contact_jump_check,
    measure_discontinuity,
    measure_jump,
    synthesize_contact_field,
)

__version__ = "0.1.0"
