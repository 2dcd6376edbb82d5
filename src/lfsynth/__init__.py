"""Structured parametric controller synthesis in linear fractional form.

The package synthesizes a controller family K(s, rho) stored as one static
block matrix: closing its first channel through integrators yields the
controller dynamics, closing its second through ``rho * I`` instantiates the
parameter.  Synthesis minimizes the worst closed-loop H-infinity norm over a
finite grid of parameter values, with a weighted controller-stability channel
folded into the same objective.
"""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    IllPosedLFTError,
    LfsynthError,
    NumericalError,
    ParseError,
    SingularMatrixError,
    StabilizationFailedError,
    UnstableError,
)
from .lft import (
    ControllerBlock,
    count_free_params,
    eval_controller,
    load_controller,
    lower_lft_ss,
    save_controller,
    zero_block,
)
from .norms import NormResult, default_frequency_grid, h2_norm, hinf_norm
from .statespace import (
    PartitionedSystem,
    StateSpace,
    append_diag,
    frequency_gain,
    series,
    spectral_abscissa,
    static_gain,
    subsystem,
)
from .synth import (
    ObjectiveEval,
    OptimizeOptions,
    StructureOptions,
    SynthesisProblem,
    SynthesisResult,
    build_mask,
    init_from_nominal,
    objective,
    optimize,
    stabilize,
)
from .models import (
    BeamSpec,
    WeightSpec,
    beam_generalized_plant,
    beam_matrices,
    building_surrogate,
    lah_generalized_plant,
    load_statespace,
    make_weight,
    save_statespace,
    timoshenko_beam,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
