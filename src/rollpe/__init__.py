"""Positional-encoding kernels built on traveling-wave (circular roll) dynamics.

Provides the discrete roll encoding, its continuous spectral extension,
rotary encodings with both classic and roll-induced frequency schedules,
a numerically checked correspondence between the two, multiplexed
(superposed-wave) variants, a pluggable attention layer, and smoothness
diagnostics over the circular latent topology.
"""

from .attention import (
    AttentionBatch,
    AttentionOutput,
    PEConfig,
    PEKind,
    attend,
    grad_check,
    sinusoidal_ape,
)
from .multiplex import (
    EquivarianceWitness,
    equivariance_violation_witness,
    mproll,
    mproll_score,
)
from .regularizer import SmoothnessReport, circular_laplacian_loss, lipschitz_gap
from .roll_core import relative_form_score, roll_discrete, rollpe_score, shift_matrix
from .rope import (
    FrequencySchedule,
    classic_schedule,
    equivalence_residual,
    realified_fourier_basis,
    roll_induced_schedule,
    rope_apply,
)
from .spectral import (
    GeneratorResiduals,
    ShiftGenerator,
    SpectralBranch,
    branch_angles,
    dft_matrix,
    generator_residuals,
    log_shift_generator,
    roll_continuous,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionBatch",
    "AttentionOutput",
    "EquivarianceWitness",
    "FrequencySchedule",
    "GeneratorResiduals",
    "PEConfig",
    "PEKind",
    "ShiftGenerator",
    "SmoothnessReport",
    "SpectralBranch",
    "attend",
    "branch_angles",
    "circular_laplacian_loss",
    "classic_schedule",
    "dft_matrix",
    "equivalence_residual",
    "equivariance_violation_witness",
    "generator_residuals",
    "grad_check",
    "lipschitz_gap",
    "log_shift_generator",
    "mproll",
    "mproll_score",
    "realified_fourier_basis",
    "relative_form_score",
    "roll_continuous",
    "roll_discrete",
    "roll_induced_schedule",
    "rollpe_score",
    "rope_apply",
    "shift_matrix",
    "sinusoidal_ape",
]
