"""Numerical laboratory for the heat equation driven by truncated
heavy-tailed jump noise on [0, T] x [0, L] with absorbing boundaries.

Subpackages by responsibility: ``noise`` (sampling, stopping and
restriction of the jump field), ``kernel`` (Dirichlet heat kernel),
``coefficients`` (declarative coefficient registry with audited
hypotheses), ``solvers`` (causal mild-form and spectral projection
solvers), ``experiments`` (seeded Monte Carlo checks), ``cli`` (one
config-driven command-line entry point).
"""

from .coefficients import (
    CoefficientSpec,
    InitialCondition,
    affine,
    clipped_linear,
    constant,
    dominates,
    ic_bump,
    ic_constant,
    ic_sine_mode,
    ic_tabulated,
    ic_zero,
    shifted,
    sine_modulated,
    validate_hypothesis,
    zero,
)
from .errors import (
    AccuracyError,
    BlowUpError,
    ConfigError,
    DeltaSingularityError,
    HypothesisError,
    NumericalError,
    ParameterError,
    StableHeatError,
    UnobservableEventError,
)
from .experiments import (
    ExperimentReport,
    calibrate_grid_error,
    path_seed,
    positive_part_energy,
    run_comparison,
    run_consistency,
    run_galerkin_convergence,
    run_moment_estimate,
    run_nonnegativity,
    run_stopping_law,
)
from .kernel import KernelEvaluator
from .noise import (
    NoiseRealization,
    SpaceTimeDomain,
    StableParams,
    TruncationSpec,
    compensator_drift,
    expected_jump_count,
    restrict,
    sample_noise,
    stopping_time,
    survival_probability,
)
from .solvers import (
    GridSolution,
    GridSpec,
    ProblemSpec,
    SpectralSolution,
    grid_h_norm,
    grid_lp_norm_p,
    solve_galerkin,
    solve_mild,
    spectral_to_grid,
)

__version__ = "0.1.0"
