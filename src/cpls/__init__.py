"""Constrained projection least-squares drift estimation for SDE pairs.

Estimates the two drift components of
``dX = (a(X) + b(Y)) dt + sigma(X) dW1`` from independent path copies of
``(X, Y)``, under the identifiability constraint that ``b`` integrates to
zero. Includes path simulation, orthonormal basis machinery, the
closed-form constrained solver, adaptive dimension selection, and a
Monte-Carlo experiment harness with a command-line front end.
"""

from .bases import (
    BasisFamily,
    BasisKind,
    HERMITE,
    LAGUERRE,
    TRIG,
    TRIG_NO_CONST,
    delta_vector,
    eval_matrix,
    family_by_name,
    sup_norm_bound,
)
from .design import (
    DesignSystem,
    DimPair,
    build_design,
    inv_opnorm,
    subsystem,
)
from .estimator import (
    FitResult,
    SingularDesignError,
    StabilityRule,
    evaluate_fit,
    solve_constrained,
    stability_event,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    QuantileBox,
    emit_beam,
    mse_box,
    quantile_box,
    run_experiment,
)
from .selection import (
    SelectionConfig,
    SelectionResult,
    select_adaptive,
)
from .simulate import (
    ExplanatorySpec,
    GridSpec,
    PathSample,
    SdeModel,
    SimulationError,
    YKind,
    explanatory_by_name,
    generate_sample,
    make_model,
)

__version__ = "0.1.0"
