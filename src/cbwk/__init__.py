"""Budgeted contextual bandits: IGW policies over online regression oracles,
exponentiated-gradient dual prices, exact LP benchmarks, and a seeded
experiment harness."""

from .baseline import LinUcbConfig, run_linucb
from .core import (
    ArmFeatures,
    EnvironmentSpec,
    ProblemInstance,
    RunTrace,
    make_fixed_linear_env,
    make_glm_env,
    realized_regret,
    sample_outcome,
)
from .dual import DualState, dual_init, dual_lambda, dual_update
from .errors import ConfigurationError, InfeasibleError
from .harness import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    parse_config,
    render_plot,
    run_sweep,
    write_csv,
)
from .lp import LpSolution, exact_opt_fixed_context, solve_lp
from .oracles import (
    BatchPredictor,
    VectorPredictor,
    make_vector_predictor,
    online_to_batch,
    regret_bounds,
)
from .policy import (
    PolicyConfig,
    gamma_default,
    igw_distribution,
    lagrangian_scores,
    run_squarecbwk,
)
from .twostage import (
    TwoStageConfig,
    empirical_opt,
    estimation_errors,
    explore,
    m_t0,
    phase_one,
    run_twostage,
    t0_default,
    z_estimate,
)

__version__ = "0.1.0"
