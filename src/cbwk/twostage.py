"""Two-stage variant: uniform exploration, batch estimation, dual-radius fit.

Phase 1 pulls every arm T0 times, makes T0 further arbitrary pulls, converts
the arms' samples into one frozen batch predictor with one stack per arm,
fitted together in T0 steps on the context set's span, and estimates the
per-round optimum by a K-variable linear program over the environment's one
context set with a slack-widened budget row.  The resulting radius estimate
Z = (T/B) * (opt + M) parameterizes a fresh IGW policy run on the remaining
horizon and budget.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import EnvironmentSpec, RunTrace, sample_outcome, sample_outcomes
from .errors import ConfigurationError, raise_if_any, range_violations, type_violations
# solve_lp is kept for perfbench/tracer.py, which patches it
from .lp import exact_opt_fixed_context, solve_lp  # noqa: F401
from .oracles import BatchPredictor, online_to_batch, regret_bounds
from .policy import PolicyConfig, run_squarecbwk


@dataclass(frozen=True)
class TwoStageConfig:
    """Knobs for one two-stage run; constructing one checks every field.

    ``policy`` serves both phases: its oracle family fits phase one and
    learns in phase 2, and its gamma and bound_scale size phase 2's learning
    rate.  Phase 2 always runs at phase one's radius, so ``policy.z`` is
    ignored.
    """

    t0: int | None = None  # per-arm exploration length; default from t0_default
    err_scale: float = 1.0  # leading constant of the estimation-error bounds
    policy: PolicyConfig = PolicyConfig()

    def __post_init__(self):
        raise_if_any(type_violations(self) or
                     range_violations(vars(self), (("t0", ">=", 1), ("err_scale", ">=", 0))))

    def resolve_t0(self, m: int, d: int, K: int, T: int) -> int:
        """``t0``, or ``t0_default``'s when unset; raises unless phase one fits in T."""
        t0 = self.t0 if self.t0 is not None else t0_default(m, d, K, T)
        raise_if_any(exploration_violations(K, T, t0))
        return t0


def exploration_violations(K: int, T: int, t0: int) -> list:
    """Phase one's one rule: its (K+1)*t0 rounds must fit in the horizon T."""
    rounds = (K + 1) * t0
    return [f"(K+1)*T0 = {rounds} exceeds T = {T}; reduce T0 or increase T"] if rounds > T else []


def t0_default(m: int, d: int, K: int, T: int) -> int:
    """Exploration length per arm for a linear class, if it fits: ceil((m d)^(1/3) sqrt(T/K))."""
    t0 = math.ceil((m * d) ** (1.0 / 3.0) * math.sqrt(T / K))
    raise_if_any(exploration_violations(K, T, t0))
    return t0


def estimation_errors(oracle: str, m: int, d: int, t0: int, T: int,
                      scale: float = 1.0) -> tuple[float, float]:
    """Closed-form batch estimation-error bounds after T0 samples per arm.

    Online-to-batch conversion inherits the online regret bound (the oracle
    family's ``regret_bounds`` at t0) divided by the sample count, times log T
    for the 1/T failure probability.
    """
    (reg_r, reg_c), log_t = regret_bounds(oracle, m, d, t0), math.log(T)
    return scale * reg_r * log_t / t0, scale * reg_c * log_t / t0


def m_t0(t0: int, K: int, d: int, err_f: float, err_g: float, T: int) -> float:
    """Estimation-error radius entering the widened budget row and the Z fit."""
    return math.sqrt(K * (err_f + d * err_g) + 4.0 * math.log(T * d) / t0)


def z_estimate(opt_hat: float, m_val: float, T: int, B: float) -> float:
    """Dual radius (T/B) * (empirical optimum + estimation radius)."""
    return (T / B) * (opt_hat + m_val)


def explore(env: EnvironmentSpec, t0: int, rng: np.random.Generator) -> RunTrace:
    """Pull each arm t0 times, then make t0 arbitrary pulls; the phase-1 trace.

    Arm a's samples are rounds a*t0 .. (a+1)*t0 - 1, all at its one feature
    row.  An arbitrary pull is the null arm if the environment has one,
    otherwise a uniformly drawn arm.  The environment's context set is fixed,
    so these rounds add no new feature rows, but they spend rounds, budget and
    random draws as the paper's phase 1 does.  Aborts early, with whatever
    was gathered, if some resource's cumulative consumption reaches B - 1
    before the exploration block completes; the trace is then marked
    ``stopped_early`` and ``aborted_in_exploration``.  Every round is a
    one-hot pull without estimates, so its ``rhat`` and ``lam`` rows are NaN.

    The K*t0 forced pulls are drawn as one block by ``sample_outcomes``, the
    t0 arbitrary pulls one round at a time after them, all in the order a
    per-round loop draws them; then one cumulative sum over every round finds
    the first that reaches the exit level.  So the rows and the abort round
    are the loop's, and so is the generator's state when the run does not
    abort.  An aborted run has still drawn all (K+1)*t0 rounds; nothing reads
    the generator after an abort, because ``phase_one`` and ``run_twostage``
    then return this trace.
    """
    K, d = env.K, env.d
    raise_if_any(exploration_violations(K, env.T, t0))

    forced = K * t0  # rounds a*t0 .. (a+1)*t0 - 1 pull arm a, drawn as one block
    arms = np.empty(forced + t0, dtype=np.int64)
    outcomes = np.empty((forced + t0, 1 + d))
    arms[:forced] = np.repeat(np.arange(K), t0)
    outcomes[:forced] = sample_outcomes(env, arms[:forced], rng)
    for t in range(forced, forced + t0):
        arm = K - 1 if env.null_arm else int(rng.integers(K))
        arms[t], outcomes[t] = arm, sample_outcome(env, arm, rng)

    # consumption after each round, added up round by round
    spent = np.cumsum(outcomes[:, 1:], axis=0)
    over = np.flatnonzero((spent >= env.B - 1.0).any(axis=1))
    aborted = over.size > 0
    n = int(over[0]) + 1 if aborted else forced + t0

    probs = np.eye(K)[arms[:n]]
    return RunTrace(arms=arms[:n], outcomes=outcomes[:n], probs=probs,
                    rhat=np.full((n, K), np.nan), lam=np.full((n, d), np.nan),
                    tau=n, total_reward=float(outcomes[:n, 0].sum()), total_cost=spent[n - 1],
                    stopped_early=aborted, aborted_in_exploration=aborted)


def empirical_opt(fits: BatchPredictor, phi: np.ndarray, budget_rate: float,
                  m_val: float) -> float:
    """Optimal value of the empirical allocation program over the context set.

    ``fits`` holds one batch stack per arm, the reward then the d costs;
    stack a is predicted at the arm's feature row ``phi[a]``, given in the
    columns the stacks were fitted on, all in one call.  The budget rows are relaxed by twice the estimation radius.  The
    paper averages the program over the context sets of the arbitrary pulls;
    here every one of them is ``phi``, so that average is this one
    K-variable program.
    """
    preds = fits.predict_matrix(phi[:, None, :])[:, 0]
    return exact_opt_fixed_context(preds, budget_rate + 2.0 * m_val)


@dataclass
class PhaseOneResult:
    t0: int
    exploration: RunTrace  # the phase-1 rounds; aborted_in_exploration if cut short
    fits: BatchPredictor | None  # stack a fits arm a: the reward, then the d costs
    opt_hat: float | None
    m_val: float
    z: float | None


def phase_one(env: EnvironmentSpec, cfg: TwoStageConfig,
              rng: np.random.Generator) -> PhaseOneResult:
    """Exploration, batch fitting, and radius estimation (no policy rounds).

    The K arms are fitted at once, as the K stacks of one online-to-batch
    pass over t0 samples, on the context set's span; t0 and the error radius
    are sized from the declared feature width m.
    """
    T, K, d = env.T, env.K, env.d
    m = env.phi.shape[1]
    phi = env.span
    oracle = cfg.policy.oracle
    t0 = cfg.resolve_t0(m, d, K, T)

    err_f, err_g = estimation_errors(oracle, m, d, t0, T, cfg.err_scale)
    m_val = m_t0(t0, K, d, err_f, err_g, T)

    expl = explore(env, t0, rng)
    if expl.aborted_in_exploration:
        return PhaseOneResult(t0=t0, exploration=expl, fits=None, opt_hat=None,
                              m_val=m_val, z=None)

    # Arm a's samples are rounds a*t0 .. (a+1)*t0 - 1: sample i of stack a is round a*t0 + i.
    targets = expl.outcomes[:K * t0].reshape(K, t0, 1 + d).transpose(1, 0, 2)
    fits = online_to_batch(oracle, np.broadcast_to(phi, (t0,) + phi.shape), targets,
                           link=env.link)

    opt_hat = empirical_opt(fits, phi, env.budget_rate, m_val)
    z = z_estimate(opt_hat, m_val, T, env.B)
    return PhaseOneResult(t0=t0, exploration=expl, fits=fits, opt_hat=opt_hat,
                          m_val=m_val, z=z)


_PER_ROUND = ("arms", "outcomes", "probs", "rhat", "lam")


def run_twostage(env: EnvironmentSpec, cfg: TwoStageConfig,
                 rng: np.random.Generator) -> RunTrace:
    """Full two-stage run: phase-1 estimation, then the IGW policy on the rest.

    The phase-1 trace from ``explore`` is joined to the phase-2 run of
    ``run_squarecbwk`` with ``cfg.policy`` and the phase-one radius.
    """
    T, B, K = env.T, env.B, env.K

    p1 = phase_one(env, cfg, rng)
    t0 = p1.t0
    phase1_rounds = (K + 1) * t0
    if B <= max((K + 2) * t0, T * p1.m_val):
        warnings.warn(
            "budget below the two-stage precondition "
            f"max((K+2)T0, T*M(T0)) = {max((K + 2) * t0, T * p1.m_val):.1f}; "
            "the run proceeds but the radius estimate may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    head = p1.exploration
    if head.aborted_in_exploration:
        return head
    if phase1_rounds == T:
        return replace(head, dual_radius=p1.z)

    t2 = T - phase1_rounds
    b2 = B - phase1_rounds
    if b2 < 1:
        raise ConfigurationError(
            f"remaining budget B' = B - (K+1)T0 = {b2} is below 1; phase 2 cannot run"
        )
    tail = run_squarecbwk(replace(env, T=t2, B=b2), replace(cfg.policy, z=p1.z), rng)

    return replace(
        tail,
        **{f: np.concatenate([getattr(head, f), getattr(tail, f)]) for f in _PER_ROUND},
        tau=head.tau + tail.tau,
        total_reward=head.total_reward + tail.total_reward,
        total_cost=head.total_cost + tail.total_cost,
    )
