"""Two-stage variant: uniform exploration, batch estimation, dual-radius fit.

Phase 1 pulls every arm T0 times, converts the collected samples into frozen
batch predictors, records T0 further context sets under arbitrary pulls, and
estimates the per-round optimum by a linear program over those contexts with a
slack-widened budget row.  The resulting radius estimate Z = (T/B) * (opt + M)
parameterizes a fresh IGW policy run on the remaining horizon and budget.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import EnvironmentSpec, RunTrace, sample_outcome
from .errors import ConfigurationError, InfeasibleError
from .lp import LpProblem, solve_lp
from .oracles import online_to_batch
from .policy import PolicyConfig, run_squarecbwk


@dataclass
class TwoStageConfig:
    t0: int | None = None  # per-arm exploration length; default from t0_default
    oracle: str = "glmtron"
    err_scale: float = 1.0  # leading constant of the estimation-error bounds
    eta_scale: float = 1.0

    def __post_init__(self):
        if self.t0 is not None and self.t0 < 1:
            raise ConfigurationError(f"t0 must be >= 1 (got {self.t0})")


def t0_default(m: int, d: int, K: int, T: int) -> int:
    """Exploration length per arm for a linear class: ceil((m d)^(1/3) sqrt(T/K))."""
    t0 = math.ceil((m * d) ** (1.0 / 3.0) * math.sqrt(T / K))
    if (K + 1) * t0 >= T:
        raise ConfigurationError(
            f"(K+1)*T0 = {(K + 1) * t0} >= T = {T}; reduce T0 or increase T"
        )
    return t0


def estimation_errors(oracle: str, m: int, d: int, t0: int, T: int,
                      scale: float = 1.0) -> tuple[float, float]:
    """Closed-form batch estimation-error bounds after T0 samples per arm.

    Online-to-batch conversion inherits the online regret bound divided by the
    sample count, times log T for the 1/T failure probability.
    """
    log_t = math.log(T)
    if oracle == "glmtron":
        reg_r = m * max(1.0, math.log(t0))
        reg_c = d * m * max(1.0, math.log(t0))
    elif oracle == "ogd":
        reg_r = math.sqrt(t0)
        reg_c = d * math.sqrt(t0)
    else:
        raise ConfigurationError(f"unknown oracle kind {oracle!r}")
    return scale * reg_r * log_t / t0, scale * reg_c * log_t / t0


def m_t0(t0: int, K: int, d: int, err_f: float, err_g: float, T: int) -> float:
    """Estimation-error radius entering the widened budget row and the Z fit."""
    return math.sqrt(K * (err_f + d * err_g) + 4.0 * math.log(T * d) / t0)


def z_estimate(opt_hat: float, m_val: float, T: int, B: float) -> float:
    """Dual radius (T/B) * (empirical optimum + estimation radius)."""
    return (T / B) * (opt_hat + m_val)


@dataclass
class ExplorationResult:
    """Phase-1 data: each arm's samples over the environment's one feature map,
    and the context sets seen during the arbitrary pulls."""

    t0: int
    features: list  # per arm: (T0, m)
    rewards: list  # per arm: (T0,)
    costs: list  # per arm: (T0, d)
    context_sets: np.ndarray  # (T0_ctx, K, m) contexts of the arbitrary rounds
    arms: np.ndarray  # all phase-1 pulls in order
    round_rewards: np.ndarray
    round_costs: np.ndarray
    consumed: np.ndarray  # (d,)
    aborted: bool


def explore(env: EnvironmentSpec, t0: int, rng: np.random.Generator) -> ExplorationResult:
    """Pull each arm t0 times, then record t0 context sets under arbitrary pulls.

    An arbitrary pull is the null arm if the environment has one, otherwise a
    uniformly drawn arm.  Aborts early (with whatever was gathered) if some
    resource's cumulative consumption reaches B - 1 before the exploration
    block completes.
    """
    inst = env.instance
    K, d, B = inst.K, inst.d, inst.B
    if (K + 1) * t0 > inst.T:
        raise ConfigurationError(f"(K+1)*T0 = {(K + 1) * t0} exceeds T = {inst.T}")
    phi = env.contexts.phi
    exit_level = B - 1.0

    total_rounds = (K + 1) * t0
    arms = np.empty(total_rounds, dtype=np.int64)
    round_rewards = np.empty(total_rounds)
    round_costs = np.empty((total_rounds, d))
    consumed = np.zeros(d)
    aborted = False

    per_arm_rows = [[] for _ in range(K)]
    t = 0
    for arm in range(K):
        for _ in range(t0):
            outcome = sample_outcome(env, arm, rng)
            arms[t] = arm
            round_rewards[t] = outcome.reward
            round_costs[t] = outcome.cost
            per_arm_rows[arm].append((outcome.reward, outcome.cost))
            consumed += outcome.cost
            t += 1
            if (consumed >= exit_level).any():
                aborted = True
                break
        if aborted:
            break

    n_ctx = 0
    if not aborted:
        for _ in range(t0):
            arm = K - 1 if env.null_arm else int(rng.integers(K))
            outcome = sample_outcome(env, arm, rng)
            arms[t] = arm
            round_rewards[t] = outcome.reward
            round_costs[t] = outcome.cost
            consumed += outcome.cost
            n_ctx += 1
            t += 1
            if (consumed >= exit_level).any():
                aborted = True
                break

    features, rewards, costs = [], [], []
    for arm in range(K):
        n = len(per_arm_rows[arm])
        features.append(np.tile(phi[arm], (n, 1)))
        rewards.append(np.array([r for r, _ in per_arm_rows[arm]]))
        costs.append(np.array([c for _, c in per_arm_rows[arm]]) if n else np.empty((0, d)))

    return ExplorationResult(
        t0=t0,
        features=features,
        rewards=rewards,
        costs=costs,
        context_sets=np.tile(phi, (n_ctx, 1, 1)),
        arms=arms[:t],
        round_rewards=round_rewards[:t],
        round_costs=round_costs[:t],
        consumed=consumed,
        aborted=aborted,
    )


def empirical_opt(reward_predictors: list, cost_predictors: list, context_sets: np.ndarray,
                  budget_rate: float, m_val: float) -> float:
    """Optimal value of the empirical allocation program over the context sets.

    Variables are one distribution over arms per recorded context set; the
    budget rows are relaxed by twice the estimation radius.
    """
    n_ctx, K = context_sets.shape[:2]
    if n_ctx < 1:
        raise ConfigurationError("need at least one recorded context set")
    d = len(cost_predictors[0])

    fhat = np.empty((n_ctx, K))
    ghat = np.empty((n_ctx, K, d))
    for a in range(K):
        fhat[:, a] = reward_predictors[a].predict_matrix(context_sets[:, a, :])
        for j in range(d):
            ghat[:, a, j] = cost_predictors[a][j].predict_matrix(context_sets[:, a, :])

    n_vars = n_ctx * K
    a_ub = ghat.reshape(n_vars, d).T / n_ctx
    b_ub = np.full(d, budget_rate + 2.0 * m_val)
    a_eq = np.zeros((n_ctx, n_vars))
    for t in range(n_ctx):
        a_eq[t, t * K : (t + 1) * K] = 1.0
    problem = LpProblem(c=fhat.ravel() / n_ctx, a_ub=a_ub, b_ub=b_ub,
                        a_eq=a_eq, b_eq=np.ones(n_ctx))
    sol = solve_lp(problem)
    if sol.status == "infeasible":
        raise InfeasibleError("empirical allocation program infeasible")
    if sol.status != "optimal":
        raise RuntimeError(f"LP solver returned status {sol.status}")
    return sol.value


@dataclass
class PhaseOneResult:
    t0: int
    exploration: ExplorationResult
    reward_predictors: list | None
    cost_predictors: list | None
    opt_hat: float | None
    err_f: float
    err_g: float
    m_val: float
    z: float | None
    aborted: bool


def phase_one(env: EnvironmentSpec, cfg: TwoStageConfig,
              rng: np.random.Generator) -> PhaseOneResult:
    """Exploration, batch fitting, and radius estimation (no policy rounds)."""
    inst = env.instance
    m = env.contexts.phi.shape[1]
    t0 = cfg.t0 if cfg.t0 is not None else t0_default(m, inst.d, inst.K, inst.T)

    err_f, err_g = estimation_errors(cfg.oracle, m, inst.d, t0, inst.T, cfg.err_scale)
    m_val = m_t0(t0, inst.K, inst.d, err_f, err_g, inst.T)

    expl = explore(env, t0, rng)
    if expl.aborted:
        return PhaseOneResult(t0=t0, exploration=expl, reward_predictors=None,
                              cost_predictors=None, opt_hat=None, err_f=err_f,
                              err_g=err_g, m_val=m_val, z=None, aborted=True)

    # One pass per arm fits the reward and every cost.
    reward_predictors = []
    cost_predictors = []
    for a in range(inst.K):
        targets = np.column_stack([expl.rewards[a], expl.costs[a]])
        fits = online_to_batch(cfg.oracle, expl.features[a], targets, link=env.link,
                               eta_scale=cfg.eta_scale)
        reward_predictors.append(fits[0])
        cost_predictors.append(fits[1:])

    opt_hat = empirical_opt(reward_predictors, cost_predictors, expl.context_sets,
                            inst.budget_rate, m_val)
    z = z_estimate(opt_hat, m_val, inst.T, inst.B)
    return PhaseOneResult(t0=t0, exploration=expl, reward_predictors=reward_predictors,
                          cost_predictors=cost_predictors, opt_hat=opt_hat, err_f=err_f,
                          err_g=err_g, m_val=m_val, z=z, aborted=False)


_PER_ROUND = ("arms", "rewards", "costs", "probs", "rhat", "lam")


def run_twostage(env: EnvironmentSpec, cfg: TwoStageConfig,
                 rng: np.random.Generator,
                 policy_overrides: PolicyConfig | None = None) -> RunTrace:
    """Full two-stage run: phase-1 estimation, then the IGW policy on the rest.

    Exploration rounds are one-hot pulls without estimates, so their ``rhat``
    and ``lam`` rows are NaN.
    """
    inst = env.instance
    T, B, d, K = inst.T, inst.B, inst.d, inst.K

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

    expl = p1.exploration
    n1 = expl.arms.size
    probs1 = np.zeros((n1, K))
    probs1[np.arange(n1), expl.arms] = 1.0
    head = RunTrace(
        arms=expl.arms, rewards=expl.round_rewards, costs=expl.round_costs, probs=probs1,
        rhat=np.full((n1, K), np.nan), lam=np.full((n1, d), np.nan),
        tau=n1, total_reward=float(expl.round_rewards.sum()), total_cost=expl.consumed.copy(),
        stopped_early=p1.aborted, aborted_in_exploration=p1.aborted,
        dual_radius=p1.z if p1.z is not None else float("nan"),
    )
    if p1.aborted or phase1_rounds == T:
        return head

    t2 = T - phase1_rounds
    b2 = B - phase1_rounds
    if b2 < 1:
        raise ConfigurationError(
            f"remaining budget B' = B - (K+1)T0 = {b2} is below 1; phase 2 cannot run"
        )
    env2 = replace(env, instance=type(inst)(T=t2, B=b2, d=d, K=K))
    base = policy_overrides if policy_overrides is not None else PolicyConfig(oracle=cfg.oracle)
    pc = replace(base, z=base.z if base.z is not None else p1.z)
    tail = run_squarecbwk(env2, pc, rng)

    return replace(
        tail,
        **{f: np.concatenate([getattr(head, f), getattr(tail, f)]) for f in _PER_ROUND},
        tau=head.tau + tail.tau,
        total_reward=head.total_reward + tail.total_reward,
        total_cost=head.total_cost + tail.total_cost,
    )
