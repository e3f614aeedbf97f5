"""Domain types, synthetic environments, and regret accounting."""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import raise_if_any, range_violations, type_violations

SQRT2 = math.sqrt(2.0)
_NOISE_RULE = (("noise_variance", ">=", 0),)  # finite too: an infinite variance draws NaN
_ENV_RULES = _NOISE_RULE + (("norm_bound", ">", 0),)
_INSTANCE_RULES = (("T", ">=", 1), ("d", ">=", 1), ("K", ">=", 2))


@dataclass(frozen=True)
class ProblemInstance:
    """Horizon T, per-resource budget B (shared by all d resources), d, K arms."""

    T: int
    B: float
    d: int
    K: int

    def __post_init__(self):
        raise_if_any(type_violations(self) or instance_violations(self.T, self.B, self.d, self.K))

    @property
    def budget_rate(self) -> float:
        return self.B / self.T


def instance_violations(T: int, B: float | None, d: int, K: int) -> list:
    """Rules of a ``ProblemInstance`` broken by (T, B, d, K); B is checked only
    against a valid T, and not at all when None (it could not be resolved)."""
    problems = range_violations({"T": T, "d": d, "K": K}, _INSTANCE_RULES)
    if B is not None and T >= 1 and not 1 <= B <= T:
        problems.append(f"1 <= B <= T violated (B={B}, T={T})")
    return problems


@dataclass(frozen=True)
class EnvironmentSpec:
    """Generative model: true parameters, fixed context set, noise law, link.

    ``theta`` holds one parameter row per outcome coordinate: row 0 is the
    reward and rows 1..d are the costs, the [reward | costs] layout of every
    outcome row.  ``phi`` holds arm a's feature row, the one feature map of
    both reward and costs; every row's norm lies within ``norm_bound``: the
    linear benchmark's feature rows have norm sqrt(3/2), generalized-linear
    environments use unit balls.  The link sets the outcome law: ``identity``
    draws the linear value plus N(0, noise_variance), and ``logistic`` draws
    Bernoulli outcomes of mean sigma(<theta, phi>).  With ``bounded`` set,
    realized gaussian outcomes are clipped to [0, 1]; the default leaves them
    unclipped, which is what the scaling benchmarks use even though some
    expected values exceed 1.  ``null_arm`` designates the last arm as a
    do-nothing action with exactly zero reward, cost and means (the identity
    link, a zero feature row); the logistic link keeps ``theta``'s rows in the
    unit ball.  Constructing one checks every field and reports every
    violation at once; a NaN or infinite entry of ``theta`` or ``phi`` is one.
    """

    instance: ProblemInstance
    theta: np.ndarray  # (1+d, m)
    phi: np.ndarray  # (K, m)
    noise_variance: float = 0.0
    link: str = "identity"
    bounded: bool = False
    null_arm: bool = False
    norm_bound: float = SQRT2

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        raise_if_any(type_violations(self))  # the rules below compare numbers
        problems = range_violations(vars(self), _ENV_RULES)
        problems += [f"{name} must be finite (got a NaN or infinite entry)"
                     for name, a in (("theta", theta), ("phi", phi)) if not np.isfinite(a).all()]
        shape = (1 + self.instance.d, phi.shape[1])
        if theta.shape != shape:
            problems.append(f"theta has shape {theta.shape}, expected (1+d, m) = {shape}")
        if phi.shape[0] != self.instance.K:
            problems.append(f"phi has {phi.shape[0]} rows, expected K={self.instance.K}")
        norms = np.linalg.norm(phi, axis=1)
        if (norms > self.norm_bound + 1e-9).any():
            problems.append(f"feature norm {norms.max():.6f} exceeds bound {self.norm_bound:.6f}")
        if self.link == "logistic":  # the generalized-linear class
            rows = np.linalg.norm(theta, axis=-1)
            if (rows > 1 + 1e-9).any():
                problems.append(f"parameter row norm {rows.max():.4f} exceeds 1")
        elif self.link != "identity":
            problems.append(f"unknown link {self.link!r}")
        if self.null_arm and (self.link != "identity" or phi[-1].any()):  # a mean other than 0
            problems.append("null_arm needs the identity link and a zero last phi row")
        raise_if_any(problems)

    @cached_property
    def span(self) -> np.ndarray:
        """``phi`` restricted to the columns that are nonzero for some arm, (K, r).

        An oracle started at 0 (and, under GLMtron, at A = I) that only ever
        sees these rows keeps zero weight on every other column, so learning
        on ``span`` gives the iterates of learning on ``phi``, restricted to
        its columns.  A dense ``phi`` keeps every column.
        """
        span = self.phi[:, (self.phi != 0.0).any(axis=0)]
        span.flags.writeable = False
        return span

    @cached_property
    def outcome_means(self) -> np.ndarray:
        """Pre-noise [reward | costs] of every arm, link applied, shape (K, 1+d).

        Rows are built from per-arm products rather than one matrix product,
        so they are bitwise equal to evaluating each arm on its own.
        """
        phi = self.phi
        rows = np.empty((self.instance.K, 1 + self.instance.d))
        for a in range(self.instance.K):
            rows[a] = self.theta @ phi[a]
        if self.link == "logistic":
            rows = 1.0 / (1.0 + np.exp(-rows))
        rows.flags.writeable = False
        return rows

    def expected_outcomes(self) -> np.ndarray:
        """Exact per-arm expected realized [reward | costs], shape (K, 1+d).

        These are the cached ``outcome_means`` that ``sample_outcome`` draws
        around, taken through the clip in bounded mode; the null arm's row is
        zero.
        """
        if self.link == "identity" and self.bounded:
            out = clipped_gaussian_mean(self.outcome_means, self.noise_variance)
        else:
            out = self.outcome_means.copy()
        if self.null_arm:
            out[-1] = 0.0
        return out


def clipped_gaussian_mean(mu, variance: float):
    """E[clip(X, 0, 1)] for X ~ N(mu, variance), elementwise."""
    mu = np.asarray(mu, dtype=float)
    if variance == 0.0:
        return np.clip(mu, 0.0, 1.0)
    sigma = math.sqrt(variance)
    a = -mu / sigma
    b = (1.0 - mu) / sigma
    phi = lambda z: np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    Phi = lambda z: 0.5 * (1.0 + _erf(z / SQRT2))
    return mu * (Phi(b) - Phi(a)) - sigma * (phi(b) - phi(a)) + (1.0 - Phi(b))


def _erf(x):
    return np.vectorize(math.erf)(x)


def fixed_linear_violations(m: int, K: int, d: int, noise_variance: float, T: int,
                            B: float | None) -> list:
    """Rules of the fixed-linear benchmark broken by its parameters, its instance's first."""
    problems = instance_violations(T, B, d, K)
    if m < 6:
        problems.append(f"m >= 6 violated (m={m})")
    if K > m - 1:
        problems.append(f"K <= m-1 violated (K={K}, m={m})")
    if not 4 <= d <= m - 1:
        problems.append(f"4 <= d <= m-1 violated (d={d}, m={m})")
    return problems + range_violations({"noise_variance": noise_variance}, _NOISE_RULE)


def make_fixed_linear_env(
    m: int,
    K: int,
    d: int,
    noise_variance: float,
    T: int,
    B: float,
    *,
    bounded: bool = False,
    null_arm: bool = False,
) -> EnvironmentSpec:
    """The fixed-context linear benchmark environment used by the scaling sweeps.

    Reward parameter (e1+e2)/sqrt(2); cost parameters (e1+e3)/sqrt(2),
    (e2+e3+e4+e5)/2, then e_{i+1} for the remaining resources (1-indexed).
    Arm a's context is e1/sqrt(2) + e_{a+1} every round.  Outcomes are the
    linear value plus i.i.d. Gaussian noise.
    """
    raise_if_any(fixed_linear_violations(m, K, d, noise_variance, T, B))

    e = np.eye(m)
    theta = np.zeros((1 + d, m))
    theta[0] = (e[0] + e[1]) / SQRT2
    theta[1] = (e[0] + e[2]) / SQRT2
    theta[2] = (e[1] + e[2] + e[3] + e[4]) / 2.0
    for j in range(2, d):
        theta[1 + j] = e[j + 1]

    phi = e[0] / SQRT2 + e[1 : K + 1]
    if null_arm:
        phi[-1] = 0.0
    return EnvironmentSpec(
        instance=ProblemInstance(T=T, B=B, d=d, K=K),
        theta=theta,
        phi=phi,
        noise_variance=noise_variance,
        bounded=bounded,
        null_arm=null_arm,
    )


def make_glm_env(instance: ProblemInstance, theta, phi) -> EnvironmentSpec:
    """Generalized-linear environment: mean sigma(<theta, phi>), Bernoulli draws.

    ``theta`` is (1+d, m), the reward row then the cost rows, and ``phi`` is
    (K, m).  Every parameter row and every feature row must lie in the unit ball.
    """
    return EnvironmentSpec(instance=instance, theta=theta, phi=phi, link="logistic",
                           norm_bound=1.0)


def _draw(env: EnvironmentSpec, raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Realized outcomes around the means ``raw`` (any shape), drawn entry by entry in order."""
    if env.link == "logistic":
        return (rng.random(raw.shape) < raw).astype(float)
    vals = raw + rng.normal(0.0, math.sqrt(env.noise_variance), raw.shape)
    if env.bounded:
        vals.clip(0.0, 1.0, out=vals)
    return vals


def sample_outcome(env: EnvironmentSpec, arm: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one round's outcome row y = [reward | costs], shape (1+d,), for the pulled arm.

    The draws are added to the arm's cached row of ``env.outcome_means``.
    """
    K, d = env.instance.K, env.instance.d
    if not 0 <= arm < K:
        raise IndexError(f"arm {arm} out of range [0, {K})")
    if env.null_arm and arm == K - 1:
        return np.zeros(1 + d)
    return _draw(env, env.outcome_means[arm], rng)


def sample_outcomes(env: EnvironmentSpec, arms: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Outcome rows for a schedule of pulls, shape (len(arms), 1+d), in one draw.

    The rows and the generator's state equal those of calling
    ``sample_outcome`` once per entry of ``arms``, in order: the null arm's
    rows are zero and draw nothing, and the other rows draw their 1+d values
    each in turn from one block.
    """
    K, d = env.instance.K, env.instance.d
    arms = np.asarray(arms, dtype=np.int64)
    if arms.size and not (0 <= arms.min() and arms.max() < K):
        raise IndexError(f"arms out of range [0, {K})")
    out = np.zeros((arms.size, 1 + d))
    drawn = arms != K - 1 if env.null_arm else slice(None)
    out[drawn] = _draw(env, env.outcome_means[arms[drawn]], rng)
    return out


@dataclass
class RunTrace:
    """Record of one policy run.

    Per-round arrays are truncated at the stopping time tau; ``outcomes[t]``
    is round t's [reward | costs] row, and ``rewards`` and ``costs`` view its
    columns.  ``rhat`` and ``lam`` hold NaN for rounds where the policy made
    no oracle prediction (e.g. forced-exploration rounds).
    """

    arms: np.ndarray  # (tau,) int
    outcomes: np.ndarray  # (tau, 1+d)
    probs: np.ndarray  # (tau, K)
    rhat: np.ndarray  # (tau, K)
    lam: np.ndarray  # (tau, d)
    tau: int
    total_reward: float
    total_cost: np.ndarray  # (d,)
    stopped_early: bool = False
    aborted_in_exploration: bool = False
    gamma: float = field(default=float("nan"))
    dual_radius: float = field(default=float("nan"))

    @property
    def rewards(self) -> np.ndarray:  # (tau,)
        return self.outcomes[:, 0]

    @property
    def costs(self) -> np.ndarray:  # (tau, d)
        return self.outcomes[:, 1:]


def realized_regret(trace: RunTrace, opt_per_round: float, T: int) -> float:
    """T * OPT minus the reward actually collected through the stopping time."""
    return T * opt_per_round - trace.total_reward
