"""Exponentiated-gradient dual prices over the rescaled simplex.

The price vector lambda lives in {lambda >= 0, ||lambda||_1 <= Z}.  Adding a
slack coordinate and dividing by Z turns that set into the probability simplex
on d+1 coordinates, where normalized exponentiated gradient applies.  The
resource coordinates see gradient (B/T - c_t); the slack coordinate sees zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class DualState:
    weights: np.ndarray  # (d+1,) probability vector; last entry is the slack
    Z: float
    eta: float
    t: int = 0

    @property
    def d(self) -> int:
        return self.weights.size - 1


def dual_init(d: int, Z: float, T: int) -> DualState:
    """Uniform start on the d+1 simplex with eta = sqrt(log(d+1) / T)."""
    problems = []
    if Z <= 0:
        problems.append(f"Z must be positive (got {Z})")
    if T < 1:
        problems.append(f"T must be >= 1 (got {T})")
    if d < 1:
        problems.append(f"d must be >= 1 (got {d})")
    if problems:
        raise ConfigurationError(problems)
    eta = math.sqrt(math.log(d + 1) / T)
    return DualState(weights=np.full(d + 1, 1.0 / (d + 1)), Z=float(Z), eta=eta)


def dual_lambda(state: DualState) -> np.ndarray:
    """Current prices: Z times the resource coordinates of the simplex point."""
    return state.Z * state.weights[:-1]


def dual_update(state: DualState, cost: np.ndarray, budget_rate: float) -> None:
    """Multiplicative update after observing one round's realized cost.

    Over-consumption (c > B/T) raises the corresponding price; the update is
    computed in log space with max subtraction before normalizing back onto
    the simplex.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (state.d,):
        raise ConfigurationError(f"cost has shape {cost.shape}, expected ({state.d},)")
    grad = np.zeros(state.d + 1)
    grad[:-1] = budget_rate - cost
    with np.errstate(divide="ignore"):
        logw = np.log(state.weights) - state.eta * grad
    logw -= logw.max()
    w = np.exp(logw)
    state.weights = w / w.sum()
    state.t += 1
