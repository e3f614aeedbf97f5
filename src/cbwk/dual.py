"""Exponentiated-gradient dual prices over the rescaled simplex.

The price vector lambda lives in {lambda >= 0, ||lambda||_1 <= Z}.  Adding a
slack coordinate and dividing by Z turns that set into the probability simplex
on d+1 coordinates, where normalized exponentiated gradient applies.  The
resource coordinates see gradient (B/T - c_t); the slack coordinate sees zero.

The state keeps unnormalized log-weights, so an update is one add, one max
shift and one normalizing exp: the weights after t updates are
exp(-eta * sum of gradients) up to normalization, however small a weight gets.
A weight whose log-weight falls more than about 745 below the largest reads
exactly 0, but its log-weight is kept, and it recovers when the gradients turn.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, raise_if_any, range_violations


@dataclass
class DualState:
    logw: np.ndarray  # (d+1,) unnormalized log-weights; last entry is the slack
    Z: float
    eta: float
    t: int = 0
    weights: np.ndarray = field(init=False)  # (d+1,) normalized exp(logw)

    def __post_init__(self):
        self.logw = np.array(self.logw, dtype=float)
        self._normalize()

    def _normalize(self) -> None:
        logw = self.logw
        logw -= np.maximum.reduce(logw)
        w = np.exp(logw)
        w /= np.add.reduce(w)
        self.weights = w

    @property
    def d(self) -> int:
        return self.logw.size - 1


def dual_init(d: int, Z: float, T: int) -> DualState:
    """Uniform start on the d+1 simplex with eta = sqrt(log(d+1) / T)."""
    raise_if_any(range_violations({"d": d, "Z": Z, "T": T},
                                  (("d", ">=", 1), ("Z", ">", 0), ("T", ">=", 1))))
    eta = math.sqrt(math.log(d + 1) / T)
    return DualState(logw=np.zeros(d + 1), Z=float(Z), eta=eta)


def dual_lambda(state: DualState) -> np.ndarray:
    """Current prices: Z times the resource coordinates of the simplex point."""
    return state.Z * state.weights[:-1]


def dual_update(state: DualState, cost: np.ndarray, budget_rate: float) -> None:
    """Multiplicative update after observing one round's realized cost.

    Over-consumption (c > B/T) raises the corresponding price: the resource
    log-weights move by -eta (B/T - c), the slack's by zero, and the weights
    are renormalized after shifting the largest log-weight to 0.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (state.d,):
        raise ConfigurationError(f"cost has shape {cost.shape}, expected ({state.d},)")
    state.logw[:-1] += state.eta * (cost - budget_rate)
    state._normalize()
    state.t += 1
