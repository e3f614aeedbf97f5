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

The d+1 coordinates are Python floats: at this size NumPy's per-call cost
exceeds the arithmetic.  The step is the array formula term by term, except
that ``math.exp`` and a left-to-right sum may differ from NumPy's in the last
bit.  The prices Z * w[:-1] are computed once per step and cached.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, raise_if_any, range_violations


@dataclass
class DualState:
    logw: list  # (d+1,) unnormalized log-weights as floats; last entry is the slack
    Z: float
    eta: float
    t: int = 0
    lam: np.ndarray = field(init=False)  # (d,) prices Z * weights[:-1]; read, never written

    def __post_init__(self):
        self.logw = np.asarray(self.logw, dtype=float).tolist()
        self._normalize()

    def _normalize(self) -> None:
        top = max(self.logw)
        logw = self.logw = [x - top for x in self.logw]
        w = [math.exp(x) for x in logw]
        total = sum(w)
        self._w = w = [x / total for x in w]
        Z = self.Z
        self.lam = np.array([Z * x for x in w[:-1]])

    @property
    def weights(self) -> np.ndarray:
        """(d+1,) normalized exp(logw), the slack last."""
        return np.array(self._w)

    @property
    def d(self) -> int:
        return len(self.logw) - 1


def dual_init(d: int, Z: float, T: int) -> DualState:
    """Uniform start on the d+1 simplex with eta = sqrt(log(d+1) / T)."""
    raise_if_any(range_violations({"d": d, "Z": Z, "T": T},
                                  (("d", ">=", 1), ("Z", ">", 0), ("T", ">=", 1))))
    eta = math.sqrt(math.log(d + 1) / T)
    return DualState(logw=[0.0] * (d + 1), Z=float(Z), eta=eta)


def dual_lambda(state: DualState) -> np.ndarray:
    """Current prices: Z times the resource coordinates of the simplex point.

    The array is the state's cached ``lam``; the next update replaces it.
    """
    return state.lam


def dual_update(state: DualState, cost: np.ndarray, budget_rate: float) -> None:
    """Multiplicative update after observing one round's realized cost.

    Over-consumption (c > B/T) raises the corresponding price: the resource
    log-weights move by -eta (B/T - c), the slack's by zero, and the weights
    are renormalized after shifting the largest log-weight to 0.  A cost
    that is NaN or infinite raises instead of turning every price into NaN.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (state.d,):
        raise ConfigurationError(f"cost has shape {cost.shape}, expected ({state.d},)")
    cost = cost.tolist()
    if not all(map(math.isfinite, cost)):
        raise ValueError(f"cost {cost} is not finite")
    logw, eta = state.logw, state.eta
    for i, c in enumerate(cost):
        logw[i] += eta * (c - budget_rate)
    state._normalize()
    state.t += 1
