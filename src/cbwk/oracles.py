"""Online regression oracles and their online-to-batch conversion.

Two families are provided, both producing predictions clipped to [0, 1]:

* ``ogd`` -- projected online gradient descent on the squared loss with step
  size eta_scale / sqrt(t), projected onto the unit euclidean ball.
* ``glmtron`` -- a Newton-style residual update preconditioned by the inverse
  of A_t = I + sum_s phi_s phi_s^T (maintained by rank-one updates), followed
  by projection onto the unit ball in the metric induced by A_{t+1}.

A predictor is a stack of target rows over one feature map, all updated with
the same feature vector.  The rows therefore share one step count and, under
GLMtron, one Gram matrix A_t and its inverse, kept by a single Sherman-Morrison
update per sample however many rows the stack has.  The policy fits its reward
and its d costs over the environment's one feature map as one (1+d)-row stack,
and online-to-batch fits every target of an arm in one pass into one frozen
stack.  A scalar oracle is a one-row stack.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

PROJECTION_BISECTIONS = 20
_REINIT_DENOM_TOL = 1e-12


def _identity(z):
    return z


def _identity_slope(z):
    return np.ones_like(z)


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_slope(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


_LINKS = {"identity": (_identity, _identity_slope), "logistic": (_sigmoid, _sigmoid_slope)}


def _check_phi(phi, dim):
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (dim,):
        raise ConfigurationError(f"feature vector has shape {phi.shape}, expected ({dim},)")
    return phi


def _row_norms(v):
    """Euclidean norm of each row: np.linalg.norm(v, axis=1) without its dispatch cost."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _zero_nonfinite_rows(v, norms):
    """Reset to 0 every row of v whose norm is NaN or inf; return the new norms.

    A row with a NaN or inf entry has such a norm, and so has a finite row
    whose norm overflows.  Left in place, either would make every later
    iterate of that row NaN.
    """
    bad = ~np.isfinite(norms)
    v[bad] = 0.0
    return np.where(bad, 0.0, norms)


class VectorPredictor:
    """d target rows of one oracle family that share a feature map.

    Every row is updated with the same feature vector, so the rows share one
    step count and, under GLMtron, one Gram matrix A and its inverse: the
    Sherman-Morrison update, the reinitialization test and the eigenbasis of
    the A-norm projection are computed once per sample, not once per row.
    Each row's parameter still depends only on its own targets.  Inner
    products are taken with einsum, whose per-element kernel does not depend
    on the number of rows, so a d-row stack is bitwise equal to d one-row
    stacks fed the same stream.
    """

    def __init__(self, kind: str, d: int, dim: int, *, link: str = "identity",
                 eta_scale: float = 1.0):
        if kind not in ("ogd", "glmtron"):
            raise ConfigurationError(f"unknown oracle kind {kind!r}")
        if link not in _LINKS:
            raise ConfigurationError(f"unknown link {link!r}")
        if d < 1:
            raise ConfigurationError(f"d must be >= 1 (got {d})")
        self.kind = kind
        self.dim = dim
        self.link = link
        self.eta_scale = eta_scale
        self.theta = np.zeros((d, dim))
        self.t = 0
        self.reinit_count = 0  # rebuilds of the shared inverse Gram matrix
        if kind == "glmtron":
            self.A = np.eye(dim)
            self.A_inv = np.eye(dim)

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    # -- prediction ---------------------------------------------------------

    def _predict(self, phis) -> np.ndarray:
        phis = np.atleast_2d(np.asarray(phis, dtype=float))
        if phis.shape[1] != self.dim:
            raise ConfigurationError(
                f"feature matrix has {phis.shape[1]} columns, expected {self.dim}"
            )
        return _LINKS[self.link][0](np.einsum("kj,nj->kn", phis, self.theta)).clip(0.0, 1.0)

    def predict_matrix(self, phis) -> np.ndarray:
        """(K, dim) features -> (K, d) clipped predictions."""
        return self._predict(phis)

    # -- updates ------------------------------------------------------------

    def update(self, phi, y) -> None:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.d,):
            raise ConfigurationError(f"target vector has shape {y.shape}, expected ({self.d},)")
        self._step(_check_phi(phi, self.dim), y)

    def _step(self, phi, y):
        if self.kind == "ogd":
            self._ogd_step(phi, y)
        else:
            self._glmtron_step(phi, y)

    def _ogd_step(self, phi, y):
        link, slope = _LINKS[self.link]
        z = np.einsum("nj,j->n", self.theta, phi)
        self.t += 1
        eta = self.eta_scale / math.sqrt(self.t)
        coeff = eta * 2.0 * (link(z) - y)
        if link is not _identity:  # the identity's slope is 1
            coeff *= slope(z)
        theta = self.theta - coeff[:, None] * phi
        norms = _row_norms(theta)
        if not math.isfinite(np.add.reduce(norms)):  # some row may be non-finite
            norms = _zero_nonfinite_rows(theta, norms)
        theta /= np.maximum(norms, 1.0)[:, None]
        self.theta = theta

    def _glmtron_step(self, phi, y):
        link = _LINKS[self.link][0]
        with np.errstate(over="ignore", invalid="ignore"):
            resid = link(np.einsum("nj,j->n", self.theta, phi)) - y
            grad = resid[:, None] * phi

            q = self.A_inv @ phi
            denom = 1.0 + q @ phi
            self.A += phi[:, None] * phi
            bad = denom <= _REINIT_DENOM_TOL or not math.isfinite(denom)
            self.A_inv -= q[:, None] * q / (1.0 if bad else denom)
            if bad or not np.logical_and.reduce(np.isfinite(self.A_inv), axis=None):
                self._reinitialize()

            v = self.theta - np.einsum("ij,nj->ni", self.A_inv, grad)
            norms = _row_norms(v)
            if not math.isfinite(np.add.reduce(norms)):  # some row may be non-finite
                norms = _zero_nonfinite_rows(v, norms)
            if np.maximum.reduce(norms) > 1.0:
                over = norms > 1.0
                v[over] = _project_a_norm(self.A, v[over], norms[over])
                if not np.isfinite(v).all():  # a Gram matrix near overflow breaks the projection
                    v[~np.isfinite(v).all(axis=1)] = 0.0
            self.theta = v
            self.t += 1

    def _reinitialize(self):
        """Rebuild the inverse by direct inversion; reset a corrupt Gram matrix."""
        self.reinit_count += 1
        if np.isfinite(self.A).all():
            try:
                self.A_inv = np.linalg.inv(self.A)
                return
            except np.linalg.LinAlgError:
                pass
        self.A = np.eye(self.dim)
        self.A_inv = np.eye(self.dim)
        self.theta[~np.isfinite(self.theta).all(axis=1)] = 0.0


def _project_a_norm(A, v, norms):
    """Project rows of v onto the unit euclidean ball in the A-induced metric.

    Minimizes (w - v)^T A (w - v) over ||w|| <= 1.  The stationarity condition
    gives w(mu) = (A + mu I)^{-1} A v with ||w(mu)|| decreasing in mu, solved by
    bisection in A's eigenbasis, which all rows share.  mu = lambda_max (||v|| - 1)
    already forces ||w|| <= 1, so [0, that] brackets the root; the upper end of
    the final bracket is returned so the constraint is never violated.
    """
    eigvals, Q = np.linalg.eigh(A)
    lz = eigvals * np.einsum("ji,rj->ri", Q, v)
    lo = np.zeros(v.shape[0])
    hi = eigvals[-1] * (norms - 1.0)
    for _ in range(PROJECTION_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f = ((lz / (eigvals + mid[:, None])) ** 2).sum(axis=1)
        above = f > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    coords = lz / (eigvals + hi[:, None])
    return np.einsum("ji,ri->rj", Q, coords)


class OnlinePredictor(VectorPredictor):
    """Scalar online regression oracle: a one-row stack with scalar targets."""

    def __init__(self, kind: str, dim: int, *, link: str = "identity", eta_scale: float = 1.0):
        super().__init__(kind, 1, dim, link=link, eta_scale=eta_scale)

    def predict(self, phi) -> float:
        return float(self._predict(_check_phi(phi, self.dim)[None, :])[0, 0])

    def predict_matrix(self, phis) -> np.ndarray:
        return self._predict(phis)[:, 0]

    def update(self, phi, y: float) -> None:
        self._step(_check_phi(phi, self.dim), np.array([float(y)]))


def make_predictor(kind: str, dim: int, *, link: str = "identity",
                   eta_scale: float = 1.0) -> OnlinePredictor:
    return OnlinePredictor(kind, dim, link=link, eta_scale=eta_scale)


def make_vector_predictor(kind: str, d: int, dim: int, *, link: str = "identity",
                          eta_scale: float = 1.0) -> VectorPredictor:
    return VectorPredictor(kind, d, dim, link=link, eta_scale=eta_scale)


class BatchPredictor:
    """Frozen average of an online oracle stack's iterates over one dataset."""

    def __init__(self, params: np.ndarray, link: str):
        self.params = params  # (n, M, dim): row j's theta before consuming sample i
        self.link = link

    def predict_matrix(self, phis) -> np.ndarray:
        """(K, dim) features -> (K, n) clipped predictions, as VectorPredictor gives."""
        phis = np.atleast_2d(np.asarray(phis, dtype=float))
        vals = np.clip(_LINKS[self.link][0](self.params @ phis.T), 0.0, 1.0)
        return vals.mean(axis=1).T


def online_to_batch(kind: str, features, targets, *, link: str = "identity",
                    eta_scale: float = 1.0) -> BatchPredictor:
    """Run the online oracle once through the dataset and average its iterates.

    The i-th recorded iterate is the predictor *before* consuming sample i, so
    the result is the uniform average of the M prediction functions the online
    oracle would have played.  Targets of shape (M, n) are fitted in one pass
    of an n-row stack over the shared features; targets of shape (M,) are one
    column.  The result predicts all n targets at once.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if targets.ndim not in (1, 2) or targets.shape[0] < 1:
        raise ConfigurationError("online-to-batch conversion needs a nonempty dataset")
    M = targets.shape[0]
    if features.shape[0] != M:
        raise ConfigurationError("features and targets disagree on sample count")
    columns = targets.reshape(M, -1)
    oracle = VectorPredictor(kind, columns.shape[1], features.shape[1], link=link,
                             eta_scale=eta_scale)
    params = np.empty((columns.shape[1], M, features.shape[1]))
    for i in range(M):
        params[:, i] = oracle.theta
        oracle.update(features[i], columns[i])
    return BatchPredictor(params, link)


@dataclass(frozen=True)
class OracleBoundSpec:
    """Closed-form regression-regret bounds for one oracle family.

    ``reward_bound(T)`` and ``cost_bound(T)`` are the cumulative squared-error
    bounds used to size the policy's learning rate; the cost bound covers the
    full d-coordinate oracle.
    """

    reward_bound: Callable[[float], float]
    cost_bound: Callable[[float], float]


def bound_spec(kind: str, m: int, d: int, scale: float = 1.0) -> OracleBoundSpec:
    if kind == "glmtron":
        return OracleBoundSpec(
            reward_bound=lambda T: scale * m * max(1.0, np.log(T)),
            cost_bound=lambda T: scale * d * m * max(1.0, np.log(T)),
        )
    if kind == "ogd":
        return OracleBoundSpec(
            reward_bound=lambda T: scale * np.sqrt(T),
            cost_bound=lambda T: scale * d * np.sqrt(T),
        )
    raise ConfigurationError(f"unknown oracle kind {kind!r}")

