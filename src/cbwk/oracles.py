"""Online regression oracles and their online-to-batch conversion.

Two families are provided, both producing predictions clipped to [0, 1]:

* ``ogd`` -- projected online gradient descent on the squared loss with step
  size 1 / sqrt(t), projected onto the unit euclidean ball.
* ``glmtron`` -- a Newton-style residual update preconditioned by the inverse
  of A_t = I + sum_s phi_s phi_s^T (maintained by rank-one updates), followed
  by projection onto the unit ball in the metric induced by A_{t+1}.

A predictor holds S stacks of target rows.  The rows of a stack are updated
with the same feature vector, so they share, under GLMtron, one Gram matrix
A_t and its inverse, kept by a single Sherman-Morrison update per sample
however many rows the stack has.  Stacks are independent oracles stepped
together.  The policy fits its reward and its d costs as one (1+d)-row stack,
and online-to-batch fits the K arms of two-stage's phase one as K stacks in one
pass.  A scalar oracle is one stack of one row: ``VectorPredictor(kind, 1, dim)``.

A sample whose feature rows are all zero, such as the null arm's, changes
neither A nor A^{-1}, and its gradient term is 0, so the step is only its
tail, ``_bound``, on the current rows; ``update`` computes just that.  Every
step that moves theta assigns a new array and never writes into the previous
one, so while ``theta`` is the same array the parameters have not moved, and
a caller may keep the predictions it made from them.
"""

import math

import numpy as np

from .errors import ConfigurationError, raise_if_any, range_violations

ORACLE_KINDS = ("glmtron", "ogd")
PROJECTION_BISECTIONS = 20
_REINIT_DENOM_TOL = 1e-12


def _identity(z):
    return z


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


# link -> (link, slope); the identity's slope is 1, which the OGD step never multiplies by
_LINKS = {"identity": (_identity, None), "logistic": (_sigmoid, _sigmoid_slope)}


def _rows(arr, shape, what):
    """``arr`` as a float array of ``shape`` (stacks, width); one stack may omit its axis."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        if shape[0] != 1 or arr.shape != shape[1:]:
            raise ConfigurationError(f"{what} has shape {arr.shape}, expected {shape}")
        arr = arr[None]
    return arr


def _row_norms(v):
    """Euclidean norm of each row: np.linalg.norm(v, axis=-1) without its dispatch cost."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def sherman_morrison(A_inv, phi) -> list:
    """A^{-1} <- (A + x x^T)^{-1} in place, for each stack's (r, r) inverse and row x of phi.

    A denominator 1 + x^T A^{-1} x not finite and above ``_REINIT_DENOM_TOL`` is
    taken as 1; the S returned bools flag those stacks for the caller to rebuild."""
    q = A_inv @ phi[:, :, None]  # (S, r, 1)
    denom = 1.0 + phi[:, None, :] @ q  # (S, 1, 1), tested as S Python floats: cheaper
    bad = [not _REINIT_DENOM_TOL < x < math.inf for x in denom.ravel().tolist()]
    if any(bad):
        denom[bad] = 1.0
    A_inv -= q * q.swapaxes(1, 2) / denom
    return bad


class VectorPredictor:
    """S stacks of d target rows of one oracle family, stepped together.

    Each sample gives every stack its own feature row and d targets.  The d
    rows of a stack are updated with the same feature row, so they share,
    under GLMtron, one Gram matrix A and its inverse: the Sherman-Morrison
    update, the reinitialization test and the eigenbasis of the A-norm
    projection are computed once per stack and sample, not once per row.
    Stacks share only the step count, so S stacks are S independent oracles
    run in one step: the policy runs one stack, and two-stage's phase one
    runs one per arm.  Each row's parameter still depends only on its own
    targets.  Row inner products are taken with einsum, whose per-element
    kernel does not depend on the number of rows, so a d-row stack is bitwise
    equal to d one-row stacks fed the same stream.  The Gram products use
    batched matmul, which runs each stack's 2-D BLAS products.
    """

    def __init__(self, kind: str, d: int, dim: int, *, stacks: int = 1,
                 link: str = "identity"):
        problems = range_violations({"d": d, "stacks": stacks, "dim": dim},
                                    (("d", ">=", 1), ("stacks", ">=", 1), ("dim", ">=", 0)))
        if kind not in ORACLE_KINDS:
            problems.append(f"unknown oracle kind {kind!r}")
        if link not in _LINKS:
            problems.append(f"unknown link {link!r}")
        raise_if_any(problems)
        self.kind = kind
        self.dim = dim
        self.link = link
        self.theta = np.zeros((stacks, d, dim))
        self.t = 0
        self.reinit_count = 0  # rebuilds of some stack's inverse Gram matrix
        self._settled = None  # the theta a zero-feature step last found finite and inside 1
        if kind == "glmtron":
            self.A = np.tile(np.eye(dim), (stacks, 1, 1))
            self.A_inv = self.A.copy()

    @property
    def d(self) -> int:
        """Target rows per stack."""
        return self.theta.shape[1]

    # -- prediction ---------------------------------------------------------

    def predict_matrix(self, phis) -> np.ndarray:
        """(K, dim) features, shared by every stack -> (S, K, d) clipped predictions."""
        phis = np.asarray(phis, dtype=float)
        if phis.ndim != 2 or phis.shape[1] != self.dim:
            raise ConfigurationError(
                f"feature matrix has shape {phis.shape}, expected (K, {self.dim})"
            )
        return _LINKS[self.link][0](np.einsum("kj,snj->skn", phis, self.theta)).clip(0.0, 1.0)

    # -- updates ------------------------------------------------------------

    def update(self, phi, y) -> None:
        """One sample: (S, dim) feature rows and (S, d) targets, one row of each per stack.

        A single stack also takes a (dim,) feature row and (d,) targets.  A
        sample whose feature rows are all zero takes ``_zero_feature_step``,
        which is the full step's result computed without its algebra.
        """
        stacks = self.theta.shape[0]
        phi = _rows(phi, (stacks, self.dim), "feature matrix")
        y = _rows(y, (stacks, self.d), "target matrix")
        if np.count_nonzero(phi) or not self._zero_feature_step(y):
            self._step(phi, y)

    def _zero_feature_step(self, y) -> bool:
        """The step on all-zero feature rows, if it is exact; else False and no change.

        With phi = 0 the gradient term (resid x phi) is 0, and A and A^{-1}
        gain exactly 0, so the step reduces to ``_bound`` on a copy of the
        current rows, which moves them only if some row lies above 1, and
        otherwise to counting the step.  That holds while the targets, theta
        and (GLMtron) A and A^{-1} are finite; OGD also needs 2 (link(0) - y)
        finite, which y.y finite implies.  Otherwise the full step runs, with
        its repairs.  theta is replaced only when a row moves.

        A and A^{-1} change only inside a step that also assigns theta, so
        the checks of theta, A and A^{-1} and the top row norm hold for as
        long as ``theta`` is the array they were made on; ``_settled`` keeps
        that array, and a later zero-feature step checks only y.
        """
        # each sum of squares is inf or NaN if an entry is, or near overflow;
        # tested apart, so that no test itself overflows and warns
        if not math.isfinite(np.vdot(y, y)):
            return False
        theta = self.theta
        if theta is not self._settled:
            if not math.isfinite(np.vdot(theta, theta)):
                return False
            if self.kind == "glmtron" and not (math.isfinite(np.vdot(self.A, self.A))
                                               and math.isfinite(np.vdot(self.A_inv, self.A_inv))):
                return False
            squares = np.add.reduce(theta * theta, axis=-1)  # as in _row_norms
            if math.sqrt(max(squares.ravel().tolist())) > 1.0:  # the tail's top row norm
                with np.errstate(over="ignore", invalid="ignore"):  # as in _glmtron_step
                    self._bound(theta.copy())
                return True
            self._settled = theta
        self.t += 1
        return True

    def _step(self, phi, y):
        if self.kind == "ogd":
            self._ogd_step(phi, y)
        else:
            self._glmtron_step(phi, y)

    def _ogd_step(self, phi, y):
        link, slope = _LINKS[self.link]
        z = np.einsum("snj,sj->sn", self.theta, phi)
        eta = 1.0 / math.sqrt(self.t + 1)
        coeff = eta * 2.0 * (link(z) - y)
        if slope is not None:
            coeff *= slope(z)
        self._bound(self.theta - coeff[:, :, None] * phi[:, None, :])

    def _glmtron_step(self, phi, y):
        link = _LINKS[self.link][0]
        col, row = phi[:, :, None], phi[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            resid = link(np.einsum("snj,sj->sn", self.theta, phi)) - y
            grad = resid[:, :, None] * row

            self.A += col * row
            bad = sherman_morrison(self.A_inv, phi)
            both = self.A + self.A_inv  # not finite where A or A_inv is; A can overflow alone
            if any(bad) or not math.isfinite(np.add.reduce(both, axis=None)):
                self._reinitialize(np.array(bad) | ~np.isfinite(both).all(axis=(1, 2)))

            self._bound(self.theta - np.einsum("sij,snj->sni", self.A_inv, grad))

    def _bound(self, v):
        """End a step: v's rows put back in the unit ball become theta, and the step counts.

        A row whose norm is NaN or inf, as is a row with a NaN or inf entry or
        a finite row whose norm overflows, restarts at 0; left in place it
        would make every later iterate of that row NaN.  If some row lies
        outside the ball, OGD divides each row by max(||theta||, 1) and
        GLMtron projects in its stack's A-norm.  v is written in place.
        """
        norms = _row_norms(v)
        top = np.maximum.reduce(norms, axis=None)  # NaN if some row's norm is
        if not math.isfinite(top):
            bad = ~np.isfinite(norms)
            v[bad] = 0.0
            norms = np.where(bad, 0.0, norms)
            top = np.maximum.reduce(norms, axis=None)
        if top > 1.0:
            if self.kind == "ogd":
                v /= np.maximum(norms, 1.0)[:, :, None]
            else:
                self._project(v, norms)
        self.theta = v
        self.t += 1

    def _project(self, v, norms):
        """Project, stack by stack, every row of v outside the unit ball in its stack's A-norm."""
        for s in np.flatnonzero(np.maximum.reduce(norms, axis=1) > 1.0):
            over = norms[s] > 1.0
            try:
                v[s, over] = _project_a_norm(self.A[s], v[s, over], norms[s, over])
            except np.linalg.LinAlgError:  # eigh failed: restart the metric
                self._reset(s)
                v[s, over] = _project_a_norm(self.A[s], v[s, over], norms[s, over])
        if not np.isfinite(v).all():  # a Gram matrix near overflow breaks the projection
            v[~np.isfinite(v).all(axis=2)] = 0.0

    def _reinitialize(self, stacks):
        """Rebuild each flagged stack's inverse by direct inversion; reset a corrupt Gram matrix.

        A reset stack's non-finite rows are zeroed in a copy of theta, as
        every step leaves the theta array it started from unchanged.
        """
        for s in np.flatnonzero(stacks):
            if np.isfinite(self.A[s]).all():
                try:
                    self.A_inv[s] = np.linalg.inv(self.A[s])
                    self.reinit_count += 1
                    continue
                except np.linalg.LinAlgError:
                    pass
            self._reset(s)
            theta = self.theta = self.theta.copy()
            theta[s, ~np.isfinite(theta[s]).all(axis=1)] = 0.0

    def _reset(self, s):
        """Restart stack s at the identity metric."""
        self.reinit_count += 1
        self.A[s] = np.eye(self.dim)
        self.A_inv[s] = np.eye(self.dim)


def _project_a_norm(A, v, norms):
    """Project rows of v onto the unit euclidean ball in the A-induced metric.

    Minimizes (w - v)^T A (w - v) over ||w|| <= 1.  The stationarity condition
    gives w(mu) = (A + mu I)^{-1} A v with ||w(mu)|| decreasing in mu, solved by
    bisection in A's eigenbasis, which all rows share.  mu = lambda_max (||v|| - 1)
    already forces ||w|| <= 1, so [0, that] brackets the root; the upper end of
    the final bracket is returned so the constraint is never violated.
    """
    eigvals, Q = np.linalg.eigh(A)
    if not np.isfinite(eigvals).all():  # a Gram matrix near overflow can give NaN without raising
        raise np.linalg.LinAlgError("eigenvalues are not finite")
    lz = eigvals * np.einsum("ji,rj->ri", Q, v)
    hi = np.empty(v.shape[0])  # the upper end of each row's final bracket
    for i, z in enumerate(lz):  # most projections move one row: bisect on Python floats
        lo, up = 0.0, float(eigvals[-1] * (norms[i] - 1.0))
        for _ in range(PROJECTION_BISECTIONS):
            mid = 0.5 * (lo + up)
            if ((z / (eigvals + mid)) ** 2).sum() > 1.0:
                lo = mid
            else:
                up = mid
        hi[i] = up
    coords = lz / (eigvals + hi[:, None])
    return np.einsum("ji,ri->rj", Q, coords)


class OnlinePredictor(VectorPredictor):
    """A one-stack, one-row ``VectorPredictor``; the library itself builds none.

    Kept, with ``make_predictor``, because ``perfbench/tracer.py`` patches the
    ``predict_matrix`` and ``update`` methods this class inherits.
    """

    def __init__(self, kind: str, dim: int, *, link: str = "identity"):
        super().__init__(kind, 1, dim, link=link)


def make_predictor(kind: str, dim: int, *, link: str = "identity") -> OnlinePredictor:
    return OnlinePredictor(kind, dim, link=link)


def make_vector_predictor(kind: str, d: int, dim: int, *,
                          link: str = "identity") -> VectorPredictor:
    return VectorPredictor(kind, d, dim, link=link)


class BatchPredictor:
    """Frozen average of an online oracle's iterates over one dataset, per stack."""

    def __init__(self, params: np.ndarray, link: str):
        self.params = params  # (S, n, M, dim): stack s, row j's theta before consuming sample i
        self.link = link

    def predict_matrix(self, phis) -> np.ndarray:
        """(S, K, dim) features, stack s predicted at phis[s] -> (S, K, n) clipped predictions."""
        phis = np.asarray(phis, dtype=float)
        stacks, dim = self.params.shape[0], self.params.shape[3]
        if phis.ndim != 3 or phis.shape[0] != stacks or phis.shape[2] != dim:
            raise ConfigurationError(
                f"feature array has shape {phis.shape}, expected ({stacks}, K, {dim})"
            )
        vals = np.clip(_LINKS[self.link][0](self.params @ phis.swapaxes(1, 2)[:, None]), 0.0, 1.0)
        return vals.mean(axis=2).transpose(0, 2, 1)


def online_to_batch(kind: str, features, targets, *, link: str = "identity") -> BatchPredictor:
    """Run the online oracle once through the dataset and average its iterates.

    The i-th recorded iterate is the predictor *before* consuming sample i, so
    the result is the uniform average of the M prediction functions the online
    oracle would have played.  Features (M, S, dim) and targets (M, S, n) are
    S datasets of M samples, fitted in M steps of one S-stack oracle: stack s
    sees only features[:, s] and targets[:, s].  The result predicts all S
    stacks' n targets at once.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 0 or targets.shape[0] < 1:
        raise ConfigurationError("online-to-batch conversion needs a nonempty dataset")
    if features.ndim != 3 or targets.ndim != 3 or features.shape[:2] != targets.shape[:2]:
        raise ConfigurationError("features (M, S, dim) and targets (M, S, n) disagree in shape")
    M, stacks, dim = features.shape
    oracle = VectorPredictor(kind, targets.shape[2], dim, stacks=stacks, link=link)
    params = np.empty((stacks, targets.shape[2], M, dim))
    for i in range(M):
        params[:, :, i] = oracle.theta
        oracle.update(features[i], targets[i])
    return BatchPredictor(params, link)


def regret_bounds(kind: str, m: int, d: int, n: int,
                  scale: float = 1.0) -> tuple[float, float]:
    """Closed-form regression-regret bounds (Reg_r(n), Reg_c(n)) of one oracle family.

    They are the cumulative squared-error bounds after n steps that size the
    policy's learning rate; the cost bound covers the full d-coordinate oracle.
    """
    if kind == "glmtron":
        return scale * m * max(1.0, np.log(n)), scale * d * m * max(1.0, np.log(n))
    if kind == "ogd":
        return scale * np.sqrt(n), scale * d * np.sqrt(n)
    raise ConfigurationError(f"unknown oracle kind {kind!r}")
