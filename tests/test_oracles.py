import math
import warnings

import numpy as np
import pytest

from cbwk import oracles
from cbwk.errors import ConfigurationError
from cbwk.oracles import (
    BatchPredictor,
    VectorPredictor,
    online_to_batch,
    regret_bounds,
)

E1 = np.eye(3)[0]


def predict(o, phi) -> float:
    """A scalar oracle's prediction at one feature row."""
    return float(o.predict_matrix(np.asarray(phi)[None])[0, 0, 0])


def test_predict_zero_parameter():
    o = VectorPredictor("ogd", 1, 3)
    assert predict(o, np.array([0.3, -0.2, 0.9])) == 0.0


def test_predict_inner_product_and_clipping():
    o = VectorPredictor("ogd", 1, 3)
    o.theta[0] = E1
    assert predict(o, 0.7 * E1) == pytest.approx(0.7, abs=1e-12)
    assert predict(o, 1.4 * E1) == 1.0


def test_predict_shape_error():
    o = VectorPredictor("ogd", 1, 3)
    with pytest.raises(ConfigurationError):
        predict(o, np.ones(4))
    with pytest.raises(ConfigurationError):
        o.predict_matrix(E1)  # one feature row is a (1, dim) matrix


def test_ogd_zero_gradient_fixed_point():
    o = VectorPredictor("ogd", 1, 3)
    o.update(E1, [0.0])
    assert (o.theta == 0.0).all()


def test_ogd_one_step_hand_value():
    # theta=0, phi=e1, y=1, eta_1=1: gradient -2 e1, projection of 2 e1 is e1.
    o = VectorPredictor("ogd", 1, 3)
    o.update(E1, [1.0])
    assert np.allclose(o.theta, E1, atol=1e-12)
    assert o.t == 1


def test_ogd_projection_contract():
    o = VectorPredictor("ogd", 1, 3)
    o.update(3.0 * E1, [5.0])  # pre-projection iterate far outside the ball
    assert np.linalg.norm(o.theta) == pytest.approx(1.0, abs=1e-12)


def test_glmtron_zero_residual_noop():
    o = VectorPredictor("glmtron", 1, 2)
    o.theta[0] = np.array([0.5, 0.0])
    phi = np.array([0.8, 0.0])
    o.update(phi, [0.4])  # prediction exactly 0.4
    assert np.allclose(o.theta, [0.5, 0.0], atol=1e-12)


def test_glmtron_sherman_morrison_hand_value():
    o = VectorPredictor("glmtron", 1, 2)
    o.update(np.array([1.0, 0.0]), [1.0])
    assert np.allclose(o.A, [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(o.A_inv, [[0.5, 0.0], [0.0, 1.0]], atol=1e-12)


def test_rank_one_updates_match_direct_inversion():
    rng = np.random.default_rng(0)
    m = 8
    o = VectorPredictor("glmtron", 1, m)
    acc = np.eye(m)
    for _ in range(1000):
        phi = rng.normal(size=m)
        phi /= max(np.linalg.norm(phi), 1.0)
        acc += np.outer(phi, phi)
        o.update(phi, [rng.random()])
    direct = np.linalg.inv(acc)
    assert np.linalg.norm(o.A_inv - direct) <= 1e-6
    # still positive definite
    np.linalg.cholesky(o.A_inv)


def test_projection_invariant_adversarial_updates():
    rng = np.random.default_rng(1)
    for kind in ("ogd", "glmtron"):
        o = VectorPredictor(kind, 1, 4)
        for _ in range(10**5):
            phi = rng.normal(size=4) * rng.choice([0.1, 1.0, 5.0])
            o.update(phi, [rng.choice([-3.0, 0.0, 1.0, 4.0])])
            assert np.linalg.norm(o.theta) <= 1.0 + 1e-9


def test_glmtron_reinitialization_path():
    o = VectorPredictor("glmtron", 1, 4)
    rng = np.random.default_rng(2)
    phi = np.full(4, 0.5)
    one = np.array([1.0])
    for _ in range(10**6):
        o.update(phi, one)
    # corrupting feature overflows the accumulated matrix
    o.update(np.full(4, 1e170), one)
    assert o.reinit_count >= 1
    for _ in range(10):
        o.update(rng.normal(size=4) / 2, [0.5])
    assert np.isfinite(predict(o, phi))
    assert 0.0 <= predict(o, phi) <= 1.0


def test_glmtron_repairs_overflow_under_its_own_errstate():
    # The step silences only its own floating-point errors: a caller that
    # raises on overflow, or turns warnings into errors, still gets a
    # repaired A with its matching inverse, and the zero-feature step's
    # projection repairs its row the same way.
    o = VectorPredictor("glmtron", 1, 4)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        o.update(np.full(4, 1e170), [1.0])  # A overflows and restarts
        assert o.reinit_count == 1
        assert (o.A == np.eye(4)).all() and (o.A_inv == np.eye(4)).all()
        o.theta = np.full((1, 1, 4), 2.0)  # a row outside the unit ball
        o.A[0] = 0.0  # zeroed from outside: the projection divides 0 by 0
        o.update(np.zeros(4), [0.5])
    assert (o.theta == 0.0).all() and o.t == 2


def test_ogd_recovers_from_a_nan_target():
    o = VectorPredictor("ogd", 1, 2)
    with np.errstate(invalid="ignore"):
        o.update(np.array([0.6, 0.8]), np.array([np.nan]))
    assert (o.theta == 0.0).all()  # the poisoned row restarts at 0
    rng = np.random.default_rng(3)
    for _ in range(100):
        o.update(rng.normal(size=2) / 2, np.array([0.5]))
    assert np.isfinite(o.theta).all() and np.linalg.norm(o.theta) <= 1.0 + 1e-12
    assert np.isfinite(o.predict_matrix(np.eye(2))).all()


def test_glmtron_zeroes_a_finite_row_whose_norm_overflows():
    # The second sample near 1e100 leaves the pre-projection row with finite
    # entries whose norm overflows; projecting it with norm inf gave NaN.
    o = VectorPredictor("glmtron", 1, 2)
    rng = np.random.default_rng(1)
    with np.errstate(over="ignore", invalid="ignore"):
        o.update(rng.normal(size=2) * 1e100, np.array([1.0]))
        assert 0.99 < np.linalg.norm(o.theta) <= 1.0  # projected onto the ball's edge
        o.update(rng.normal(size=2) * 1e100, np.array([1.0]))
    assert (o.theta == 0.0).all()
    for _ in range(100):
        o.update(rng.normal(size=2) / 2, np.array([0.5]))
    assert np.isfinite(o.theta).all() and np.linalg.norm(o.theta) <= 1.0 + 1e-9
    assert np.isfinite(o.predict_matrix(np.eye(2))).all()


def test_glmtron_restarts_a_stack_whose_projection_fails():
    # A Gram matrix that overflowed while its inverse stayed finite would
    # break the projection's eigendecomposition.  The stack whose iterate
    # leaves the ball restarts at the identity metric, counts one
    # reinitialization and is projected in that metric; the other stack is
    # what a one-stack oracle fed its samples gives.
    sign = np.array([1.0, -1.0, -1.0])
    o = VectorPredictor("glmtron", 1, 3, stacks=2)
    o.A[0] = np.outer(sign, sign) * np.inf
    phi = np.full(3, 0.5)
    o.update(np.array([phi, phi]), np.array([[4.0], [4.0]]))
    assert o.reinit_count == 1
    assert (o.A[0] == np.eye(3)).all() and (o.A_inv[0] == np.eye(3)).all()
    assert 0.99 < np.linalg.norm(o.theta[0]) <= 1.0
    calm = VectorPredictor("glmtron", 1, 3)
    calm.update(phi, np.array([4.0]))
    assert (o.theta[1] == calm.theta[0]).all() and (o.A[1] == calm.A[0]).all()


def test_glmtron_restarts_a_stack_whose_gram_matrix_overflows():
    # The second sample overflows A += phi phi^T to inf while A_inv stays
    # finite, so the denominator 1 + phi.A_inv.phi (about 1e10) passes.  The
    # reinitialization test also sees A: that stack restarts at the identity
    # metric and counts one reinitialization; the other stack is untouched.
    big, calm_phi = np.array([1e154, 0.5]), np.array([0.5, 0.5])
    o = VectorPredictor("glmtron", 1, 2, stacks=2)
    calm = VectorPredictor("glmtron", 1, 2)
    with np.errstate(all="ignore"):
        for _ in range(2):
            o.update(np.array([big, calm_phi]), np.array([[4.0], [4.0]]))
            calm.update(calm_phi, np.array([4.0]))
    assert o.reinit_count == 1
    assert (o.A[0] == np.eye(2)).all() and (o.A_inv[0] == np.eye(2)).all()
    assert np.isfinite(o.theta).all()
    assert (o.theta[1] == calm.theta[0]).all() and (o.A[1] == calm.A[0]).all()


def test_projection_restarts_a_metric_whose_eigenvalues_are_not_finite():
    # eigh returns NaN eigenvalues for this overflowed Gram matrix without
    # raising.  The projection treats that as a failed decomposition, so the
    # stack restarts at the identity metric and its row is projected there
    # instead of being zeroed.
    A = np.array([[np.inf, 5e154], [5e154, 1.25]])
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
        oracles._project_a_norm(A, np.array([[3.0, 4.0]]), np.array([5.0]))
    o = VectorPredictor("glmtron", 1, 2)
    o.A[0] = A
    v = np.array([[[3.0, 4.0]]])
    with np.errstate(all="ignore"):
        o._project(v, np.array([[5.0]]))
    assert o.reinit_count == 1 and (o.A[0] == np.eye(2)).all()
    assert np.allclose(v[0, 0], [0.6, 0.8])


@pytest.mark.parametrize("features", ["pulled", "zero"])
@pytest.mark.parametrize("repair", ["reinitialize", "project"])
def test_a_step_never_writes_into_the_previous_theta(repair, features, monkeypatch):
    # Both repairs restart a stack's metric, and the stack's NaN row is
    # zeroed; that must happen in the step's own array.  The policy keeps its
    # estimate while theta is the same array, so a step that moves theta
    # assigns a new one and leaves the previous one as it was.
    o = VectorPredictor("glmtron", 2, 3)
    o.theta = np.array([[[np.nan, 0.0, 0.0], [3.0, 0.0, 0.0]]])
    if repair == "reinitialize":
        o.A[0, 0, 0] = np.inf
    else:
        project = oracles._project_a_norm
        calls = []

        def failing_once(A, v, norms):  # as eigh does on an A near overflow
            calls.append(len(v))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return project(A, v, norms)

        monkeypatch.setattr(oracles, "_project_a_norm", failing_once)
    previous = o.theta
    kept = previous.copy()
    phi = np.full(3, 0.5) if features == "pulled" else np.zeros(3)
    with np.errstate(all="ignore"):
        o.update(phi, np.array([1.0, 1.0]))
    assert o.reinit_count == 1 and (o.A[0] == np.eye(3)).all()  # the metric restarted
    assert o.theta is not previous
    assert np.array_equal(previous, kept, equal_nan=True)
    assert np.isfinite(o.theta).all() and (o.theta[0, 0] == 0.0).all()


def test_glmtron_regret_contract_on_realizable_stream():
    # cumulative squared error vs the truth stays sublinear and log-like
    def run(T, seed):
        rng = np.random.default_rng(seed)
        m = 5
        theta = np.zeros(m)
        theta[0] = 0.9
        o = VectorPredictor("glmtron", 1, m)
        reg_at = {}
        checkpoints = {5000, T}
        reg = 0.0
        for t in range(1, T + 1):
            v = rng.normal(size=m)
            v /= np.linalg.norm(v)
            phi = (np.eye(m)[0] + 0.4 * v) / 1.4
            fstar = phi @ theta
            reg += (predict(o, phi) - fstar) ** 2
            o.update(phi, [fstar + rng.uniform(-0.25, 0.25)])
            if t in checkpoints:
                reg_at[t] = reg
        return reg_at

    at5000, at10000 = [], []
    for seed in range(10):
        reg_at = run(10000, seed)
        at5000.append(reg_at[5000])
        at10000.append(reg_at[10000])
    assert np.median(at5000) <= 0.01 * 5000
    assert np.median(np.array(at10000) / np.array(at5000)) <= 2.0


def test_vector_degenerate_lift_matches_scalar():
    # a scalar oracle fed the one-stack shorthand, a (dim,) row and a (1,)
    # target, is bitwise the oracle fed the stacked (1, dim) and (1, 1) shapes
    short = VectorPredictor("glmtron", 1, 3)
    stacked = VectorPredictor("glmtron", 1, 3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        phi = rng.normal(size=3) / 2
        y = rng.random()
        short.update(phi, [y])
        stacked.update(phi[None], np.array([[y]]))
    assert (short.theta == stacked.theta).all()
    assert (short.A_inv == stacked.A_inv).all()


def test_vector_coordinate_independence():
    # two stacks fed the same features and targets, except that one target of
    # the last sample differs: only that row may change
    rng = np.random.default_rng(4)
    stream = [(rng.normal(size=4) / 2, rng.random(3)) for _ in range(21)]
    vecs = [VectorPredictor("glmtron", 3, 4) for _ in range(2)]
    for i, vec in enumerate(vecs):
        for t, (phi, y) in enumerate(stream):
            y = y.copy()
            if i == 1 and t == len(stream) - 1:
                y[1] += 0.7
            vec.update(phi, y)
    first, second = vecs
    assert (first.theta[0, [0, 2]] == second.theta[0, [0, 2]]).all()
    assert (first.theta[0, 1] != second.theta[0, 1]).any()
    assert (first.A_inv == second.A_inv).all()
    assert first.t == second.t


def test_vector_shape_errors():
    vec = VectorPredictor("ogd", 2, 3)
    with pytest.raises(ConfigurationError):
        vec.update(E1, np.ones(3))
    with pytest.raises(ConfigurationError):
        vec.predict_matrix(np.ones((2, 4)))
    with pytest.raises(ConfigurationError, match=r"^d >= 1 violated \(got 0\)$"):
        VectorPredictor("ogd", 0, 3)
    with pytest.raises(ConfigurationError, match=r"^stacks >= 1 violated \(got 0\)$"):
        VectorPredictor("ogd", 2, 3, stacks=0)
    with pytest.raises(ConfigurationError, match=r"^dim >= 0 violated \(got -1\)$"):
        VectorPredictor("ogd", 1, -1)
    with pytest.raises(ConfigurationError):
        VectorPredictor("sgd", 2, 3)
    # online-to-batch takes (M, S, dim) features with (M, S, n) targets, and
    # its batch predictor (S, K, dim) features: the one-stack forms are gone
    with pytest.raises(ConfigurationError):
        online_to_batch("ogd", np.ones((4, 3)), np.ones((4, 2)))
    fit = BatchPredictor(np.zeros((1, 2, 4, 3)), "identity")
    assert fit.predict_matrix(np.ones((1, 5, 3))).shape == (1, 5, 2)
    with pytest.raises(ConfigurationError):
        fit.predict_matrix(np.ones((5, 3)))


def _adversarial_stream(rng, n, dim, length):
    # large targets and mixed feature scales push iterates outside the unit ball
    for _ in range(length):
        phi = rng.normal(size=dim) * rng.choice([0.1, 1.0, 3.0])
        yield phi, rng.choice([-3.0, 0.0, 0.5, 1.0, 4.0], size=n)


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("kind", ["glmtron", "ogd"])
def test_fused_stack_matches_independent_scalars(kind, link, monkeypatch):
    """An n-row stack is bitwise equal to n one-row oracles fed the same stream."""
    projected = []
    project = oracles._project_a_norm

    def counting_project(A, v, norms):
        projected.append(len(v))
        return project(A, v, norms)

    monkeypatch.setattr(oracles, "_project_a_norm", counting_project)
    n, dim, length = 4, 6, 300
    rng = np.random.default_rng(8)
    stream = list(_adversarial_stream(rng, n, dim, length))
    probe = rng.normal(size=(5, dim))

    fused = VectorPredictor(kind, n, dim, link=link)
    scalars = [VectorPredictor(kind, 1, dim, link=link) for _ in range(n)]
    for phi, y in stream:
        assert (fused.predict_matrix(probe)[0]
                == np.column_stack([s.predict_matrix(probe)[0, :, 0] for s in scalars])).all()
        fused.update(phi, y)
        for s, target in zip(scalars, y):
            s.update(phi, [target])
    assert (fused.theta[0] == np.vstack([s.theta[0] for s in scalars])).all()
    assert fused.t == scalars[0].t == length
    if kind == "glmtron":
        assert sum(projected) > 0
        assert all((fused.A_inv == s.A_inv).all() for s in scalars)

    X = np.array([phi for phi, _ in stream])[:, None]  # one stack: (M, 1, dim)
    Y = np.array([y for _, y in stream])[:, None]  # (M, 1, n)
    fit = online_to_batch(kind, X, Y, link=link)
    assert fit.params.shape == (1, n, length, dim) and fit.params.flags.c_contiguous
    preds = fit.predict_matrix(probe[None])
    assert preds.shape == (1, len(probe), n)
    for j in range(n):
        alone = online_to_batch(kind, X, Y[:, :, j:j + 1], link=link)
        assert (fit.params[0, j] == alone.params[0, 0]).all()
        assert (preds[0, :, j] == alone.predict_matrix(probe[None])[0, :, 0]).all()


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("kind", ["glmtron", "ogd"])
def test_stacks_step_as_independent_oracles(kind, link):
    """An S-stack predictor is bitwise S one-stack predictors, each fed its own stream."""
    S, n, dim, length = 3, 2, 4, 300
    rng = np.random.default_rng(10)
    streams = [list(_adversarial_stream(rng, n, dim, length)) for _ in range(S)]
    streams[1][150] = (streams[1][150][0] * 1e170, streams[1][150][1])  # forces a reinit
    stacked = VectorPredictor(kind, n, dim, stacks=S, link=link)
    alone = [VectorPredictor(kind, n, dim, link=link) for _ in range(S)]
    probe = rng.normal(size=(5, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(length):
            stacked.update(np.array([st[i][0] for st in streams]),
                           np.array([st[i][1] for st in streams]))
            for o, st in zip(alone, streams):
                o.update(*st[i])
    assert stacked.theta.shape == (S, n, dim) and stacked.d == n
    for s, o in enumerate(alone):
        assert (stacked.theta[s] == o.theta[0]).all()
        assert (stacked.predict_matrix(probe)[s] == o.predict_matrix(probe)[0]).all()
        if kind == "glmtron":
            assert (stacked.A[s] == o.A[0]).all() and (stacked.A_inv[s] == o.A_inv[0]).all()
    if kind == "glmtron":
        assert [o.reinit_count for o in alone] == [0, 1, 0]
        assert stacked.reinit_count == 1


def test_vector_regret_decomposition():
    # max-norm cumulative error is bounded by the sum of coordinate errors
    rng = np.random.default_rng(5)
    d, m, T = 3, 4, 500
    thetas = rng.normal(size=(d, m))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True) * 1.5
    vec = VectorPredictor("glmtron", d, m)
    max_norm_sq = 0.0
    per_coord = np.zeros(d)
    for _ in range(T):
        phi = np.abs(rng.normal(size=m))
        phi /= max(np.linalg.norm(phi), 1.0)
        truth = thetas @ phi
        pred = vec.predict_matrix(phi[None])[0, 0]
        errs = (pred - truth) ** 2
        max_norm_sq += errs.max()
        per_coord += errs
        vec.update(phi, truth + rng.uniform(-0.1, 0.1, d))
    assert max_norm_sq <= per_coord.sum() + 1e-12


def test_otb_single_sample_is_initial_predictor():
    bp = online_to_batch("glmtron", np.array([[[0.5, 0.5]]]), np.array([[[1.0]]]))
    # average of one iterate: the untrained predictor
    assert bp.predict_matrix(np.array([[[0.9, 0.1]]])).tolist() == [[[0.0]]]
    assert bp.params.shape == (1, 1, 1, 2)


def test_otb_empty_dataset_rejected():
    with pytest.raises(ConfigurationError):
        online_to_batch("ogd", np.empty((0, 1, 2)), np.empty((0, 1, 1)))


def test_otb_noiseless_linear_recovery():
    rng = np.random.default_rng(6)
    m, M = 5, 2000
    theta = np.abs(rng.normal(size=m))
    theta /= np.linalg.norm(theta) * 1.5
    phis = np.abs(rng.normal(size=(M, m)))
    phis /= np.maximum(np.linalg.norm(phis, axis=1, keepdims=True), 1.0) * 1.2
    bp = online_to_batch("glmtron", phis[:, None], (phis @ theta)[:, None, None])
    fresh = np.abs(rng.normal(size=(200, m)))
    fresh /= np.maximum(np.linalg.norm(fresh, axis=1, keepdims=True), 1.0) * 1.2
    mse = np.mean((bp.predict_matrix(fresh[None])[0, :, 0] - fresh @ theta) ** 2)
    assert mse < 0.01


def test_otb_zero_targets_error_decreases():
    # identity-link oracles start exactly at 0 on zero targets, so use the
    # logistic link, whose untrained iterate predicts 0.5 and must decay
    rng = np.random.default_rng(7)
    m = 3
    phis = np.abs(rng.normal(size=(400, m)))
    phis /= np.maximum(np.linalg.norm(phis, axis=1, keepdims=True), 1.0)
    probe = np.full((1, 1, m), 0.5)
    initial = 0.5  # sigma(0)
    errors = []
    for M in (10, 50, 200, 400):
        bp = online_to_batch("glmtron", phis[:M, None], np.zeros((M, 1, 1)), link="logistic")
        errors.append(bp.predict_matrix(probe)[0, 0, 0])
    assert all(e <= initial for e in errors)
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]

    identity = online_to_batch("glmtron", phis[:50, None], np.zeros((50, 1, 1)))
    assert identity.predict_matrix(probe)[0, 0, 0] == 0.0


def test_regret_bounds_monotone_positive():
    for kind in ("glmtron", "ogd"):
        ts = [1, 2, 10, 100, 10**4]
        rvals, cvals = zip(*(regret_bounds(kind, m=5, d=4, n=t) for t in ts))
        assert all(v > 0 for v in rvals + cvals)
        assert all(a <= b + 1e-12 for a, b in zip(rvals, rvals[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(cvals, cvals[1:]))



def _bisect_on_arrays(A, v, norms):
    """The A-norm projection with every row's bracket bisected at once on arrays."""
    eigvals, Q = np.linalg.eigh(A)
    lz = eigvals * np.einsum("ji,rj->ri", Q, v)
    lo = np.zeros(v.shape[0])
    hi = eigvals[-1] * (norms - 1.0)
    for _ in range(oracles.PROJECTION_BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = ((lz / (eigvals + mid[:, None])) ** 2).sum(axis=1) > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.einsum("ji,ri->rj", Q, lz / (eigvals + hi[:, None]))


@pytest.mark.parametrize("r", [2, 11, 51])
def test_row_by_row_projection_is_bitwise_the_array_bisection(r):
    rng = np.random.default_rng(r)
    checked = 0
    for _ in range(100):
        X = rng.normal(size=(int(rng.integers(1, 3 * r)), r)) * rng.choice([0.1, 1.0, 10.0])
        A = np.eye(r) + X.T @ X
        v = rng.normal(size=(int(rng.choice([1, 1, 1, 2, 5])), r)) * rng.uniform(0.5, 20.0)
        norms = np.linalg.norm(v, axis=1)
        v, norms = v[norms > 1.0], norms[norms > 1.0]  # the rows a step projects
        if not norms.size:
            continue
        got = oracles._project_a_norm(A, v, norms)
        assert got.tobytes() == _bisect_on_arrays(A, v, norms).tobytes()
        assert (np.linalg.norm(got, axis=1) <= 1.0 + 1e-12).all()
        checked += 1
    assert checked > 50


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("kind", ["glmtron", "ogd"])
def test_cached_zero_feature_checks_match_the_full_step(kind, link):
    """A stream of zero and pulled feature rows, some of them overflowing, and
    targets that are sometimes not finite: after every update the oracle is
    bitwise the one that ran the full step."""
    rng = np.random.default_rng(11)
    S, d, dim = 2, 3, 5
    fast = VectorPredictor(kind, d, dim, stacks=S, link=link)
    full = VectorPredictor(kind, d, dim, stacks=S, link=link)
    kept = 0
    with np.errstate(all="ignore"):
        for i in range(600):
            zero = rng.random() < 0.7
            phi = np.zeros((S, dim)) if zero else rng.normal(size=(S, dim)) * rng.choice(
                [0.5, 3.0, 1e170], p=[0.6, 0.38, 0.02])
            y = rng.choice([-2.0, 0.0, 0.5, 1.0, 3.0], size=(S, d))
            if rng.random() < 0.03:
                y[0, 0] = rng.choice([np.nan, np.inf, 1e200])
            previous = fast.theta
            fast.update(phi, y)
            full._step(phi, y)
            assert (fast.theta + 0.0).tobytes() == (full.theta + 0.0).tobytes(), i
            assert (fast.t, fast.reinit_count) == (full.t, full.reinit_count)
            if kind == "glmtron":
                assert fast.A.tobytes() == full.A.tobytes()
                assert fast.A_inv.tobytes() == full.A_inv.tobytes()
            kept += zero and fast.theta is previous
    assert kept > 200  # the cached checks were used
