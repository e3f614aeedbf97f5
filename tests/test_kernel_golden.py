"""Golden traces of short seeded runs through the round engine.

The digests below were recorded from the round kernel as it was before its
per-round NumPy overhead was trimmed, and pin the behaviour every rewrite of
it must keep.  Like perfbench's CSV fingerprints, they assume the BLAS core
and CPU they were recorded on, ``conftest.RECORDED_ON``; a failure names that
machine and the current one.  Each digest is a
sha256 over the pulled arms, realized rewards and costs, the NaN pattern of
the per-round estimates, tau and ``total_reward``; those must stay bitwise
equal.  Dual prices are free to move by a few ulps (a change in how the
exponentiated-gradient step is evaluated does that), so ``lam``, ``probs``
and ``rhat`` are compared through two checksums each to a relative 1e-12.
Run this file as a script to print the table for the cbwk on the path.
"""

import hashlib
import warnings

import numpy as np
import pytest

from cbwk.baseline import LinUcbConfig, run_linucb
from cbwk.core import make_fixed_linear_env, make_glm_env
from cbwk.oracles import VectorPredictor
from cbwk.policy import PolicyConfig, run_squarecbwk
from cbwk.twostage import TwoStageConfig, run_twostage


def _replication(T=600, B=600):
    return make_fixed_linear_env(10, 3, 4, 0.2, T=T, B=B)


def _bounded_null():
    return make_fixed_linear_env(12, 5, 4, 0.2, T=600, B=150, bounded=True, null_arm=True)


def _logistic():
    rng = np.random.default_rng(5)
    contexts = rng.normal(size=(3, 4))
    contexts /= np.linalg.norm(contexts, axis=1, keepdims=True) * 1.1
    theta_r = rng.normal(size=4)
    theta_r /= np.linalg.norm(theta_r) * 1.2
    theta_c = rng.normal(size=(2, 4))
    theta_c /= np.linalg.norm(theta_c, axis=1, keepdims=True) * 1.2
    return make_glm_env(np.vstack([theta_r, theta_c]), contexts, T=400, B=200)


def _squarecb(oracle, env_fn):
    return lambda rng: run_squarecbwk(env_fn(), PolicyConfig(oracle=oracle, bound_scale=0.01), rng)


def _linucb(env_fn):
    return lambda rng: run_linucb(env_fn(), LinUcbConfig(confidence_scale=2.0), rng)


def _twostage(oracle, env_fn, t0=None):
    def run(rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the precondition warning
            policy = PolicyConfig(oracle=oracle, bound_scale=0.01)
            return run_twostage(env_fn(), TwoStageConfig(t0=t0, policy=policy), rng)
    return run


# name -> (run(rng), seed)
CASES = {
    "glmtron": (_squarecb("glmtron", _replication), 11),
    "glmtron-stop": (_squarecb("glmtron", lambda: _replication(B=150)), 12),
    "ogd": (_squarecb("ogd", lambda: _replication(B=300)), 13),
    "linucb": (_linucb(lambda: _replication(B=300)), 14),
    "twostage-glmtron": (_twostage("glmtron", lambda: _replication(T=1200, B=600)), 15),
    "twostage-ogd": (_twostage("ogd", lambda: _replication(T=1200, B=1200)), 16),
    "bounded-null-glmtron": (_squarecb("glmtron", _bounded_null), 17),
    "bounded-null-ogd": (_squarecb("ogd", _bounded_null), 18),
    "bounded-null-linucb": (_linucb(_bounded_null), 19),
    "bounded-null-twostage": (_twostage("glmtron", _bounded_null, t0=20), 20),
    "logistic-glmtron": (_squarecb("glmtron", _logistic), 21),
    "logistic-ogd": (_squarecb("ogd", _logistic), 22),
    "logistic-linucb": (_linucb(_logistic), 23),
    "twostage-aborted": (_twostage("glmtron", lambda: _replication(T=400, B=20), t0=30), 24),
}


def digest(trace) -> str:
    h = hashlib.sha256()
    for arr in (trace.arms.astype(np.int64), trace.rewards, trace.costs,
                np.isnan(trace.rhat), np.isnan(trace.lam)):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((int(trace.tau), float(trace.total_reward).hex())).encode())
    return h.hexdigest()[:20]


def checksums(arr) -> tuple:
    """(sum |x|, sum |x| w) over the non-NaN entries, w rising from 1 to 2."""
    v = np.abs(np.nan_to_num(np.asarray(arr, dtype=float).ravel(), nan=0.0))
    return float(v.sum()), float(v @ np.linspace(1.0, 2.0, v.size))


def record(name):
    run, seed = CASES[name]
    trace = run(np.random.default_rng(seed))
    return (digest(trace), int(trace.tau),
            {f: checksums(getattr(trace, f)) for f in ("lam", "probs", "rhat")})


# name -> (digest, tau, {field: checksums})
GOLDEN = {
    "bounded-null-glmtron": ("7fdc8ee2acb44426f6ba", 554, {
        "lam": (1661.57970546753, 2471.169292770956),
        "probs": (554.0, 831.1747956229899),
        "rhat": (1302.5437534206712, 1962.9334055951613),
    }),
    "bounded-null-linucb": ("19e671ab3453ddff5567", 254, {
        "lam": (942.6085367661758, 1428.5715876880492),
        "probs": (254.0, 380.89204097714736),
        "rhat": (3757.453947832445, 5341.673167105589),
    }),
    "bounded-null-ogd": ("2ff85691e997150e55ef", 600, {
        "lam": (1566.4746189207042, 2302.5424012085377),
        "probs": (600.0, 900.1499264434079),
        "rhat": (1349.5474778483035, 2050.1322803356256),
    }),
    "bounded-null-twostage": ("996e00a81ebf001c08f1", 268, {
        "lam": (16095.772643715929, 27817.52337799705),
        "probs": (268.0, 402.172893638331),
        "rhat": (334.30289058789214, 579.6063241454096),
    }),
    "glmtron": ("6cd95fed8abca287e9b5", 600, {
        "lam": (55.69116455512971, 60.948244682485864),
        "probs": (600.0, 899.8238858469376),
        "rhat": (1222.8309700763175, 1839.8492159706345),
    }),
    "glmtron-stop": ("3a77408bb86aee80aaaa", 249, {
        "lam": (914.24587330784, 1387.778909849154),
        "probs": (249.0, 373.31560987910683),
        "rhat": (504.6891607603553, 760.2328225553505),
    }),
    "linucb": ("2f3c06e1a99c16e36580", 477, {
        "lam": (840.6210978510875, 1274.9942448661432),
        "probs": (477.0, 715.4489510489509),
        "rhat": (3977.1192990617456, 5665.708168325429),
    }),
    "logistic-glmtron": ("455f75e68d1f7954746f", 393, {
        "lam": (539.2374255713104, 806.0852815336799),
        "probs": (393.0, 589.505709923112),
        "rhat": (609.7976273064164, 913.9300695474714),
    }),
    "logistic-linucb": ("9d5ead12255a41c67221", 370, {
        "lam": (481.80150921141103, 727.7265452262108),
        "probs": (370.0, 555.0351668169521),
        "rhat": (1867.4757670710947, 2699.7351692073416),
    }),
    "logistic-ogd": ("95982f477f617824a63f", 388, {
        "lam": (524.3819211574285, 787.3526949994567),
        "probs": (388.0, 582.0769292418076),
        "rhat": (623.0725508835262, 936.4198720016568),
    }),
    "ogd": ("b6997b027e9bd594a897", 494, {
        "lam": (841.4307138094057, 1279.0898996446047),
        "probs": (494.0, 740.800889585854),
        "rhat": (913.9197773845385, 1375.7146387477865),
    }),
    "twostage-aborted": ("25f6dc5d091f05cfc926", 34, {
        "lam": (0.0, 0.0),
        "probs": (34.0, 50.70297029702971),
        "rhat": (0.0, 0.0),
    }),
    "twostage-glmtron": ("98348016b8027f19338c", 844, {
        "lam": (16903.498425044345, 28312.149476267492),
        "probs": (844.0, 1265.9296609925657),
        "rhat": (1194.0854210648258, 1981.1493293370863),
    }),
    "twostage-ogd": ("2e1b5277ffecba0c9547", 1200, {
        "lam": (543.4599499326755, 700.3503196721331),
        "probs": (1200.0, 1799.8762729923444),
        "rhat": (1748.5303376351733, 2837.3146544683086),
    }),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_kernel_matches_golden_trace(name, recorded_on):
    want_digest, want_tau, want_sums = GOLDEN[name]
    got_digest, got_tau, got_sums = record(name)
    assert got_tau == want_tau, recorded_on
    assert got_digest == want_digest, recorded_on
    for field, want in want_sums.items():
        assert got_sums[field] == pytest.approx(want, rel=1e-12, abs=0.0), \
            f"{field}; {recorded_on}"


def oracle_stream_digest() -> str:
    """Digest of oracle states fed features and targets that overflow or are not finite.

    Exercises GLMtron's reinitialization and both families' repair of
    non-finite rows, which the policy runs above never reach: every update
    must leave a finite theta.  A Gram matrix that overflows while its
    inverse stays finite (first at GLMtron's step 228 here, 8 times in all)
    is caught by the reinitialization test, which restarts that stack's
    metric, so the projection never sees it.
    """
    h = hashlib.sha256()
    for kind in ("glmtron", "ogd"):
        for link in ("identity", "logistic"):
            rng = np.random.default_rng(5)
            o = VectorPredictor(kind, 3, 4, link=link)
            for i in range(1500):
                phi = rng.normal(size=4) * rng.choice([0.1, 1.0, 5.0, 1e100, 1e170])
                y = rng.choice([-3.0, 0.0, 1.0, 4.0, 1e200, np.nan, np.inf], size=3,
                               p=[0.2, 0.2, 0.2, 0.2, 0.1, 0.05, 0.05])
                phi[0] = np.inf if i % 97 == 0 else phi[0]
                phi[1] = np.nan if i % 89 == 0 else phi[1]
                with np.errstate(all="ignore"):
                    o.update(phi, y)
                    h.update(o.predict_matrix(np.eye(4)).tobytes())
                assert np.isfinite(o.theta).all(), (kind, link, i)
                h.update(o.theta.tobytes())
                if kind == "glmtron":
                    h.update(o.A.tobytes() + o.A_inv.tobytes() + bytes([o.reinit_count % 256]))
    return h.hexdigest()[:20]


ORACLE_STREAM = "25eb06284d2aa201ca3b"


def test_oracle_repair_paths_match_golden_digest(recorded_on):
    assert oracle_stream_digest() == ORACLE_STREAM, recorded_on


def test_golden_cases_cover_stops_and_aborts():
    taus = {name: GOLDEN[name][1] for name in CASES}
    assert taus["glmtron"] == 600
    assert taus["glmtron-stop"] < 600
    assert taus["twostage-aborted"] < 4 * 30


if __name__ == "__main__":
    for name in sorted(CASES):
        dig, tau, sums = record(name)
        print(f'    "{name}": ("{dig}", {tau}, {{')
        for f, (a, b) in sums.items():
            print(f'        "{f}": ({a!r}, {b!r}),')
        print("    }),")
    print("ORACLE_STREAM =", repr(oracle_stream_digest()))
