"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The scaling sweeps (criteria 6 and 7) use the calibrated leading
constants shipped in the default configs.
"""

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import cbwk
from cbwk.baseline import LinUcbConfig, run_linucb
from cbwk.core import make_fixed_linear_env, realized_regret
from cbwk.dual import dual_init, dual_lambda, dual_update
from cbwk.errors import InfeasibleError
from cbwk.harness import ExperimentConfig, run_sweep, write_csv
from cbwk.lp import exact_opt_fixed_context
from cbwk.oracles import VectorPredictor, online_to_batch
from cbwk.policy import PolicyConfig, igw_distribution, run_squarecbwk
from cbwk.twostage import TwoStageConfig, phase_one, run_twostage
from lp_reference import brute_force_opt

BOUND_SCALE = 0.01  # calibrated oracle-regret constant (configs/sweep_*.conf)
CONFIDENCE = 2.0  # calibrated ellipsoid width multiplier


def _report(number: int, description: str):
    class _Ctx:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"\nacceptance {number:2d} {verdict} ({elapsed:6.1f}s): {description}")
            return False

    return _Ctx()


def test_criterion_1_budget_safety():
    with _report(1, "budget safety: consumption at stop < B over 200 runs"):
        T = 2000
        runs = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for B in (float(T), T / 2):
                env = make_fixed_linear_env(10, 3, 4, 0.2, T=T, B=B, bounded=True)
                for seed in range(25):
                    for alg in ("glmtron", "ogd", "linucb", "twostage"):
                        rng = np.random.default_rng(10_000 + runs)
                        if alg == "linucb":
                            trace = run_linucb(env, LinUcbConfig(CONFIDENCE), rng)
                        elif alg == "twostage":
                            trace = run_twostage(env, TwoStageConfig(), rng)
                        else:
                            trace = run_squarecbwk(
                                env, PolicyConfig(oracle=alg, bound_scale=BOUND_SCALE), rng)
                        assert (trace.total_cost < B).all(), \
                            f"{alg} seed {seed} B={B}: {trace.total_cost}"
                        runs += 1
        assert runs == 200


def test_criterion_2_igw_distribution_validity():
    with _report(2, "IGW distributions valid and shift-invariant on 1e5 draws"):
        rng = np.random.default_rng(0)
        for _ in range(10**5):
            K = int(rng.integers(2, 7))
            scores = rng.normal(scale=rng.choice([0.01, 1.0, 100.0]), size=K)
            gamma = rng.uniform(0.0, 1000.0)
            p = igw_distribution(scores, gamma)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert (p >= 0.0).all()
            shifted = igw_distribution(scores + rng.normal(), gamma)
            assert np.abs(p - shifted).max() <= 1e-12


def test_criterion_3_lp_oracle_equivalence():
    with _report(3, "simplex matches brute-force optimum on 1000 instances"):
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(1000):
            K = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            rewards = rng.random(K)
            costs = rng.random((K, d))
            rate = rng.uniform(0.05, 1.0)
            try:
                exact = exact_opt_fixed_context(np.column_stack([rewards, costs]), rate)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    brute_force_opt(rewards, costs, rate)
                continue
            assert abs(exact - brute_force_opt(rewards, costs, rate)) <= 1e-6
            checked += 1
        assert checked >= 500


def test_criterion_4_omd_regret():
    with _report(4, "dual OCO regret <= 5 Z sqrt(T log(d+1)) on every seed"):
        d, Z, T = 4, 2.0, 10**4
        bound = 5 * Z * math.sqrt(T * math.log(d + 1))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = dual_init(d, Z, T)
            thetas = rng.choice([-1.0, 1.0], size=(T, d))
            total = 0.0
            for t in range(T):
                total += thetas[t] @ dual_lambda(state)
                dual_update(state, -thetas[t], 0.0)
            best_fixed = min(0.0, Z * thetas.sum(axis=0).min())
            assert total - best_fixed <= bound, f"seed {seed}"


def _oracle_regret_curve(kind: str, T: int, seed: int, checkpoints):
    rng = np.random.default_rng(seed)
    m = 5
    theta = np.zeros(m)
    theta[0] = 0.9
    oracle = VectorPredictor(kind, 1, m)  # one stack of one row
    out = {}
    reg = 0.0
    for t in range(1, T + 1):
        v = rng.normal(size=m)
        v /= np.linalg.norm(v)
        phi = (np.eye(m)[0] + 0.4 * v) / 1.4
        fstar = phi @ theta
        reg += (oracle.predict_matrix(phi[None])[0, 0, 0] - fstar) ** 2
        oracle.update(phi, [fstar + rng.uniform(-0.25, 0.25)])
        if t in checkpoints:
            out[t] = reg
    return out


def test_criterion_5_oracle_rates():
    with _report(5, "oracle regret: GLMtron log-growth, OGD sqrt-growth"):
        glm5, glm10, ogd25, ogd10 = [], [], [], []
        for seed in range(10):
            cur = _oracle_regret_curve("glmtron", 10**4, seed, {5000, 10**4})
            glm5.append(cur[5000])
            glm10.append(cur[10**4])
            cur = _oracle_regret_curve("ogd", 10**4, seed, {2500, 10**4})
            ogd25.append(cur[2500])
            ogd10.append(cur[10**4])
        assert np.median(glm5) <= 0.01 * 5000
        assert np.median(np.array(glm10) / np.array(glm5)) <= 2.2
        assert np.median(np.array(ogd10) / np.array(ogd25)) <= 2.6


def _scaling_config(sweep_param, values, m, seeds_base):
    return ExperimentConfig(
        family="fixed_linear", m=m, K=3, d=4, T=2000, budget_spec="T",
        noise_variance=0.2, mode="replication",
        algorithms=("glmtron", "ogd", "linucb"),
        twostage=TwoStageConfig(policy=PolicyConfig(bound_scale=BOUND_SCALE)),
        linucb=LinUcbConfig(CONFIDENCE),
        sweep_param=sweep_param, sweep_values=tuple(values),
        seeds_count=10, seeds_base=seeds_base, output_dir="results/acceptance",
    )


def _mean_regrets(result, algorithm):
    out = {}
    for alg, value, mean, _ in result.aggregates:
        if alg == algorithm:
            out[value] = mean
    return out


def test_criterion_6_dimension_scaling():
    with _report(6, "regret-vs-m slopes: OGD flat; GLMtron below LinUCB"):
        config = _scaling_config("m", (10, 26, 52, 101), m=10, seeds_base=1000)
        result = run_sweep(config, parallelism=2)
        assert all(r.error is None for r in result.rows)
        slopes = {}
        for alg in config.algorithms:
            means = _mean_regrets(result, alg)
            ms = sorted(means)
            slopes[alg] = np.polyfit(np.log(ms), np.log([means[v] for v in ms]), 1)[0]
        print("\n  slopes: " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))
        assert slopes["ogd"] < 0.2
        assert slopes["glmtron"] < slopes["linucb"]


def _median_ratios(result, algorithm, values):
    med = {}
    for value in values:
        regs = [r.regret for r in result.rows
                if r.algorithm == algorithm and r.sweep_value == value]
        med[value] = float(np.median(regs))
    return [med[values[i + 1]] / med[values[i]] for i in range(len(values) - 1)]


def test_criterion_7_horizon_scaling():
    with _report(7, "regret growth per 4x horizon inside the rate bands"):
        values = (1000, 4000, 16000)
        config = _scaling_config("T", values, m=10, seeds_base=2000)
        result = run_sweep(config, parallelism=2)
        assert all(r.error is None for r in result.rows)
        lines = []
        for alg, band in (("glmtron", (1.4, 2.8)), ("linucb", (1.4, 2.8)),
                          ("ogd", (2.0, 3.8))):
            ratios = _median_ratios(result, alg, values)
            lines.append(f"{alg}: " + ", ".join(f"{r:.2f}" for r in ratios))
            for ratio in ratios:
                assert band[0] <= ratio <= band[1], f"{alg} ratio {ratio:.2f}"
        print("\n  " + " | ".join(lines))


def test_criterion_8_radius_sandwich():
    with _report(8, "estimated dual radius within the two-sided envelope"):
        T, B = 2000, 1000
        env = make_fixed_linear_env(10, 3, 4, 0.01, T=T, B=B)
        opt = exact_opt_fixed_context(env.expected_outcomes(), B / T)
        target = T * opt / B
        lower = upper = 0
        for seed in range(50):
            p1 = phase_one(env, TwoStageConfig(), np.random.default_rng(seed))
            assert not p1.exploration.aborted_in_exploration
            if p1.z >= target:
                lower += 1
            if p1.z <= (6 * T * p1.m_val / B + 1) * (target + 1):
                upper += 1
        assert lower >= 45, f"lower side held in {lower}/50 seeds"
        assert upper >= 45, f"upper side held in {upper}/50 seeds"


def test_criterion_9_otb_estimation():
    with _report(9, "batch estimation error within 5 m log(M) / M"):
        m, M = 5, 2000
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            # finite uniform context support with exactly realizable targets
            # inside [0, 1]: theta = 0.9 e1, contexts (e1 + 0.4 v) / 1.4
            theta = np.zeros(m)
            theta[0] = 0.9
            v = rng.normal(size=(5, m))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            support = (np.tile(np.eye(m)[0], (5, 1)) + 0.4 * v) / 1.4
            fstar = support @ theta
            idx = rng.integers(0, 5, M)
            ys = fstar[idx] + rng.normal(0, math.sqrt(0.2), M)
            bp = online_to_batch("glmtron", support[idx, None], ys[:, None, None])
            preds = bp.predict_matrix(support[None])[0, :, 0]
            errors.append(float(np.mean((preds - fstar) ** 2)))
        bound = 5 * m * math.log(M) / M
        assert np.median(errors) <= bound, f"median {np.median(errors):.4f} > {bound:.4f}"


def test_criterion_10_determinism(tmp_path):
    with _report(10, "sweep CSV byte-identical across reruns and parallelism"):
        config = ExperimentConfig(
            family="fixed_linear", m=10, K=3, d=4, T=60, budget_spec="T",
            noise_variance=0.2, mode="bounded", algorithms=("ogd", "linucb"),
            sweep_param="m", sweep_values=(10, 12), seeds_count=2, seeds_base=7,
        )
        blobs = []
        for i, parallelism in enumerate((1, 1, 8)):
            result = run_sweep(config, parallelism=parallelism)
            path = tmp_path / f"acc{i}.csv"
            write_csv(result, str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], "rerun changed the CSV bytes"
        assert blobs[0] == blobs[2], "parallelism changed the CSV bytes"
