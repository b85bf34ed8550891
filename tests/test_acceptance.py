"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Monte Carlo checks state their tolerance in standard errors; deterministic
checks assert exact or explicitly-toleranced values. Run with
``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import math

import numpy as np
import pytest

from bcoslab import cli, schedules
from bcoslab.analysis import (
    contraction_noise_bound,
    estimator_stats,
    fit_rate,
    mc_mean_se,
    mc_variance_se,
    mean_trajectory,
    one_step_contraction_check,
    rate_preconditions,
    run_trajectory,
    verify_chung_recursions,
    verify_ratio_expansion,
)
from bcoslab.core import BlockPartition
from bcoslab.optim import OptimizerConfig, OptimizerState, optimal_stepsizes, step
from bcoslab.problems import (
    MC_STREAM,
    LogisticSmokeProblem,
    NoisyQuadratic,
    counterexample_log_aiming,
    counterexample_quadratic_not_aiming,
    make_rng,
)


def k_p_tail(p: float, terms: int = 10**7) -> float:
    """Direct summation of sum_{t=1..terms} 1/(t+1)^(2p), the tail constant
    of criterion 06's limit."""
    total = 0.0
    lo = 1
    chunk = 10**6
    while lo <= terms:
        hi = min(lo + chunk - 1, terms)
        t = np.arange(lo, hi + 1, dtype=np.float64)
        total += float(np.sum((t + 1.0) ** (-2.0 * p)))
        lo = hi + 1
    return total


def report(n, name):
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def gaussian_square_variance(mu, sd):
    """Var(X^2) for X ~ N(mu, sd^2), the independent closed-form oracle."""
    return 4.0 * mu**2 * sd**2 + 2.0 * sd**4


def lockstep_iterates(problem, config_a, config_b, T, seed, x0):
    """Run two optimizers on the same problem with identical seeds and return
    their iterate arrays; identical algorithms stay in sync draw for draw."""
    rng_a = make_rng(seed, 0)
    rng_b = make_rng(seed, 0)
    xa = np.array(x0, dtype=np.float64)
    xb = np.array(x0, dtype=np.float64)
    part = BlockPartition.singleton(xa.shape[0])
    sa = OptimizerState()
    sb = OptimizerState()
    out_a, out_b = [xa], [xb]
    for _ in range(T):
        ga = problem.sample_gradient(xa, rng_a)
        gb = problem.sample_gradient(xb, rng_b)
        xa, sa = step(config_a, sa, xa, ga, 0.05, part)
        xb, sb = step(config_b, sb, xb, gb, 0.05, part)
        out_a.append(xa)
        out_b.append(xb)
    return np.array(out_a), np.array(out_b)


def test_criterion_01_sign_method_collapse():
    """bcos_g(beta=0, eps=0) == sign_sgd and bcos_m(beta2=0, eps=0) ==
    sign_momentum, bit for bit, over 100 steps on 3 random quadratics."""
    rng = make_rng(101, MC_STREAM)
    for rep in range(3):
        n = 5
        problem = NoisyQuadratic(
            h=rng.uniform(0.5, 3.0, n),
            sigma=rng.uniform(0.2, 2.0, n),
            x_star=rng.standard_normal(n),
        )
        x0 = rng.standard_normal(n)
        a, b = lockstep_iterates(
            problem,
            OptimizerConfig("bcos_g", beta1=0.0, epsilon=0.0),
            OptimizerConfig("sign_sgd", epsilon=0.0),
            100, seed=rep, x0=x0,
        )
        np.testing.assert_array_equal(a, b)
        a, b = lockstep_iterates(
            problem,
            OptimizerConfig("bcos_m", beta1=0.9, beta2=0.0, epsilon=0.0),
            OptimizerConfig("sign_momentum", beta1=0.9, epsilon=0.0),
            100, seed=100 + rep, x0=x0,
        )
        np.testing.assert_array_equal(a, b)
    report(1, "sign-method collapse")


@pytest.mark.parametrize("alg", ["bcos_g", "bcos_m", "bcos_c", "adam"])
def test_criterion_02_scale_invariance(alg):
    """With eps=0 and no decay, scaling the gradient stream by 1e-6 or 1e6
    moves no iterate by more than 1e-10 relative."""
    rng = make_rng(202, MC_STREAM)
    grads = rng.standard_normal((100, 5)) * rng.uniform(0.5, 2.0, 5)
    cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.95, epsilon=0.0)

    def run(scale):
        x, part = np.zeros(5), BlockPartition.singleton(5)
        state = OptimizerState()
        iterates = []
        for g in grads:
            x, state = step(cfg, state, x, scale * g, 0.1, part)
            iterates.append(x)
        return np.array(iterates)

    base = run(1.0)
    for c in (1e-6, 1e6):
        scaled = run(c)
        np.testing.assert_allclose(scaled, base, rtol=1e-10, atol=0)
    if alg == "adam":
        report(2, "scale invariance (all four variants)")


def test_criterion_03_one_step_contraction():
    """At 20 random aiming-verified states, the Monte Carlo one-step mean
    squared distance stays below the contraction bound plus 3 SE."""
    problem = NoisyQuadratic(
        h=np.array([1.0, 2.0, 0.5, 1.5]),
        sigma=np.array([0.8, 1.0, 1.5, 0.5]),
        x_star=np.zeros(4),
    )
    rng = make_rng(303, MC_STREAM)
    for i in range(20):
        x = rng.standard_normal(4) * rng.uniform(0.5, 4.0)
        check = one_step_contraction_check(problem, x, alpha=0.3, lam=0.4,
                                           n_mc=10**5, seed=1000 + i)
        assert check.aiming_value >= 0.0, "aiming premise must hold"
        assert check.mc_mean <= check.bound + 3 * check.mc_se
    report(3, "one-step contraction with the noise constant")


def test_criterion_04_constant_step_plateau():
    """Conceptual updates with decay at alpha*lambda = 0.1, 500 seeds,
    T = 5000: the long-run mean squared distance stays below
    alpha^2 B / (1 - (1 - alpha*lambda)^2) + 3 SE."""
    alpha, lam = 0.05, 2.0
    problem = NoisyQuadratic(
        h=np.array([1.0, 2.0, 0.5, 1.5]), sigma=1.0, x_star=np.zeros(4)
    )
    cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=lam, decoupled=True)
    curve = mean_trajectory(problem, cfg, schedules.constant(alpha), 5000,
                            n_seeds=500, base_seed=404, x0=np.full(4, 2.0))
    bound = alpha**2 * contraction_noise_bound(4, lam, problem.x_star) / (
        1.0 - (1.0 - alpha * lam) ** 2
    )
    tail = slice(4500, None)
    long_run = float(np.mean(curve.mean_dist_sq[tail]))
    se = float(np.mean(curve.se_dist_sq[tail]))
    assert long_run <= bound + 3 * se, (long_run, bound, se)
    report(4, f"constant-step plateau ({long_run:.4f} <= {bound:.4f} + 3 SE)")


def test_criterion_05_inverse_time_rate():
    """alpha_t = alpha/(t+1) with alpha*lambda = 0.75: the log-log slope over
    [1e3, 1e5] sits in [-1.2, -0.8], and the predicted leading constant bounds
    (t+1) * mean dist_sq at the horizon up to a factor of 3."""
    alpha, lam = 0.5, 1.5
    T = 10**5
    x0 = np.full(4, 3.0)
    problem = NoisyQuadratic(
        h=np.array([1.0, 2.0, 0.5, 1.5]), sigma=1.0, x_star=np.zeros(4)
    )
    cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=lam, decoupled=True)
    schedule = schedules.inverse_time(alpha)
    assert rate_preconditions(schedule, lam) == []
    curve = mean_trajectory(problem, cfg, schedule, T, n_seeds=200,
                            base_seed=505, x0=x0)
    fit = fit_rate(curve, (10**3, T))
    assert -1.2 <= fit.slope <= -0.8, fit
    d0 = float(x0 @ x0)
    b_const = contraction_noise_bound(4, lam, problem.x_star)
    leading = alpha**2 * (lam**2 * d0 + (1 + math.pi**2 / 6) * b_const) / (2 * alpha * lam - 1)
    horizon_value = (T + 1) * float(curve.mean_dist_sq[-1])
    assert horizon_value <= 3 * leading, (horizon_value, leading)
    report(5, f"1/t rate (slope {fit.slope:.3f}, horizon {horizon_value:.2f} <= 3*{leading:.1f})")


def test_criterion_06_power_rate():
    """alpha_t = alpha/(t+1)^0.75 with alpha*lambda = 0.3: slope in
    [-0.9, -0.6] and the scaled horizon value under the predicted limit with
    50% headroom, with the tail sum computed by direct summation."""
    alpha, lam, p = 0.3, 1.0, 0.75
    T = 10**5
    x0 = np.full(4, 3.0)
    problem = NoisyQuadratic(
        h=np.array([1.0, 2.0, 0.5, 1.5]), sigma=1.0, x_star=np.zeros(4)
    )
    cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=lam, decoupled=True)
    schedule = schedules.power(alpha, p)
    assert rate_preconditions(schedule, lam) == []
    curve = mean_trajectory(problem, cfg, schedule, T, n_seeds=200,
                            base_seed=606, x0=x0)
    fit = fit_rate(curve, (10**3, T))
    assert -0.9 <= fit.slope <= -0.6, fit
    k_p = k_p_tail(p, terms=10**7)
    d0 = float(x0 @ x0)
    b_const = contraction_noise_bound(4, lam, problem.x_star)
    limit = alpha * (lam**2 * d0 + (1 + k_p) * b_const) / (2 * lam)
    horizon_value = (T + 1) ** p * float(curve.mean_dist_sq[-1])
    assert horizon_value <= limit * 1.5, (horizon_value, limit)
    report(6, f"1/t^p rate (slope {fit.slope:.3f}, horizon {horizon_value:.2f} <= 1.5*{limit:.2f})")


def test_criterion_07_estimator_catalog():
    """Monte Carlo bias/variance of every estimator against its closed form,
    within 3 SE per coordinate (constant estimator: exactly zero variance)."""
    h = np.array([1.0, 2.0, 0.5])
    sigma = np.array([0.5, 1.0, 1.5])
    problem = NoisyQuadratic(h=h, sigma=sigma, x_star=np.zeros(3))
    x = np.array([1.2, -0.7, 2.0])
    m_prev = np.array([0.5, -1.0, 0.25])
    v_prev = np.array([1.0, 1.5, 2.0])
    mu_g, sd_g = h * x, h * sigma
    beta1, beta2 = 0.9, 0.95
    n_mc = 10**5
    state_mv = OptimizerState(t=1, m=m_prev, v=v_prev)
    state_m = OptimizerState(t=1, m=m_prev)

    def draws_for(seed):
        return problem.sample_gradients(x, make_rng(seed, MC_STREAM), n_mc)

    # EMA of the squared momentum
    stats = estimator_stats(problem, x, state_mv,
                            OptimizerConfig("bcos_m", beta1=beta1, beta2=beta2),
                            n_mc, seed=71)
    mu_m = beta1 * m_prev + (1 - beta1) * mu_g
    sd_m = (1 - beta1) * sd_g
    expected = (1 - beta2) ** 2 * gaussian_square_variance(mu_m, sd_m)
    m_draws = beta1 * m_prev + (1 - beta1) * draws_for(71)
    se = mc_variance_se(beta2 * v_prev + (1 - beta2) * m_draws**2)
    assert np.all(np.abs(stats.variance - expected) <= 3 * se)

    # EMA of the squared gradient driving a momentum direction
    stats = estimator_stats(problem, x, state_mv,
                            OptimizerConfig("adam", beta1=beta1, beta2=beta2),
                            n_mc, seed=72)
    expected = (1 - beta2) ** 2 * gaussian_square_variance(mu_g, sd_g)
    se = mc_variance_se(beta2 * v_prev + (1 - beta2) * draws_for(72) ** 2)
    assert np.all(np.abs(stats.variance - expected) <= 3 * se)

    # conditional estimator: variance and bias
    stats = estimator_stats(problem, x, state_m,
                            OptimizerConfig("bcos_c", beta1=beta1), n_mc, seed=73)
    expected = (1 - beta1) ** 4 * gaussian_square_variance(mu_g, sd_g)
    v_draws = (1 - (1 - beta1) ** 2) * m_prev**2 + (1 - beta1) ** 2 * draws_for(73) ** 2
    assert np.all(np.abs(stats.variance - expected) <= 3 * mc_variance_se(v_draws))
    bias_expected = 2 * beta1 * (1 - beta1) * np.abs(m_prev * (m_prev - mu_g))
    signed_expected = 2 * beta1 * (1 - beta1) * m_prev * (m_prev - mu_g)
    signed_observed = stats.mean_v - stats.exact_second_moment
    assert np.all(np.abs(signed_observed - signed_expected) <= 3 * mc_mean_se(v_draws))
    assert np.all(np.abs(stats.bias - bias_expected) <= 3 * mc_mean_se(v_draws))

    # sign mode: v = d^2 is unbiased
    stats = estimator_stats(problem, x, OptimizerState(),
                            OptimizerConfig("sign_sgd", epsilon=0.0), n_mc, seed=74)
    assert np.all(stats.bias <= 3 * mc_mean_se(draws_for(74) ** 2))

    # constant estimator: exactly zero variance
    stats = estimator_stats(problem, x, OptimizerState(),
                            OptimizerConfig("sgd", epsilon=0.0), n_mc, seed=75)
    assert np.all(stats.variance == 0.0)
    report(7, "estimator bias/variance catalog")


def test_criterion_08_counterexamples():
    """The log example satisfies aiming and fails convexity at every grid
    point; the quadratic example evaluates to exactly -0.5 with eigenvalues
    {0, 5} to 1e-12."""
    log_report = counterexample_log_aiming()
    assert len(log_report.rows) == 100
    assert min(r.inner_product for r in log_report.rows) >= 0.0
    assert max(r.curvature_witness for r in log_report.rows) < 0.0
    quad = counterexample_quadratic_not_aiming()
    assert quad["aiming_value"] == -0.5
    np.testing.assert_allclose(quad["eigenvalues"], [0.0, 5.0], atol=1e-12)
    report(8, "aiming/convexity counterexamples")


def test_criterion_09_ratio_expansion():
    """Expansion residuals decay at second order across halving noise scales
    (consecutive ratio >= 4 within a factor 2), with 1e6 draws."""
    checks = verify_ratio_expansion(n_mc=10**6)
    assert all(check.passed for check in checks)
    for check in checks:
        assert check.observed >= check.bound  # bound = expected_ratio / 2 = 2
    report(9, "square-root ratio expansion")


def test_criterion_10_chung_recursions():
    """Scaled iterates of the decay recursions land within 1% of their
    predicted limits at T = 1e7."""
    for check in verify_chung_recursions(T=10**7):
        assert check.passed, check
    report(10, "decay-recursion limits")


def test_criterion_11_optimal_stepsize_brute_force():
    """On 50 random moment-oracle instances, a 10^4-point grid over [-2, 2]
    confirms the closed-form per-block stepsize minimizes the one-step
    expected squared distance, to within one grid cell."""
    rng = make_rng(111, MC_STREAM)
    grid = np.linspace(-2.0, 2.0, 10**4)
    cell = grid[1] - grid[0]
    for _ in range(50):
        sizes = rng.integers(1, 4, size=rng.integers(1, 4))
        part = BlockPartition.from_sizes(sizes)
        n = part.total_dim
        mean = rng.standard_normal(n)
        var = rng.uniform(0.2, 2.0, n)
        second = part.block_sums(mean**2 + var)
        x_star = rng.standard_normal(n)
        # scale the offset so each block's optimal stepsize lies inside the grid
        delta = rng.standard_normal(n)
        gamma_raw = part.block_sums(delta * mean) / second
        scale = 1.8 / max(1.8, float(np.max(np.abs(gamma_raw))))
        x = x_star + scale * delta
        gamma_hat = optimal_stepsizes(x, x_star, mean, second, part)
        inner = part.block_sums((x - x_star) * mean)
        for k in range(part.num_blocks):
            objective = -2.0 * grid * inner[k] + grid**2 * second[k]
            best = grid[int(np.argmin(objective))]
            assert abs(best - gamma_hat[k]) <= cell + 1e-12
    report(11, "optimal stepsize vs. brute-force grid")


def test_criterion_12_logistic_smoke():
    """Conditional-estimator updates with decoupled decay and warmup-cosine
    stepsizes halve the logistic loss within 2000 steps on 3 seeds, with no
    post-warmup spike above twice the running minimum."""
    problem = LogisticSmokeProblem()
    cfg = OptimizerConfig("bcos_c", beta1=0.9, epsilon=1e-6,
                          weight_decay_lambda=0.01, decoupled=True)
    warmup = 100
    schedule = schedules.warmup_cosine(0.05, warmup, 2000, alpha_min_ratio=0.01)
    for seed in range(3):
        records = run_trajectory(problem, cfg, schedule, 2000, base_seed=1200 + seed)
        losses = np.array([r.loss for r in records])
        assert losses.min() <= 0.5 * losses[0], losses.min()
        running_min = np.minimum.accumulate(losses[warmup:])
        assert np.all(losses[warmup:] <= 2.0 * running_min)
    report(12, "logistic smoke run")


def test_criterion_13_run_determinism(tmp_path):
    """Two runs from the same config produce byte-identical CSV output."""
    text = "\n".join([
        "problem.kind = quadratic",
        "problem.dim = 3",
        "problem.h = 1.0,0.5,2.0",
        "problem.sigma = 1.0",
        "problem.x_star = 0.0",
        "problem.x0 = 2.0",
        "optimizer.algorithm = bcos_c",
        "optimizer.weight_decay_lambda = 0.1",
        "optimizer.decoupled = true",
        "schedule.kind = warmup_cosine",
        "schedule.alpha = 0.05",
        "schedule.warmup_steps = 10",
        "schedule.total_steps = 200",
        "run.steps = 200",
        "run.n_seeds = 4",
        "run.base_seed = 13",
    ]) + "\n"
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    assert (
        (tmp_path / "a" / "trajectory.csv").read_bytes()
        == (tmp_path / "b" / "trajectory.csv").read_bytes()
    )
    assert (
        (tmp_path / "a" / "manifest.txt").read_bytes()
        == (tmp_path / "b" / "manifest.txt").read_bytes()
    )
    report(13, "byte-identical reruns")
