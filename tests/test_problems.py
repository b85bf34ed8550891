"""Problem oracles, counterexample reports, and RNG discipline."""

import numpy as np
import pytest

from bcoslab.core import BlockPartition
from bcoslab.optim import momentum_moments
from bcoslab.problems import (
    DATA_STREAM,
    MC_STREAM,
    TRAJECTORY_STREAM,
    LogisticSmokeProblem,
    NoisyQuadratic,
    ProblemError,
    aiming_inner_product,
    counterexample_log_aiming,
    counterexample_quadratic_not_aiming,
    make_rng,
)


def default_quadratic(**kw):
    kw.setdefault("h", [1.0, 2.0, 0.5])
    kw.setdefault("sigma", [0.5, 1.0, 2.0])
    kw.setdefault("x_star", [0.0, -1.0, 2.0])
    return NoisyQuadratic(**kw)


class TestNoisyQuadratic:
    def test_zero_noise_gradient_exact(self):
        prob = default_quadratic(sigma=0.0)
        x = np.array([1.0, 1.0, 1.0])
        g = prob.sample_gradient(x, make_rng(0, TRAJECTORY_STREAM))
        np.testing.assert_array_equal(g, prob.h * (x - prob.x_star))

    def test_mc_mean_matches_oracle(self):
        """Sample means of 1e5 draws land within 4 SE of the exact mean per
        coordinate, including at the target where the mean is zero."""
        prob = default_quadratic()
        for x in (prob.x_star.copy(), np.array([2.0, 0.0, -3.0])):
            oracle = prob.grad_moments(x)
            G = prob.sample_gradients(x, make_rng(1, MC_STREAM), 10**5)
            se = G.std(axis=0, ddof=1) / np.sqrt(10**5)
            assert np.all(np.abs(G.mean(axis=0) - oracle.mean_d) <= 4 * se)

    def test_second_moment_dominates_mean_square(self):
        prob = default_quadratic()
        oracle = prob.grad_moments(np.array([3.0, -1.0, 0.5]))
        assert np.all(oracle.second_moment_d >= oracle.mean_d**2)

    def test_fold_in_shifts_mean_exactly(self):
        prob = default_quadratic()
        x = np.array([1.5, -2.0, 0.25])
        lam = 0.7
        plain = prob.grad_moments(x)
        folded = prob.grad_moments(x, fold_lambda=lam)
        np.testing.assert_array_equal(folded.mean_d, plain.mean_d + lam * x)
        # variance untouched: second - mean^2 identical
        np.testing.assert_allclose(
            folded.second_moment_d - folded.mean_d**2,
            plain.second_moment_d - plain.mean_d**2,
            rtol=1e-12, atol=1e-12,
        )

    def test_student_t_keeps_first_two_moments(self):
        prob = default_quadratic(noise="student_t")
        x = np.array([1.0, 2.0, 3.0])
        G = prob.sample_gradients(x, make_rng(2, MC_STREAM), 2 * 10**5)
        oracle = prob.grad_moments(x)
        se = G.std(axis=0, ddof=1) / np.sqrt(G.shape[0])
        assert np.all(np.abs(G.mean(axis=0) - oracle.mean_d) <= 4 * se)
        var = oracle.second_moment_d - oracle.mean_d**2
        rel = np.abs(G.var(axis=0, ddof=1) - var) / var
        assert np.all(rel < 0.05)

    def test_student_t_has_heavier_squared_tails(self):
        gaussian = default_quadratic()
        heavy = default_quadratic(noise="student_t")
        x = np.zeros(3) + 5.0
        Gg = gaussian.sample_gradients(x, make_rng(3, MC_STREAM), 10**5)
        Gt = heavy.sample_gradients(x, make_rng(3, MC_STREAM), 10**5)
        assert np.all(Gt.var(axis=0) * 0 + (Gt**2).var(axis=0) > (Gg**2).var(axis=0))

    def test_loss_minimized_at_target(self):
        prob = default_quadratic()
        rng = make_rng(4, MC_STREAM)
        base = prob.loss(prob.x_star)
        for _ in range(1000):
            assert base <= prob.loss(prob.x_star + rng.standard_normal(3))

    def test_sampling_deterministic_given_seed(self):
        prob = default_quadratic()
        x = np.array([1.0, 2.0, 3.0])
        a = prob.sample_gradient(x, make_rng(9, TRAJECTORY_STREAM, 0))
        b = prob.sample_gradient(x, make_rng(9, TRAJECTORY_STREAM, 0))
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ProblemError):
            NoisyQuadratic(h=[0.0], sigma=[1.0], x_star=[0.0])
        with pytest.raises(ProblemError):
            NoisyQuadratic(h=[1.0], sigma=[-1.0], x_star=[0.0])
        with pytest.raises(ProblemError):
            NoisyQuadratic(h=[1.0], sigma=[1.0], x_star=[0.0], noise="cauchy")


class TestMakeRng:
    def test_same_key_replays(self):
        a = make_rng(42, TRAJECTORY_STREAM, 3).standard_normal(5)
        b = make_rng(42, TRAJECTORY_STREAM, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_purposes_do_not_alias(self):
        a = make_rng(42, TRAJECTORY_STREAM, 0).standard_normal(5)
        b = make_rng(42, MC_STREAM, 0).standard_normal(5)
        c = make_rng(42, DATA_STREAM, 0).standard_normal(5)
        assert not np.array_equal(a, b) and not np.array_equal(b, c)


class TestMomentumTracker:
    def test_mc_consistency(self):
        """1e5 one-step momentum replicas (shared previous momentum, fresh
        gradients) match the exact conditional second moment within 3 SE."""
        prob = default_quadratic()
        x = np.array([2.0, -1.0, 0.5])
        m_prev = np.array([0.3, 1.0, -0.7])
        beta = 0.9
        oracle = prob.grad_moments(x)
        mean, second = momentum_moments(beta, m_prev, oracle.mean_d, oracle.second_moment_d)
        G = prob.sample_gradients(x, make_rng(5, MC_STREAM), 10**5)
        M = beta * m_prev + (1 - beta) * G
        se_mean = M.std(axis=0, ddof=1) / np.sqrt(10**5)
        se_second = (M**2).std(axis=0, ddof=1) / np.sqrt(10**5)
        assert np.all(np.abs(M.mean(axis=0) - mean) <= 3 * se_mean)
        assert np.all(np.abs((M**2).mean(axis=0) - second) <= 3 * se_second)


class TestLogisticSmoke:
    def test_full_batch_equals_analytic_gradient(self):
        prob = LogisticSmokeProblem(batch=1000, n_samples=1000)
        x = make_rng(6, MC_STREAM).standard_normal(prob.dim) * 0.1
        g = prob.sample_gradient(x, make_rng(7, TRAJECTORY_STREAM))
        np.testing.assert_array_equal(g, prob.full_gradient(x))

    def test_minibatch_gradient_unbiased(self):
        prob = LogisticSmokeProblem()
        x = make_rng(8, MC_STREAM).standard_normal(prob.dim) * 0.1
        rng = make_rng(9, MC_STREAM)
        G = np.stack([prob.sample_gradient(x, rng) for _ in range(20_000)])
        se = G.std(axis=0, ddof=1) / np.sqrt(G.shape[0])
        assert np.all(np.abs(G.mean(axis=0) - prob.full_gradient(x)) <= 4 * se)

    def test_no_moment_oracle(self):
        prob = LogisticSmokeProblem()
        assert prob.grad_moments(np.zeros(prob.dim)) is None

    def test_loss_at_zero_is_log_two(self):
        prob = LogisticSmokeProblem()
        assert prob.loss(np.zeros(prob.dim)) == pytest.approx(np.log(2.0), rel=1e-12)


class TestAiming:
    def test_zero_at_target(self):
        prob = default_quadratic()
        oracle = prob.grad_moments(prob.x_star)
        assert aiming_inner_product(prob, prob.x_star.copy(), 0.5, oracle) == 0.0

    def test_one_dimensional_sign_direction(self):
        """When the normalized mean direction is exactly the sign of the
        offset, the aiming value is the absolute offset."""
        prob = NoisyQuadratic(h=[2.0], sigma=[0.0], x_star=[1.0])
        x = np.array([3.5])
        oracle = prob.grad_moments(x)
        value = aiming_inner_product(prob, x, 0.0, oracle)
        assert value == pytest.approx(abs(x[0] - 1.0), rel=1e-14)

    def test_full_block_convex_quadratic_nonnegative(self):
        """With one full-dimensional block and no decay, aiming reduces to the
        convexity inner product over the normalization scale."""
        prob = default_quadratic()
        part = BlockPartition.full(prob.dim)
        rng = make_rng(10, MC_STREAM)
        for _ in range(1000):
            x = prob.x_star + rng.standard_normal(prob.dim) * 3
            oracle = prob.grad_moments(x, partition=part)
            assert aiming_inner_product(prob, x, 0.0, oracle) >= 0.0

    def test_requires_target(self):
        prob = LogisticSmokeProblem()
        part = BlockPartition.singleton(prob.dim)
        from bcoslab.optim import MomentOracle

        oracle = MomentOracle(np.zeros(prob.dim), np.ones(prob.dim), part)
        with pytest.raises(ProblemError):
            aiming_inner_product(prob, np.zeros(prob.dim), 0.0, oracle)


class TestCounterexamples:
    def test_log_grid(self):
        report = counterexample_log_aiming()
        assert len(report.rows) == 100
        assert report.aiming_all_pass
        assert report.convexity_all_fail
        by_x = {r.x[0]: r for r in report.rows}
        assert by_x[2.0].inner_product == pytest.approx(2.0, rel=1e-14)
        assert by_x[0.1].curvature_witness == pytest.approx(-100.0, rel=1e-10)

    def test_log_report_csv(self):
        report = counterexample_log_aiming()
        rows = report.csv_rows()
        assert rows[0].startswith("x,")
        assert len(rows) == 101

    def test_quadratic_exact_value(self):
        report = counterexample_quadratic_not_aiming()
        assert report["aiming_value"] == -0.5
        assert report["aiming_violated"]
        np.testing.assert_allclose(report["eigenvalues"], [0.0, 5.0], atol=1e-12)
        assert report["psd_certified"]

    def test_quadratic_extra_point(self):
        report = counterexample_quadratic_not_aiming()
        extras = dict((tuple(p), v) for p, v in report["extra_points"])
        # sign(A @ (1,1)) = sign((-1, 2)) = (-1, 1): inner product 0
        assert extras[(1.0, 1.0)] == 0.0
