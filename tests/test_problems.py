"""Problem oracles, counterexample reports, and RNG discipline."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcoslab.core import BlockPartition
from bcoslab.optim import momentum_moments
from bcoslab.problems import (
    DATA_STREAM,
    MC_STREAM,
    TRAJECTORY_STREAM,
    LogisticSmokeProblem,
    NoisyQuadratic,
    ProblemError,
    _sigmoid,
    aiming_values,
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
    @pytest.mark.parametrize("noise", ["gaussian", "student_t"])
    def test_gradient_is_mean_minus_drawn_noise(self, noise):
        """The contract the conceptual update relies on: with exact moments
        the noise is additive, so gradient(x, z) is E[g] - z bit for bit on a
        stack of iterates, and sample_gradient is gradient of one draw."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5], sigma=[0.5, 1.0, 1.5],
                              x_star=[1.0, -1.0, 0.0], noise=noise)
        x = np.array([[0.3, -2.0, 4.0], [1.0, 1.0, 1.0]])
        z = prob.draw(make_rng(3, TRAJECTORY_STREAM), (2,))
        assert prob.gradient(x, z).tobytes() == (prob.moments(x)[0] - z).tobytes()
        g = prob.sample_gradient(x[0], make_rng(4, TRAJECTORY_STREAM))
        z0 = prob.draw(make_rng(4, TRAJECTORY_STREAM))
        assert g.tobytes() == prob.gradient(x[0], z0).tobytes()

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
            mean, _ = prob.moments(x)
            G = prob.sample_gradients(x, make_rng(1, MC_STREAM), 10**5)
            se = G.std(axis=0, ddof=1) / np.sqrt(10**5)
            assert np.all(np.abs(G.mean(axis=0) - mean) <= 4 * se)

    def test_second_moment_dominates_mean_square(self):
        prob = default_quadratic()
        mean, second = prob.moments(np.array([3.0, -1.0, 0.5]))
        assert np.all(second >= mean**2)

    def test_fold_in_shifts_mean_exactly(self):
        prob = default_quadratic()
        x = np.array([1.5, -2.0, 0.25])
        lam = 0.7
        plain_mean, plain_second = prob.moments(x)
        folded_mean, folded_second = prob.moments(x, fold_lambda=lam)
        np.testing.assert_array_equal(folded_mean, plain_mean + lam * x)
        # variance untouched: second - mean^2 identical
        np.testing.assert_allclose(
            folded_second - folded_mean**2,
            plain_second - plain_mean**2,
            rtol=1e-12, atol=1e-12,
        )

    def test_student_t_keeps_first_two_moments(self):
        prob = default_quadratic(noise="student_t")
        x = np.array([1.0, 2.0, 3.0])
        G = prob.sample_gradients(x, make_rng(2, MC_STREAM), 2 * 10**5)
        mean, second = prob.moments(x)
        se = G.std(axis=0, ddof=1) / np.sqrt(G.shape[0])
        assert np.all(np.abs(G.mean(axis=0) - mean) <= 4 * se)
        var = second - mean**2
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
        for h, sigma, x_star in [
            ([np.nan], [1.0], [0.0]),
            ([1.0], [np.nan], [0.0]),
            ([1.0], [np.inf], [0.0]),
            ([np.inf], [1.0], [0.0]),
            ([1.0], [1.0], [np.inf]),
            ([], 1.0, 0.0),
            ([[1.0, 2.0]], 1.0, 0.0),
            (1.0, 1.0, 0.0),
            ([1.0, 2.0], [1.0, 2.0, 3.0], 0.0),
            ([1.0, 2.0], 1.0, [0.0, 1.0, 2.0]),
        ]:
            with pytest.raises(ProblemError):
                NoisyQuadratic(h=h, sigma=sigma, x_star=x_star)


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

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(0, 300), b=st.integers(0, 300), n=st.integers(1, 12),
           n_samples=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
    @example(a=3, b=5, n=7, n_samples=1000, seed=0)
    @example(a=2, b=4, n=8, n_samples=50, seed=1)
    def test_gaussian_draws_are_chunk_invariant(self, a, b, n, n_samples, seed):
        """The stream contract the chunked ensemble noise relies on: one draw
        of a+b rows equals a rows then b rows, for Gaussian, Student-t and
        minibatch-index draws at odd and even widths, and a draw into a
        caller's buffer equals a draw of that shape, bit for bit."""
        whole = make_rng(seed, TRAJECTORY_STREAM, 1).standard_normal((a + b, n))
        rng = make_rng(seed, TRAJECTORY_STREAM, 1)
        head = rng.standard_normal((a, n))
        tail = np.empty((b, n))
        rng.standard_normal(out=tail)
        assert np.concatenate([head, tail]).tobytes() == whole.tobytes()
        for draw in (lambda rng, rows: rng.standard_t(5.0, size=(rows, n)),
                     lambda rng, rows: rng.integers(0, n_samples, size=(rows, n))):
            whole = draw(make_rng(seed, TRAJECTORY_STREAM, 1), a + b)
            rng = make_rng(seed, TRAJECTORY_STREAM, 1)
            assert np.concatenate([draw(rng, a), draw(rng, b)]).tobytes() == whole.tobytes()


class TestMomentumTracker:
    def test_mc_consistency(self):
        """1e5 one-step momentum replicas (shared previous momentum, fresh
        gradients) match the exact conditional second moment within 3 SE."""
        prob = default_quadratic()
        x = np.array([2.0, -1.0, 0.5])
        m_prev = np.array([0.3, 1.0, -0.7])
        beta = 0.9
        mean, second = momentum_moments(beta, m_prev, *prob.moments(x))
        G = prob.sample_gradients(x, make_rng(5, MC_STREAM), 10**5)
        M = beta * m_prev + (1 - beta) * G
        se_mean = M.std(axis=0, ddof=1) / np.sqrt(10**5)
        se_second = (M**2).std(axis=0, ddof=1) / np.sqrt(10**5)
        assert np.all(np.abs(M.mean(axis=0) - mean) <= 3 * se_mean)
        assert np.all(np.abs((M**2).mean(axis=0) - second) <= 3 * se_second)


def analytic_gradient(prob, x):
    """The full-data logistic gradient X^T (sigmoid(X x) - y) / N, with both
    products in einsum's own loops, as the problem makes them."""
    residual = _sigmoid(np.einsum("ij,j->i", prob.features, x)) - prob.labels
    return np.einsum("ij,i->j", prob.features, residual) / prob.n_samples


class TestLogisticSmoke:
    def test_full_batch_equals_analytic_gradient(self):
        prob = LogisticSmokeProblem(batch=1000, n_samples=1000)
        x = make_rng(6, MC_STREAM).standard_normal(prob.dim) * 0.1
        g = prob.sample_gradient(x, make_rng(7, TRAJECTORY_STREAM))
        np.testing.assert_array_equal(g, analytic_gradient(prob, x))

    def test_minibatch_gradient_unbiased(self):
        prob = LogisticSmokeProblem()
        x = make_rng(8, MC_STREAM).standard_normal(prob.dim) * 0.1
        rng = make_rng(9, MC_STREAM)
        G = np.stack([prob.sample_gradient(x, rng) for _ in range(20_000)])
        se = G.std(axis=0, ddof=1) / np.sqrt(G.shape[0])
        assert np.all(np.abs(G.mean(axis=0) - analytic_gradient(prob, x)) <= 4 * se)

    def test_no_moment_oracle(self):
        prob = LogisticSmokeProblem()
        assert prob.moments(np.zeros(prob.dim)) is None

    def test_loss_at_zero_is_log_two(self):
        prob = LogisticSmokeProblem()
        assert prob.loss(np.zeros(prob.dim)) == pytest.approx(np.log(2.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(S=st.integers(1, 50), n=st.integers(2, 33), n_samples=st.integers(20, 1500),
           batch=st.integers(1, 64), full=st.booleans(), seed=st.integers(0, 2**16))
    @example(S=50, n=33, n_samples=1500, batch=1500, full=True, seed=0)
    def test_stack_equals_its_rows_bitwise(self, S, n, n_samples, batch, full, seed):
        """gradient and loss on an (S, n) stack give each row the bits of its
        own call, with the full batch or a minibatch, and the loss of an
        (S, n) stack taken in pieces of 2**15 // n_samples rows does too: the
        products are einsum's own loops, whose sums do not depend on the
        rows stacked beside them."""
        prob = LogisticSmokeProblem(n_features=n, n_samples=n_samples,
                                    batch=n_samples if full else min(batch, n_samples),
                                    data_seed=seed)
        rng = make_rng(seed, MC_STREAM)
        X = rng.standard_normal((S, n))
        Z = prob.draw(rng, (S,))
        G = prob.gradient(X, Z)
        assert G.shape == (S, n)
        for x, z, g in zip(X, Z, G):
            assert prob.gradient(x, z).tobytes() == g.tobytes()
        rows = np.array([prob.loss(x) for x in X])
        assert prob.loss(X).tobytes() == rows.tobytes()
        out = np.empty((1, S))
        assert prob.loss(X[None], (None, None, out)) is out
        assert out.tobytes() == rows.tobytes()


def aiming(prob, x, lam, partition=None):
    """The aiming value at one point x, from the exact gradient moments per
    block of ``partition`` (coordinatewise by default)."""
    partition = partition or BlockPartition.singleton(prob.dim)
    mean, second = prob.moments(x)
    diff = x - prob.x_star
    return float(aiming_values(x, diff, diff @ diff, lam, mean, partition.block_sums(second),
                               partition))


class TestAiming:
    def test_zero_at_target(self):
        prob = default_quadratic()
        assert aiming(prob, prob.x_star.copy(), 0.5) == 0.0

    def test_one_dimensional_sign_direction(self):
        """When the normalized mean direction is exactly the sign of the
        offset, the aiming value is the absolute offset."""
        prob = NoisyQuadratic(h=[2.0], sigma=[0.0], x_star=[1.0])
        x = np.array([3.5])
        value = aiming(prob, x, 0.0)
        assert value == pytest.approx(abs(x[0] - 1.0), rel=1e-14)

    def test_full_block_convex_quadratic_nonnegative(self):
        """With one full-dimensional block and no decay, aiming reduces to the
        convexity inner product over the normalization scale."""
        prob = default_quadratic()
        part = BlockPartition.full(prob.dim)
        rng = make_rng(10, MC_STREAM)
        for _ in range(1000):
            x = prob.x_star + rng.standard_normal(prob.dim) * 3
            assert aiming(prob, x, 0.0, part) >= 0.0


class TestCounterexamples:
    def test_log_grid(self):
        report = counterexample_log_aiming()
        assert len(report.rows) == 100
        assert min(r.inner_product for r in report.rows) >= 0.0
        assert max(r.curvature_witness for r in report.rows) < 0.0
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
        np.testing.assert_allclose(report["eigenvalues"], [0.0, 5.0], atol=1e-12)
        assert report["psd_certified"]
