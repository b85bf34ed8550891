"""Optimizer step rules: exact hand values, special-case collapses,
invariances, and state layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bcoslab.core import BlockPartition, NonFiniteError, ShapeError
from bcoslab.optim import (
    ALGORITHMS,
    OptimizerConfig,
    OptimizerError,
    OptimizerState,
    _safe_divide,
    conceptual_update,
    optimal_stepsizes,
    step,
    trace_rows,
)


def run_steps(config, x0, gradients, alpha):
    x = np.array(x0, dtype=np.float64)
    part = BlockPartition.singleton(x.shape[0])
    state = OptimizerState()
    for g in gradients:
        x, state = step(config, state, x, np.array(g, dtype=np.float64), alpha, part)
    return x, state


class TestStepHandValues:
    def test_bcos_g_collapses_to_sign_step(self):
        cfg = OptimizerConfig("bcos_g", beta1=0.0, epsilon=0.0)
        x, _ = run_steps(cfg, [0.0, 0.0], [[4.0, -9.0]], alpha=0.1)
        np.testing.assert_array_equal(x, [-0.1, 0.1])

    def test_bcos_c_single_step(self):
        cfg = OptimizerConfig("bcos_c", beta1=0.9, epsilon=0.0)
        state = OptimizerState(t=1, m=np.array([1.0]))
        x, new_state = step(cfg, state, np.array([0.0]), np.array([0.0]), 1.0,
                            BlockPartition.singleton(1))
        np.testing.assert_allclose(new_state.m, [0.9], rtol=0, atol=0)
        np.testing.assert_allclose(x, [-0.9 / np.sqrt(0.99)], rtol=1e-15)
        assert new_state.v is None

    def test_decoupled_decay_only(self):
        cfg = OptimizerConfig("bcos_c", beta1=0.9, epsilon=0.0,
                              weight_decay_lambda=0.1, decoupled=True)
        state = OptimizerState(t=1, m=np.array([0.0, 0.0]))
        x, _ = step(cfg, state, np.array([2.0, -4.0]), np.array([0.0, 0.0]), 0.5,
                    BlockPartition.singleton(2))
        np.testing.assert_allclose(x, [0.95 * 2.0, 0.95 * -4.0], rtol=1e-15)

    def test_adam_matches_reference_loop(self):
        """Five steps of the EMA pair with zero-init rescaling agree with a
        direct transcription of the update."""
        cfg = OptimizerConfig("adam", beta1=0.9, beta2=0.99, epsilon=1e-8,
                              bias_correction="zero_init_rescale")
        rng = np.random.default_rng(5)
        grads = rng.standard_normal((5, 3))
        x, state = run_steps(cfg, np.zeros(3), grads, alpha=0.01)

        b1, b2 = 0.9, 0.99
        xs = np.zeros(3)
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            m_hat = m / (1 - b1 ** (t + 1))
            v_hat = v / (1 - b2 ** (t + 1))
            xs = xs - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(x, xs, rtol=1e-13)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)

    def test_first_sample_init_gives_sign_first_step(self):
        """Seeding the estimate with the first squared gradient makes the
        first update a sign step as epsilon -> 0."""
        rng = np.random.default_rng(11)
        g0 = rng.standard_normal(6)
        for alg in ("bcos_g", "bcos_m", "bcos_c", "adam"):
            cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.97, epsilon=0.0)
            x, state = run_steps(cfg, np.zeros(6), [g0], alpha=0.25)
            np.testing.assert_allclose(x, -0.25 * np.sign(g0), rtol=1e-12)
            if state.v is not None:
                np.testing.assert_allclose(state.v, g0**2, rtol=1e-15)

    def test_zero_init_rescale_first_step_matches_sign(self):
        """Both bias-correction modes begin with the same sign-like step, so
        the choice only matters for the transient."""
        rng = np.random.default_rng(19)
        g0 = rng.standard_normal(4)
        for alg in ("bcos_g", "bcos_m", "bcos_c", "adam"):
            cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.97, epsilon=0.0,
                                  bias_correction="zero_init_rescale")
            x, _ = run_steps(cfg, np.zeros(4), [g0], alpha=0.25)
            np.testing.assert_allclose(x, -0.25 * np.sign(g0), rtol=1e-12)

    def test_momentum_baseline_first_step(self):
        """With first-sample seeding the first momentum equals the gradient,
        so the first plain-momentum step is -alpha * g0."""
        g0 = np.array([1.5, -0.25])
        cfg = OptimizerConfig("sgd_momentum", beta1=0.9)
        x, state = run_steps(cfg, np.zeros(2), [g0], alpha=0.2)
        np.testing.assert_allclose(x, -0.2 * g0, rtol=1e-15)
        np.testing.assert_array_equal(state.m, g0)

    def test_fold_in_regularization(self):
        """Without decoupling, lambda*x joins the gradient before any state
        update."""
        lam = 0.3
        x0 = np.array([1.0, -2.0])
        g = np.array([0.5, 0.5])
        cfg = OptimizerConfig("bcos_g", beta1=0.5, epsilon=1e-6, weight_decay_lambda=lam)
        plain = OptimizerConfig("bcos_g", beta1=0.5, epsilon=1e-6)
        x1, s1 = run_steps(cfg, x0, [g], alpha=0.1)
        x2, s2 = run_steps(plain, x0, [g + lam * x0], alpha=0.1)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(s1.v, s2.v)


class TestStepErrors:
    def test_non_finite_gradient(self):
        cfg = OptimizerConfig("sgd")
        for g in ([np.nan], [1.0, float("nan")], [np.inf, 0.0]):
            with pytest.raises(NonFiniteError, match="^gradient contains NaN/Inf entries$"):
                step(cfg, OptimizerState(), np.zeros(len(g)), np.array(g), 0.1,
                     BlockPartition.singleton(len(g)))

    def test_shape_mismatch(self):
        """The iterate and the gradient must both be (n,) for the partition's n."""
        cfg = OptimizerConfig("sgd")
        for x, g in ((np.array([0.0, 1.0]), np.array([1.0])), (np.ones(3), np.ones(2)),
                     (np.ones((1, 2)), np.ones(2))):
            with pytest.raises(ShapeError, match=r"shape \(.*\) != \(2,\) of the partition"):
                step(cfg, OptimizerState(), x, g, 0.1, BlockPartition.singleton(2))

    def test_decoupled_unit_decay_rejected(self):
        cfg = OptimizerConfig("adam", weight_decay_lambda=2.0, decoupled=True)
        with pytest.raises(OptimizerError):
            step(cfg, OptimizerState(), np.array([1.0]), np.array([1.0]), 0.5,
                 BlockPartition.singleton(1))

    def test_negative_alpha_rejected(self):
        with pytest.raises(OptimizerError):
            step(OptimizerConfig("sgd"), OptimizerState(), np.array([1.0]), np.array([1.0]),
                 -0.1, BlockPartition.singleton(1))

    def test_conceptual_requires_oracle(self):
        with pytest.raises(OptimizerError):
            step(OptimizerConfig("conceptual_bcos"), OptimizerState(), np.array([1.0]),
                 np.array([1.0]), 0.1, BlockPartition.singleton(1))


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["epsilon", "weight_decay_lambda"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_float_named(self, field, value):
        """A bad float is a config error naming the field, not a
        NonFiniteError from the first step."""
        with pytest.raises(OptimizerError, match=f"^{field} must be finite and >= 0"):
            OptimizerConfig("sgd", decoupled=True, **{field: value})


class TestStepResult:
    @pytest.mark.parametrize("alg", sorted(set(ALGORITHMS) - {"conceptual_bcos"}))
    def test_new_iterate_is_read_only(self, alg):
        x, _ = step(OptimizerConfig(alg), OptimizerState(), np.array([1.0, -2.0]),
                    np.array([0.5, 0.25]), 0.1, BlockPartition.singleton(2))
        with pytest.raises(ValueError):
            x[0] = 5.0


def masked_divide(num, den):
    """The 0/0 -> 0 division written out: 0 wherever den is not positive."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])


class TestSafeDivide:
    @given(
        shape=st.sampled_from([(1,), (4,), (3, 5)]),
        positive=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_masked_divide_bitwise(self, shape, positive, data):
        """The direct divide taken when every denominator is positive and the
        masked one agree byte for byte, signed zeros and NaNs included."""
        num = data.draw(arrays(np.float64, shape, elements=st.one_of(st.floats(), SPECIAL_FLOATS)))
        den_entries = (st.floats(min_value=5e-324) if positive
                       else st.one_of(st.floats(), SPECIAL_FLOATS))
        den = data.draw(arrays(np.float64, shape, elements=den_entries))
        with np.errstate(all="ignore"):
            got = _safe_divide(num, den)
            expected = masked_divide(num, den)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestCollapsesAndInvariance:
    def test_sign_collapse_quick(self):
        """bcos_g with beta=0, eps=0 is the sign-gradient method; bcos_m with
        beta2=0, eps=0 is sign-momentum (bitwise over 30 steps)."""
        rng = np.random.default_rng(0)
        grads = rng.standard_normal((30, 4)) * 3
        a, _ = run_steps(OptimizerConfig("bcos_g", beta1=0.0, epsilon=0.0),
                         np.zeros(4), grads, 0.05)
        b, _ = run_steps(OptimizerConfig("sign_sgd", epsilon=0.0), np.zeros(4), grads, 0.05)
        np.testing.assert_array_equal(a, b)

        c, _ = run_steps(OptimizerConfig("bcos_m", beta1=0.9, beta2=0.0, epsilon=0.0),
                         np.zeros(4), grads, 0.05)
        d, _ = run_steps(OptimizerConfig("sign_momentum", beta1=0.9, epsilon=0.0),
                         np.zeros(4), grads, 0.05)
        np.testing.assert_array_equal(c, d)

    @pytest.mark.parametrize("alg", ["bcos_g", "bcos_m", "bcos_c", "adam"])
    def test_scale_invariance_quick(self, alg):
        rng = np.random.default_rng(3)
        grads = rng.standard_normal((20, 3))
        cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.95, epsilon=0.0)
        base, _ = run_steps(cfg, np.zeros(3), grads, 0.1)
        scaled, _ = run_steps(cfg, np.zeros(3), grads * 1e6, 0.1)
        np.testing.assert_allclose(scaled, base, rtol=1e-10)


class TestStateLayout:
    @pytest.mark.parametrize(
        "alg,count",
        [("sgd", 0), ("sign_sgd", 0), ("sgd_momentum", 1), ("sign_momentum", 1),
         ("bcos_g", 1), ("bcos_c", 1), ("bcos_m", 2), ("adam", 2)],
    )
    def test_state_vector_counts(self, alg, count):
        cfg = OptimizerConfig(alg)
        _, state = run_steps(cfg, np.zeros(3), np.ones((2, 3)), 0.1)
        assert sum(v is not None for v in (state.m, state.v)) == count
        assert len(ALGORITHMS[alg].state) == count

    def test_bcos_c_never_stores_v(self):
        cfg = OptimizerConfig("bcos_c", beta1=0.9)
        _, state = run_steps(cfg, np.zeros(2), np.ones((10, 2)), 0.1)
        assert state.v is None and state.m is not None

    def test_negative_v_state_rejected(self):
        with pytest.raises(OptimizerError):
            OptimizerState(t=1, v=np.array([-1.0]))


class TestBlockMode:
    def test_block_estimate_uses_block_norm(self):
        part = BlockPartition.from_sizes([2, 1])
        cfg = OptimizerConfig("bcos_g", beta1=0.0, epsilon=0.0)
        x = np.zeros(3)
        g = np.array([3.0, 4.0, 2.0])
        x1, state = step(cfg, OptimizerState(), x, g, 1.0, part)
        np.testing.assert_allclose(state.v, [25.0, 4.0])
        np.testing.assert_allclose(x1, [-3 / 5, -4 / 5, -1.0], rtol=1e-15)

    def test_singleton_blocks_match_coordinatewise(self):
        rng = np.random.default_rng(9)
        grads = rng.standard_normal((15, 4))
        cfg = OptimizerConfig("adam", beta1=0.8, beta2=0.9, epsilon=1e-6)
        part = BlockPartition.singleton(4)
        x1 = np.zeros(4)
        s1 = OptimizerState()
        for g in grads:
            x1, s1 = step(cfg, s1, x1, g, 0.05, part)
        x2, _ = run_steps(cfg, np.zeros(4), grads, 0.05)
        np.testing.assert_array_equal(x1, x2)


class TestConditionalEstimators:
    @given(
        st.floats(0.0, 0.99),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_conditional_v_nonnegative(self, beta, m_prev, g):
        """The conditional estimate is a convex combination of squares."""
        n = min(len(m_prev), len(g))
        m_prev = np.asarray(m_prev[:n])
        g = np.asarray(g[:n])
        v = (1 - (1 - beta) ** 2) * m_prev**2 + (1 - beta) ** 2 * g**2
        assert np.all(v >= 0)
        if np.all(m_prev == 0) and np.all(g == 0):
            assert np.all(v == 0)

    def test_full_conditional_matches_expansion(self):
        """The optional cross-term estimator agrees with the expanded
        momentum square when the momentum guess is exact."""
        beta = 0.9
        m_prev = np.array([0.7, -1.1])
        g = np.array([0.5, 2.0])
        m_t = beta * m_prev + (1 - beta) * g
        cfg = OptimizerConfig("bcos_c", beta1=beta, epsilon=0.0, conditional_full=True)
        state = OptimizerState(t=1, m=m_prev)
        x1, _ = step(cfg, state, np.array([0.0, 0.0]), g, 1.0, BlockPartition.singleton(2))
        v_expected = beta**2 * m_prev**2 + 2 * beta * (1 - beta) * m_prev * m_t + (1 - beta) ** 2 * g**2
        np.testing.assert_allclose(x1, -m_t / np.sqrt(v_expected), rtol=1e-14)

    def test_full_conditional_requires_bcos_c(self):
        with pytest.raises(OptimizerError):
            OptimizerConfig("adam", conditional_full=True)


class TestEpsilonPlacement:
    def test_inside_vs_outside(self):
        g = np.array([2.0])
        for placement, expected in (("outside_sqrt", 2.0 / (2.0 + 0.5)),
                                    ("inside_sqrt", 2.0 / np.sqrt(4.0 + 0.5))):
            cfg = OptimizerConfig("bcos_g", beta1=0.0, epsilon=0.5,
                                  epsilon_placement=placement)
            x, _ = run_steps(cfg, [0.0], [g], alpha=1.0)
            np.testing.assert_allclose(x, [-expected], rtol=1e-15)


class TestConceptualStep:
    def test_deterministic_direction_is_sign_step(self):
        part = BlockPartition.singleton(3)
        d = np.array([2.0, -0.5, 0.1])
        x1 = conceptual_update(np.zeros(3), d, d**2, 0.2, 0.0, part)
        np.testing.assert_allclose(x1, -0.2 * np.sign(d), rtol=1e-15)

    def test_zero_mean_direction_has_zero_mean_step(self):
        rng = np.random.default_rng(21)
        part = BlockPartition.singleton(2)
        sigma = np.array([1.0, 3.0])
        draws = sigma * rng.standard_normal((10**5, 2))
        steps = -0.5 * draws / np.sqrt(sigma**2)
        se = steps.std(axis=0, ddof=1) / np.sqrt(10**5)
        assert np.all(np.abs(steps.mean(axis=0)) <= 3 * se)

    def test_gaussian_mean_step_matches_oracle(self):
        rng = np.random.default_rng(22)
        mean = np.array([1.0, -2.0])
        sigma = np.array([2.0, 0.5])
        part = BlockPartition.singleton(2)
        x = np.zeros(2)
        n = 10**5
        draws = mean + sigma * rng.standard_normal((n, 2))
        # the elementwise form below equals conceptual_update; spot-check it
        for d in draws[:5]:
            np.testing.assert_array_equal(
                conceptual_update(x, d, mean**2 + sigma**2, 0.3, 0.0, part),
                -0.3 * d / np.sqrt(mean**2 + sigma**2),
            )
        outs = -0.3 * draws / np.sqrt(mean**2 + sigma**2)
        expected = -0.3 * mean / np.sqrt(mean**2 + sigma**2)
        se = outs.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(outs.mean(axis=0) - expected) <= 3 * se)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.sampled_from([(1, 1, 1, 1), (2, 2), (4,)]),
        S=st.integers(1, 9),
        alpha=st.floats(1e-4, 10.0),
        lam=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_batched_update_rows_match_one_row_update(self, sizes, S, alpha, lam, seed):
        """Each row of conceptual_update on an (S, n) stack is conceptual_update
        on that row alone, byte for byte: the ensemble and the replay share it."""
        part = BlockPartition.from_sizes(sizes)
        rng = np.random.default_rng(seed)
        X = 3.0 * rng.standard_normal((S, 4))
        mean = rng.standard_normal((S, 4))
        second = part.block_sums(mean**2 + rng.uniform(0.1, 2.0, (S, 4)))
        D = mean + rng.standard_normal((S, 4))
        batch = conceptual_update(X, D, second, alpha, lam, part)
        for i in range(S):
            row = conceptual_update(X[i], D[i], second[i], alpha, lam, part)
            assert row.tobytes() == batch[i].tobytes()


class TestOptimalStepsizes:
    def test_perfectly_aligned_direction(self):
        part = BlockPartition.full(3)
        x = np.array([2.0, -1.0, 0.5])
        x_star = np.zeros(3)
        diff = x
        second = np.array([float(diff @ diff)])
        np.testing.assert_allclose(optimal_stepsizes(x, x_star, diff, second, part), [1.0],
                                   rtol=1e-15)

    def test_orthogonal_direction(self):
        part = BlockPartition.full(2)
        x = np.array([1.0, 0.0])
        x_star = np.zeros(2)
        mean, second = np.array([0.0, 1.0]), np.array([4.0])
        np.testing.assert_allclose(optimal_stepsizes(x, x_star, mean, second, part), [0.0])

    def test_grid_search_confirms_minimizer(self):
        """Brute-force scan of the one-step expected squared distance confirms
        the closed-form stepsize block by block."""
        rng = np.random.default_rng(33)
        part = BlockPartition.from_sizes([2, 3])
        for _ in range(5):
            x = rng.standard_normal(5)
            x_star = rng.standard_normal(5)
            mean = rng.standard_normal(5)
            var = rng.uniform(0.5, 2.0, size=5)
            second_d = part.block_sums(mean**2 + var)
            gamma_hat = optimal_stepsizes(x, x_star, mean, second_d, part)
            grid = np.linspace(-2, 2, 10_001)
            for k, (lo, hi) in enumerate(((0, 2), (2, 5))):
                dxk = x[lo:hi] - x_star[lo:hi]
                inner = float(dxk @ mean[lo:hi])
                second = float(second_d[k])
                objective = -2 * grid * inner + grid**2 * second
                best = grid[np.argmin(objective)]
                assert abs(best - gamma_hat[k]) <= (grid[1] - grid[0]) + 1e-12

    def test_rejects_inconsistent_moments(self):
        """A second moment below the squared block mean is not a moment pair,
        and a zero one leaves the stepsize undefined."""
        part = BlockPartition.singleton(1)
        with pytest.raises(OptimizerError, match="below squared block mean"):
            optimal_stepsizes(np.ones(1), np.zeros(1), np.array([2.0]), np.array([1.0]), part)
        with pytest.raises(OptimizerError, match="^optimal stepsizes need strictly positive "
                                                 "second moments$"):
            optimal_stepsizes(np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1), part)


class TestGoldenTrace:
    def test_frozen_trace(self):
        """Regression pin: a short decayed conditional-estimator trace, frozen
        at the digits round-trip repr emits. Any semantic change to the update
        or the trace format shows up here."""
        grads = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]])
        cfg = OptimizerConfig("bcos_c", beta1=0.9, epsilon=1e-6,
                              weight_decay_lambda=0.1, decoupled=True)
        rows = trace_rows(cfg, np.array([1.0, -2.0]), grads, [0.1, 0.05, 0.025],
                          BlockPartition.singleton(2))
        assert rows == [
            "t,x0,x1,m0,m1,v0,v1",
            "1,0.8900001999996,-1.8800000999999,0.5,-1.0,,",
            "2,0.8278152831915366,-1.8266436122248528,0.6,-0.875,,",
            "3,0.8064250404654576,-1.8056350104769598,0.4650000000000001,-0.5875,,",
        ]

    def test_replay_is_byte_identical(self):
        rng = np.random.default_rng(77)
        grads = rng.standard_normal((25, 3))
        cfg = OptimizerConfig("bcos_m", beta1=0.9, beta2=0.95, epsilon=1e-6,
                              weight_decay_lambda=0.01, decoupled=True)
        x0, part = np.ones(3), BlockPartition.singleton(3)
        rows1 = trace_rows(cfg, x0, grads, [0.1] * 25, part)
        rows2 = trace_rows(cfg, x0, grads, [0.1] * 25, part)
        assert rows1 == rows2
        assert rows1[0].startswith("t,x0")
        assert len(rows1) == 26
