"""Trajectory statistics, rate fits, estimator diagnostics, and the
deterministic verifiers."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bcoslab import analysis
from bcoslab.analysis import (
    AnalysisError,
    DivergenceError,
    EstimatorStats,
    RatioDistribution,
    contraction_noise_bound,
    estimator_stats,
    fit_powerlaw,
    k_p_tail,
    mc_mean_se,
    mc_variance_se,
    mean_trajectory,
    neighborhood_radius,
    one_step_contraction_check,
    run_trajectory,
    step_gap_bound,
    verify_ratio_expansion,
)
from bcoslab.core import BlockPartition, NonFiniteError, ParamVector, vector
from bcoslab.optim import (
    ALGORITHMS,
    MomentOracle,
    OptimizerConfig,
    OptimizerState,
    init_state,
    momentum_moments,
    normalize,
    propose,
    step,
)
from bcoslab.problems import (
    MC_STREAM,
    TRAJECTORY_STREAM,
    LogisticSmokeProblem,
    NoisyQuadratic,
    aiming_values,
    make_rng,
)
from bcoslab.schedules import constant, inverse_time, value_at


def centered_quadratic(n=3, sigma=1.0):
    return NoisyQuadratic(h=np.linspace(1.0, 2.0, n), sigma=sigma, x_star=np.zeros(n))


class TestNoiseBound:
    def test_no_decay(self):
        assert contraction_noise_bound(7, 0.0, np.zeros(7)) == 7.0

    def test_scalar_case(self):
        assert contraction_noise_bound(1, 1.0, np.array([1.0])) == 4.0

    def test_hand_value(self):
        assert contraction_noise_bound(2, 0.5, np.array([3.0, -4.0])) == pytest.approx(15.25)

    def test_length_checked(self):
        with pytest.raises(AnalysisError):
            contraction_noise_bound(3, 0.1, np.zeros(2))


class TestRateFit:
    def test_exact_inverse_law(self):
        t = np.arange(2000)
        fit = fit_powerlaw(t, 3.0 / (t + 1.0), (10, 1990))
        assert fit.slope == pytest.approx(-1.0, abs=1e-3)
        assert fit.r_squared > 0.999999

    def test_exact_power_law(self):
        t = np.arange(2000)
        fit = fit_powerlaw(t, 0.7 / (t + 1.0) ** 0.75, (10, 1990))
        assert fit.slope == pytest.approx(-0.75, abs=1e-3)

    def test_rejects_nonpositive_values(self):
        t = np.arange(100)
        vals = 1.0 / (t + 1.0)
        vals[50] = 0.0
        with pytest.raises(AnalysisError):
            fit_powerlaw(t, vals, (1, 99))

    def test_rejects_short_window(self):
        t = np.arange(100)
        with pytest.raises(AnalysisError):
            fit_powerlaw(t, 1.0 / (t + 1.0), (1, 10))


class TestRatePreconditions:
    def test_inverse_time_window(self):
        from bcoslab.schedules import inverse_time, power

        assert analysis.rate_preconditions(inverse_time(0.5), 1.5) == []
        assert analysis.rate_preconditions(inverse_time(0.5), 0.5) != []
        assert analysis.rate_preconditions(inverse_time(2.0), 1.0) != []
        assert analysis.rate_preconditions(power(0.3, 0.75), 1.0) == []
        assert analysis.rate_preconditions(power(2.0, 0.75), 1.0) != []
        assert analysis.rate_preconditions(constant(0.1), 1.0) != []


class TestRunTrajectory:
    def test_zero_steps_single_record(self):
        prob = centered_quadratic()
        cfg = OptimizerConfig("sgd")
        records = run_trajectory(prob, cfg, constant(0.1), 0, base_seed=0)
        assert len(records) == 1 and records[0].t == 0

    def test_seed_replay_bit_identical(self):
        prob = centered_quadratic()
        cfg = OptimizerConfig("bcos_c", beta1=0.9, weight_decay_lambda=0.1, decoupled=True)
        a = run_trajectory(prob, cfg, inverse_time(0.5), 40, base_seed=5)
        b = run_trajectory(prob, cfg, inverse_time(0.5), 40, base_seed=5)
        assert [r.dist_sq for r in a] == [r.dist_sq for r in b]
        assert [r.aiming_value for r in a] == [r.aiming_value for r in b]

    def test_zero_noise_conceptual_is_scaled_sign_walk(self):
        """With no noise the direction normalizes to a pure sign, so each
        coordinate moves by exactly alpha per step."""
        prob = NoisyQuadratic(h=[1.0, 3.0], sigma=0.0, x_star=[0.0, 0.0])
        cfg = OptimizerConfig("conceptual_bcos")
        records = run_trajectory(prob, cfg, constant(0.25), 4, base_seed=0,
                                 x0=np.array([2.0, -2.0]))
        expected = [8.0, 2 * 1.75**2, 2 * 1.5**2, 2 * 1.25**2, 2.0]
        np.testing.assert_allclose([r.dist_sq for r in records], expected, rtol=1e-12)

    def test_divergence_aborts_with_records(self):
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        cfg = OptimizerConfig("sgd")
        with pytest.raises(DivergenceError) as err:
            run_trajectory(prob, cfg, constant(4.0), 100, base_seed=0, x0=np.array([1.0]))
        assert len(err.value.records) >= 1
        assert err.value.records[-1].dist_sq > analysis.DIVERGENCE_THRESHOLD

    def test_momentum_aiming_recorded_after_priming(self):
        prob = centered_quadratic()
        cfg = OptimizerConfig("bcos_c", beta1=0.9)
        records = run_trajectory(prob, cfg, constant(0.05), 5, base_seed=1)
        assert records[0].aiming_value is None  # momentum not primed yet
        assert all(r.aiming_value is not None for r in records[1:])

    def test_one_record_per_step_strictly_increasing(self):
        prob = centered_quadratic()
        records = run_trajectory(prob, OptimizerConfig("adam"), constant(0.05),
                                 17, base_seed=2)
        assert [r.t for r in records] == list(range(18))
        assert all(r.dist_sq >= 0 for r in records)

    def test_block_mode_trajectory(self):
        """A coarser partition threads through sampling, stepping, and the
        aiming diagnostics."""
        prob = centered_quadratic(n=4)
        part = BlockPartition.from_sizes([2, 2])
        cfg = OptimizerConfig("bcos_m", beta1=0.9, beta2=0.95,
                              weight_decay_lambda=0.2, decoupled=True)
        records = run_trajectory(prob, cfg, constant(0.05), 200, base_seed=3,
                                 partition=part)
        assert records[-1].dist_sq < records[0].dist_sq
        assert records[-1].aiming_value is not None


class TestMeanTrajectory:
    def test_deterministic_dynamics_zero_se(self):
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=0.0, x_star=[0.0, 0.0])
        cfg = OptimizerConfig("conceptual_bcos")
        curve = mean_trajectory(prob, cfg, constant(0.1), 30, n_seeds=20, base_seed=0)
        assert np.all(curve.se_dist_sq == 0.0)

    def test_fast_path_matches_per_seed_replay_exactly(self):
        prob = centered_quadratic(n=4)
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=0.4, decoupled=True)
        sch = inverse_time(1.0)
        curve = mean_trajectory(prob, cfg, sch, 60, n_seeds=2, base_seed=9)
        d = [
            np.array([r.dist_sq for r in run_trajectory(prob, cfg, sch, 60, 9, seed_index=i)])
            for i in range(2)
        ]
        manual = d[0] + ((d[0] - d[0]) + (d[1] - d[0])) / 2
        np.testing.assert_array_equal(curve.mean_dist_sq, manual)

    def test_doubling_seeds_shrinks_se(self):
        """SE^2 halves when the seed count doubles, within 20%."""
        prob = centered_quadratic()
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=0.2, decoupled=True)
        a = mean_trajectory(prob, cfg, constant(0.2), 200, n_seeds=400, base_seed=0)
        b = mean_trajectory(prob, cfg, constant(0.2), 200, n_seeds=800, base_seed=0)
        tail = slice(100, None)
        ratio = np.mean(a.se_dist_sq[tail] ** 2) / np.mean(b.se_dist_sq[tail] ** 2)
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_requires_two_seeds(self):
        prob = centered_quadratic()
        with pytest.raises(AnalysisError):
            mean_trajectory(prob, OptimizerConfig("sgd"), constant(0.1), 5, n_seeds=1)

    def test_divergence_propagates(self):
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        with pytest.raises(DivergenceError):
            mean_trajectory(prob, OptimizerConfig("sgd"), constant(4.0), 120,
                            n_seeds=2, base_seed=0, x0=np.array([1.0]))


class TestDivergenceReport:
    def test_per_seed_engine_names_seed_step_and_distance(self):
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        with pytest.raises(DivergenceError) as err:
            run_trajectory(prob, OptimizerConfig("sgd"), constant(4.0), 100,
                           base_seed=0, seed_index=3, x0=np.array([1.0]))
        last = err.value.records[-1]
        assert str(err.value) == (
            f"seed 3 diverged at t={last.t}: squared distance {last.dist_sq:.3e}"
        )

    def test_vectorized_engine_attaches_the_seed_record(self):
        """Conceptual updates at a huge constant stepsize blow up in the
        lockstep ensemble; the error carries the same record the per-seed
        replay of that seed ends with."""
        prob = centered_quadratic(n=4)
        cfg = OptimizerConfig("conceptual_bcos")
        with pytest.raises(DivergenceError) as err:
            mean_trajectory(prob, cfg, constant(1e6), 50, n_seeds=4, base_seed=0)
        (rec,) = err.value.records
        assert rec.dist_sq > analysis.DIVERGENCE_THRESHOLD
        seed = int(str(err.value).split()[1])
        assert str(err.value) == (
            f"seed {seed} diverged at t={rec.t}: squared distance {rec.dist_sq:.3e}"
        )
        with pytest.raises(DivergenceError) as replay:
            run_trajectory(prob, cfg, constant(1e6), 50, base_seed=0, seed_index=seed)
        assert replay.value.records[-1] == rec


    def test_last_row_is_checked_on_both_engines(self):
        """A run whose final iterate passes the threshold diverged: the
        replay and the ensemble both stop there with the same record."""
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        cfg = OptimizerConfig("sgd")
        with pytest.raises(DivergenceError) as replay:
            run_trajectory(prob, cfg, constant(4.0), 13, base_seed=0, x0=np.array([1.0]))
        with pytest.raises(DivergenceError) as err:
            mean_trajectory(prob, cfg, constant(4.0), 13, n_seeds=2, base_seed=0,
                            x0=np.array([1.0]))
        assert replay.value.records[-1].t == 13
        assert err.value.records == [replay.value.records[-1]]
        assert str(err.value) == str(replay.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("alg, alpha, t", [
        # a noiseless iterate lands on the target at t=3, where the direction is 0/0
        ("conceptual_bcos", 1.0, 3),
        ("sgd", 1e308, 0),
    ])
    def test_nonfinite_step_named_on_both_engines(self, alg, alpha, t):
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        cfg = OptimizerConfig(alg)
        x0 = np.array([3.0])
        with pytest.raises(NonFiniteError) as replay:
            run_trajectory(prob, cfg, constant(alpha), 10, base_seed=0, x0=x0)
        with pytest.raises(NonFiniteError) as err:
            mean_trajectory(prob, cfg, constant(alpha), 10, n_seeds=2, base_seed=0, x0=x0)
        assert str(replay.value) == str(err.value) == (
            f"{alg} step produced non-finite parameters at seed 0, t={t}"
        )

    def test_nonfinite_gradient_row_fails_as_each_row_would(self):
        """One seed's infinite draw makes a row of the ensemble's batched
        gradient (a conceptual direction, for conceptual_bcos) non-finite; the
        run fails as the replay of that seed does, naming the gradient, the
        seed and the step."""
        for alg in ("bcos_c", "conceptual_bcos"):
            cfg = OptimizerConfig(alg)
            prob = PoisonedDraw(seed=2, t=5)
            with pytest.raises(NonFiniteError) as err:
                mean_trajectory(prob, cfg, constant(0.05), 10, n_seeds=4, base_seed=0)
            assert prob.poisoned
            replay_prob = PoisonedDraw(seed=2, t=5)
            with pytest.raises(NonFiniteError) as replay:
                run_trajectory(replay_prob, cfg, constant(0.05), 10, base_seed=0, seed_index=2)
            assert replay_prob.poisoned
            assert str(err.value) == str(replay.value) == (
                f"{alg} gradient is non-finite at seed 2, t=5"
            )


class PoisonedDraw(NoisyQuadratic):
    """A three-coordinate quadratic whose noise for one seed is infinite at
    one step. mean_trajectory draws the first chunk seed by seed in index
    order after a zero-width probe, so the draw of that seed's chunk is the
    (seed+1)-th nonempty one. run_trajectory draws one step at a time along
    one seed, so there the draw of step t is the (t+1)-th."""

    def __init__(self, seed, t):
        super().__init__(h=[1.0, 2.0, 0.5], sigma=1.0, x_star=[0.0, 0.0, 0.0])
        self.target, self.t, self.draws, self.poisoned = seed, t, 0, False

    def draw(self, rng, shape=()):
        z = super().draw(rng, shape)
        if z.size:
            one_step = shape == ()
            if self.draws == (self.t if one_step else self.target):
                z[(1,) if one_step else (self.t, 1)] = -np.inf
                self.poisoned = True
            self.draws += 1
        return z


def per_step_ensemble(problem, config, schedule, T, n_seeds, base_seed, x0=None):
    """The lockstep conceptual ensemble with its diagnostics recorded one step
    at a time, as the library did before it recorded blocks of steps: the
    reference the block recorder must match bit for bit."""
    n = problem.dim
    h, sig, x_star = problem.h, problem.sigma, problem.x_star
    lam = config.weight_decay_lambda if config.decoupled else 0.0
    start = problem.default_start() if x0 is None else np.asarray(x0, dtype=np.float64)
    X = np.tile(start, (n_seeds, 1))
    rngs = [make_rng(base_seed, TRAJECTORY_STREAM, i) for i in range(n_seeds)]
    mean_curve, se_curve, loss_curve, aim_curve = (np.empty(T + 1) for _ in range(4))
    alphas = np.array([value_at(schedule, t) for t in range(T + 1)])
    var = (h * sig) ** 2

    def record(t):
        diff = X - x_star
        dist = np.einsum("ij,ij->i", diff, diff)
        d0 = dist[0]
        delta = dist - d0
        s1 = delta.sum()
        mean_curve[t] = d0 + s1 / n_seeds
        v = (np.dot(delta, delta) - s1 * s1 / n_seeds) / (n_seeds - 1)
        se_curve[t] = math.sqrt(max(v, 0.0) / n_seeds)
        loss_curve[t] = float(np.mean(0.5 * np.sum(h * diff * diff, axis=1)))
        mean_g = h * diff
        second = mean_g * mean_g + var
        aim = np.sum(diff * mean_g / np.sqrt(second), axis=1)
        if lam > 0:
            aim += lam * np.sum(diff * X, axis=1) - lam * dist
        aim_curve[t] = float(np.min(aim))
        return dist

    chunk = max(1, int(4_000_000 / max(1, n_seeds * n)))
    t = 0
    while t < T:
        width = min(chunk, T - t)
        noise = np.empty((n_seeds, width, n))
        for i, rng in enumerate(rngs):
            noise[i] = rng.standard_normal((width, n))
        for j in range(width):
            dist = record(t + j)
            if np.max(dist) > analysis.DIVERGENCE_THRESHOLD:
                part = BlockPartition.singleton(n)
                oracle = analysis._direction_moments(problem, config, X, None, part)
                raise analysis._divergence(problem, config, schedule, part, t + j, X, dist,
                                           *oracle)
            alpha = alphas[t + j]
            mean_g = h * (X - x_star)
            g = mean_g - h * (sig * noise[:, j, :])
            den = np.sqrt(mean_g * mean_g + var)
            X = (1.0 - alpha * lam) * X - alpha * g / den
        t += width
    record(T)
    return mean_curve, se_curve, loss_curve, alphas, aim_curve


def curve_bytes(curve):
    return [a.tobytes() for a in (curve.mean_dist_sq, curve.se_dist_sq,
                                  curve.mean_loss, curve.alpha, curve.aiming_min)]


class TestEnsembleBlockRecorder:
    B = analysis._BLOCK

    @settings(max_examples=20, deadline=None)
    @given(
        S=st.integers(2, 300),
        n=st.integers(1, 12),
        T=st.integers(0, 3 * analysis._BLOCK).filter(lambda T: T % analysis._BLOCK != 0 or T == 0),
        lam=st.sampled_from([0.0, 0.7, 1.5]),
        seed=st.integers(0, 2**16),
    )
    # T = 1200 also crosses 4 noise chunks (277 steps at S*n = 3600), and takes
    # the pairwise np.sum path of n >= 8
    @example(S=300, n=12, T=1200, lam=1.5, seed=0)
    # the column-add path of n < 8 across recorder blocks and a noise chunk
    # (833 steps at S*n = 1200)
    @example(S=300, n=4, T=1000, lam=1.5, seed=0)
    @example(S=2, n=1, T=0, lam=0.0, seed=0)
    def test_matches_per_step_reference(self, S, n, T, lam, seed):
        prob = NoisyQuadratic(h=np.linspace(1.0, 2.0, n), sigma=np.linspace(0.5, 1.5, n),
                              x_star=np.linspace(-1.0, 1.0, n))
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=lam, decoupled=True)
        sch = inverse_time(0.5)
        ref = per_step_ensemble(prob, cfg, sch, T, S, seed)
        curve = mean_trajectory(prob, cfg, sch, T, n_seeds=S, base_seed=seed)
        assert curve_bytes(curve) == [a.tobytes() for a in ref]
        assert curve.t.tobytes() == np.arange(T + 1).tobytes()

    @pytest.mark.parametrize("alpha", [1e3, 2.03])
    def test_divergence_mid_block_matches_per_step_reference(self, alpha):
        """Decay past 1 makes the iterates grow geometrically. At alpha=1e3
        the steps run after the crossing, before the block is recorded,
        overflow; none of their warnings may reach the caller. At 2.03 the
        crossing falls in the second block."""
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=0.5, x_star=[0.0, 1.0])
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=1.0, decoupled=True)
        sch = constant(alpha)
        with pytest.raises(DivergenceError) as ref:
            per_step_ensemble(prob, cfg, sch, 3 * self.B, 5, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                mean_trajectory(prob, cfg, sch, 3 * self.B, n_seeds=5, base_seed=0)
        assert str(err.value) == str(ref.value)
        assert err.value.records == ref.value.records
        assert err.value.records[0].t % self.B != 0

    def test_step_warnings_before_divergence_reach_the_caller(self):
        """A noiseless seed that lands exactly on the target makes the
        conceptual direction 0/0. The step's warning reaches the caller, and
        the run ends with a numeric error naming the seed and the step
        instead of recording NaN iterates, whatever the noise law."""
        cfg = OptimizerConfig("conceptual_bcos")
        for noise in ("gaussian", "student_t"):
            prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0], noise=noise)
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                with pytest.raises(NonFiniteError) as err:
                    mean_trajectory(prob, cfg, constant(1.0), 6, n_seeds=2, base_seed=0,
                                    x0=np.array([3.0]))
            assert str(err.value) == (
                "conceptual_bcos step produced non-finite parameters at seed 0, t=3"
            )
            assert [(w.category, str(w.message)) for w in warned] == [
                (RuntimeWarning, "invalid value encountered in divide")
            ]


def lockstep_run(problem, config, schedule, T, S, seed, **kwargs):
    """mean_trajectory's curve and the (T+1, S, n) iterates of its seeds,
    copied from the blocks it records."""
    blocks = []
    record = analysis._record_block

    def capture(problem, config, schedule, partition, X, *rest):
        blocks.append(X.copy())
        record(problem, config, schedule, partition, X, *rest)

    with mock.patch.object(analysis, "_record_block", capture):
        curve = mean_trajectory(problem, config, schedule, T, n_seeds=S, base_seed=seed,
                                **kwargs)
    return curve, np.concatenate(blocks)


class TestLockstepEngine:
    @settings(max_examples=12, deadline=None)
    @given(
        alg=st.sampled_from(sorted(ALGORITHMS)),
        kind=st.sampled_from(["gaussian", "student_t", "logistic"]),
        sizes=st.sampled_from([(1, 1, 1, 1), (2, 2), (4,)]),
        coupled=st.booleans(),
        S=st.integers(2, 9),
        T=st.integers(0, 600),
        sigma_every=st.sampled_from([0, 50]),
        seed=st.integers(0, 2**16),
    )
    # crosses two 256-step blocks with a momentum oracle in block mode
    @example(alg="bcos_c", kind="student_t", sizes=(2, 2), coupled=True, S=9, T=600,
             sigma_every=50, seed=0)
    @example(alg="conceptual_bcos", kind="student_t", sizes=(2, 2), coupled=True, S=9,
             T=300, sigma_every=0, seed=1)
    def test_seeds_replay_run_trajectory(self, alg, kind, sizes, coupled, S, T,
                                         sigma_every, seed):
        """Each seed of the lockstep ensemble follows its run_trajectory
        replay bit for bit (distances, losses, the sigma_t column along seed
        0), and the curves equal a seed-order reduction of the replays up to
        float reassociation."""
        assume(not (alg == "conceptual_bcos" and kind == "logistic"))
        if kind == "logistic":
            prob = LogisticSmokeProblem(n_features=4, n_samples=50, batch=8)
        else:
            prob = NoisyQuadratic(h=[1.0, 2.0, 0.5, 1.5], sigma=[0.5, 1.0, 1.5, 1.0],
                                  x_star=[1.0, -1.0, 0.0, 0.5], noise=kind)
        part = BlockPartition.from_sizes(sizes)
        cfg = OptimizerConfig(alg, weight_decay_lambda=0.1, decoupled=not coupled)
        sch = constant(0.05)
        curve, X = lockstep_run(prob, cfg, sch, T, S, seed, partition=part,
                                sigma_every=sigma_every)
        replays = [
            run_trajectory(prob, cfg, sch, T, seed, seed_index=i, partition=part,
                           sigma_every=sigma_every if i == 0 else 0)
            for i in range(S)
        ]
        dist = np.array([[r.dist_sq for r in rec] for rec in replays])
        loss = np.array([[r.loss for r in rec] for rec in replays])
        if prob.x_star is not None:
            diff = X - prob.x_star
            assert np.einsum("tij,tij->it", diff, diff).tobytes() == dist.tobytes()
        assert prob.loss(X).T.tobytes() == loss.tobytes()
        sigma = [np.nan if r.estimator_diag is None else r.estimator_diag.sigma_t
                 for r in replays[0]]
        np.testing.assert_array_equal(curve.sigma, sigma)
        assert curve.alpha.tolist() == [r.alpha_t for r in replays[0]]

        ref = dist[0]
        delta = dist - ref
        d_sum = np.zeros_like(ref)
        d_sq = np.zeros_like(ref)
        for row in delta[1:]:
            d_sum += row
            d_sq += row * row
        var = np.maximum((d_sq - d_sum**2 / S) / (S - 1), 0.0)
        aim = np.array([[np.nan if r.aiming_value is None else r.aiming_value for r in rec]
                        for rec in replays])
        np.testing.assert_allclose(curve.mean_dist_sq, ref + d_sum / S, rtol=1e-13)
        np.testing.assert_allclose(curve.se_dist_sq, np.sqrt(var / S), rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(curve.aiming_min, np.fmin.reduce(aim, axis=0),
                                   rtol=1e-12)
        assert curve.aiming_min.tobytes() == np.fmin.reduce(aim, axis=0).tobytes()
        np.testing.assert_allclose(curve.mean_loss, loss.sum(axis=0) / S, rtol=1e-13)


class TestAimingForms:
    def test_rearranged_form_equivalence(self):
        """The defining form minus lambda*dist^2 equals the inner product
        against lambda*x_star."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5], sigma=[1.0, 0.5, 2.0],
                              x_star=[1.0, -2.0, 0.5])
        rng = make_rng(12, MC_STREAM)
        lam = 0.3
        for _ in range(50):
            x = rng.standard_normal(3) * 4
            mean, second = prob.moments(x)
            diff = x - prob.x_star
            direct = float(aiming_values(x, diff, diff @ diff, lam, mean, second,
                                         BlockPartition.singleton(3)))
            normalized = mean / np.sqrt(second)
            rearranged = float((x - prob.x_star) @ (normalized + lam * prob.x_star))
            assert direct == pytest.approx(rearranged, rel=1e-12, abs=1e-12)

    def test_sif_form_equivalence(self):
        """E[d]/sqrt(E[d^2]) equals sqrt(rho) * sign(E[d]) coordinatewise."""
        rng = make_rng(13, MC_STREAM)
        mean = rng.standard_normal(6)
        var = rng.uniform(0.1, 2.0, size=6)
        part = BlockPartition.singleton(6)
        oracle = MomentOracle(mean, mean**2 + var, part)
        lhs = mean / np.sqrt(oracle.second_moment_d)
        # rho, the fraction of the second moment the mean carries
        rho = mean**2 / oracle.second_moment_d
        rhs = np.sqrt(rho) * np.sign(mean)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_sqrt_rho_sup_norm_bounded(self):
        rng = make_rng(14, MC_STREAM)
        for _ in range(100):
            mean = rng.standard_normal(5)
            var = rng.uniform(0.0, 3.0, size=5)
            oracle = MomentOracle(mean, mean**2 + var, BlockPartition.singleton(5))
            rho = mean**2 / oracle.second_moment_d
            assert np.max(np.sqrt(rho)) <= 1.0 + 1e-15


class TestContraction:
    def test_one_step_contraction_holds(self):
        prob = centered_quadratic(n=4)
        rng = make_rng(15, MC_STREAM)
        for i in range(3):
            x = rng.standard_normal(4) * 3
            check = one_step_contraction_check(prob, x, alpha=0.3, lam=0.4,
                                               n_mc=2 * 10**4, seed=i)
            assert check.aiming_value >= 0.0
            assert check.passed

    def test_contraction_with_offset_target(self):
        """A nonzero target exercises the decay-dependent terms of the noise
        bound; states are filtered on the aiming premise first."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5, 1.5], sigma=1.0,
                              x_star=np.array([1.0, -0.5, 2.0, 0.3]))
        rng = make_rng(17, MC_STREAM)
        checked = 0
        attempts = 0
        while checked < 8 and attempts < 200:
            attempts += 1
            x = prob.x_star + rng.standard_normal(4) * 2.0
            check = one_step_contraction_check(prob, x, alpha=0.25, lam=0.3,
                                               n_mc=2 * 10**4, seed=attempts)
            if check.aiming_value < 0.0:
                continue  # premise fails at this state; the bound is not claimed
            assert check.passed, check
            checked += 1
        assert checked == 8

    def test_refuses_without_moments_target_or_positive_second_moment(self):
        """The logistic problem has neither exact moments nor a target, and a
        noiseless quadratic at its target has zero second moments."""
        logistic = LogisticSmokeProblem()
        with pytest.raises(AnalysisError, match="exact moments and a target"):
            one_step_contraction_check(logistic, np.zeros(logistic.dim), 0.1, 0.0)
        noiseless = NoisyQuadratic(h=[1.0, 2.0], sigma=0.0, x_star=[1.0, -1.0])
        with pytest.raises(AnalysisError, match="strictly positive second moments"):
            one_step_contraction_check(noiseless, noiseless.x_star.copy(), 0.1, 0.0)


class TestStepGapBound:
    def make_stats(self, mean_d, snr_d, snr_v, corr):
        n = len(mean_d)
        return EstimatorStats(
            mean_d=np.asarray(mean_d, dtype=float),
            snr_d=np.asarray(snr_d, dtype=float),
            snr_v=np.asarray(snr_v, dtype=float),
            corr_dv=np.asarray(corr, dtype=float),
        )

    def test_all_terms_vanish(self):
        stats = self.make_stats([1.0, -1.0], [2.0, 2.0], [5.0, 5.0], [0.0, 0.0])
        assert step_gap_bound(stats, 0.0).value == 0.0

    def test_pure_bias_term(self):
        stats = self.make_stats([1.0], [4.0], [9.0], [0.0])
        assert step_gap_bound(stats, 0.2).value == pytest.approx(0.1)

    def test_correlation_term_hand_value(self):
        stats = self.make_stats([1.0], [4.0], [4.0], [1.0])
        assert step_gap_bound(stats, 0.0).value == pytest.approx(0.125)

    def test_zero_mean_coordinates_excluded(self):
        stats = self.make_stats([0.0, 1.0], [0.0, 4.0], [1e-9, 4.0], [1.0, 0.5])
        # were the first coordinate included, its tiny snr_v would dominate
        assert step_gap_bound(stats, 0.0).value == pytest.approx(0.0625)

    def test_tau_range_enforced(self):
        stats = self.make_stats([1.0], [1.0], [1.0], [0.0])
        with pytest.raises(AnalysisError):
            step_gap_bound(stats, 1.0)

    def test_nan_correlation_on_weighted_coordinate_rejected(self):
        stats = self.make_stats([1.0], [1.0], [1.0], [float("nan")])
        with pytest.raises(AnalysisError):
            step_gap_bound(stats, 0.0)

    def test_truncation_reported(self):
        stats = self.make_stats([1.0], [4.0], [100.0], [0.0])
        gap = step_gap_bound(stats, 0.2)
        assert gap.truncation == pytest.approx(0.2**2 / 2 + 1.1 * 0.01)


class TestPracticalNeighborhood:
    def test_plateau_inside_predicted_radius(self):
        """End to end: run the conditional-estimator method with decay and a
        diminishing schedule, measure the step-gap scalar along the way, and
        confirm the trajectory settles inside the predicted neighborhood."""
        from bcoslab.core import vector
        from bcoslab.optim import init_state, step
        from bcoslab.problems import TRAJECTORY_STREAM
        from bcoslab.schedules import inverse_time, value_at

        prob = centered_quadratic(n=4)
        lam = 1.0
        cfg = OptimizerConfig("bcos_c", beta1=0.9, epsilon=1e-6,
                              weight_decay_lambda=lam, decoupled=True)
        sch = inverse_time(0.6)
        rng = make_rng(42, TRAJECTORY_STREAM, 0)
        x = vector(np.full(4, 3.0))
        state = init_state()
        sigmas = []
        for t in range(10_000):
            g = prob.sample_gradient(x.values, rng)
            x, state = step(cfg, state, x, vector(g), value_at(sch, t))
            if t in (10, 100, 1000, 9999):
                stats = estimator_stats(prob, x.values, state, cfg, 10**4, seed=t)
                sigmas.append(stats.sigma_t)
        radius = neighborhood_radius(max(sigmas), cfg.epsilon, lam, 4)
        assert float(x.values @ x.values) <= radius**2


class TestNeighborhoodRadius:
    def test_exact_convergence_limit(self):
        assert neighborhood_radius(0.0, 0.0, 1.0, 5) == 0.0

    def test_hand_value(self):
        assert neighborhood_radius(0.25, 0.0, 1.0, 1) == pytest.approx(0.5)

    def test_linear_in_inverse_lambda(self):
        a = neighborhood_radius(0.3, 0.1, 0.5, 4)
        b = neighborhood_radius(0.3, 0.1, 1.0, 4)
        assert a == pytest.approx(2 * b)

    def test_lambda_zero_undefined(self):
        with pytest.raises(AnalysisError):
            neighborhood_radius(0.1, 0.0, 0.0, 3)


class TestEstimatorStats:
    def test_sign_mode_unbiased(self):
        prob = centered_quadratic()
        cfg = OptimizerConfig("sign_sgd", epsilon=0.0)
        stats = estimator_stats(prob, np.array([1.0, -2.0, 0.5]),
                                OptimizerState(), cfg, 10**4, seed=3)
        se = 4.0 * np.sqrt(stats.variance / stats.n_mc)
        assert np.all(stats.bias <= se)

    def test_constant_estimator_zero_variance(self):
        prob = centered_quadratic()
        cfg = OptimizerConfig("sgd", epsilon=0.0)
        stats = estimator_stats(prob, np.array([1.0, -2.0, 0.5]),
                                OptimizerState(), cfg, 10**4, seed=4)
        assert np.all(stats.variance == 0.0)
        assert np.all(stats.corr_dv == 0.0)

    def test_positive_correlation_for_conditional(self):
        """With a one-sided mean the squared-gradient estimate co-moves with
        the direction."""
        prob = NoisyQuadratic(h=[1.0], sigma=[0.3], x_star=[0.0])
        cfg = OptimizerConfig("bcos_c", beta1=0.9)
        state = OptimizerState(t=1, m=np.array([2.0]))
        stats = estimator_stats(prob, np.array([2.0]), state, cfg, 10**4, seed=5)
        assert stats.corr_dv[0] > 0.5

    def test_requires_enough_draws(self):
        prob = centered_quadratic()
        with pytest.raises(AnalysisError):
            estimator_stats(prob, np.zeros(3), OptimizerState(),
                            OptimizerConfig("sgd"), 100)

    def test_full_conditional_bias_shrinks_by_beta(self):
        """Keeping the momentum cross term multiplies the signed bias by the
        smoothing factor: the fresher momentum guess is that much closer to
        the gradient mean."""
        beta = 0.9
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=[0.6, 1.2], x_star=np.zeros(2))
        x = np.array([1.5, -1.0])
        m_prev = np.array([2.0, 0.8])
        state = OptimizerState(t=1, m=m_prev)
        simple = estimator_stats(prob, x, state,
                                 OptimizerConfig("bcos_c", beta1=beta),
                                 10**5, seed=8)
        full = estimator_stats(prob, x, state,
                               OptimizerConfig("bcos_c", beta1=beta,
                                               conditional_full=True),
                               10**5, seed=8)
        signed_simple = simple.mean_v - simple.exact_second_moment
        signed_full = full.mean_v - full.exact_second_moment
        se = np.sqrt(np.maximum(simple.variance, full.variance) / simple.n_mc)
        assert np.all(np.abs(signed_full - beta * signed_simple) <= 3 * se)

    def test_adam_bias_reference_is_momentum_second_moment(self):
        """The squared-gradient EMA estimates the second moment of the
        momentum direction, so the bias reference must be E[m^2]."""
        prob = centered_quadratic()
        x = np.array([1.0, -2.0, 0.5])
        m_prev = np.array([0.4, 0.1, -0.9])
        state = OptimizerState(t=1, m=m_prev,
                               v=np.array([1.0, 1.0, 1.0]))
        cfg = OptimizerConfig("adam", beta1=0.9, beta2=0.95)
        stats = estimator_stats(prob, x, state, cfg, 10**4, seed=7)
        _, m_second = momentum_moments(0.9, m_prev, *prob.moments(x))
        np.testing.assert_array_equal(stats.exact_second_moment, m_second)


PRACTICAL = [name for name, spec in ALGORITHMS.items() if spec.estimate is not None]


class TestEstimatorMatchesStep:
    @given(
        alg=st.sampled_from(PRACTICAL),
        bias_correction=st.sampled_from(["init_first_sample", "zero_init_rescale"]),
        placement=st.sampled_from(["outside_sqrt", "inside_sqrt"]),
        decoupled=st.booleans(),
        full=st.booleans(),
        priming=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_sampled_estimate_is_what_step_divides_by(
        self, alg, bias_correction, placement, decoupled, full, priming, seed
    ):
        """For every Monte Carlo draw, one step on that gradient lands where
        the harness's (direction, estimate) pair says it does, bit for bit."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5], sigma=[0.5, 1.0, 1.5], x_star=np.zeros(3))
        lam, alpha = 0.1, 0.05
        cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.95, epsilon=1e-6,
                              epsilon_placement=placement, weight_decay_lambda=lam,
                              decoupled=decoupled, bias_correction=bias_correction,
                              conditional_full=full and alg == "bcos_c")
        x, state = vector([1.2, -0.7, 2.0]), init_state()
        rng = make_rng(seed, TRAJECTORY_STREAM, 0)
        for _ in range(priming):
            x, state = step(cfg, state, x, vector(prob.sample_gradient(x.values, rng)), alpha)
        n_mc = 10**4
        stats = estimator_stats(prob, x.values, state, cfg, n_mc, seed=seed)

        G = prob.sample_gradients(x.values, make_rng(seed, MC_STREAM), n_mc)
        part = x.partition
        decay = 1.0 - alpha * lam if decoupled else 1.0
        d, v, _, _ = propose(cfg, state, G if decoupled else G + lam * x.values, part)
        # these are the draws the harness measured
        assert stats.mean_d.tobytes() == d.mean(axis=0).tobytes()
        assert stats.mean_v.tobytes() == v.mean(axis=0).tobytes()
        expected = decay * x.values - alpha * normalize(cfg, d, v, part)
        stepped = np.stack([step(cfg, state, x, ParamVector(g, part), alpha)[0].values for g in G])
        assert stepped.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alg", ["bcos_c", "adam", "sgd_momentum"])
    def test_rescaled_exact_moment_matches_corrected_direction(self, alg):
        """Without noise the direction is deterministic, so its exact second
        moment is its square; under zero-init rescaling that is the square
        of m/c1."""
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=0.0, x_star=np.zeros(2))
        cfg = OptimizerConfig(alg, beta1=0.9, bias_correction="zero_init_rescale")
        state = OptimizerState(t=2, m=np.array([0.3, -0.4]),
                               v=np.array([1.0, 2.0]))
        stats = estimator_stats(prob, np.array([1.5, -1.0]), state, cfg, 10**4)
        np.testing.assert_allclose(stats.exact_second_moment, stats.mean_d**2, rtol=1e-12)


class TestEstimatorSeeds:
    def test_default_stream_has_no_key(self):
        prob = centered_quadratic()
        x = np.array([1.0, -2.0, 0.5])
        stats = estimator_stats(prob, x, OptimizerState(), OptimizerConfig("sgd"),
                                10**4, seed=101)
        G = prob.sample_gradients(x, make_rng(101, MC_STREAM), 10**4)
        assert stats.mean_d.tobytes() == G.mean(axis=0).tobytes()

    def test_keyed_streams_do_not_collide(self):
        """The old seed base_seed*1009 + t made (0, 2018) and (1, 1009) draw
        the same samples."""
        prob = centered_quadratic()
        x = np.array([1.0, -2.0, 0.5])
        cfg = OptimizerConfig("sgd")
        a = estimator_stats(prob, x, OptimizerState(), cfg, 10**4, seed=0, key=(2018,))
        b = estimator_stats(prob, x, OptimizerState(), cfg, 10**4, seed=1, key=(1009,))
        assert not np.array_equal(a.mean_d, b.mean_d)

    def test_trajectory_diagnostic_uses_step_key(self):
        prob = centered_quadratic()
        cfg = OptimizerConfig("bcos_c", beta1=0.9)
        records = run_trajectory(prob, cfg, constant(0.05), 2, base_seed=7,
                                 sigma_every=2)
        x, state = vector(prob.default_start()), init_state()
        rng = make_rng(7, TRAJECTORY_STREAM, 0)
        for _ in range(2):
            x, state = step(cfg, state, x, vector(prob.sample_gradient(x.values, rng)), 0.05)
        expected = estimator_stats(prob, x.values, state, cfg, 10**4, seed=7, key=(2,))
        assert records[2].estimator_diag.sigma_t == expected.sigma_t

    def test_block_mode_has_no_diagnostic(self):
        """The diagnostic measures the coordinatewise estimate, which a step
        on coarser blocks does not divide by, so block mode reports none."""
        prob = centered_quadratic(n=4)
        cfg = OptimizerConfig("bcos_c", beta1=0.9)
        part = BlockPartition.from_sizes([2, 2])
        curve = mean_trajectory(prob, cfg, constant(0.05), 100, n_seeds=2, base_seed=7,
                                partition=part, sigma_every=50)
        assert np.all(np.isnan(curve.sigma))
        records = run_trajectory(prob, cfg, constant(0.05), 100, base_seed=7,
                                 partition=part, sigma_every=50)
        assert all(r.estimator_diag is None for r in records)


class TestMcHelpers:
    def test_variance_se_calibrated(self):
        rng = make_rng(16, MC_STREAM)
        x = rng.standard_normal((10**5, 2)) * 3.0
        se = mc_variance_se(x)
        assert np.all(np.abs(x.var(axis=0, ddof=1) - 9.0) <= 4 * se)

    def test_mean_se_shape(self):
        x = np.ones((100, 3))
        assert np.all(mc_mean_se(x) == 0.0)


class TestRatioExpansion:
    def test_zero_noise_scale_exact(self):
        report = verify_ratio_expansion(n_mc=10**4, noise_scales=(0.0,))
        assert report.rows[0].residual == 0.0

    def test_second_order_decay(self):
        report = verify_ratio_expansion(n_mc=2 * 10**5, noise_scales=(0.5, 0.25, 0.125))
        assert report.passed
        for check in report.checks:
            assert check.observed >= check.bound

    def test_independent_pair_still_decays(self):
        dist = RatioDistribution(coupling=0.0, y_noise=0.5)
        report = verify_ratio_expansion(dist, n_mc=2 * 10**5, noise_scales=(0.5, 0.25))
        assert report.passed

    def test_scales_must_decrease(self):
        with pytest.raises(AnalysisError):
            verify_ratio_expansion(n_mc=10**4, noise_scales=(0.1, 0.2))


class TestRecursionScan:
    def test_scan_matches_naive_loop(self):
        a, p, b = 2.0, 1.0, 1.0
        t0, T = 3, 5000
        x = 1.0
        for t in range(t0, T):
            x = (1 - a / t) * x + b / t ** (p + 1)
        scanned = analysis._scan_decay(
            lambda t: 1 - a / t, lambda t: b / t ** (p + 1), t0, T, 1.0, chunk=700
        )[0]
        assert scanned == pytest.approx(x, rel=1e-12)

    def test_quick_harmonic_limit(self):
        report = analysis.verify_chung_recursions(T=10**6)
        by_name = {c.name: c for c in report.checks}
        assert by_name["harmonic_decay_a2_p1_b1"].passed
        assert by_name["harmonic_decay_zero_drive"].passed

    def test_k_p_tail_closed_form(self):
        # sum over t>=1 of (t+1)^-2 = pi^2/6 - 1
        assert k_p_tail(1.0, terms=10**6) == pytest.approx(np.pi**2 / 6 - 1, abs=1e-5)


class TestDecayScan:
    def test_undriven_value_is_the_zero_drive_scan(self):
        """The second value of one scan equals a separate scan with a zero
        drive, bit for bit, across several chunks."""
        coeff = lambda t: 1.0 - 2.0 / t  # noqa: E731
        _, undriven = analysis._scan_decay(coeff, lambda t: 1.0 / t**2, 3, 5000, 1.0,
                                           chunk=700)
        assert undriven == analysis._scan_decay(coeff, lambda t: 0.0 / t, 3, 5000, 1.0,
                                                chunk=700)[0]

    @pytest.mark.parametrize("bad", [np.nan, 0.0, 1.0, -0.5])
    def test_coefficients_outside_the_open_unit_interval_rejected(self, bad):
        def coeff(t):
            c = np.full_like(t, 0.5)
            c[len(c) // 2] = bad
            return c

        with pytest.raises(AnalysisError, match="must lie in"):
            analysis._scan_decay(coeff, lambda t: 0.0 * t, 3, 100, 1.0)
