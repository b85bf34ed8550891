"""Trajectory statistics, rate fits, estimator diagnostics, and the
deterministic verifiers."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_acceptance import k_p_tail
from test_benchmark_surface import count_calls

from bcoslab import analysis, cli
from bcoslab.analysis import (
    AnalysisError,
    DivergenceError,
    EstimatorStats,
    RatioDistribution,
    TrajectoryRecord,
    contraction_noise_bound,
    estimator_stats,
    fit_powerlaw,
    mc_mean_se,
    mc_variance_se,
    mean_trajectory,
    neighborhood_radius,
    one_step_contraction_check,
    run_trajectory,
    step_gap_bound,
    verify_ratio_expansion,
)
from bcoslab.core import BlockPartition, NonFiniteError, ShapeError
from bcoslab.optim import (
    ALGORITHMS,
    OptimizerConfig,
    OptimizerState,
    conceptual_update,
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


def replay_seed(problem, config, schedule, T, base_seed, seed_index=0, x0=None,
                partition=None, sigma_every=0):
    """The records of one seed, replayed one draw per step through optim.step
    or optim.conceptual_update: the independent reference that run_trajectory
    and each seed of mean_trajectory must match bit for bit, faults
    included."""
    part = BlockPartition.singleton(problem.dim) if partition is None else partition
    x = problem.default_start() if x0 is None else np.array(x0, dtype=np.float64)
    rng = make_rng(base_seed, TRAJECTORY_STREAM, seed_index)
    state = OptimizerState()
    conceptual = config.algorithm == "conceptual_bcos"
    records = []
    for t in range(T + 1):
        moments = analysis._direction_moments(problem, config, x, state.m, part)
        diag = None
        if sigma_every > 0 and t > 0 and t % sigma_every == 0 and not conceptual:
            try:
                diag = estimator_stats(problem, x, state, config, analysis.SIGMA_N_MC,
                                       seed=base_seed, key=(t,), partition=part)
            except AnalysisError:
                pass
        dist_sq, aiming = float("nan"), None
        if problem.x_star is not None:
            diff = x - problem.x_star
            dist_sq = float(np.einsum("i,i->", diff, diff))
            if moments is not None:
                value = float(aiming_values(x, diff, dist_sq, config.decay_lambda, *moments,
                                            part))
                aiming = None if math.isnan(value) else value
        records.append(TrajectoryRecord(t, dist_sq, float(problem.loss(x)),
                                        value_at(schedule, t), aiming, diag))
        size = float(np.dot(x, x)) if math.isnan(dist_sq) else dist_sq
        if size > analysis.DIVERGENCE_THRESHOLD:
            raise DivergenceError(
                f"seed {seed_index} diverged at t={t}: squared distance {size:.3e}", records)
        if t == T:
            return records
        alpha = value_at(schedule, t)
        # the conceptual direction is its exact mean minus the drawn noise
        g = problem.draw(rng) if conceptual else problem.sample_gradient(x, rng)
        if not np.isfinite(g).all():
            raise NonFiniteError(
                f"{config.algorithm} gradient is non-finite at seed {seed_index}, t={t}")
        try:
            if conceptual:
                mean, second = moments
                x = conceptual_update(x, mean - g, second, alpha, config.decay_lambda, part)
                if not np.isfinite(x).all():
                    raise NonFiniteError("conceptual step produced non-finite parameters")
            else:
                x, state = step(config, state, x, g, alpha, part)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{config.algorithm} step produced non-finite parameters "
                                 f"at seed {seed_index}, t={t}") from exc


def record_bytes(rec):
    """Every field of a TrajectoryRecord as bytes, each array of its
    estimator diagnostic included."""
    diag = rec.estimator_diag
    return (rec.t, np.array([rec.dist_sq, rec.loss, rec.alpha_t]).tobytes(),
            rec.aiming_value is None, np.float64(rec.aiming_value or 0.0).tobytes(),
            None if diag is None else [
                None if v is None else np.asarray(v).tobytes()
                for v in (getattr(diag, f.name) for f in dataclasses.fields(diag))])


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
        with pytest.raises(AnalysisError, match=r"^window must start at t >= 1$"):
            fit_powerlaw(t, 1.0 / (t + 1.0), (0, 50))


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

    @settings(max_examples=10, deadline=None)
    @given(
        alg=st.sampled_from(sorted(ALGORITHMS)),
        kind=st.sampled_from(["gaussian", "student_t", "logistic"]),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        coupled=st.booleans(),
        seed_index=st.integers(0, 5),
        T=st.integers(0, 600),
        sigma_every=st.sampled_from([0, 50]),
        seed=st.integers(0, 2**16),
        far=st.booleans(),
    )
    # crosses two 256-step blocks with diagnostics along a momentum oracle
    @example(alg="bcos_c", kind="gaussian", sizes=[1, 1, 1, 1], coupled=False, seed_index=5,
             T=600, sigma_every=50, seed=0, far=False)
    @example(alg="conceptual_bcos", kind="student_t", sizes=[2, 1], coupled=True,
             seed_index=3, T=513, sigma_every=50, seed=1, far=False)
    @example(alg="adam", kind="logistic", sizes=[3, 1], coupled=True, seed_index=1, T=300,
             sigma_every=50, seed=2, far=False)
    # a target at 6e5 puts every iterate outside the engine's box, so every
    # iterate is checked against the threshold, which no distance nears
    @example(alg="bcos_c", kind="gaussian", sizes=[2, 2], coupled=False, seed_index=1,
             T=300, sigma_every=50, seed=7, far=True)
    @example(alg="conceptual_bcos", kind="gaussian", sizes=[1, 1, 1, 1], coupled=False,
             seed_index=1, T=300, sigma_every=0, seed=7, far=True)
    def test_matches_replay_seed(self, alg, kind, sizes, coupled, seed_index, T, sigma_every,
                                 seed, far):
        """run_trajectory(seed_index=i) is the one-step-at-a-time replay of
        seed i bit for bit in every record field, sigma_t and the rest of
        the estimator diagnostics included."""
        assume(not (alg == "conceptual_bcos" and kind == "logistic"))
        n = sum(sizes)
        if kind == "logistic":
            prob = LogisticSmokeProblem(n_features=n, n_samples=50, batch=8)
        else:
            prob = NoisyQuadratic(h=np.linspace(1.0, 2.0, n), sigma=np.linspace(0.5, 1.5, n),
                                  x_star=np.linspace(-1.0, 1.0, n) + (6e5 if far else 0.0),
                                  noise=kind)
        part = BlockPartition.from_sizes(sizes)
        cfg = OptimizerConfig(alg, weight_decay_lambda=0.1, decoupled=not coupled)
        sch = inverse_time(0.3)
        kwargs = dict(seed_index=seed_index, partition=part, sigma_every=sigma_every)
        records = run_trajectory(prob, cfg, sch, T, seed, **kwargs)
        replay = replay_seed(prob, cfg, sch, T, seed, **kwargs)
        assert [record_bytes(r) for r in records] == [record_bytes(r) for r in replay]


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
            np.array([r.dist_sq for r in replay_seed(prob, cfg, sch, 60, 9, seed_index=i)])
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


class TestStartCheck:
    """Both engines check the start the same way before anything reads it."""

    ENGINES = {
        "run_trajectory": lambda prob, cfg, T=3, **kw: run_trajectory(
            prob, cfg, constant(0.05), T, base_seed=0, **kw),
        "mean_trajectory": lambda prob, cfg, T=3, **kw: mean_trajectory(
            prob, cfg, constant(0.05), T, n_seeds=2, **kw),
    }

    # (id, engine keyword arguments, error, message) of a case that every
    # algorithm fails alike on the 4-dimensional quadratic
    BAD_STARTS = [
        ("short", {"x0": np.zeros(3)}, ShapeError, "start shape (3,) != (4,) of the problem"),
        ("nan", {"x0": np.array([0.0, np.nan, 0.0, 0.0])}, NonFiniteError,
         "start contains NaN/Inf entries"),
        ("2d", {"x0": np.zeros((1, 4))}, ShapeError, "start shape (1, 4) != (4,) of the problem"),
        ("partition", {"partition": BlockPartition.singleton(3)}, ShapeError,
         "partition dim 3 != problem dim 4"),
        ("horizon", {"T": -1}, AnalysisError, "T must be >= 0"),
    ]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("alg, prob, kwargs, error, message", [
        *[pytest.param(alg, centered_quadratic(n=4), kwargs, error, message, id=f"{name}-{alg}")
          for name, kwargs, error, message in BAD_STARTS
          for alg in ("bcos_c", "conceptual_bcos")],
        # the conceptual step needs exact moments, which the logistic problem lacks
        pytest.param("conceptual_bcos", LogisticSmokeProblem(n_features=4, n_samples=50, batch=8),
                     {}, AnalysisError, "conceptual runs need a problem with exact moments",
                     id="no_moments-conceptual_bcos"),
    ])
    def test_bad_start_fails_alike(self, engine, alg, prob, kwargs, error, message):
        with pytest.raises(error) as err:
            self.ENGINES[engine](prob, OptimizerConfig(alg), **kwargs)
        assert type(err.value) is error and str(err.value) == message


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
            replay_seed(prob, cfg, constant(1e6), 50, base_seed=0, seed_index=seed)
        assert replay.value.records[-1] == rec


    def test_last_row_is_checked_on_both_engines(self):
        """A run whose final iterate passes the threshold diverged: the
        replay, the one-seed run and the ensemble all stop there with the
        same record."""
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        cfg = OptimizerConfig("sgd")
        with pytest.raises(DivergenceError) as replay:
            replay_seed(prob, cfg, constant(4.0), 13, base_seed=0, x0=np.array([1.0]))
        with pytest.raises(DivergenceError) as err:
            mean_trajectory(prob, cfg, constant(4.0), 13, n_seeds=2, base_seed=0,
                            x0=np.array([1.0]))
        assert replay.value.records[-1].t == 13
        assert err.value.records == [replay.value.records[-1]]
        assert str(err.value) == str(replay.value)
        with pytest.raises(DivergenceError) as run:
            run_trajectory(prob, cfg, constant(4.0), 13, base_seed=0, x0=np.array([1.0]))
        assert run.value.records == replay.value.records
        assert str(run.value) == str(replay.value)

    def test_records_hold_every_step_up_to_the_divergence(self):
        """Decay past 1 makes the conceptual iterates of seed 2 pass the
        threshold at a step k > 256 that no block of 256 steps ends at. The
        one-seed run's error holds its records of steps 0 .. k, those of the
        replay, and names seed 2."""
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=0.5, x_star=[0.0, 1.0])
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=1.0, decoupled=True)
        with pytest.raises(DivergenceError) as err:
            run_trajectory(prob, cfg, constant(2.03), 3 * analysis._BLOCK, base_seed=0,
                           seed_index=2)
        records = err.value.records
        k = records[-1].t
        assert k > analysis._BLOCK and k % analysis._BLOCK != 0
        assert [r.t for r in records] == list(range(k + 1))
        assert records[-1].dist_sq > analysis.DIVERGENCE_THRESHOLD
        assert all(r.dist_sq <= analysis.DIVERGENCE_THRESHOLD for r in records[:-1])
        assert str(err.value) == (
            f"seed 2 diverged at t={k}: squared distance {records[-1].dist_sq:.3e}"
        )
        with pytest.raises(DivergenceError) as replay:
            replay_seed(prob, cfg, constant(2.03), 3 * analysis._BLOCK, base_seed=0,
                        seed_index=2)
        assert records == replay.value.records

    def test_no_diagnostic_is_made_past_a_divergence(self):
        """The engine checks a row outside its box for a divergence as it
        keeps it, so a run with a diagnostic due at every step samples none
        past the step where it diverges (not up to the end of its 256-step
        block)."""
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=0.5, x_star=[0.0, 1.0])
        cfg, sch = OptimizerConfig("sgd"), constant(2.03)
        for run in (lambda: run_trajectory(prob, cfg, sch, 1000, 0, sigma_every=1),
                    lambda: mean_trajectory(prob, cfg, sch, 1000, 4, 0, sigma_every=1)):
            with mock.patch.object(analysis, "estimator_stats",
                                   wraps=analysis.estimator_stats) as stats:
                with pytest.raises(DivergenceError) as err:
                    run()
            k = err.value.records[-1].t
            assert 0 < k < analysis._BLOCK and stats.call_count == k

    @pytest.mark.parametrize("alg, lam, alpha, k, counts", [
        ("sgd", 0.0, 2.03, 12, [36, 0, 0]),
        # decay past 1 grows the iterates 999-fold per step
        ("conceptual_bcos", 1.0, 1e3, 2, [0, 2, 0]),
    ])
    def test_no_step_runs_past_a_divergence(self, monkeypatch, alg, lam, alpha, k, counts):
        """A row that leaves the engine's box is checked for a divergence as
        it is kept, so an ensemble of 3 seeds that diverges at step k stops
        there: it makes the 3k steps before it (a practical method calls
        optim.step once per seed and step, the conceptual one
        conceptual_update once per step) and not the diagnostic due at step
        50."""
        calls = [count_calls(monkeypatch, analysis, name)
                 for name in ("step", "conceptual_update", "estimator_stats")]
        prob = NoisyQuadratic(h=[1.0, 2.0], sigma=0.5, x_star=[0.0, 1.0])
        cfg = OptimizerConfig(alg, weight_decay_lambda=lam, decoupled=True)
        with pytest.raises(DivergenceError) as err:
            mean_trajectory(prob, cfg, constant(alpha), 1000, 3, 0, sigma_every=50)
        assert err.value.records[-1].t == k
        assert [len(c) for c in calls] == counts

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("alg, alpha, t", [
        # a noiseless iterate lands on the target at t=3, where the direction is 0/0
        ("conceptual_bcos", 1.0, 3),
        ("sgd", 1e308, 0),
    ])
    def test_nonfinite_step_named_on_both_engines(self, alg, alpha, t):
        """The ensemble names the seed the replay names; the one-seed run
        names its own seed index, not its engine row 0."""
        prob = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        cfg = OptimizerConfig(alg)
        x0 = np.array([3.0])
        with pytest.raises(NonFiniteError) as replay:
            replay_seed(prob, cfg, constant(alpha), 10, base_seed=0, x0=x0)
        with pytest.raises(NonFiniteError) as err:
            mean_trajectory(prob, cfg, constant(alpha), 10, n_seeds=2, base_seed=0, x0=x0)
        assert str(replay.value) == str(err.value) == (
            f"{alg} step produced non-finite parameters at seed 0, t={t}"
        )
        with pytest.raises(NonFiniteError) as run:
            run_trajectory(prob, cfg, constant(alpha), 10, base_seed=0, seed_index=2, x0=x0)
        assert str(run.value) == f"{alg} step produced non-finite parameters at seed 2, t={t}"

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_step_fault_of_a_lower_seed_wins_over_a_bad_draw(self):
        """Seed 0's noiseless conceptual iterate lands on the target at t=3,
        where its direction is 0/0, and seed 1's draw for t=3 is +inf. The
        replays order the faults by step, then by seed, so the ensemble
        names seed 0's step, not seed 1's draw."""
        prob, cfg, x0 = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0]), \
            OptimizerConfig("conceptual_bcos"), np.array([3.0])
        replays = [outcome(lambda: replay_seed(with_fault(prob, 0, 1, 3, np.inf), cfg,
                                               constant(1.0), 10, 0, seed_index=i, x0=x0))[1]
                   for i in range(2)]
        first = min((failure_key(e, i), e) for i, e in enumerate(replays))[1]
        with pytest.raises(NonFiniteError) as err:
            mean_trajectory(with_fault(prob, 0, 1, 3, np.inf), cfg, constant(1.0), 10,
                            n_seeds=2, base_seed=0, x0=x0)
        assert str(err.value) == str(first) == (
            "conceptual_bcos step produced non-finite parameters at seed 0, t=3")
        assert str(replays[1]) == "conceptual_bcos gradient is non-finite at seed 1, t=3"

    def test_nonfinite_gradient_row_fails_as_each_row_would(self):
        """One seed's infinite draw makes a row of the ensemble's batched
        gradient (a conceptual direction, for conceptual_bcos) non-finite; the
        run fails as the replay of that seed does, naming the gradient, the
        seed and the step. The one-seed run at seed index 2 names seed 2."""
        for alg in ("bcos_c", "conceptual_bcos"):
            cfg = OptimizerConfig(alg)
            prob = PoisonedDraw(seed=2, t=5)
            with pytest.raises(NonFiniteError) as err:
                mean_trajectory(prob, cfg, constant(0.05), 10, n_seeds=4, base_seed=0)
            assert prob.poisoned
            replay_prob = PoisonedDraw(seed=2, t=5)
            with pytest.raises(NonFiniteError) as replay:
                replay_seed(replay_prob, cfg, constant(0.05), 10, base_seed=0, seed_index=2)
            assert replay_prob.poisoned
            assert str(err.value) == str(replay.value) == (
                f"{alg} gradient is non-finite at seed 2, t=5"
            )
            # the one seed of run_trajectory is the engine's first row
            run_prob = PoisonedDraw(seed=0, t=5)
            with pytest.raises(NonFiniteError) as run:
                run_trajectory(run_prob, cfg, constant(0.05), 10, base_seed=0, seed_index=2)
            assert run_prob.poisoned
            assert str(run.value) == f"{alg} gradient is non-finite at seed 2, t=5"


class PoisonedDraw(NoisyQuadratic):
    """A three-coordinate quadratic whose noise for one engine row is
    infinite at one step t < 256. The lockstep engine draws each chunk (at
    most one 256-step block) row by row in order after a zero-width probe,
    so the draw of a row's first chunk is the (row+1)-th nonempty one; the
    one seed of run_trajectory is row 0. replay_seed draws one step at a
    time along one seed, so there the draw of step t is the (t+1)-th."""

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


def with_fault(problem, base_seed, seed, t, value):
    """problem with the first entry of trajectory seed ``seed``'s draw for
    step t set to ``value``, however its draws are chunked. A seed's stream
    is told apart by its generator's state at its first draw, so the Monte
    Carlo draws go untouched. The logistic problem's minibatch indices come
    back as floats, and a non-finite one makes the gradient of its row
    non-finite. Each run needs a fresh problem: the draw counts are kept by
    generator id."""
    target = make_rng(base_seed, TRAJECTORY_STREAM, seed).bit_generator.state
    drawn = {}  # id of the target generator -> the steps it has drawn
    draw, gradient = problem.draw, problem.gradient

    def faulty_draw(rng, shape=()):
        if id(rng) not in drawn and rng.bit_generator.state == target:
            drawn[id(rng)] = 0
        z = np.asarray(draw(rng, shape), dtype=np.float64)
        if id(rng) in drawn:
            first, width = drawn[id(rng)], shape[0] if shape else 1
            if first <= t < first + width:
                z[(t - first, 0) if shape else (0,)] = value
            drawn[id(rng)] = first + width
        return z

    def index_gradient(x, z):
        z = np.asarray(z)
        bad = ~np.isfinite(z)
        g = gradient(x, np.where(bad, 0, z).astype(np.intp))
        # only a row that holds a non-finite index takes its first one
        rows = bad.any(axis=-1)
        if rows.any():
            first = np.take_along_axis(z, bad.argmax(axis=-1)[..., None], axis=-1)
            g = np.where(rows[..., None], g + first, g)
        return g

    problem.draw = faulty_draw
    if isinstance(problem, LogisticSmokeProblem):
        problem.gradient = index_gradient
    return problem


def outcome(run):
    """(records, None) of a run that ends, (None, error) of one that fails."""
    try:
        return run(), None
    except (DivergenceError, NonFiniteError) as exc:
        return None, exc


def failure_key(exc, seed):
    """Where a seed's run fails first in the lockstep ensemble: by step,
    then a divergence (checked on the row before the step) ahead of a step
    fault, then by seed."""
    if isinstance(exc, DivergenceError):
        return exc.records[-1].t, 0, seed
    return int(str(exc).rsplit("t=", 1)[1]), 1, seed


class TestFaultModel:
    FAULTS = {"+inf": np.inf, "-inf": -np.inf, "nan": np.nan, "overflow": None,
              "zero_second_moment": None}

    # a step's own warnings reach the caller, as for a run without faults
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(
        alg=st.sampled_from(sorted(ALGORITHMS)),
        kind=st.sampled_from(["gaussian", "student_t", "logistic"]),
        fault=st.sampled_from(sorted(FAULTS)),
        S=st.integers(2, 4),
        index=st.integers(0, 3),
        t=st.integers(0, 299),
        T=st.integers(1, 600),
        sigma_every=st.sampled_from([0, 1, 50]),
        base=st.integers(0, 2**16),
    )
    # an infinite conceptual draw of seed 2 in the second 256-step block
    @example(alg="conceptual_bcos", kind="student_t", fault="+inf", S=3, index=2, t=290,
             T=400, sigma_every=0, base=0)
    # iterates that pass the threshold and then overflow within one block
    @example(alg="sgd", kind="gaussian", fault="overflow", S=4, index=0, t=0, T=300,
             sigma_every=1, base=1)
    @example(alg="conceptual_bcos", kind="gaussian", fault="overflow", S=2, index=0, t=0,
             T=300, sigma_every=0, base=2)
    # a noiseless conceptual iterate that lands on the target: 0/0 at step 3
    @example(alg="conceptual_bcos", kind="gaussian", fault="zero_second_moment", S=2, index=0,
             t=3, T=20, sigma_every=0, base=3)
    # a start on the target, where every seed's gradient is 0
    @example(alg="bcos_c", kind="student_t", fault="zero_second_moment", S=3, index=0, t=0,
             T=20, sigma_every=0, base=3)
    @example(alg="sgd", kind="gaussian", fault="zero_second_moment", S=2, index=0, t=4,
             T=20, sigma_every=0, base=3)
    @example(alg="bcos_c", kind="logistic", fault="nan", S=2, index=1, t=60, T=100,
             sigma_every=50, base=4)
    def test_runs_fail_as_their_replays(self, alg, kind, fault, S, index, t, T, sigma_every,
                                        base):
        """One fault at a time: a +-inf or NaN draw of one seed at step t,
        iterates that overflow past the divergence threshold, or a noiseless
        iterate whose direction has a zero second moment. run_trajectory of
        each seed ends as replay_seed of that seed does: the same records,
        or the same error with the same records. mean_trajectory raises the
        error of the seed whose replay fails first, with the record the
        replay ends with (its estimator diagnostic included when that seed
        is seed 0, the one the ensemble's diagnostics follow), and ends
        cleanly when no replay fails."""
        conceptual = alg == "conceptual_bcos"
        assume(not (conceptual and kind == "logistic"))
        assume(not (fault == "zero_second_moment" and kind == "logistic"))
        # a diagnostic at every step: the run stops early to stay quick
        T = min(T, 12) if sigma_every == 1 else T
        seed, t = index % S, min(t, T - 1)
        x_star = np.array([1.0, -1.0, 0.0, 0.5])
        sigma = 0.0 if fault == "zero_second_moment" else [0.5, 1.0, 1.5, 1.0]
        lam, sch, x0 = 0.1, inverse_time(0.3), None
        if fault == "overflow":
            # only the conceptual step accepts alpha * lambda > 1; the
            # others grow by the stepsize times the curvature
            lam, sch = (1.0 if conceptual else 0.0), constant(1e3)
        elif fault == "zero_second_moment":
            # the noiseless conceptual step moves each coordinate by alpha,
            # onto the target at step t % 4 (at the start when that is 0)
            lam, sch = 0.0, constant(0.25)
            x0 = x_star + 0.25 * (t % 4) * np.array([1.0, -1.0, 1.0, -1.0])

        def make():
            if kind == "logistic":
                prob = LogisticSmokeProblem(n_features=4, n_samples=50, batch=8)
            else:
                prob = NoisyQuadratic(h=[1.0, 2.0, 0.5, 1.5], sigma=sigma, x_star=x_star,
                                      noise=kind)
            value = self.FAULTS[fault]
            return prob if value is None else with_fault(prob, base, seed, t, value)

        cfg = OptimizerConfig(alg, weight_decay_lambda=lam, decoupled=True)
        kwargs = dict(x0=x0, sigma_every=sigma_every)
        replays = [outcome(lambda: replay_seed(make(), cfg, sch, T, base, seed_index=i, **kwargs))
                   for i in range(S)]
        for i, (records, error) in enumerate(replays):
            run, run_error = outcome(
                lambda: run_trajectory(make(), cfg, sch, T, base, seed_index=i, **kwargs))
            if error is None:
                assert run_error is None
                assert [record_bytes(r) for r in run] == [record_bytes(r) for r in records]
            else:
                assert type(run_error) is type(error) and str(run_error) == str(error)
                assert ([record_bytes(r) for r in getattr(run_error, "records", [])]
                        == [record_bytes(r) for r in getattr(error, "records", [])])

        failed = [(failure_key(error, i), error) for i, (_, error) in enumerate(replays)
                  if error is not None]
        _, err = outcome(lambda: mean_trajectory(make(), cfg, sch, T, S, base, **kwargs))
        if not failed:
            assert err is None
            return
        (_, _, failed_seed), first = min(failed, key=lambda f: f[0])
        assert type(err) is type(first) and str(err) == str(first)
        if isinstance(first, DivergenceError):
            last = first.records[-1]
            if failed_seed != 0:
                # the ensemble makes its diagnostics along seed 0 alone
                last = dataclasses.replace(last, estimator_diag=None)
            assert [record_bytes(r) for r in err.records] == [record_bytes(last)]

    @pytest.mark.parametrize("mode", ["ignore", "warn", "raise"])
    @pytest.mark.parametrize("fault", ["zero_second_moment", "overflow", "divergence"])
    def test_runs_end_as_their_replays_under_the_caller_errstate(self, mode, fault):
        """Every step and every moment computation runs once, under the
        caller's np.errstate, so under any of them a run ends as its replay
        does: the same exception type and message and the same warnings. The
        runs: a noiseless conceptual iterate that lands on the target (0/0
        at t=3), sgd iterates that overflow past the threshold, and
        conceptual iterates that grow 999-fold per step past it at t=2.
        Every seed fails at the same step, so the ensemble ends as the
        replay of seed 0 does."""
        one = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0])
        prob, cfg, sch, x0 = {
            "zero_second_moment": (one, OptimizerConfig("conceptual_bcos"), constant(1.0), [3.0]),
            "overflow": (one, OptimizerConfig("sgd"), constant(1e200), [1.0]),
            "divergence": (NoisyQuadratic(h=[1.0, 2.0], sigma=0.5, x_star=[0.0, 1.0]),
                           OptimizerConfig("conceptual_bcos", weight_decay_lambda=1.0,
                                           decoupled=True), constant(1e3), None),
        }[fault]

        def ending(run):
            with warnings.catch_warnings(record=True) as warned, np.errstate(all=mode):
                warnings.simplefilter("always")
                try:
                    run(prob, cfg, sch, 10, base_seed=0, x0=x0)
                    error = None
                except (ArithmeticError, ValueError, RuntimeError) as exc:
                    error = (type(exc), str(exc))
            return error, [(w.category, str(w.message)) for w in warned]

        replay = ending(replay_seed)
        assert replay[0] is not None
        assert ending(run_trajectory) == replay
        assert ending(lambda *a, **kw: mean_trajectory(*a, n_seeds=3, **kw)) == replay

    @pytest.mark.parametrize("seed", [0, 2])
    def test_ensemble_divergence_carries_seed_zero_diagnostic(self, seed):
        """A huge draw of one seed at step 3 makes it diverge at step 4, a
        diagnostic step. The ensemble's diagnostics follow seed 0, so its
        error's record carries the diagnostic of step 4 when seed 0 diverged,
        as seed 0's replay does, and none when another seed did."""
        cfg, sch = OptimizerConfig("sgd"), constant(0.1)

        def make():
            prob = NoisyQuadratic(h=[1.0, 2.0], sigma=1.0, x_star=[0.0, 0.0])
            return with_fault(prob, 5, seed, 3, 1e9)

        with pytest.raises(DivergenceError) as replay:
            replay_seed(make(), cfg, sch, 10, 5, seed_index=seed, sigma_every=1)
        with pytest.raises(DivergenceError) as ensemble:
            mean_trajectory(make(), cfg, sch, 10, 3, 5, sigma_every=1)
        last = replay.value.records[-1]
        assert str(ensemble.value) == str(replay.value) and last.t == 4
        assert last.estimator_diag is not None
        if seed:
            last = dataclasses.replace(last, estimator_diag=None)
        assert [record_bytes(r) for r in ensemble.value.records] == [record_bytes(last)]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_distance_is_recorded_as_inf(self):
        """One sgd step at alpha = 1e200 takes the squared distance past the
        float range. With the overflow warning let through, both functions
        end with the replay's record, whose distance is inf, not NaN."""
        prob, cfg = NoisyQuadratic(h=[1.0], sigma=0.0, x_star=[0.0]), OptimizerConfig("sgd")
        kwargs = dict(base_seed=0, x0=np.array([1.0]))
        errors = {}
        for name, run in (("replay", replay_seed), ("run", run_trajectory),
                          ("mean", lambda *a, **kw: mean_trajectory(*a, n_seeds=2, **kw))):
            with pytest.raises(DivergenceError) as errors[name]:
                run(prob, cfg, constant(1e200), 5, **kwargs)
        replay = errors["replay"].value
        assert replay.records[-1].dist_sq == math.inf
        assert errors["run"].value.records == replay.records
        assert errors["mean"].value.records == replay.records[-1:]
        assert str(errors["run"].value) == str(errors["mean"].value) == str(replay)

    def test_targetless_divergence_names_the_squared_norm(self):
        """The logistic problem has no x*, so its divergence check sizes the
        iterate by its squared norm. The one-seed run fails as its replay
        does: the same records, each with a NaN distance, and the same
        message, which gives the squared norm."""
        cfg = OptimizerConfig("bcos_c")
        runs = {}
        for name, run in (("run", run_trajectory), ("replay", replay_seed)):
            prob = LogisticSmokeProblem(n_features=4, n_samples=50, batch=8)
            with pytest.raises(DivergenceError) as runs[name]:
                run(prob, cfg, constant(1e5), 600, 0, seed_index=2)
        records, replay = runs["run"].value.records, runs["replay"].value.records
        assert [record_bytes(r) for r in records] == [record_bytes(r) for r in replay]
        k = records[-1].t
        assert k > 5 and [r.t for r in records] == list(range(k + 1))
        assert all(math.isnan(r.dist_sq) and r.aiming_value is None for r in records)
        assert str(runs["run"].value) == str(runs["replay"].value)
        head, size = str(runs["run"].value).split(": squared distance ")
        assert head == f"seed 2 diverged at t={k}" and float(size) > analysis.DIVERGENCE_THRESHOLD


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
        v = (np.einsum("s,s->", delta, delta) - s1 * s1 / n_seeds) / (n_seeds - 1)
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
                # the first diverged seed's record, made as replay_seed makes it
                i = int(np.flatnonzero(dist > analysis.DIVERGENCE_THRESHOLD)[0])
                x, diff = X[i], X[i] - x_star
                dist_sq = float(np.einsum("i,i->", diff, diff))
                mean_g = h * diff
                aiming = float(aiming_values(x, diff, dist_sq, lam, mean_g, mean_g * mean_g + var,
                                             BlockPartition.singleton(n)))
                rec = TrajectoryRecord(t + j, dist_sq, float(problem.loss(x)),
                                       value_at(schedule, t + j),
                                       None if math.isnan(aiming) else aiming)
                raise DivergenceError(
                    f"seed {i} diverged at t={t + j}: squared distance {dist_sq:.3e}", [rec])
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
        far=st.booleans(),
    )
    # T = 1200 also crosses 5 noise chunks (one 256-step block each at
    # S*n = 3600), and takes the pairwise np.sum path of n >= 8
    @example(S=300, n=12, T=1200, lam=1.5, seed=0, far=False)
    # the column-add path of n < 8 across recorder blocks and noise chunks
    # (256 steps at S*n = 1200)
    @example(S=300, n=4, T=1000, lam=1.5, seed=0, far=False)
    # noise chunks shorter than a block (238 steps at S*n = 4200), so chunk
    # and block edges differ across three blocks
    @example(S=300, n=14, T=600, lam=1.5, seed=0, far=False)
    @example(S=2, n=1, T=0, lam=0.0, seed=0, far=False)
    # a target at 6e5 puts every row outside the engine's box, so every
    # row is checked against the threshold, which no distance nears
    @example(S=50, n=4, T=600, lam=0.0, seed=0, far=True)
    def test_matches_per_step_reference(self, S, n, T, lam, seed, far):
        # decay would pull the iterates from a far target past the threshold
        assume(not (far and lam))
        prob = NoisyQuadratic(h=np.linspace(1.0, 2.0, n), sigma=np.linspace(0.5, 1.5, n),
                              x_star=np.linspace(-1.0, 1.0, n) + (6e5 if far else 0.0))
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=lam, decoupled=True)
        sch = inverse_time(0.5)
        ref = per_step_ensemble(prob, cfg, sch, T, S, seed)
        curve = mean_trajectory(prob, cfg, sch, T, n_seeds=S, base_seed=seed)
        assert curve_bytes(curve) == [a.tobytes() for a in ref]
        assert curve.t.tobytes() == np.arange(T + 1).tobytes()

    @pytest.mark.parametrize("alpha", [1e3, 2.03])
    def test_divergence_mid_block_matches_per_step_reference(self, alpha):
        """Decay past 1 makes the iterates grow geometrically. At alpha=1e3
        the steps after the crossing would overflow; the engine stops at the
        crossing, so none of them runs and no warning reaches the caller. At
        2.03 the crossing falls in the second block."""
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

    def test_footprint_does_not_grow_with_the_run(self):
        """200 seeds x 2000 steps of the conceptual ensemble allocate at most
        6 MiB at peak (5.4 traced): a history of one recorder slice
        (3 x 64 x 200 x 4 floats, 1.2 MiB), one chunk of noise (256 steps,
        1.6 MiB) and that slice's scratch, with no temporary the size of a
        chunk or of the run. A 256-row history reads 8.9 MiB."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5, 1.5], sigma=[0.5, 1.0, 1.5, 1.0],
                              x_star=[1.0, -1.0, 0.0, 0.5])
        cfg = OptimizerConfig("conceptual_bcos", weight_decay_lambda=1.5, decoupled=True)
        tracemalloc.start()
        try:
            mean_trajectory(prob, cfg, inverse_time(0.5), 2000, n_seeds=200, base_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("S, sizes, alg, far, sigma_every", [
        pytest.param(200, [64, 64, 64, 64, 45], "conceptual_bcos", False, 0, id="200-sizes0"),
        pytest.param(2, [256, 45], "conceptual_bcos", False, 0, id="2-sizes1"),
        # neither a diagnostic nor a row outside the box ends a block
        pytest.param(2, [256, 45], "bcos_c", False, 100, id="2-diagnostics"),
        pytest.param(2, [256, 45], "conceptual_bcos", True, 0, id="2-far-target"),
        # a run of one full block records no empty block after it
        pytest.param(2, [256], "conceptual_bcos", False, 0, id="2-one-full-block"),
    ])
    def test_blocks_are_one_recorder_slice(self, S, sizes, alg, far, sigma_every):
        """Each block the engine records is at most one slice of _SLICE
        floats per (rows, seeds, n) array, 64 rows at 200 seeds x 4
        coordinates, and is handed to the recorder in one call; two seeds
        take the longest block, 256 rows. Only a full block, the last one
        or a divergence ends a block: not a diagnostic (sigma_every = 100),
        nor a row outside the engine's box (a target at 6e5, where decay
        would pull the iterates past the threshold). The run takes T =
        sum(sizes) - 1 steps."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5, 1.5], sigma=1.0,
                              x_star=np.full(4, 6e5 if far else 0.0))
        cfg = OptimizerConfig(alg, weight_decay_lambda=0.0 if far else 1.5, decoupled=True)
        _, blocks = lockstep_run(prob, cfg, inverse_time(0.5), sum(sizes) - 1, S, 0,
                                 per_block=True, sigma_every=sigma_every)
        assert [len(block) for block in blocks] == sizes


def lockstep_run(problem, config, schedule, T, S, seed, per_block=False, **kwargs):
    """mean_trajectory's curve and the (T+1, S, n) iterates of its seeds,
    copied from the blocks it records (the list of blocks with per_block)."""
    blocks = []
    record = analysis._record_block

    def capture(problem, config, partition, X, *rest):
        blocks.append(X.copy())
        record(problem, config, partition, X, *rest)

    with mock.patch.object(analysis, "_record_block", capture):
        curve = mean_trajectory(problem, config, schedule, T, n_seeds=S, base_seed=seed,
                                **kwargs)
    return curve, blocks if per_block else np.concatenate(blocks)


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
        """Each seed of the lockstep ensemble follows its replay_seed
        reference bit for bit (distances, losses, the sigma_t column along seed
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
            replay_seed(prob, cfg, sch, T, seed, seed_index=i, partition=part,
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
        second = mean**2 + var
        lhs = mean / np.sqrt(second)
        # rho, the fraction of the second moment the mean carries
        rho = mean**2 / second
        rhs = np.sqrt(rho) * np.sign(mean)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_sqrt_rho_sup_norm_bounded(self):
        rng = make_rng(14, MC_STREAM)
        for _ in range(100):
            mean = rng.standard_normal(5)
            var = rng.uniform(0.0, 3.0, size=5)
            rho = mean**2 / (mean**2 + var)
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

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_refuses_fewer_than_two_draws(self, n_mc):
        """No draw has no mean and one draw no standard error: either is an
        error, not a NaN that fails the check."""
        with pytest.raises(AnalysisError, match="n_mc must be >= 2"):
            one_step_contraction_check(centered_quadratic(), np.ones(3), 0.3, 0.4, n_mc=n_mc)


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

    def test_no_weighted_coordinate_leaves_the_bias_term(self):
        stats = self.make_stats([0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [np.nan, 0.5])
        gap = step_gap_bound(stats, 0.2)
        assert gap.value == gap.bias_term == 0.1
        assert gap.correlation_term == 0.0
        assert gap.truncation == 0.2**2 / 2

    def test_truncation_reported(self):
        stats = self.make_stats([1.0], [4.0], [100.0], [0.0])
        gap = step_gap_bound(stats, 0.2)
        assert gap.truncation == pytest.approx(0.2**2 / 2 + 1.1 * 0.01)


PARTITIONS = {
    "singleton": BlockPartition.singleton(4),
    "2+2": BlockPartition.from_sizes([2, 2]),
    "full": BlockPartition.full(4),
}


class TestPracticalNeighborhood:
    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_plateau_inside_predicted_radius(self, name):
        """End to end: run the conditional-estimator method with decay and a
        diminishing schedule, measure the step-gap scalar of the estimate
        each step divides by along the way, and confirm the trajectory
        settles inside the predicted neighborhood, on any partition."""
        prob = centered_quadratic(n=4)
        lam = 1.0
        cfg = OptimizerConfig("bcos_c", beta1=0.9, epsilon=1e-6,
                              weight_decay_lambda=lam, decoupled=True)
        sch = inverse_time(0.6)
        rng = make_rng(42, TRAJECTORY_STREAM, 0)
        x, part = np.full(4, 3.0), PARTITIONS[name]
        state = OptimizerState()
        sigmas = []
        for t in range(10_000):
            g = prob.sample_gradient(x, rng)
            x, state = step(cfg, state, x, g, value_at(sch, t), part)
            if t in (10, 100, 1000, 9999):
                stats = estimator_stats(prob, x, state, cfg, 10**4, seed=t, partition=part)
                sigmas.append(stats.sigma_t)
        radius = neighborhood_radius(max(sigmas), cfg.epsilon, lam, 4)
        assert float(x @ x) <= radius**2


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

    @pytest.mark.parametrize("alg, sigma, n_mc, state, partition, error, message", [
        ("adam", 1.0, 100, OptimizerState(), None, AnalysisError,
         "n_mc must be >= 1e4 for stable estimates, got 100"),
        ("adam", 1.0, 10**4, OptimizerState(t=1, m=np.zeros(2)), None, ShapeError,
         "state.m must have length 3"),
        ("adam", 1.0, 10**4, OptimizerState(t=1, m=np.zeros(3), v=np.ones(3)),
         BlockPartition.from_sizes([2, 1]), ShapeError, "state.v must have length 2"),
        ("adam", 1.0, 10**4, OptimizerState(), BlockPartition.singleton(4), ShapeError,
         "partition dim 4 != problem dim 3"),
        ("conceptual_bcos", 1.0, 10**4, OptimizerState(), None, AnalysisError,
         "conceptual_bcos uses exact moments; it has no estimator"),
        ("bcos_c", 1.0, 10**4, OptimizerState(t=1), None, AnalysisError,
         "bcos_c estimator stats need a primed state holding ('m',)"),
        # no noise at the target: every draw of d is 0, so E[d^2] is too
        ("sgd", 0.0, 10**4, OptimizerState(), None, AnalysisError,
         "estimator stats need E[d^2] > 0 on every block"),
    ], ids=["draws", "m", "v", "partition", "no_estimator", "unprimed", "zero_moment"])
    def test_rejects_bad_inputs(self, alg, sigma, n_mc, state, partition, error, message):
        """The momentum has one entry per coordinate and the estimate one
        per block of the partition, which covers the problem's coordinates;
        the algorithm has an estimator and a state to freeze, and the bias
        reference E[d^2] is positive."""
        prob = centered_quadratic(sigma=sigma)
        with pytest.raises(error) as err:
            estimator_stats(prob, np.zeros(3), state, OptimizerConfig(alg), n_mc,
                            partition=partition)
        assert type(err.value) is error and str(err.value) == message

    def test_block_conditional_closed_form(self):
        """With Gaussian noise the coordinates are independent, so the
        per-block conditional estimate's variance and signed bias are the
        block sums of the coordinatewise closed forms, within 3 SE taken
        from the sampled estimates."""
        beta1 = 0.9
        h, sd = np.array([1.0, 2.0, 0.5, 1.5]), np.array([0.5, 1.0, 1.5, 0.8])
        prob = NoisyQuadratic(h=h, sigma=sd, x_star=np.zeros(4))
        x = np.array([1.2, -0.7, 2.0, 0.4])
        m_prev = np.array([0.5, -1.0, 0.25, 0.9])
        part = BlockPartition.from_sizes([2, 2])
        cfg = OptimizerConfig("bcos_c", beta1=beta1, epsilon=1e-6)
        stats = estimator_stats(prob, x, OptimizerState(t=1, m=m_prev), cfg, 10**5, seed=103,
                                partition=part)
        mu, s = h * x, h * sd
        assert stats.v_draws.shape == (10**5, 2)
        variance = (1 - beta1) ** 4 * part.block_sums(4 * mu**2 * s**2 + 2 * s**4)
        assert np.all(np.abs(stats.variance - variance) <= 3 * mc_variance_se(stats.v_draws))
        bias = part.block_sums(2 * beta1 * (1 - beta1) * m_prev * (m_prev - mu))
        signed = stats.mean_v - stats.exact_second_moment
        assert np.all(np.abs(signed - bias) <= 3 * mc_mean_se(stats.v_draws))

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
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_sampled_estimate_is_what_step_divides_by(
        self, alg, bias_correction, placement, decoupled, full, priming, sizes, seed
    ):
        """For every Monte Carlo draw, one step on that gradient lands where
        the harness's (direction, estimate) pair says it does, bit for bit,
        on any partition."""
        part = BlockPartition.from_sizes(sizes)
        n = part.total_dim
        prob = NoisyQuadratic(h=np.linspace(1.0, 2.0, n), sigma=np.linspace(0.5, 1.5, n),
                              x_star=np.zeros(n))
        lam, alpha = 0.1, 0.05
        cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.95, epsilon=1e-6,
                              epsilon_placement=placement, weight_decay_lambda=lam,
                              decoupled=decoupled, bias_correction=bias_correction,
                              conditional_full=full and alg == "bcos_c")
        x, state = np.linspace(-0.7, 2.0, n), OptimizerState()
        rng = make_rng(seed, TRAJECTORY_STREAM, 0)
        for _ in range(priming):
            x, state = step(cfg, state, x, prob.sample_gradient(x, rng), alpha, part)
        n_mc = 10**4
        stats = estimator_stats(prob, x, state, cfg, n_mc, seed=seed, partition=part)

        G = prob.sample_gradients(x, make_rng(seed, MC_STREAM), n_mc)
        decay = 1.0 - alpha * lam if decoupled else 1.0
        d, v, _, _ = propose(cfg, state, G if decoupled else G + lam * x, part)
        # these are the draws the harness measured
        assert stats.mean_d.tobytes() == d.mean(axis=0).tobytes()
        assert stats.mean_v.tobytes() == v.mean(axis=0).tobytes()
        assert stats.v_draws.shape == (n_mc, part.num_blocks)
        expected = decay * x - alpha * normalize(cfg, d, v, part)
        stepped = np.stack([step(cfg, state, x, g, alpha, part)[0] for g in G])
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


def whole_batch_stats(prob, x, state, cfg, n_mc, seed, part) -> EstimatorStats:
    """estimator_stats as it was, with one propose call on every draw and the
    centred directions and estimates as fresh arrays: the reference the
    sliced estimator must equal bit for bit."""
    G = prob.sample_gradients(x, make_rng(seed, MC_STREAM), n_mc)
    fold, eps = cfg.fold_lambda, cfg.epsilon
    d, v, _, _ = propose(cfg, state, G + fold * x if fold else G, part)
    exact_d2 = analysis._direction_moments(prob, cfg, x, state.m, part)[1]
    if ALGORITHMS[cfg.algorithm].direction == "momentum" and \
            cfg.bias_correction == "zero_init_rescale":
        exact_d2 = exact_d2 / (1.0 - cfg.beta1 ** (state.t + 1)) ** 2
    mean_d, var_d = d.mean(axis=0), d.var(axis=0, ddof=1)
    mean_v, var_v = v.mean(axis=0), v.var(axis=0, ddof=1)
    bias = np.abs(mean_v - exact_d2)
    with np.errstate(divide="ignore"):
        snr_d = np.where(var_d > 0, mean_d**2 / np.where(var_d > 0, var_d, 1.0), np.inf)
        snr_v = part.expand(
            np.where(var_v > 0, (mean_v + eps) ** 2 / np.where(var_v > 0, var_v, 1.0), np.inf))
    cov = np.einsum("ij,ij->j", d - mean_d, part.expand(v - mean_v)) / (n_mc - 1)
    denom = np.sqrt(var_d * part.expand(var_v))
    corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    tau_hat = float(np.max(np.maximum(bias - eps, 0.0) / exact_d2))
    stats = EstimatorStats(mean_d, snr_d, snr_v, corr, bias, var_v, mean_v, exact_d2,
                           tau_hat, n_mc=n_mc, v_draws=v)
    sigma = step_gap_bound(stats, tau_hat).value if tau_hat < 1.0 else math.inf
    return dataclasses.replace(stats, sigma_t=sigma)


class TestSlicedEstimator:
    @settings(max_examples=25, deadline=None)
    @given(
        alg=st.sampled_from(PRACTICAL),
        bias_correction=st.sampled_from(["init_first_sample", "zero_init_rescale"]),
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        coupled=st.booleans(),
        full=st.booleans(),
        priming=st.integers(0, 2),
        boundary=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_one_batch_bitwise(self, alg, bias_correction, sizes, coupled, full,
                                      priming, boundary, seed):
        """Every field, the draws included, whatever the partition and decay,
        with n_mc one short of, on and one past a slice boundary."""
        part = BlockPartition.from_sizes(sizes)
        n = part.total_dim
        prob = NoisyQuadratic(h=np.linspace(1.0, 2.0, n), sigma=np.linspace(0.5, 1.5, n),
                              x_star=np.zeros(n))
        cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.95, epsilon=1e-6,
                              weight_decay_lambda=0.1, decoupled=not coupled,
                              bias_correction=bias_correction,
                              conditional_full=full and alg == "bcos_c")
        if ALGORITHMS[alg].direction == "momentum":
            priming = max(priming, 1)  # a momentum direction needs a primed state
        x, state = np.linspace(-0.7, 2.0, n), OptimizerState()
        rng = make_rng(seed, TRAJECTORY_STREAM, 0)
        for _ in range(priming):
            x, state = step(cfg, state, x, prob.sample_gradient(x, rng), 0.05, part)
        rows = analysis._PIECE // n
        n_mc = (10**4 // rows + 1) * rows + boundary
        got = estimator_stats(prob, x, state, cfg, n_mc, seed=seed, partition=part)
        expected = whole_batch_stats(prob, x, state, cfg, n_mc, seed, part)
        for field in dataclasses.fields(EstimatorStats):
            a, b = getattr(got, field.name), getattr(expected, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


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

    @pytest.mark.parametrize("name", ["singleton", "2+2"])
    def test_trajectory_diagnostic_uses_step_key(self, name):
        """The diagnostic of step t measures the estimate that step t divides
        by, on the run's partition, from the stream keyed by t; the ensemble
        keeps its sigma_t on exactly the diagnostic rows."""
        prob = centered_quadratic(n=4)
        cfg = OptimizerConfig("bcos_c", beta1=0.9)
        part = PARTITIONS[name]
        records = run_trajectory(prob, cfg, constant(0.05), 100, base_seed=7, partition=part,
                                 sigma_every=50)
        x, state = prob.default_start(), OptimizerState()
        rng = make_rng(7, TRAJECTORY_STREAM, 0)
        for _ in range(50):
            x, state = step(cfg, state, x, prob.sample_gradient(x, rng), 0.05, part)
        expected = estimator_stats(prob, x, state, cfg, 10**4, seed=7, key=(50,), partition=part)
        assert records[50].estimator_diag.sigma_t == expected.sigma_t
        curve = mean_trajectory(prob, cfg, constant(0.05), 100, n_seeds=2, base_seed=7,
                                partition=part, sigma_every=50)
        diagnostic = np.isin(curve.t, [50, 100])
        assert np.all(np.isfinite(curve.sigma[diagnostic]))
        assert np.all(np.isnan(curve.sigma[~diagnostic]))
        assert curve.sigma[diagnostic].tolist() == [
            records[t].estimator_diag.sigma_t for t in (50, 100)]


class TestEstimatorDraws:
    """``v_draws`` holds the sampled estimates that the statistics reduce,
    and the verify catalog takes its standard errors from it. The references
    are the estimators written out by hand, at the catalog's state and
    seeds, on the draws of make_rng(seed, MC_STREAM)."""

    @pytest.mark.parametrize("alg, seed", [
        ("bcos_m", 101), ("adam", 102), ("bcos_c", 103), ("sign_sgd", 104)])
    def test_draws_are_the_hand_written_estimates(self, alg, seed):
        beta1, beta2 = 0.9, 0.95
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5], sigma=[0.5, 1.0, 1.5], x_star=np.zeros(3))
        x = np.array([1.2, -0.7, 2.0])
        m_prev = np.array([0.5, -1.0, 0.25])
        v_prev = np.array([1.0, 1.5, 2.0])
        n_mc = 10**5
        G = prob.sample_gradients(x, make_rng(seed, MC_STREAM), n_mc)
        m_draws = beta1 * m_prev + (1 - beta1) * G
        state_mv = OptimizerState(t=1, m=m_prev, v=v_prev)
        cases = {
            "bcos_m": (OptimizerConfig("bcos_m", beta1=beta1, beta2=beta2, epsilon=1e-6),
                       state_mv, beta2 * v_prev + (1 - beta2) * m_draws**2),
            "adam": (OptimizerConfig("adam", beta1=beta1, beta2=beta2, epsilon=1e-6),
                     state_mv, beta2 * v_prev + (1 - beta2) * G**2),
            "bcos_c": (OptimizerConfig("bcos_c", beta1=beta1, epsilon=1e-6),
                       OptimizerState(t=1, m=m_prev),
                       (1 - (1 - beta1) ** 2) * m_prev**2 + (1 - beta1) ** 2 * G**2),
            "sign_sgd": (OptimizerConfig("sign_sgd", beta1=0.0, epsilon=0.0),
                         OptimizerState(), G**2),
        }
        cfg, state, expected = cases[alg]
        stats = estimator_stats(prob, x, state, cfg, n_mc, seed=seed)
        assert stats.v_draws.shape == (n_mc, 3)
        assert stats.v_draws.tobytes() == expected.tobytes()
        # the statistics are reductions of these very draws
        assert stats.mean_v.tobytes() == stats.v_draws.mean(axis=0).tobytes()
        assert stats.variance.tobytes() == stats.v_draws.var(axis=0, ddof=1).tobytes()


class TestMcHelpers:
    def test_variance_se_calibrated(self):
        rng = make_rng(16, MC_STREAM)
        x = rng.standard_normal((10**5, 2)) * 3.0
        se = mc_variance_se(x)
        assert np.all(np.abs(x.var(axis=0, ddof=1) - 9.0) <= 4 * se)

    def test_mean_se_shape(self):
        x = np.ones((100, 3))
        assert np.all(mc_mean_se(x) == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 400), m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3))
    def test_standard_errors_match_the_two_pass_formulas_bitwise(self, n, m, seed, scale,
                                                                 shift):
        """mc_variance_se takes s^2 from its own centered squares, and the
        estimator catalog takes the mean's SE from the variance
        estimator_stats holds; both equal the formulas that reduce the
        samples again, bit for bit."""
        x = np.random.default_rng(seed).standard_normal((n, m)) * scale + shift
        centered = x - x.mean(axis=0)
        mu4 = np.mean(np.square(np.square(centered)), axis=0)
        s2 = x.var(axis=0, ddof=1)
        two_pass = np.sqrt(np.maximum(mu4 - s2**2, 0.0) / n)
        assert mc_variance_se(x).tobytes() == two_pass.tobytes()
        from_variance = np.sqrt(x.var(axis=0, ddof=1)) / math.sqrt(n)
        assert from_variance.tobytes() == mc_mean_se(x).tobytes()


def three_array_ratio_row(dist, s, rng, n_mc):
    """_ratio_row as it was, with Z, Y and one work array of n_mc floats and
    numpy's whole-array mean and var: the reference the piecewise row must
    equal bit for bit."""
    Z, work = np.empty(n_mc), np.empty(n_mc)
    rng.standard_normal(out=Z)
    np.multiply(Z, s, out=Z)
    np.subtract(Z, 0.5 * s * s, out=Z)
    np.exp(Z, out=Z)
    np.multiply(Z, dist.z_mean, out=Z)
    mz = float(Z.mean())
    vz = float(Z.var(ddof=1))
    Y = np.subtract(Z, dist.z_mean)
    np.multiply(Y, dist.coupling, out=Y)
    np.add(Y, dist.y_mean, out=Y)
    rng.standard_normal(out=work)
    np.multiply(work, dist.y_noise * s, out=work)
    np.add(Y, work, out=Y)
    np.sqrt(Z, out=work)
    np.divide(Y, work, out=work)
    mc = float(work.mean())
    my = float(Y.mean())
    Y -= my
    Z -= mz
    cov = float(np.einsum("i,i->", Y, Z) / (len(Z) - 1))
    expansion = my / math.sqrt(mz) * (1.0 - cov / (2 * my * mz) + 3.0 * vz / (8 * mz * mz))
    return analysis.RatioExpansionRow(s, mc, expansion, abs(mc - expansion))


def spread_floats(n, seed, specials):
    """n floats whose magnitudes span 1e-150 .. 1e150, both signs, with
    the (index, value) specials written over them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
    for i, value in specials:
        x[i % n] = value
    return x


class TestTreeSum:
    """_tree_sum asks for pieces no longer than _PIECE and returns np.sum of
    their concatenation bit for bit; _PIECE is patched down to numpy's
    pairwise block and a little above it to make many leaves."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5000), piece=st.sampled_from([128, 136, 256, 1000]),
           seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.tuples(st.integers(0, 5000), st.sampled_from(
               [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300])), max_size=3))
    @example(n=1, piece=128, seed=0, specials=[])
    @example(n=127, piece=128, seed=1, specials=[])  # below numpy's block
    @example(n=129, piece=128, seed=2, specials=[])  # one split, 64 + 65
    @example(n=1001, piece=128, seed=3, specials=[(7, math.inf), (900, -math.inf)])
    def test_equals_np_sum(self, n, piece, seed, specials):
        x = spread_floats(n, seed, specials)
        asked = []

        def slices(a, b):
            asked.append((a, b))
            return x[a:b].copy()

        with mock.patch.object(analysis, "_PIECE", piece), np.errstate(all="ignore"):
            got, expected = analysis._tree_sum(slices, 0, n), np.sum(x)
        assert float(got).hex() == float(expected).hex()
        assert max(b - a for a, b in asked) <= piece
        assert [a for a, _ in asked] + [n] == [0] + [b for _, b in asked]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 5000), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-150, 1e150), shift=st.floats(-1e150, 1e150))
    def test_piecewise_variance_is_np_var(self, n, seed, scale, shift):
        """numpy's var(ddof=1): subtract the mean, square, sum pairwise,
        divide by n - 1, which _ratio_row does a piece at a time."""
        x = np.random.default_rng(seed).standard_normal(n) * scale + shift
        mean = float(x.mean())
        with mock.patch.object(analysis, "_PIECE", 128):
            var = analysis._tree_sum(lambda a, b: np.square(x[a:b] - mean), 0, n) / (n - 1)
        assert float(var).hex() == float(x.var(ddof=1)).hex()


class TestRatioExpansion:
    def test_zero_noise_scale_exact(self):
        Z, work = np.empty(10**4), np.empty(10**4)
        row = analysis._ratio_row(RatioDistribution(), 0.0, make_rng(11, MC_STREAM), Z, work)
        assert row.residual == 0.0

    def test_second_order_decay(self):
        checks = verify_ratio_expansion(n_mc=2 * 10**5, noise_scales=(0.5, 0.25, 0.125))
        assert all(check.passed for check in checks)
        for check in checks:
            assert check.observed >= check.bound

    def test_independent_pair_still_decays(self):
        dist = RatioDistribution(coupling=0.0, y_noise=0.5)
        checks = verify_ratio_expansion(dist, n_mc=2 * 10**5, noise_scales=(0.5, 0.25))
        assert all(check.passed for check in checks)

    def test_scales_must_decrease(self):
        with pytest.raises(AnalysisError):
            verify_ratio_expansion(n_mc=10**4, noise_scales=(0.1, 0.2))

    @pytest.mark.parametrize("scales", [
        (0.5, 0.25, 0.0),  # a division by zero in the last ratio
        (0.0, -0.5),  # a vacuous pass at scale 0
        (0.5, math.nan),  # warnings, then a NaN residual
    ])
    def test_scales_must_be_finite_and_positive(self, scales):
        with pytest.raises(AnalysisError, match="^noise_scales must be finite and > 0"):
            verify_ratio_expansion(n_mc=100, noise_scales=scales)

    @settings(max_examples=40, deadline=None)
    @given(s=st.sampled_from([0.0, 1e-3, 0.125, 0.5, 1.0]), seed=st.integers(0, 2**16),
           n_mc=st.sampled_from([2, 3, 127, 129, 1001, 4096, 5003]),
           piece=st.sampled_from([128, 256, 2**15]),
           coupling=st.sampled_from([0.0, 0.5]))
    @example(s=0.5, seed=11, n_mc=10**6, piece=2**15, coupling=0.5)  # verify's first row
    def test_row_equals_three_array_row_bitwise(self, s, seed, n_mc, piece, coupling):
        """Every field, at any scale, seed and length: an odd one, one below
        a piece and one of several pieces, not a multiple of the piece."""
        dist = RatioDistribution(coupling=coupling)
        Z, work = np.empty(n_mc), np.empty(n_mc)
        with mock.patch.object(analysis, "_PIECE", piece):
            got = analysis._ratio_row(dist, s, make_rng(seed, MC_STREAM), Z, work)
        expected = three_array_ratio_row(dist, s, make_rng(seed, MC_STREAM), n_mc)
        for field in dataclasses.fields(analysis.RatioExpansionRow):
            a, b = getattr(got, field.name), getattr(expected, field.name)
            assert float(a).hex() == float(b).hex(), field.name

    def test_nonpositive_z_rejected(self):
        with pytest.raises(AnalysisError, match="^Z must stay strictly positive$"):
            verify_ratio_expansion(RatioDistribution(z_mean=-1.0), n_mc=100)

    def test_nan_residual_fails(self):
        checks = verify_ratio_expansion(RatioDistribution(y_mean=np.nan), n_mc=10**4)
        assert not all(check.passed for check in checks)
        assert all(math.isnan(check.observed) and not check.passed for check in checks)

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_fewer_than_two_draws_rejected(self, n_mc):
        with pytest.raises(AnalysisError, match="n_mc must be >= 2"):
            verify_ratio_expansion(n_mc=n_mc)

    @pytest.mark.parametrize("residuals, observed, passed", [
        ((1e-3, 0.0), math.inf, True),
        ((1e-3, 1e-4), 10.0, True),
        ((math.inf, 1e-4), math.nan, False),
        ((1e-3, math.nan), math.nan, False),
    ])
    def test_ratio_check_rule(self, monkeypatch, residuals, observed, passed):
        """An exactly zero residual at the finer scale reads as an infinite
        ratio and passes; a non-finite residual fails."""
        by_scale = dict(zip((0.5, 0.25), residuals))
        monkeypatch.setattr(analysis, "_ratio_row", lambda dist, s, rng, Z, work:
                            analysis.RatioExpansionRow(s, 0.0, 0.0, by_scale[s]))
        check, = verify_ratio_expansion(n_mc=2, noise_scales=(0.5, 0.25))
        assert check.observed == pytest.approx(observed, nan_ok=True)
        assert check.passed is passed


class TestRecursionScan:
    def test_scan_matches_naive_loop(self):
        a, p, b = 2.0, 1.0, 1.0
        t0, T = 3, 5000
        x = 1.0
        for t in range(t0, T):
            x = (1 - a / t) * x + b / t ** (p + 1)
        scanned = analysis._scan_decay(
            lambda t, out: np.subtract(1, np.divide(a, t, out=out), out=out),
            lambda t, out: np.divide(b, np.power(t, p + 1, out=out), out=out),
            t0, T, 1.0, chunk=700,
        )[0]
        assert scanned == pytest.approx(x, rel=1e-12)

    def test_quick_harmonic_limit(self):
        by_name = {c.name: c for c in analysis.verify_chung_recursions(T=10**6)}
        assert by_name["harmonic_decay_a2_p1_b1"].passed
        assert by_name["harmonic_decay_zero_drive"].passed

    @pytest.mark.parametrize("T", [0, 2, 4])
    def test_horizon_must_pass_every_start(self, T):
        """The latest recursion starts at t = 4; a horizon at or before it
        would scan nothing and still report PASS."""
        with pytest.raises(AnalysisError, match=f"latest being 4; got T = {T}"):
            analysis.verify_chung_recursions(T=T)

    def test_k_p_tail_closed_form(self):
        # sum over t>=1 of (t+1)^-2 = pi^2/6 - 1
        assert k_p_tail(1.0, terms=10**6) == pytest.approx(np.pi**2 / 6 - 1, abs=1e-5)


class TestDecayScan:
    def test_undriven_value_is_the_zero_drive_scan(self):
        """The second value of one scan equals a separate scan with a zero
        drive, bit for bit, across several chunks."""
        coeff = lambda t, out: np.subtract(1.0, np.divide(2.0, t, out=out), out=out)  # noqa: E731
        drive = lambda t, out: np.divide(1.0, np.power(t, 2, out=out), out=out)  # noqa: E731
        zero = lambda t, out: np.divide(0.0, t, out=out)  # noqa: E731
        _, undriven = analysis._scan_decay(coeff, drive, 3, 5000, 1.0,
                                           chunk=700)
        assert undriven == analysis._scan_decay(coeff, zero, 3, 5000, 1.0,
                                                chunk=700)[0]

    @pytest.mark.parametrize("bad", [np.nan, 0.0, 1.0, -0.5])
    def test_coefficients_outside_the_open_unit_interval_rejected(self, bad):
        def coeff(t, out):
            out.fill(0.5)
            out[len(out) // 2] = bad
            return out

        with pytest.raises(AnalysisError, match="must lie in"):
            analysis._scan_decay(coeff, lambda t, out: np.multiply(0.0, t, out=out), 3, 100, 1.0)


def reference_scan(coeff, drive, t0, T, x0, chunk):
    """_scan_decay written with fresh arrays for every chunk and callables
    that return new arrays: the reference for the in-place scan."""
    x = undriven = float(x0)
    lo = t0
    while lo < T:
        hi = min(lo + chunk, T)
        t = np.arange(lo, hi, dtype=np.float64)
        S = np.cumsum(np.log(coeff(t)))
        decay = np.exp(S[-1])
        x = float(decay * x + np.sum(np.exp(S[-1] - S) * drive(t)))
        undriven = float(decay * undriven)
        lo = hi
    return x, undriven


class TestInPlaceScan:
    @settings(max_examples=60, deadline=None)
    @given(harmonic=st.booleans(), a=st.floats(0.1, 3.0), p=st.floats(0.3, 1.5),
           q=st.floats(0.5, 3.0), b=st.floats(-2.0, 2.0), shift=st.integers(0, 20),
           chunk=st.integers(2, 300), full=st.integers(0, 6), part=st.integers(1, 299))
    def test_matches_fresh_array_reference_bitwise(self, harmonic, a, p, q, b, shift, chunk,
                                                   full, part):
        """Both recursion forms over several chunks and a partial last one."""
        if harmonic:
            t0 = int(math.floor(a)) + 1 + shift
            coeff = lambda t: 1.0 - a / t  # noqa: E731
            drive = lambda t: b / t ** (p + 1.0)  # noqa: E731
            coeff_into = lambda t, out: np.subtract(1.0, np.divide(a, t, out=out), out=out)  # noqa: E731
            drive_into = lambda t, out: np.divide(  # noqa: E731
                b, np.power(t, p + 1.0, out=out), out=out)
        else:
            t0 = int(math.ceil(a ** (1.0 / p))) + 1 + shift
            coeff = lambda t: 1.0 - a / t**p  # noqa: E731
            drive = lambda t: b / t**q  # noqa: E731
            coeff_into = lambda t, out: np.subtract(  # noqa: E731
                1.0, np.divide(a, np.power(t, p, out=out), out=out), out=out)
            drive_into = lambda t, out: np.divide(b, np.power(t, q, out=out), out=out)  # noqa: E731
        # `full` whole chunks, then a last one holding 1..chunk-1 steps
        T = t0 + full * chunk + 1 + part % (chunk - 1)
        expected = reference_scan(coeff, drive, t0, T, 1.0, chunk)
        assert analysis._scan_decay(coeff_into, drive_into, t0, T, 1.0, chunk) == expected


def three_array_scan(coeff, drive, t0, T, x0, chunk):
    """_scan_decay as it was with three whole-chunk arrays (offsets, t and
    the coefficients, which become the log-cumsum): the reference the
    piecewise scan must equal bit for bit."""
    x = undriven = float(x0)
    offsets = np.arange(max(0, min(chunk, T - t0)), dtype=np.float64)
    t_buf = np.empty_like(offsets)
    c_buf = np.empty_like(offsets)
    lo = t0
    while lo < T:
        n = min(chunk, T - lo)
        t = np.add(offsets[:n], lo, out=t_buf[:n])
        c = coeff(t, c_buf[:n])
        if not (c.min() > 0 and c.max() < 1):
            raise AnalysisError("recursion coefficients must lie in (0, 1); raise t0")
        d = drive(t, t)
        S = np.log(c, out=c)
        np.cumsum(S, out=S)
        last = S[-1]
        decay = np.exp(last)
        np.subtract(last, S, out=S)
        np.exp(S, out=S)
        S *= d
        x = float(decay * x + np.sum(S))
        undriven = float(decay * undriven)
        lo += n
    return x, undriven


class TestPiecewiseScan:
    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.1, 3.0), p=st.floats(0.3, 1.5), b=st.floats(-2.0, 2.0),
           shift=st.integers(0, 50), steps=st.integers(1, 1500), chunk=st.integers(1, 600),
           piece=st.integers(1, 300))
    @example(a=2.0, p=1.0, b=1.0, shift=0, steps=40, chunk=100, piece=64)  # T - t0 < piece
    @example(a=2.0, p=1.0, b=1.0, shift=0, steps=1000, chunk=250, piece=64)  # 64 ∤ 250
    @example(a=2.0, p=1.0, b=1.0, shift=0, steps=1, chunk=1, piece=1)
    def test_matches_three_array_scan_bitwise(self, a, p, b, shift, steps, chunk, piece):
        """Any start, horizon, chunk and piece, the piece longer than the
        horizon or not dividing the chunk included."""
        t0 = int(math.floor(a)) + 1 + shift
        coeff = lambda t, out: np.subtract(1.0, np.divide(a, t, out=out), out=out)  # noqa: E731
        drive = lambda t, out: np.divide(b, np.power(t, p + 1.0, out=out), out=out)  # noqa: E731
        expected = three_array_scan(coeff, drive, t0, t0 + steps, 1.0, chunk)
        with mock.patch.object(analysis, "_PIECE", piece):
            got = analysis._scan_decay(coeff, drive, t0, t0 + steps, 1.0, chunk)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 0.0, 1.0, -0.5])
    def test_bad_coefficient_in_a_later_piece_raises_alike(self, bad):
        """A coefficient out of (0, 1) at t = 250, in the fourth piece of 64
        steps of the first chunk, fails both scans with the same error."""
        def coeff(t, out):
            out.fill(0.5)
            out[t == 250.0] = bad
            return out

        drive = lambda t, out: np.multiply(0.0, t, out=out)  # noqa: E731
        errors = []
        for scan in (three_array_scan, analysis._scan_decay):
            with mock.patch.object(analysis, "_PIECE", 64), pytest.raises(AnalysisError) as err:
                scan(coeff, drive, 3, 1000, 1.0, 400)
            errors.append(str(err.value))
        assert errors == ["recursion coefficients must lie in (0, 1); raise t0"] * 2


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerifyFootprint:
    """verify's large sections keep only the arrays their bytes depend on."""

    def test_decay_scan_holds_one_chunk_array(self):
        """The log-cumsum of one chunk (1e6 floats), plus pieces of t."""
        peak = traced_peak(lambda: analysis.verify_chung_recursions(T=2_500_000))
        assert peak <= 8 * (10**6 + 3 * analysis._PIECE), f"peak {peak / 2**20:.2f} MiB"

    def test_ratio_expansion_holds_two_arrays(self):
        """Z and one work array, in which Y is built, plus a piece; the
        draws are remade for each scale."""
        n_mc = 2 * 10**5
        verify_ratio_expansion(n_mc=2)  # the first draw imports numpy.random
        peak = traced_peak(lambda: verify_ratio_expansion(n_mc=n_mc))
        assert peak <= 2.25 * n_mc * 8, f"peak {peak / (n_mc * 8):.2f} x n_mc floats"

    @pytest.mark.parametrize("alg, held, options", [
        ("bcos_m", "mv", {}),
        ("adam", "mv", {}),
        ("bcos_c", "m", {}),
        ("sign_sgd", "", {}),
        ("sgd", "", {}),
        ("bcos_c", "m", dict(conditional_full=True, bias_correction="zero_init_rescale",
                             weight_decay_lambda=0.1)),
    ])
    def test_estimator_holds_three_arrays(self, alg, held, options):
        """The draws, the directions and the estimates, or the centred
        copy that replaces the draws, plus a few slices of _PIECE floats, at
        verify's 1e5 draws on 3 coordinates: the catalog's five cases and a
        coupled, rescaled full conditional one."""
        prob = NoisyQuadratic(h=[1.0, 2.0, 0.5], sigma=[0.5, 1.0, 1.5], x_star=np.zeros(3))
        state = OptimizerState(t=1 if held else 0,
                               m=np.array([0.5, -1.0, 0.25]) if "m" in held else None,
                               v=np.array([1.0, 1.5, 2.0]) if "v" in held else None)
        cfg = OptimizerConfig(alg, beta1=0.9, beta2=0.95, epsilon=1e-6, **options)
        x, n_mc = np.array([1.2, -0.7, 2.0]), 10**5
        peak = traced_peak(lambda: estimator_stats(prob, x, state, cfg, n_mc, seed=101))
        assert peak <= 8 * (3 * n_mc * 3 + 6 * analysis._PIECE), (
            f"peak {peak / (n_mc * 3 * 8):.2f} x (n_mc, n) floats")

    def test_two_chunks_set_the_peak(self):
        """analysis.verify_sections runs each "alone" row of VERIFY_SECTIONS
        by itself, then each "beside" row beside one decay chunk on the
        worker, then two chunks at once. At default sizes no alone row and no
        beside row plus a chunk holds more than two chunks, so the two chunks
        set the peak; a row added to the table is measured here."""
        verify_ratio_expansion(n_mc=2)  # the first draw imports numpy.random
        chunk = traced_peak(lambda: analysis._decay_chunk(analysis._decay_chunks(10**7)[0]))
        alongside = {"alone": 0, "beside": chunk}
        rows = [row for row in analysis.VERIFY_SECTIONS if row[1] in alongside]
        assert {placement for _, placement, _ in rows} == set(alongside)
        for name, placement, run in rows:
            held = traced_peak(run) + alongside[placement]
            assert held <= 2 * chunk, (
                f"{name} ({placement}): {held / 2**20:.1f} MiB against two chunks' "
                f"{2 * chunk / 2**20:.1f} MiB")

    def test_verify_holds_two_chunks(self, capsys):
        """The whole command, every section and the pool, within two decay
        chunks and 1 MiB of slack for the interpreter's own objects (0.65 MiB
        measured), so a new section or a change to the schedule that raises
        the peak fails here."""
        verify_ratio_expansion(n_mc=2)  # the first draw imports numpy.random
        chunk = traced_peak(lambda: analysis._decay_chunk(analysis._decay_chunks(10**7)[0]))
        peak = traced_peak(lambda: cli.cmd_verify(cli.default_config()))
        assert peak <= 2 * chunk + 2**20, (
            f"verify {peak / 2**20:.2f} MiB against two chunks' {2 * chunk / 2**20:.2f} MiB")


class TestSharedScan:
    """verify_chung_recursions folds the same bytes whichever thread runs
    each chunk and in whatever order the chunks finish."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_thread_and_order_folds_the_serial_checks(self, data):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads finely
        try:
            self.check_shared_scan(data)
        finally:
            sys.setswitchinterval(switch)

    def check_shared_scan(self, data):
        with mock.patch.object(analysis, "_CHUNK", 10**4):
            serial = analysis.verify_chung_recursions(T=10**5)
            chunks = analysis._decay_chunks(10**5)
            order = data.draw(st.permutations(range(len(chunks))), label="order")
            on_worker = data.draw(st.lists(st.booleans(), min_size=len(chunks),
                                           max_size=len(chunks)), label="on_worker")
            with ThreadPoolExecutor(max_workers=1) as pool:
                def shared(fn, items):
                    # each thread takes its chunks in the drawn order, and
                    # the two run at once
                    assert items == chunks
                    done = {i: pool.submit(fn, items[i]) for i in order if on_worker[i]}
                    done.update((i, fn(items[i])) for i in order if not on_worker[i])
                    return [done[i].result() if on_worker[i] else done[i]
                            for i in range(len(items))]

                shared_checks = analysis.verify_chung_recursions(T=10**5, map=shared)
        assert len(chunks) == 30
        assert shared_checks == serial
        assert all(a.observed.hex() == b.observed.hex() for a, b in zip(shared_checks, serial))
