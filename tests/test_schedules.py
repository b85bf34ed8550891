"""Stepsize schedule values and theory-side admissibility checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoslab import schedules
from bcoslab.analysis import rate_preconditions
from bcoslab.schedules import (
    ScheduleError,
    StepSchedule,
    constant,
    inverse_time,
    power,
    value_at,
    warmup_cosine,
    warmup_linear,
)


class TestValueAt:
    def test_inverse_time_start(self):
        assert value_at(inverse_time(1.0), 0) == 1.0

    def test_inverse_time_t9(self):
        assert value_at(inverse_time(1.0), 9) == pytest.approx(0.1, rel=1e-15)

    def test_power_hand_value(self):
        # 2 / 16^0.75 = 2 / 8
        assert value_at(power(2.0, 0.75), 15) == pytest.approx(0.25, rel=1e-14)

    def test_constant(self):
        s = constant(0.3)
        assert [value_at(s, t) for t in (0, 5, 10**6)] == [0.3, 0.3, 0.3]

    def test_warmup_ramp_and_clamp(self):
        s = warmup_cosine(1.0, warmup_steps=4, total_steps=10, alpha_min_ratio=0.1)
        ramp = [value_at(s, t) for t in range(4)]
        np.testing.assert_allclose(ramp, [0.25, 0.5, 0.75, 1.0])
        assert value_at(s, 4) == 1.0  # decay starts at the peak
        assert value_at(s, 10) == pytest.approx(0.1)
        # beyond total_steps the terminal value is clamped, not an error
        assert value_at(s, 10**7) == value_at(s, 10)

    def test_warmup_linear_midpoint(self):
        s = warmup_linear(2.0, warmup_steps=2, total_steps=6, alpha_min_ratio=0.0)
        assert value_at(s, 4) == pytest.approx(1.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ScheduleError):
            value_at(constant(1.0), -1)

    def test_deterministic_and_pure(self):
        s = power(1.5, 0.6)
        assert [value_at(s, 7)] * 3 == [value_at(s, 7) for _ in range(3)]


class TestValidation:
    def test_power_exponent_range(self):
        with pytest.raises(ScheduleError):
            power(1.0, 0.5)
        with pytest.raises(ScheduleError):
            power(1.0, 1.0)

    def test_alpha_positive(self):
        with pytest.raises(ScheduleError):
            constant(0.0)

    @pytest.mark.parametrize("kind", ["constant", "inverse_time", "warmup_cosine"])
    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_alpha_non_finite_named(self, kind, alpha):
        with pytest.raises(ScheduleError, match="^alpha must be finite and > 0"):
            StepSchedule(kind, alpha, warmup_steps=2, total_steps=10)

    def test_negative_warmup_rejected(self):
        """The CLI parser rejects a negative warmup first; the library names it too."""
        with pytest.raises(ScheduleError, match="^warmup_steps must be >= 0$"):
            StepSchedule("warmup_cosine", 0.1, warmup_steps=-1, total_steps=10)

    def test_peak_violation(self):
        violations = rate_preconditions(inverse_time(3.0), 0.5)
        assert any("alpha*lambda" in v for v in violations)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ScheduleError):
            rate_preconditions(constant(1.0), -0.1)


class TestSeriesBounds:
    def test_inverse_time_partial_square_sums_bounded(self):
        """Partial sums of squared stepsizes stay under alpha^2 * pi^2/6."""
        alpha = 1.7
        t = np.arange(10**6, dtype=np.float64)
        partial = np.cumsum((alpha / (t + 1.0)) ** 2)
        assert np.all(partial < alpha**2 * np.pi**2 / 6.0)


@given(
    st.sampled_from(["inverse_time", "power"]),
    st.floats(0.55, 0.95),
    st.integers(0, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_decaying_kinds_nonincreasing(kind, p, t):
    s = StepSchedule(kind, 1.0, p=p)
    assert value_at(s, t) >= value_at(s, t + 1)


@given(st.integers(0, 10**7))
@settings(max_examples=100, deadline=None)
def test_warmup_values_nonnegative_and_bounded(t):
    s = schedules.warmup_cosine(0.5, 100, 10_000, alpha_min_ratio=0.01)
    v = value_at(s, t)
    assert 0.0 <= v <= 0.5
