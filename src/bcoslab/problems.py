"""Synthetic stochastic problems with exact moment oracles, the aiming
counterexamples, and a small logistic-regression smoke problem.

Problems are immutable after construction. Sampling always goes through a
caller-owned Generator, so parallel trajectories never share RNG state; use
``make_rng`` to derive independent, replayable streams.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import BlockPartition
from .optim import MomentOracle

# Stream purposes, used as the leading spawn-key entry so trajectory noise and
# Monte Carlo draws never alias even under the same base seed.
TRAJECTORY_STREAM = 0
MC_STREAM = 1
DATA_STREAM = 2


class ProblemError(ValueError):
    pass


def make_rng(base_seed: int, *key: int) -> np.random.Generator:
    """Deterministic, splittable stream: equal (base_seed, key) pairs replay
    the same draws, distinct keys are statistically independent."""
    return np.random.default_rng(np.random.SeedSequence(int(base_seed), spawn_key=tuple(key)))


class StochasticProblem(ABC):
    """Interface every problem exposes to the harness.

    ``grad_moments`` returns None when exact conditional moments are not
    available (the logistic smoke problem); everything that needs an oracle
    checks for that.
    """

    dim: int
    x_star: np.ndarray | None
    lambda_reg: float = 0.0

    @abstractmethod
    def loss(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray: ...

    def sample_gradients(self, x: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
        """size independent draws, stacked (size, dim). The default loops
        sample_gradient; subclasses may vectorize."""
        return np.stack([self.sample_gradient(x, rng) for _ in range(size)])

    def grad_moments(self, x: np.ndarray, partition: BlockPartition | None = None,
                     fold_lambda: float = 0.0) -> MomentOracle | None:
        return None

    def default_start(self) -> np.ndarray:
        return np.zeros(self.dim)


class NoisyQuadratic(StochasticProblem):
    """Diagonal quadratic with additive gradient noise and closed-form moments.

    The stochastic gradient is h*(x - x_star) - h*xi with xi zero-mean,
    coordinatewise independent, Var(xi_i) = sigma_i^2, so E[g] = h*(x - x_star)
    and E[g^2] = E[g]^2 + h^2*sigma^2. Noise is Gaussian by default; the
    Student-t variant (df=5, rescaled to the same variance) keeps the same
    first two moments but heavier tails, to stress estimator variance.
    """

    def __init__(self, h, sigma, x_star, lambda_reg: float = 0.0,
                 noise: str = "gaussian", student_df: float = 5.0):
        h = np.asarray(h, dtype=np.float64)
        if np.any(h <= 0):
            raise ProblemError("curvatures h must be positive")
        n = h.shape[0]
        sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,)).copy()
        if np.any(sigma < 0):
            raise ProblemError("noise levels must be nonnegative")
        x_star = np.broadcast_to(np.asarray(x_star, dtype=np.float64), (n,)).copy()
        if noise not in ("gaussian", "student_t"):
            raise ProblemError(f"unknown noise kind {noise!r}")
        if noise == "student_t" and student_df <= 2:
            raise ProblemError("student_t noise needs df > 2 for a finite variance")
        self.h = h
        self.sigma = sigma
        self.x_star = x_star
        self.dim = n
        self.lambda_reg = float(lambda_reg)
        self.noise = noise
        self.student_df = float(student_df)

    def loss(self, x: np.ndarray) -> float:
        diff = np.asarray(x) - self.x_star
        return 0.5 * float(np.sum(self.h * diff * diff))

    def _noise(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.noise == "gaussian":
            return self.sigma * rng.standard_normal(shape)
        df = self.student_df
        scale = math.sqrt((df - 2.0) / df)  # unit-variance Student-t
        return self.sigma * scale * rng.standard_t(df, size=shape)

    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.h * (np.asarray(x) - self.x_star) - self.h * self._noise(rng, self.dim)

    def sample_gradients(self, x: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
        mean = self.h * (np.asarray(x) - self.x_star)
        return mean - self.h * self._noise(rng, (size, self.dim))

    def grad_moments(self, x: np.ndarray, partition: BlockPartition | None = None,
                     fold_lambda: float = 0.0) -> MomentOracle:
        """Exact oracle for the raw gradient, optionally with lambda*x folded
        in (the non-decoupled regularization rule, which shifts the mean by
        lambda*x and leaves the variance unchanged)."""
        if partition is None:
            partition = BlockPartition.singleton(self.dim)
        x = np.asarray(x, dtype=np.float64)
        mean = self.h * (x - self.x_star) + fold_lambda * x
        var = (self.h * self.sigma) ** 2
        second = partition.block_sums(mean * mean + var)
        return MomentOracle(mean, second, partition)

    def default_start(self) -> np.ndarray:
        return self.x_star + 3.0


class LogisticSmokeProblem(StochasticProblem):
    """Two-class logistic regression on synthetic data: 20 features, 1000
    points, minibatch 32 by default. No moment oracle and no known x_star;
    used only for qualitative loss-decrease checks."""

    def __init__(self, n_features: int = 20, n_samples: int = 1000, batch: int = 32,
                 data_seed: int = 2024, margin: float = 2.0):
        if batch < 1 or batch > n_samples:
            raise ProblemError("batch must lie in [1, n_samples]")
        rng = make_rng(data_seed, DATA_STREAM)
        self.features = rng.standard_normal((n_samples, n_features)) / math.sqrt(n_features)
        w_true = margin * rng.standard_normal(n_features)
        p = _sigmoid(self.features @ w_true * math.sqrt(n_features))
        self.labels = (rng.random(n_samples) < p).astype(np.float64)
        self.dim = n_features
        self.n_samples = n_samples
        self.batch = batch
        self.x_star = None

    def loss(self, x: np.ndarray) -> float:
        z = self.features @ np.asarray(x)
        # log(1 + exp(-s*z)) written stably
        s = 2.0 * self.labels - 1.0
        return float(np.mean(np.logaddexp(0.0, -s * z)))

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.features @ np.asarray(x))
        return self.features.T @ (p - self.labels) / self.n_samples

    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.batch == self.n_samples:
            return self.full_gradient(x)
        idx = rng.integers(0, self.n_samples, size=self.batch)
        xb = self.features[idx]
        p = _sigmoid(xb @ np.asarray(x))
        return xb.T @ (p - self.labels[idx]) / self.batch


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def aiming_inner_product(problem: StochasticProblem, x: np.ndarray, lam: float,
                         direction_oracle: MomentOracle) -> float:
    """<x - x*, E[d]/sqrt(E[d^2]) + lambda*x> - lambda*||x - x*||^2.

    Nonnegative exactly when the expected (normalized, decayed) update
    direction points toward the target strongly enough."""
    if problem.x_star is None:
        raise ProblemError("aiming needs a problem with a known target point")
    second = direction_oracle.second_moment_d
    if np.any(second <= 0):
        raise ProblemError("aiming needs strictly positive direction second moments")
    x = np.asarray(x, dtype=np.float64)
    diff = x - problem.x_star
    normalized = direction_oracle.mean_d / direction_oracle.partition.expand(np.sqrt(second))
    value = float(np.dot(diff, normalized + lam * x)) - lam * float(np.dot(diff, diff))
    return value


@dataclass(frozen=True)
class GridCheckRow:
    x: tuple[float, ...]
    inner_product: float
    curvature_witness: float
    aiming_ok: bool
    convex_ok: bool


@dataclass(frozen=True)
class CounterexampleReport:
    """Grid evidence that the sign-direction aiming condition and convexity
    are independent properties."""

    name: str
    rows: tuple[GridCheckRow, ...]
    aiming_all_pass: bool
    convexity_all_fail: bool
    notes: str = ""

    def csv_rows(self) -> list[str]:
        out = ["x,inner_product,curvature_witness,aiming_ok,convex_ok"]
        for r in self.rows:
            xs = ";".join(repr(v) for v in r.x)
            out.append(
                f"{xs},{repr(r.inner_product)},{repr(r.curvature_witness)},"
                f"{int(r.aiming_ok)},{int(r.convex_ok)}"
            )
        return out

    def render_text(self) -> str:
        lines = [f"# counterexample: {self.name}"]
        if self.notes:
            lines.append(self.notes)
        lines.append(
            f"grid points: {len(self.rows)}, aiming_all_pass={self.aiming_all_pass}, "
            f"convexity_all_fail={self.convexity_all_fail}"
        )
        return "\n".join(lines)


def counterexample_log_aiming() -> CounterexampleReport:
    """f(x) = log(x) on the grid x in {0.1, 0.2, ..., 10} with target 0:
    the sign of f'(x) = 1/x is +1, so <x - 0, sign(f'(x))> = x >= 0 at every
    grid point, while f''(x) = -1/x^2 < 0 witnesses non-convexity everywhere."""
    grid = np.round(np.arange(1, 101) * 0.1, 10)
    rows = []
    for xv in grid:
        inner = float(xv) * float(np.sign(1.0 / xv))
        curv = -1.0 / float(xv) ** 2
        rows.append(GridCheckRow((float(xv),), inner, curv, inner >= 0.0, curv >= 0.0))
    return CounterexampleReport(
        name="log_aiming_not_convex",
        rows=tuple(rows),
        aiming_all_pass=all(r.aiming_ok for r in rows),
        convexity_all_fail=all(not r.convex_ok for r in rows),
        notes="grid x = 0.1..10 step 0.1; curvature witness is the second derivative",
    )


def counterexample_quadratic_not_aiming() -> dict:
    """Convex quadratic 0.5 x^T A x with A = [[1,-2],[-2,4]] (eigenvalues
    {0, 5}, so positive semidefinite) whose sign-direction aiming value at
    x = (1.5, 1) is exactly -0.5."""
    A = np.array([[1.0, -2.0], [-2.0, 4.0]])
    eigs = np.linalg.eigvalsh(A)
    x_eval = np.array([1.5, 1.0])
    grad = A @ x_eval
    value = float(np.dot(x_eval, np.sign(grad)))
    extra_points = []
    for pt in ([1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]):
        p = np.array(pt)
        extra_points.append((tuple(p), float(np.dot(p, np.sign(A @ p)))))
    return {
        "name": "convex_quadratic_not_aiming",
        "matrix": A,
        "eigenvalues": np.sort(eigs),
        "psd_certified": bool(np.all(eigs >= -1e-12)),
        "x_eval": x_eval,
        "aiming_value": value,
        "aiming_violated": value < 0.0,
        "extra_points": extra_points,
    }


def render_quadratic_report(report: dict) -> str:
    lines = [f"# counterexample: {report['name']}"]
    lines.append(f"eigenvalues: {report['eigenvalues'].tolist()} (psd={report['psd_certified']})")
    lines.append(
        f"aiming value at {report['x_eval'].tolist()}: {report['aiming_value']!r} "
        f"(violated={report['aiming_violated']})"
    )
    return "\n".join(lines)
