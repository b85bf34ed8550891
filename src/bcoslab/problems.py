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

from .core import BlockPartition, row_sums

# Stream purposes, used as the leading spawn-key entry so trajectory noise and
# Monte Carlo draws never alias even under the same base seed.
TRAJECTORY_STREAM = 0
MC_STREAM = 1
DATA_STREAM = 2

# degrees of freedom of the Student-t noise (> 2, so its variance is finite)
_STUDENT_DF = 5.0


class ProblemError(ValueError):
    pass


def make_rng(base_seed: int, *key: int) -> np.random.Generator:
    """Deterministic, splittable stream: equal (base_seed, key) pairs replay
    the same draws, distinct keys are statistically independent."""
    return np.random.default_rng(np.random.SeedSequence(int(base_seed), spawn_key=tuple(key)))


class StochasticProblem(ABC):
    """Interface every problem exposes to the harness.

    A stochastic gradient is a ``draw`` from a caller-owned Generator fed to
    ``gradient``, a pure function; the lockstep ensemble draws in chunks and
    replays the gradients ``sample_gradient`` would give.

    ``moments`` returns None when exact conditional moments are not
    available (the logistic smoke problem); everything that needs an oracle
    checks for that.
    """

    dim: int
    x_star: np.ndarray | None

    @abstractmethod
    def loss(self, x: np.ndarray, out=(None, None, None)):
        """The loss at x, or at each row of a (..., n) stack. ``out`` names
        two arrays shaped like x for the products, which a problem may use,
        and one shaped like the result that receives it (None allocates)."""

    @abstractmethod
    def draw(self, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
        """The draws behind ``shape`` gradients, shape + (k,); drawing
        shape (a+b,) equals drawing (a,) then (b,)."""

    @abstractmethod
    def gradient(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The stochastic gradient at x for the draw z, or at each row of a
        (..., n) stack for the draws (..., k), each row as its own call."""

    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.gradient(x, self.draw(rng))

    def moments(self, x: np.ndarray, fold_lambda: float = 0.0, out=(None, None)):
        """Exact per-coordinate (E[g], E[g^2]) at x, a (..., n) array, with
        lambda*x folded into the gradient; None without an oracle. A problem
        with an oracle draws additive noise, gradient(x, z) is E[g] - z, and
        sample_gradients(x, rng, size) stacks size of them.
        ``out`` names arrays shaped like x that receive the two moments (None
        allocates one); neither may be x."""
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

    def __init__(self, h, sigma, x_star, noise: str = "gaussian"):
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 1 or not h.size:
            raise ProblemError(f"curvatures h must be a nonempty vector, got shape {h.shape}")
        if not np.all(h > 0):  # NaN fails it too
            raise ProblemError("curvatures h must be positive")
        n = h.shape[0]
        try:
            sigma, x_star = (np.broadcast_to(np.asarray(a, dtype=np.float64), (n,)).copy()
                             for a in (sigma, x_star))
        except ValueError:
            raise ProblemError(f"sigma and x_star must be scalars or of length {n}") from None
        if not np.all(sigma >= 0):
            raise ProblemError("noise levels must be nonnegative")
        if not all(np.isfinite(a).all() for a in (h, sigma, x_star)):
            raise ProblemError("h, noise levels and x_star must be finite")
        if noise not in ("gaussian", "student_t"):
            raise ProblemError(f"unknown noise kind {noise!r}")
        self.h = h
        self.sigma = sigma
        self.x_star = x_star
        self.dim = n
        self.noise = noise
        # scales the standard draws to variance sigma^2 (Student-t: unit variance first)
        df = _STUDENT_DF
        self._noise_scale = sigma * (1.0 if noise == "gaussian" else math.sqrt((df - 2.0) / df))
        self._variance = (h * sigma) ** 2
        self._tiles = (None,)

    def _coefficients(self, x):
        """(x*, h, h^2 sigma^2) in a shape that broadcasts against the array
        x. For a stack of rows they are (rows, n) tiles, kept for the last row
        count: numpy applies a broadcast (n,) operand one short row at a time,
        about three times slower on the ensemble's (200, 4) arrays, for equal
        values."""
        if x.ndim < 2:
            return self.x_star, self.h, self._variance
        rows = x.shape[-2]
        tiles = self._tiles
        if tiles[0] != rows:
            tiles = self._tiles = (rows, *(np.tile(a, (rows, 1))
                                           for a in (self.x_star, self.h, self._variance)))
        return tiles[1:]

    def loss(self, x: np.ndarray, out=(None, None, None)):
        """0.5 * sum h (x - x*)^2 at x, or at each row of a (..., n) stack;
        x - x* goes into out[0] and the products into out[1]."""
        x = np.asarray(x)
        x_star, h, _ = self._coefficients(x)
        diff = np.subtract(x, x_star, out=out[0])
        sq = np.multiply(h, diff, out=out[1])
        sq *= diff
        return np.multiply(0.5, row_sums(sq, out[2]), out=out[2])

    def draw(self, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
        """The noise terms h*xi, shape + (n,), of shape gradients."""
        size = shape + (self.dim,)
        z = (rng.standard_normal(size) if self.noise == "gaussian"
             else rng.standard_t(_STUDENT_DF, size=size))
        z *= self._noise_scale
        z *= self.h
        return z

    def gradient(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """E[g] = h*(x - x*) minus the noise term z; x and z broadcast."""
        return self._mean(np.asarray(x)) - z

    def _mean(self, x: np.ndarray, out=None) -> np.ndarray:
        x_star, h, _ = self._coefficients(x)
        mean = np.subtract(x, x_star, out=out)
        mean *= h
        return mean

    def sample_gradients(self, x: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.gradient(x, self.draw(rng, (size,)))

    def moments(self, x: np.ndarray, fold_lambda: float = 0.0, out=(None, None)):
        """Exact moments for the raw gradient, optionally with lambda*x folded
        in (the non-decoupled regularization rule, which shifts the mean by
        lambda*x and leaves the variance unchanged)."""
        mean = self._mean(x, out[0])
        if fold_lambda:
            mean += fold_lambda * x
        second = np.multiply(mean, mean, out=out[1])
        second += self._coefficients(x)[2]
        return mean, second

    def default_start(self) -> np.ndarray:
        return self.x_star + 3.0


class LogisticSmokeProblem(StochasticProblem):
    """Two-class logistic regression on synthetic data: 20 features, 1000
    points, minibatch 32 by default. No moment oracle and no known x_star;
    used only for qualitative loss-decrease checks."""

    def __init__(self, n_features: int = 20, n_samples: int = 1000, batch: int = 32,
                 data_seed: int = 2024):
        if batch < 1 or batch > n_samples:
            raise ProblemError("batch must lie in [1, n_samples]")
        rng = make_rng(data_seed, DATA_STREAM)
        self.features = rng.standard_normal((n_samples, n_features)) / math.sqrt(n_features)
        # the margin scale of the true weights
        w_true = 2.0 * rng.standard_normal(n_features)
        p = _sigmoid(np.einsum("ij,j->i", self.features, w_true) * math.sqrt(n_features))
        self.labels = (rng.random(n_samples) < p).astype(np.float64)
        self.dim = n_features
        self.n_samples = n_samples
        self.batch = batch
        self.x_star = None

    def loss(self, x: np.ndarray, out=(None, None, None)):
        """Mean logistic loss at x, or at each row of a (..., n) stack, in
        pieces of 2**15 // n_samples rows; the product scratch goes unused."""
        rows = np.reshape(x, (-1, self.dim))
        losses = np.empty(len(rows))
        piece = max(1, 2**15 // self.n_samples)
        for a in range(0, len(rows), piece):
            z = np.einsum("ij,rj->ri", self.features, rows[a : a + piece])
            # log(1 + exp(-s*z)) with s = 2y - 1, written stably
            z *= 1.0 - 2.0 * self.labels
            np.mean(np.logaddexp(0.0, z, out=z), axis=1, out=losses[a : a + piece])
        if out[2] is None:
            return losses.reshape(np.shape(x)[:-1])[()]
        out[2][...] = losses.reshape(out[2].shape)
        return out[2]

    def draw(self, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
        """Minibatch indices; none when the batch is the whole data set."""
        size = 0 if self.batch == self.n_samples else self.batch
        return rng.integers(0, self.n_samples, size=shape + (size,))

    def gradient(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Minibatch gradient at x (..., n) over the indices z (..., batch), or
        the full-data one when the batch is the whole data set; einsum's own
        loops give a row of a stack its own call's bits, as BLAS does not."""
        if self.batch == self.n_samples:
            xb, yb = self.features, self.labels
        else:
            xb, yb = self.features[z], self.labels[z]
        p = _sigmoid(np.einsum("...bj,...j->...b", xb, x))
        p -= yb
        return np.einsum("...bj,...b->...j", xb, p) / self.batch


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def aiming_values(x: np.ndarray, diff: np.ndarray, dist, lam: float, mean: np.ndarray,
                  second: np.ndarray, partition: BlockPartition, out=(None, None, None, None)):
    """<x - x*, E[d]/sqrt(E[d^2]) + lambda*x> - lambda*||x - x*||^2 for each
    row of x (..., n), given diff = x - x*, its squared norms dist (...), and
    the direction's mean (..., n) and per-block second moments (..., m).
    Nonnegative exactly when the expected (normalized, decayed) update
    direction points toward the target strongly enough.

    NaN where a block's second moment is not positive (NaN moments included):
    the direction is degenerate there and the value undefined.

    ``out`` names scratch: an array shaped like x for the products, one
    shaped like second for its square roots, and two shaped like dist, the
    first of which receives the values (None allocates)."""
    products, roots, values, work = out
    if lam > 0:
        # lambda*<diff, x> - lambda*dist, added to the normalized term last
        decay = row_sums(np.multiply(diff, x, out=products), work)
        decay *= lam
        decay -= np.multiply(lam, dist, out=values)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.multiply(diff, mean, out=products)
        terms /= partition.expand(np.sqrt(second, out=roots))
        aim = row_sums(terms, values)
    if lam > 0:
        aim += decay
    if np.all(second > 0):
        return aim
    return np.where(np.all(second > 0, axis=-1), aim, np.nan)


@dataclass(frozen=True)
class GridCheckRow:
    x: tuple[float, ...]
    inner_product: float
    curvature_witness: float


@dataclass(frozen=True)
class CounterexampleReport:
    """Grid evidence that the sign-direction aiming condition and convexity
    are independent properties: the measured values only, judged by
    ``cli._counterexample_checks``."""

    name: str
    rows: tuple[GridCheckRow, ...]
    notes: str = ""

    def csv_rows(self) -> list[str]:
        out = ["x,inner_product,curvature_witness,aiming_ok,convex_ok"]
        for r in self.rows:
            xs = ";".join(repr(v) for v in r.x)
            out.append(
                f"{xs},{repr(r.inner_product)},{repr(r.curvature_witness)},"
                f"{int(r.inner_product >= 0.0)},{int(r.curvature_witness >= 0.0)}"
            )
        return out


def counterexample_log_aiming() -> CounterexampleReport:
    """f(x) = log(x) on the grid x in {0.1, 0.2, ..., 10} with target 0:
    the sign of f'(x) = 1/x is +1, so <x - 0, sign(f'(x))> = x >= 0 at every
    grid point, while f''(x) = -1/x^2 < 0 witnesses non-convexity everywhere."""
    grid = np.round(np.arange(1, 101) * 0.1, 10)
    rows = []
    for xv in grid:
        inner = float(xv) * float(np.sign(1.0 / xv))
        curv = -1.0 / float(xv) ** 2
        rows.append(GridCheckRow((float(xv),), inner, curv))
    return CounterexampleReport(
        name="log_aiming_not_convex",
        rows=tuple(rows),
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
    return {
        "name": "convex_quadratic_not_aiming",
        "matrix": A,
        "eigenvalues": np.sort(eigs),
        "psd_certified": bool(np.all(eigs >= -1e-12)),
        "x_eval": x_eval,
        "aiming_value": value,
    }
