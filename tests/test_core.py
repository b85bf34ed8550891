"""Vector algebra and block-partition behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bcoslab.core import BlockPartition, NonFiniteError, ShapeError, row_sums
from bcoslab.optim import OptimizerConfig, OptimizerState, normalize, step


class TestBlockPartition:
    def test_singleton_covers_all(self):
        p = BlockPartition.singleton(5)
        assert p.num_blocks == 5
        assert p.block_sizes.tolist() == [1, 1, 1, 1, 1]

    def test_from_sizes(self):
        p = BlockPartition.from_sizes([2, 3, 1])
        assert p.block_starts == (0, 2, 5)
        assert p.total_dim == 6

    def test_sizes_sum_to_dim(self):
        p = BlockPartition((0, 2, 3), 7)
        assert int(p.block_sizes.sum()) == 7
        assert np.all(p.block_sizes >= 1)

    def test_rejects_gap_or_overlap(self):
        with pytest.raises(ShapeError):
            BlockPartition((1, 3), 5)  # does not start at 0
        with pytest.raises(ShapeError):
            BlockPartition((0, 2, 2), 5)  # empty block
        with pytest.raises(ShapeError):
            BlockPartition((0, 7), 5)  # start beyond the dimension
        with pytest.raises(ShapeError, match="^total_dim must be >= 1, got 0$"):
            BlockPartition((0,), 0)
        with pytest.raises(ShapeError, match="^every block needs cardinality >= 1$"):
            BlockPartition.from_sizes([2, 0])

    def test_block_sums_and_expand_roundtrip(self):
        p = BlockPartition.from_sizes([2, 1, 3])
        a = np.arange(6, dtype=float)
        sums = p.block_sums(a)
        assert sums.tolist() == [1.0, 2.0, 12.0]
        expanded = p.expand(np.array([10.0, 20.0, 30.0]))
        assert expanded.tolist() == [10, 10, 20, 30, 30, 30]

    def test_block_sums_and_expand_reject_wrong_lengths(self):
        p = BlockPartition.from_sizes([2, 2])
        with pytest.raises(ShapeError, match="^expected length 4, got 3$"):
            p.block_sums(np.ones(3))
        with pytest.raises(ShapeError, match="^expected 2 blocks, got 3$"):
            p.expand(np.ones(3))


class TestParamVector:
    """A parameter vector is a plain (n,) float64 array; step checks it
    against the partition and keeps it finite."""

    def test_rejects_non_finite(self):
        for x in ([1.0, float("nan")], [np.inf, 0.0]):
            with pytest.raises(NonFiniteError):
                step(OptimizerConfig("sgd"), OptimizerState(), np.array(x), np.zeros(2), 0.1,
                     BlockPartition.singleton(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            step(OptimizerConfig("sgd"), OptimizerState(), np.ones(3), np.ones(4), 0.1,
                 BlockPartition.singleton(4))


class TestBlockSqNorms:
    """Per-block squared norms, as every step rule forms them."""

    def test_pythagorean(self):
        p = BlockPartition.from_sizes([2, 1])
        assert p.block_sums(np.array([3.0, 4.0, 5.0]) ** 2).tolist() == [25.0, 25.0]

    def test_single_full_block(self):
        p = BlockPartition.full(2)
        assert p.block_sums(np.array([1.0, 1.0]) ** 2).tolist() == [2.0]

    def test_singleton_blocks_square_coordinates(self):
        p = BlockPartition.singleton(2)
        assert p.block_sums(np.array([2.0, -3.0]) ** 2).tolist() == [4.0, 9.0]

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_sum_to_full_norm(self, vals, cut_seed):
        """Per-block squared norms always total the full squared norm."""
        n = len(vals)
        rng = np.random.default_rng(cut_seed)
        n_blocks = int(rng.integers(1, n + 1))
        starts = (0,) + tuple(sorted(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))) if n_blocks > 1 else (0,)
        p = BlockPartition(starts, n)
        sq = np.asarray(vals) ** 2
        np.testing.assert_allclose(p.block_sums(sq).sum(), float(np.sum(sq)),
                                   rtol=1e-12, atol=1e-300)


def sign_step(values):
    """The update direction of the sign method, sign(d) elementwise."""
    d = np.asarray(values, dtype=float)
    return normalize(OptimizerConfig("sign_sgd"), d, d * d, BlockPartition.singleton(d.size))


class TestSignVec:
    def test_three_way_definition(self):
        assert sign_step([0.5, -2.0, 0.0]).tolist() == [1.0, -1.0, 0.0]

    def test_zero_maps_to_zero(self):
        assert sign_step([0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_tiny_positive_maps_to_one(self):
        assert sign_step([1e-300]).tolist() == [1.0]


class TestSingletonBlockSums:
    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=1, max_value=5), max_size=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_copy_matches_reduceat_bitwise(self, n, batch, seed):
        """The singleton shortcut returns exactly what reduceat returns, on
        any leading batch axes, signed zeros and infinities included."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((*batch, n)) * 10.0 ** rng.integers(-300, 300, (*batch, n))
        a.flat[rng.integers(0, a.size)] = rng.choice([0.0, -0.0, np.inf, -np.inf])
        p = BlockPartition.singleton(n)
        expected = np.add.reduceat(a, np.arange(n), axis=-1)
        out = p.block_sums(a)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()
        assert out is not a and not np.shares_memory(out, a)

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1)])
    def test_out_receives_the_sums(self, sizes):
        a = np.arange(6.0).reshape(2, 3) - 2.5
        p = BlockPartition.from_sizes(sizes)
        out = np.empty((2, p.num_blocks))
        assert p.block_sums(a, out) is out
        assert out.tobytes() == p.block_sums(a).tobytes()


# entries whose sums expose the order of addition: signed zeros, infinities,
# NaNs, subnormals and values far apart in magnitude
ROW_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1e308, 1e16, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


class TestRowSums:
    @given(
        n=st.integers(1, 12),
        batch=st.sampled_from([(), (3,), (2, 5)]),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_sum_bytewise(self, n, batch, data):
        """row_sums equals np.sum over the last axis byte for byte, on 1-D
        rows and on batches (also written into ``out``), for every n on
        either side of numpy's switch from a left-to-right sum to a pairwise
        one at 8."""
        a = data.draw(arrays(np.float64, (*batch, n), elements=ROW_ENTRIES))
        with np.errstate(all="ignore"):
            expected = np.sum(a, axis=-1)
            got = row_sums(a)
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        if batch:
            out = np.empty(batch)
            with np.errstate(all="ignore"):
                assert row_sums(a, out) is out
            assert out.tobytes() == expected.tobytes()
