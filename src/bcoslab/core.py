"""Flat parameter vectors with a block structure and the elementwise algebra
shared by every optimizer step.

Vectors are dense float64 arrays. 64-bit precision is deliberate: the
verification harness has to separate statistical error from roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class VectorError(ValueError):
    """Invalid input to a vector operation."""


class ShapeError(VectorError):
    """Length or partition mismatch."""


class NonFiniteError(VectorError):
    """A public operation observed or produced NaN/Inf entries."""


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous, non-overlapping blocks covering coordinates 0..total_dim-1.

    ``block_starts[k]`` is the first coordinate of block k; block k ends where
    block k+1 starts, and the last block ends at ``total_dim``. Every block
    therefore has cardinality >= 1 and the blocks cover the index set exactly.
    """

    block_starts: tuple[int, ...]
    total_dim: int

    def __post_init__(self):
        starts = tuple(int(s) for s in self.block_starts)
        object.__setattr__(self, "block_starts", starts)
        n = self.total_dim
        if n < 1:
            raise ShapeError(f"total_dim must be >= 1, got {n}")
        if not starts or starts[0] != 0:
            raise ShapeError("block_starts must begin with 0")
        for a, b in zip(starts, starts[1:]):
            if b <= a:
                raise ShapeError("block_starts must be strictly increasing")
        if starts[-1] >= n:
            raise ShapeError("last block start must be < total_dim")

    @classmethod
    def singleton(cls, n: int) -> "BlockPartition":
        """One block per coordinate (m = n)."""
        return cls(tuple(range(n)), n)

    @classmethod
    def full(cls, n: int) -> "BlockPartition":
        """A single block spanning all coordinates (m = 1)."""
        return cls((0,), n)

    @classmethod
    def from_sizes(cls, sizes) -> "BlockPartition":
        sizes = [int(s) for s in sizes]
        if any(s < 1 for s in sizes):
            raise ShapeError("every block needs cardinality >= 1")
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        return cls(tuple(int(s) for s in starts), int(sum(sizes)))

    @property
    def num_blocks(self) -> int:
        return len(self.block_starts)

    @property
    def block_sizes(self) -> np.ndarray:
        bounds = np.append(np.asarray(self.block_starts), self.total_dim)
        return np.diff(bounds)

    def block_sums(self, a: np.ndarray) -> np.ndarray:
        """Sum a (..., n) array within each block along the last axis;
        returns a (..., m) array."""
        a = np.asarray(a)
        if a.shape[-1] != self.total_dim:
            raise ShapeError(f"expected length {self.total_dim}, got {a.shape[-1]}")
        if self.num_blocks == self.total_dim:
            # one coordinate per block: the sums are the entries themselves,
            # and a copy is far cheaper than reduceat on batched draws
            return a.copy()
        return np.add.reduceat(a, np.asarray(self.block_starts), axis=-1)

    def expand(self, per_block: np.ndarray) -> np.ndarray:
        """Broadcast a length-m per-block array back to length n."""
        per_block = np.asarray(per_block)
        if per_block.shape[-1] != self.num_blocks:
            raise ShapeError(f"expected {self.num_blocks} blocks, got {per_block.shape[-1]}")
        if self.num_blocks == self.total_dim:
            return per_block
        return np.repeat(per_block, self.block_sizes, axis=-1)


@dataclass(frozen=True)
class ParamVector:
    """A flat float64 coordinate vector tied to a block partition.

    Values are copied on construction and must stay read-only once shared;
    optimizer steps always build a fresh vector.
    """

    values: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 1:
            raise ShapeError(f"expected a flat vector, got ndim={vals.ndim}")
        if vals.shape[0] != self.partition.total_dim:
            raise ShapeError(
                f"vector length {vals.shape[0]} != partition dim {self.partition.total_dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("vector contains NaN/Inf entries")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.partition.total_dim


def vector(values, partition: BlockPartition | None = None) -> ParamVector:
    """Build a ParamVector, defaulting to singleton (coordinatewise) blocks."""
    vals = np.asarray(values, dtype=np.float64)
    if partition is None:
        partition = BlockPartition.singleton(vals.shape[0])
    return ParamVector(vals, partition)
