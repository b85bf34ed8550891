"""The block structure of a flat parameter vector and the elementwise algebra
shared by every optimizer step.

Vectors are plain (..., n) float64 arrays; a ``BlockPartition`` passed
alongside them says which coordinates share a block. 64-bit precision is
deliberate: the verification harness has to separate statistical error from
roundoff.
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


def row_sums(a: np.ndarray, out=None):
    """np.sum(a, axis=-1) of a float64 array, bit for bit, written into
    ``out`` when given. numpy adds a last axis shorter than 8 left to right
    from +0.0; adding a column at a time does the same, far faster on many
    short rows. From 8 on numpy sums pairwise, so those rows go to np.sum."""
    n = a.shape[-1]
    if n == 0 or n >= 8:
        return np.sum(a, axis=-1, out=out)
    total = np.add(a[..., 0], 0.0, out=out)
    for j in range(1, n):
        total += a[..., j]
    return total


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

    def block_sums(self, a: np.ndarray, out=None) -> np.ndarray:
        """Sum a (..., n) array within each block along the last axis;
        returns a (..., m) array, written into ``out`` when given."""
        a = np.asarray(a)
        if a.shape[-1] != self.total_dim:
            raise ShapeError(f"expected length {self.total_dim}, got {a.shape[-1]}")
        if self.num_blocks == self.total_dim:
            # one coordinate per block: the sums are the entries themselves,
            # and a copy is far cheaper than reduceat on batched draws
            if out is None:
                return a.copy()
            out[...] = a
            return out
        return np.add.reduceat(a, np.asarray(self.block_starts), axis=-1, out=out)

    def expand(self, per_block: np.ndarray) -> np.ndarray:
        """Broadcast a length-m per-block array back to length n."""
        per_block = np.asarray(per_block)
        if per_block.shape[-1] != self.num_blocks:
            raise ShapeError(f"expected {self.num_blocks} blocks, got {per_block.shape[-1]}")
        if self.num_blocks == self.total_dim:
            return per_block
        return np.repeat(per_block, self.block_sizes, axis=-1)
