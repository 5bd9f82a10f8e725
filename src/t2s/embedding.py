"""Text embedding used by value and column retrieval.

The default embedder works fully offline: the text is case-folded,
collapsed to its alphanumeric characters, padded with boundary markers,
and split into character trigrams which are hashed into a fixed-size bag
and L2-normalized.  Identical texts always produce identical vectors, and
near-identical spellings ("IGA" vs "Ig A", "John" vs "JOHN") land close
together, which is exactly what retrieval over messy stored values needs.

Any object with a ``dim`` attribute and an ``embed(text) -> np.ndarray``
method can stand in for the default, e.g. a client for a hosted embedding
model.  `SparseRows` stores such vectors for value search and few-shot
selection.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from .errors import EmbeddingError

EMBEDDING_DIM = 512

_BOUNDARY = "#"


@runtime_checkable
class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def unit_normalize(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EmbeddingError("cannot normalize a zero vector")
    return vector / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two unit vectors (plain dot product)."""
    return float(np.dot(a, b))


class TrigramEmbedder:
    """Deterministic hashed character-trigram embedder.

    Collapsing to alphanumerics before taking trigrams makes the vector
    insensitive to case, whitespace and punctuation, so a question phrase
    like "Ig A" matches a stored column name "IGA" exactly.
    """

    def __init__(self, dim: int = EMBEDDING_DIM):
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        stripped = text.strip()
        if not stripped:
            raise EmbeddingError("cannot embed empty text")
        counts = np.zeros(self.dim, dtype=np.float64)
        for gram in self._features(stripped):
            counts[zlib.crc32(gram.encode("utf-8")) % self.dim] += 1.0
        return unit_normalize(counts)

    @staticmethod
    def _features(text: str) -> list[str]:
        folded = text.casefold()
        collapsed = "".join(ch for ch in folded if ch.isalnum())
        # Purely symbolic strings ("???") would collapse to nothing; fall
        # back to the folded text so they still embed deterministically.
        core = collapsed if collapsed else folded
        padded = _BOUNDARY + core + _BOUNDARY
        if len(padded) < 3:
            return [padded]
        return [padded[i : i + 3] for i in range(len(padded) - 2)]


class SparseRows:
    """Row vectors stored by dimension: for each dimension, the rows with a
    non-zero value there, in row order, and those values.
    """

    # Vectors are gathered this many at a time, so that building never
    # holds more than one block of them densely.
    _BLOCK = 256

    def __init__(self, vectors: Iterable[np.ndarray], dim: int):
        block = np.empty((self._BLOCK, dim))
        parts = []
        self.n = 0
        for vector in vectors:
            block[self.n % self._BLOCK] = vector
            self.n += 1
            if self.n % self._BLOCK == 0:
                parts.append(self._nonzeros(block, self.n - self._BLOCK))
        tail = self.n % self._BLOCK
        parts.append(self._nonzeros(block[:tail], self.n - tail))
        rows, dims, values = (np.concatenate(arrays) for arrays in zip(*parts))
        # The smallest integer type makes the stable sort a radix sort.
        by_dim = np.argsort(dims.astype(np.min_scalar_type(dim)), kind="stable")
        self.rows, self.values = rows[by_dim], values[by_dim]
        # Dimension d's rows and values are at [starts[d], starts[d + 1]).
        self.starts = np.concatenate(([0], np.cumsum(np.bincount(dims, minlength=dim))))

    @staticmethod
    def _nonzeros(block: np.ndarray, first_row: int):
        """Rows, dimensions and values of a block's non-zeros, row by row."""
        at = np.flatnonzero(block != 0)
        rows, dims = np.divmod(at, block.shape[1])
        return (rows + first_row).astype(np.int32), dims, block.ravel()[at]

    def max_scores(self, probes: np.ndarray) -> np.ndarray:
        """Each row's highest dot product with any probe (a row of `probes`).

        Only the rows that share a non-zero dimension with a probe are
        read; the rest score exactly 0.0 against it.  Each dot product is
        summed over dimensions in ascending order, so it equals, to the
        bit, the sum a plain loop over the dense vectors gives.
        """
        which, dims = np.nonzero(probes != 0)
        starts = self.starts[dims]
        lengths = self.starts[dims + 1] - starts
        ends = np.cumsum(lengths)
        # Every stored value of every (probe, dimension) pair, in that order.
        at = np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)
        bins = self.rows[at] + np.repeat(which * self.n, lengths)
        weights = self.values[at] * np.repeat(probes[which, dims], lengths)
        scores = np.bincount(bins, weights, minlength=len(probes) * self.n)
        return scores.reshape(len(probes), self.n).max(axis=0)
