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
selection; `embed_parts` fills it from many texts, the default embedder's
in one numpy pass per block of texts, with no dense vectors.  Python runs
once per text only to strip and case-fold it, and once per distinct
non-ASCII character of a block to ask `str.isalnum`; the trigrams' CRC-32
is worked out in numpy from their UTF-8 bytes, bit-equal to `zlib.crc32`.
`SparseRows.best_scores` takes a search's probes stacked as arrays
(`Probes`).  `block_probes` stacks the probes of many searches from one
`embed_parts` call; `probe_nonzeros` works out a few texts one by one,
the default embedder's in plain Python.
"""

from __future__ import annotations

import math
import re
import zlib
from itertools import chain
from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import EmbeddingError

EMBEDDING_DIM = 512

_BOUNDARY = "#"
# What collapsing drops: exactly the characters that are not `str.isalnum`.
_NOT_ALNUM = re.compile(r"[\W_]+")
_ASCII_ALNUM = np.array([chr(c).isalnum() for c in range(128)])
# Dense vectors, and texts for the trigram pass, are taken this many at a
# time, bounding working arrays.
_BLOCK = 256
_TEXT_BLOCK = 1024
Part = tuple[np.ndarray, np.ndarray, np.ndarray]  # rows, dims, values of non-zeros
_EMPTY: Part = (np.empty(0, np.int32), np.empty(0, np.uint8), np.empty(0))
Probe = tuple[np.ndarray, np.ndarray]  # sorted non-zero dimensions, their values
# Probes stacked: their number, then for every non-zero of each probe in
# turn, the probe's position, the dimension and the value.
Probes = tuple[int, np.ndarray, np.ndarray, np.ndarray]


@runtime_checkable
class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def unit_normalize(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise EmbeddingError("cannot normalize a zero vector")
    return vector / norm


def _padded(text: str) -> str:
    """The string a text's trigrams are taken from."""
    folded = text.strip().casefold()
    if not folded:
        raise EmbeddingError("cannot embed empty text")
    # Purely symbolic strings ("???") would collapse to nothing; fall
    # back to the folded text so they still embed deterministically.
    return _BOUNDARY + (_NOT_ALNUM.sub("", folded) or folded) + _BOUNDARY


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
        padded = _padded(text)
        counts = np.zeros(self.dim, dtype=np.float64)
        for i in range(len(padded) - 2):
            counts[zlib.crc32(padded[i : i + 3].encode("utf-8")) % self.dim] += 1.0
        return unit_normalize(counts)


def _crc_table() -> np.ndarray:
    """The byte table of CRC-32 (reflected polynomial 0xEDB88320), as `zlib` uses it."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC_TABLE = _crc_table()


def _crc_step(crc: np.ndarray, byte: np.ndarray) -> np.ndarray:
    """The CRC-32 registers after one more byte each."""
    return _CRC_TABLE.take((crc ^ byte) & 0xFF) ^ (crc >> 8)


def _crc32_trigrams(stream: np.ndarray, at: np.ndarray) -> np.ndarray:
    """`zlib.crc32` of the UTF-8 bytes of each trigram `stream[a : a + 3]`,
    for `a` in `at`, from code points, with no Python per trigram."""
    # A lone surrogate raises here, as `str.encode` does in `embed`.
    utf8 = np.frombuffer(
        stream.tobytes().decode("utf-32-le", "surrogatepass").encode("utf-8"), dtype=np.uint8
    )
    # Each character's first byte is the one that is not a continuation byte.
    starts = np.append(np.flatnonzero((utf8 & 0xC0) != 0x80), len(utf8))
    first = starts[at]
    size = (starts[3:] - starts[:-3])[at]
    # A trigram has 3 to 12 bytes: the CRC of the 3 bytes at every offset,
    # read at each trigram's first, then the longer trigrams' other bytes.
    crc = np.uint32(0xFFFFFFFF)
    for k in range(3):
        crc = _crc_step(crc, utf8[k : len(utf8) - 2 + k])
    crc = crc[first]
    for k in range(3, int(size.max(initial=3))):
        crc = np.where(k < size, _crc_step(crc, utf8.take(first + k, mode="clip")), crc)
    return crc ^ 0xFFFFFFFF


def _trigram_block(texts: Sequence[str], dim: int, first_row: int) -> tuple[Part, np.ndarray]:
    """The non-zeros of the `TrigramEmbedder` vectors of the texts that
    embed, numbered from `first_row`, and those texts' positions: equal, to
    the bit, to `dense_parts` over `embed`, with no Python per trigram."""
    folded = [text.strip().casefold() for text in texts]
    joined = "".join(folded)
    lengths = np.fromiter(map(len, folded), dtype=np.intp, count=len(folded))
    codes = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    # From a table for ASCII, and `str.isalnum` once per distinct other character.
    alnum = _ASCII_ALNUM.take(codes, mode="clip")
    wide = np.flatnonzero(codes >= 0x80)
    distinct, inverse = np.unique(codes[wide], return_inverse=True)
    alnum[wide] = np.array([chr(c).isalnum() for c in distinct.tolist()], dtype=bool)[inverse]
    owner = np.repeat(np.arange(len(folded)), lengths)
    alnums = np.bincount(owner[alnum], minlength=len(folded))
    # As `_padded`: a text's alphanumerics, or all of it when it has none;
    # an empty text does not embed.
    kept = np.flatnonzero(lengths)
    widths = np.where(alnums > 0, alnums, lengths)[kept]
    chars = codes[alnum | (alnums == 0)[owner]]
    # Kept text k is padded with a boundary marker on each side, so it has
    # as many trigrams as characters, and trigram j of the block starts at
    # j + 2k of the stream of padded texts.
    at = np.arange(len(chars)) + np.repeat(np.arange(0, 2 * len(kept), 2), widths)
    stream = np.full(len(chars) + 2 * len(kept), ord(_BOUNDARY), dtype=codes.dtype)
    stream[at + 1] = chars
    hashed = (_crc32_trigrams(stream, at) % dim).astype(np.intp)
    text_of = np.repeat(np.arange(len(kept)), widths)
    pairs, counts = np.unique(text_of * dim + hashed, return_counts=True)
    rows, dims = np.divmod(pairs, dim)
    # Sums of squared integer counts are exact: each norm is `np.linalg.norm`'s.
    norms = np.sqrt(np.bincount(rows, counts * counts))
    dims = dims.astype(np.min_scalar_type(dim))
    return ((rows + first_row).astype(np.int32), dims, counts / norms[rows]), kept


def dense_parts(vectors: Sequence[np.ndarray], dim: int, first_row: int = 0) -> list[Part]:
    """The non-zeros of dense vectors, numbered from `first_row`."""
    parts = []
    for first in range(0, len(vectors), _BLOCK):
        block = np.array(vectors[first : first + _BLOCK]).reshape(-1, dim)
        at = np.flatnonzero(block != 0)
        rows, dims = np.divmod(at, dim)
        dims = dims.astype(np.min_scalar_type(dim))
        parts.append(((rows + first_row + first).astype(np.int32), dims, block.ravel()[at]))
    return parts


def embed_parts(embedder: Embedder, texts: Sequence[str]) -> tuple[list[Part], list[int]]:
    """The non-zeros of the texts that embed, a row each, and their indices."""
    kept: list[int] = []
    parts: list[Part] = []
    if isinstance(embedder, TrigramEmbedder):
        for first in range(0, len(texts), _TEXT_BLOCK):
            block = texts[first : first + _TEXT_BLOCK]
            part, embedded = _trigram_block(block, embedder.dim, len(kept))
            parts.append(part)
            kept += (embedded + first).tolist()
        return parts, kept
    for first in range(0, len(texts), _BLOCK):
        vectors = []
        for i, text in enumerate(texts[first : first + _BLOCK], start=first):
            try:
                vectors.append(embedder.embed(text))
            except EmbeddingError:
                continue
            kept.append(i)
        parts += dense_parts(vectors, embedder.dim, len(kept) - len(vectors))
    return parts, kept


def _probe(embedder: Embedder, text: str) -> Optional[Probe]:
    """A text's non-zeros; a `TrigramEmbedder`'s from its trigram counts."""
    try:
        if not isinstance(embedder, TrigramEmbedder):
            vector = embedder.embed(text)
            dims = np.flatnonzero(vector)
            return dims, vector[dims]
        padded = _padded(text)
    except EmbeddingError:
        return None
    counts: dict[int, int] = {}
    for i in range(len(padded) - 2):
        d = zlib.crc32(padded[i : i + 3].encode("utf-8")) % embedder.dim
        counts[d] = counts.get(d, 0) + 1
    dims = sorted(counts)
    # A sum of squared integer counts is exact, so this is `embed`'s norm.
    norm = math.sqrt(sum(count * count for count in counts.values()))
    return np.array(dims, dtype=np.intp), np.array([counts[d] / norm for d in dims])


def probe_nonzeros(embedder: Embedder, texts: Iterable[str]) -> Probes:
    """The non-zeros of the texts that embed, one by one, stacked: equal, to
    the bit, to those of `embed`."""
    probes = [probe for probe in (_probe(embedder, text) for text in texts) if probe is not None]
    if not probes:
        return 0, np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0)
    return (
        len(probes),
        np.repeat(np.arange(len(probes)), [len(dims) for dims, _ in probes]),
        np.concatenate([dims for dims, _ in probes]),
        np.concatenate([values for _, values in probes]),
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of the ranges [start, start + length), one range after another."""
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)


def block_probes(embedder: Embedder, groups: Sequence[Sequence[str]]) -> list[Probes]:
    """Each group's probes, stacked, from one `embed_parts` call over the
    groups' distinct texts: equal, to the bit, to `probe_nonzeros` of the group."""
    texts = list(dict.fromkeys(chain.from_iterable(groups)))
    parts, kept = embed_parts(embedder, texts)
    rows, dims, values = (np.concatenate(arrays) for arrays in zip(*parts, _EMPTY))
    row_of = {texts[i]: row for row, i in enumerate(kept)}
    # Row r's non-zeros are at [starts[r], starts[r + 1]).
    starts = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(kept)))))
    stacked = []
    for group in groups:
        picked = np.array([row_of[text] for text in group if text in row_of], dtype=np.intp)
        lengths = starts[picked + 1] - starts[picked]
        at = _ranges(starts[picked], lengths)
        which = np.repeat(np.arange(len(picked)), lengths)
        stacked.append((len(picked), which, dims[at], values[at]))
    return stacked


class SparseRows:
    """Row vectors stored by dimension: for each dimension, the rows with a
    non-zero value there, in row order, and those values.
    """

    def __init__(self, parts: Iterable[Part], n: int, dim: int):
        """Store `n` rows from the parts of their non-zeros, in row order."""
        self.n = n
        rows, dims, values = (np.concatenate(arrays) for arrays in zip(*parts, _EMPTY))
        # Dimension d's rows and values are at [starts[d], starts[d + 1]).
        self.starts = np.concatenate(([0], np.cumsum(np.bincount(dims, minlength=dim))))
        # The smallest integer type makes the stable sort a radix sort.
        by_dim = np.argsort(dims.astype(np.min_scalar_type(dim), copy=False), kind="stable")
        self.rows, self.values = rows[by_dim], values[by_dim]

    def best_scores(self, probes: Probes) -> np.ndarray:
        """Each row's highest dot product with any of the (one or more) probes.

        Only the rows that share a non-zero dimension with a probe are
        read; the rest score exactly 0.0 against it.  Each dot product is
        summed over dimensions in ascending order, so it equals, to the
        bit, the sum a plain loop over the dense vectors gives.
        """
        count, which, dims, values = probes
        # As intp: `dims + 1` in a narrower type could wrap.
        dims = dims.astype(np.intp)
        starts = self.starts[dims]
        lengths = self.starts[dims + 1] - starts
        # Every stored value of every (probe, dimension) pair, in that order.
        at = _ranges(starts, lengths)
        bins = self.rows[at] + np.repeat(which * self.n, lengths)
        weights = self.values[at] * np.repeat(values, lengths)
        scores = np.bincount(bins, weights, minlength=count * self.n)
        return scores.reshape(count, self.n).max(axis=0)
