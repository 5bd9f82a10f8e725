import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s import TrigramEmbedder
from t2s.embedding import (
    _NOT_ALNUM, EMBEDDING_DIM, SparseRows, block_probes, dense_parts, probe_nonzeros,
    unit_normalize,
)
from t2s.errors import EmbeddingError


def cosine(a, b):
    """Cosine similarity of two unit vectors (plain dot product)."""
    return float(np.dot(a, b))


@pytest.fixture(scope="module")
def embedder():
    return TrigramEmbedder()


def test_dimension(embedder):
    assert embedder.dim == EMBEDDING_DIM == 512
    assert embedder.embed("hello").shape == (512,)


def test_vectors_are_unit_length(embedder):
    for text in ("a", "IGA", "hello world", "1996-02-11", "+"):
        assert np.linalg.norm(embedder.embed(text)) == pytest.approx(1.0)


def test_spacing_and_case_do_not_matter(embedder):
    # "Ig A" and "IGA" collapse to the same trigram bag
    assert cosine(embedder.embed("Ig A"), embedder.embed("IGA")) == pytest.approx(1.0)
    assert cosine(embedder.embed("John"), embedder.embed("JOHN")) == pytest.approx(1.0)
    assert cosine(embedder.embed("f"), embedder.embed("F")) == pytest.approx(1.0)


def test_near_miss_similarity(embedder):
    # 6 shared grams, 8 vs 9 total: 6/sqrt(72) = 1/sqrt(2)
    sim = cosine(embedder.embed("patients"), embedder.embed("patientid"))
    assert sim == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert sim >= 0.65


def test_unrelated_strings_score_low(embedder):
    assert cosine(embedder.embed("patients"), embedder.embed("zebra")) < 0.3


def test_year_against_full_date(embedder):
    # "1996" shares 3 of its 4 grams with the collapsed date digits:
    # 3/sqrt(4*8)
    sim = cosine(embedder.embed("1996"), embedder.embed("1996-02-11"))
    assert sim == pytest.approx(3 / math.sqrt(32), abs=1e-9)


def test_punctuation_only_falls_back_to_raw_text(embedder):
    # nothing alphanumeric survives, so the folded text itself is used
    v = embedder.embed("+")
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert cosine(embedder.embed("+"), embedder.embed("-")) < 0.5


def test_collapse_keeps_exactly_the_alnum_characters():
    # Every code point but the surrogates, which no str from text holds.
    every = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)
    assert _NOT_ALNUM.sub("", every) == "".join(filter(str.isalnum, every))


def test_empty_text_rejected(embedder):
    with pytest.raises(EmbeddingError):
        embedder.embed("")
    with pytest.raises(EmbeddingError):
        embedder.embed("   ")


def test_unit_normalize_zero_vector_rejected():
    with pytest.raises(EmbeddingError):
        unit_normalize(np.zeros(4))


def test_unit_normalize_scales():
    v = unit_normalize(np.array([3.0, 4.0]))
    assert v == pytest.approx(np.array([0.6, 0.8]))


_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_self_similarity_is_one(text):
    e = TrigramEmbedder()
    assert cosine(e.embed(text), e.embed(text)) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(_texts, _texts)
def test_cosine_symmetric_and_bounded(a, b):
    e = TrigramEmbedder()
    va, vb = e.embed(a), e.embed(b)
    assert cosine(va, vb) == pytest.approx(cosine(vb, va))
    # counts are nonnegative, so cosine stays in [0, 1]
    assert -1e-9 <= cosine(va, vb) <= 1.0 + 1e-9


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_case_insensitive(text):
    e = TrigramEmbedder()
    assert cosine(e.embed(text), e.embed(text.upper())) == pytest.approx(1.0)


def _stacked(probes):
    """Dense probes, stacked as `SparseRows.best_scores` takes them."""
    nonzero = [np.flatnonzero(probe) for probe in probes]
    return (
        len(probes),
        np.repeat(np.arange(len(probes)), [len(dims) for dims in nonzero]),
        np.concatenate(nonzero),
        np.concatenate([probe[dims] for probe, dims in zip(probes, nonzero)]),
    )


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
def test_sparse_rows_scores_as_dense_loop(n):
    # Row counts on both sides of the build's block size.
    rng = np.random.default_rng(n)
    dense = rng.normal(size=(n, 40)) * (rng.random((n, 40)) < 0.1)
    probes = rng.normal(size=(3, 40)) * (rng.random((3, 40)) < 0.3)
    probes[2] = 0.0  # a probe that reaches no row
    store = SparseRows(dense_parts(dense, 40), n, 40)
    want = []
    for row in dense.tolist():
        sums = []
        for probe in probes.tolist():
            total = 0.0
            for p, v in zip(probe, row):
                total += p * v
            sums.append(total)
        want.append(max(sums))
    assert store.n == n
    got = store.best_scores(_stacked(probes))
    assert got.tolist() == want


_probe_texts = st.one_of(
    st.text(max_size=30),  # any code points, the empty text included
    st.text(alphabet=string.punctuation + " \t", max_size=8),
    st.text(min_size=300, max_size=600),
    st.sampled_from(["ß", "İstanbul", "ﬁle", "日本語", "ＡＢＣ", "Ig A", "   "]),
)


class _DenseTrigrams:
    """A `TrigramEmbedder` behind another type: its texts go the dense path."""

    def __init__(self, dim):
        self._inner = TrigramEmbedder(dim)
        self.dim = dim

    def embed(self, text):
        return self._inner.embed(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(_probe_texts, max_size=4), st.sampled_from([1, 7, 256, 512]), st.booleans())
def test_probe_nonzeros_equal_those_of_embed_bit_for_bit(texts, dim, dense):
    embedder = _DenseTrigrams(dim) if dense else TrigramEmbedder(dim)
    # Every text twice, as the n-grams of a question's searches repeat.
    texts = texts + texts
    want = []
    for text in texts:
        try:
            want.append(embedder.embed(text))
        except EmbeddingError:
            continue
    count, which, dims, values = probe_nonzeros(embedder, texts)
    assert count == len(want)
    if want:
        assert which.tolist() == _stacked(want)[1].tolist()
        assert dims.tolist() == _stacked(want)[2].tolist()
        assert values.tobytes() == _stacked(want)[3].tobytes()
    # One block for two searches: each search's probes are those of its
    # texts worked out one by one.
    groups = [texts, texts[::-1]]
    for group, stacked in zip(groups, block_probes(embedder, groups)):
        count, which, dims, values = probe_nonzeros(embedder, group)
        assert stacked[0] == count
        assert stacked[1].tolist() == which.tolist()
        assert stacked[2].tolist() == dims.tolist()
        assert stacked[3].tobytes() == values.tobytes()


def test_sparse_probes_score_as_dense_ones_at_the_last_dimension():
    # Dimension 255 is the last a uint8 holds: the kernel must not wrap.
    rng = np.random.default_rng(5)
    dense = rng.random((30, 256)) * (rng.random((30, 256)) < 0.2)
    dense[:, 255] = rng.random(30)
    store = SparseRows(dense_parts(dense, 256), 30, 256)
    probe = np.zeros(256)
    probe[[0, 17, 255]] = (0.5, 0.25, 1.0)
    dims = np.array([0, 17, 255], dtype=np.uint8)
    got = store.best_scores((1, np.zeros(3, np.intp), dims, probe[dims]))
    want = []
    for row in dense.tolist():
        total = 0.0
        for p, v in zip(probe.tolist(), row):
            total += p * v
        want.append(total)
    assert got.tolist() == want
