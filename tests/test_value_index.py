import gc
import json
import random
import sqlite3
import string
import weakref
import zlib
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t2s import TrigramEmbedder, ValueIndex, ingest_schema
from t2s import embedding
from t2s.embedding import SparseRows, dense_parts
from t2s.errors import EmbeddingError, IndexBuildError
from t2s.schema import ColumnSelection
from t2s.value_index import MAX_EMBED_CHARS, RetrievalConfig, _word_ngrams


def test_word_ngrams_cover_phrases():
    probes = _word_ngrams("normal Ig A level")
    assert "Ig" in probes
    assert "Ig A" in probes
    assert "normal Ig A" in probes
    assert "normal Ig A level" in probes
    # no duplicates
    assert len(probes) == len(set(probes))


def test_build_indexes_text_columns_only(clinical_index):
    kinds = {(e.table, e.column) for e in clinical_index.entries if e.kind == "cell_value"}
    assert ("Laboratory", "IGA") not in kinds  # integer column
    assert ("Patient", "SEX") in kinds
    # 2 sexes + 5 first dates + 2 admission flags + 6 lab dates
    assert clinical_index.cell_count() == 15


def test_build_on_a_missing_database_raises_and_creates_nothing(tmp_path, clinical_catalog):
    with pytest.raises(IndexBuildError, match="cannot open"):
        ValueIndex.build(tmp_path / "missing.sqlite", clinical_catalog)
    assert list(tmp_path.iterdir()) == []


def test_every_column_has_a_name_entry(clinical_index, clinical_catalog):
    names = {(e.table, e.column) for e in clinical_index.entries if e.kind == "column_name"}
    expected = {(t.name, c.name) for t in clinical_catalog.tables for c in t.columns}
    assert names == expected


def test_search_finds_exact_value(clinical_index):
    hits = clinical_index.search_values("F")
    assert hits[0].table == "Patient"
    assert hits[0].column == "SEX"
    assert hits[0].text == "F"
    assert hits[0].similarity == pytest.approx(1.0)


def test_search_is_case_blind(clinical_index):
    top = clinical_index.search_values("f")[0]
    assert (top.text, top.similarity) == ("F", pytest.approx(1.0))


def test_search_threshold_cuts(clinical_index):
    # a bare year only part-matches full dates, far below 0.65
    assert clinical_index.search_values("1996") == []
    relaxed = clinical_index.search_values("1996", RetrievalConfig(threshold=0.4))
    assert relaxed
    assert {h.text for h in relaxed} >= {"1996-02-11"}
    assert all(h.column in ("Date", "First Date") for h in relaxed)


def test_search_top_k_limits(clinical_index):
    cfg = RetrievalConfig(threshold=0.0, top_k=3)
    assert len(clinical_index.search_values("1991", cfg)) == 3


def test_search_restrict_to_column(clinical_index):
    cfg = RetrievalConfig(threshold=0.0, top_k=5)
    hits = clinical_index.search_values("1991", cfg, restrict=("Patient", "First Date"))
    assert hits
    assert all(h.column == "First Date" for h in hits)


def test_results_sorted_by_similarity(clinical_index):
    cfg = RetrievalConfig(threshold=0.0, top_k=10)
    sims = [h.similarity for h in clinical_index.search_values("1991-05-06", cfg)]
    assert sims == sorted(sims, reverse=True)


def test_search_with_no_usable_probe(clinical_index):
    assert clinical_index.search_values("") == []


def test_column_search_spots_split_spelling(clinical_index, clinical_catalog):
    sel = clinical_index.search_columns("normal Ig A level", clinical_catalog)
    assert ("Laboratory", "IGA") in sel


def test_column_search_qualified_name(clinical_index, clinical_catalog):
    sel = clinical_index.search_columns("Laboratory.Date", clinical_catalog)
    assert ("Laboratory", "Date") in sel


def test_stored_spelling(clinical_index):
    assert clinical_index.stored_spelling("Patient", "SEX", "F") == "F"
    assert clinical_index.stored_spelling("Patient", "SEX", "f") == "F"
    assert clinical_index.stored_spelling("Patient", "SEX", "X") is None
    assert clinical_index.stored_spelling("patient", "sex", "m") == "M"
    assert clinical_index.stored_spelling("Patient", "Nowhere", "F") is None


def _scanned_spelling(index, table, column, literal):
    """The linear scan `stored_spelling` replaced: exact, then case-blind."""
    stored = [
        e.text
        for e in index.entries
        if e.kind == "cell_value"
        and (e.table.casefold(), e.column.casefold()) == (table.casefold(), column.casefold())
    ]
    if literal in stored:
        return literal
    return next((text for text in stored if text.casefold() == literal.casefold()), None)


# Case variants of a few stems ("ß" folds to "ss"), so columns hold texts
# that match case-blind, texts repeated in a column and texts other
# columns hold too.
_stems = st.sampled_from(["ab", "AB", "Ab", "ss", "SS", "ß", "a b", "é", "É", "x1"])
_spelled = st.builds(
    lambda stem, case: getattr(stem, case)(),
    _stems,
    st.sampled_from(["lower", "upper", "swapcase", "title", "strip"]),
)
_placed_cells = st.lists(
    st.tuples(_spelled, st.sampled_from(["T", "t", "U"]), st.sampled_from(["c", "C", "d"])),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(cells=_placed_cells, literals=st.lists(_spelled, min_size=1, max_size=6))
def test_stored_spelling_matches_the_linear_scan(cells, literals):
    index = ValueIndex("db", [("cell_value", t, c, [text]) for text, t, c in cells])
    for literal in literals + [text for text, _t, _c in cells[:4]]:
        for table, column in (("T", "c"), ("t", "C"), ("U", "d"), ("T", "d"), ("V", "c")):
            assert index.stored_spelling(table, column, literal) == (
                _scanned_spelling(index, table, column, literal)
            )


def test_hits_outlive_their_index(clinical_db, clinical_catalog):
    # A result keeps its hits after the index it came from is dropped; the
    # hits must not keep that index's vector store alive with them.
    index = ValueIndex.build(clinical_db, clinical_catalog)
    hits = index.search_values("F")
    matrix = weakref.ref(index._cell_store)
    del index
    gc.collect()
    assert matrix() is None
    assert (hits[0].table, hits[0].column, hits[0].text) == ("Patient", "SEX", "F")


def test_save_load_round_trip(clinical_index, clinical_catalog, tmp_path):
    path = tmp_path / "values.jsonl"
    clinical_index.save(path)
    loaded = ValueIndex.load(path)
    assert loaded.db_id == clinical_index.db_id
    assert loaded.cell_count() == clinical_index.cell_count()
    cfg = RetrievalConfig(threshold=0.0, top_k=50)

    def hits(index, query):
        return [(h.table, h.column, h.text, h.similarity) for h in index.search_values(query, cfg)]

    for query in ("f", "1991-05-06", "+", "normal Ig A level", "Laboratory.Date"):
        assert hits(loaded, query) == hits(clinical_index, query)
        for column_cfg in (cfg, RetrievalConfig(threshold=0.0, top_k=3), RetrievalConfig()):
            assert loaded.search_columns(query, clinical_catalog, column_cfg) == (
                clinical_index.search_columns(query, clinical_catalog, column_cfg)
            )
    assert [(e.kind, e.text, e.table, e.column) for e in loaded.entries] == [
        (e.kind, e.text, e.table, e.column) for e in clinical_index.entries
    ]
    assert all(
        np.array_equal(a.vector, b.vector)
        for a, b in zip(loaded.entries, clinical_index.entries)
    )
    # One record per run of consecutive entries of one column, and the
    # records' texts, in file order, are the entries.
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    runs = [key for key, _ in groupby((e.kind, e.table, e.column) for e in clinical_index.entries)]
    assert [(r["kind"], r["table"], r["column"]) for r in records] == runs
    assert all(set(record) == {"kind", "table", "column", "texts"} for record in records)
    assert [(r["kind"], text, r["table"], r["column"]) for r in records for text in r["texts"]] == [
        (e.kind, e.text, e.table, e.column) for e in clinical_index.entries
    ]


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
    with pytest.raises(IndexBuildError, match="not a value index file"):
        ValueIndex.load(path)
    # Version 1 stored vectors and version 2 one record per entry; such a
    # file is rebuilt, not read.
    old = {"kind": "cell_value", "text": "F", "table": "Patient", "column": "SEX"}
    for version in (1, 2):
        header = {"format": "t2s-value-index", "version": version, "dim": 512, "db_id": "x"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(old) + "\n")
        with pytest.raises(IndexBuildError, match=r"re-run `t2s preprocess`"):
            ValueIndex.load(path)


def test_load_rejects_a_malformed_header(tmp_path, clinical_index):
    path = tmp_path / "header.jsonl"
    clinical_index.save(path)
    header, *records = path.read_text().splitlines()
    for bad in ([1, 2], "t2s-value-index", None):
        path.write_text("\n".join([json.dumps(bad), *records]) + "\n")
        with pytest.raises(IndexBuildError, match="not a value index file"):
            ValueIndex.load(path)
    for dim in ("abc", 0, -3, 2.5, True, None):
        path.write_text("\n".join([json.dumps({**json.loads(header), "dim": dim}), *records]))
        with pytest.raises(IndexBuildError, match="bad embedding dim"):
            ValueIndex.load(path)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path, clinical_index):
    path = tmp_path / "latin1.jsonl"
    clinical_index.save(path)
    header, first = path.read_bytes().splitlines()[:2]
    odd = b'{"kind": "cell_value", "table": "Patient", "column": "SEX", "texts": ["caf\xe9"]}'
    for data in (b"\xff\xfe" + header, header + b"\n" + first + b"\n" + odd):
        path.write_bytes(data + b"\n")
        with pytest.raises(IndexBuildError, match="not UTF-8"):
            ValueIndex.load(path)


def test_load_rejects_broken_line(tmp_path, clinical_index):
    path = tmp_path / "broken.jsonl"
    clinical_index.save(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    with pytest.raises(IndexBuildError):
        ValueIndex.load(path)


def test_load_reports_the_file_line_of_a_bad_record(tmp_path, clinical_index):
    # Blank lines are skipped but still counted: the broken record is on
    # line 5 of the file.
    path = tmp_path / "broken.jsonl"
    clinical_index.save(path)
    header, first = path.read_text().splitlines()[:2]
    # Broken JSON, and a version-2 record, which holds one text.
    old = {"kind": "cell_value", "text": "F", "table": "Patient", "column": "SEX"}
    for bad in ("{not json", json.dumps(old)):
        path.write_text(f"{header}\n{first}\n\n   \n{bad}\n")
        with pytest.raises(IndexBuildError, match=r"at line 5:"):
            ValueIndex.load(path)


def test_load_rejects_an_unknown_record_kind(tmp_path, clinical_index):
    path = tmp_path / "kind.jsonl"
    clinical_index.save(path)
    header, first = path.read_text().splitlines()[:2]
    odd = {"kind": "row_count", "table": "Patient", "column": "SEX", "texts": ["15"]}
    path.write_text(f"{header}\n{first}\n{json.dumps(odd)}\n")
    with pytest.raises(IndexBuildError, match=r"at line 3: unknown record kind 'row_count'"):
        ValueIndex.load(path)


# -- batch and dense embedding agree --------------------------------------


class _DenseTrigrams:
    """The default embedder behind a type `ValueIndex` does not batch, so
    its vectors go the dense block path of any other embedder."""

    def __init__(self):
        self._inner = TrigramEmbedder()
        self.dim = self._inner.dim

    def embed(self, text):
        return self._inner.embed(text)


def _assert_same_index(batch, dense):
    assert [(e.kind, e.text, e.table, e.column) for e in batch.entries] == [
        (e.kind, e.text, e.table, e.column) for e in dense.entries
    ]
    for name in ("_cell_store", "_column_store"):
        got, want = getattr(batch, name), getattr(dense, name)
        assert got.n == want.n
        for array in ("rows", "values", "starts"):
            a, b = getattr(got, array), getattr(want, array)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_batch_leaves_out_the_records_the_dense_path_leaves_out():
    # Blank texts, and a long text whose embedded prefix is all spaces,
    # do not embed; the rows after them must keep their order.
    long_blank = " " * MAX_EMBED_CHARS + "tail that is never embedded"
    texts = ["Alice", "", "   ", "Bob Ray", "\t\n", long_blank, "+", "x" * 300, "ab", " é "]
    runs = [("cell_value", "T", "c", texts)]
    runs += [("column_name", "T", name, [name]) for name in ("", "c", "  ", "Total $")]
    runs *= 60  # 840 entries: several blocks of the batch
    with mock.patch.object(embedding, "_TEXT_BLOCK", 256):
        batch = ValueIndex("db", runs)
    _assert_same_index(batch, ValueIndex("db", runs, _DenseTrigrams()))
    kept = ["Alice", "Bob Ray", "+", "x" * 300, "ab", " é "] * 60
    assert [e.text for e in batch.entries if e.kind == "cell_value"] == kept
    assert [e.column for e in batch.entries if e.kind == "column_name"] == ["c", "Total $"] * 60
    assert not np.isnan(batch._cell_store.values).any()
    # Row i of the store is the i-th kept text's vector.
    vectors = [TrigramEmbedder().embed(text[:MAX_EMBED_CHARS]) for text in kept]
    want = SparseRows(dense_parts(vectors, 512), len(vectors), 512)
    for array in ("rows", "values", "starts"):
        assert getattr(batch._cell_store, array).tobytes() == getattr(want, array).tobytes()


# Characters whose trigrams the batch pass must work out as `embed` does:
# case folds that change the length (ß, İ, ﬁ, ŉ), both sigmas, digits that
# are not ASCII (٣, ²), 2-, 3- and 4-byte UTF-8 with the first and last
# code point of each length, the boundary marker, NUL, and ASCII symbols,
# blanks and alphanumerics.
_TRICKY = "ßİﬁŉΣσς٣²éЖ€中𝔘😀\x7f\x80\u07ff\u0800\uffff\U00010000\U0010ffff#\x00_.- aZ9"

_batch_texts = st.one_of(
    st.text(max_size=12),  # any Unicode, blanks included
    st.text(st.characters(max_codepoint=0x7F), max_size=12),  # ASCII only
    st.text(st.sampled_from(_TRICKY), min_size=1, max_size=8),
    st.sampled_from(["#", "##", "a#b", "#a#", "\x00", "a\x00", "ß", "İ", "ﬁ", "ŉ", "ΣΑΣ", "ς"]),
    # No alphanumerics: the whole text is hashed, code points of each
    # UTF-8 length among them.
    st.text(st.sampled_from("\x7f\x80\u07ff\uffff\U0010ffff#-"), min_size=1, max_size=5),
    st.text(st.characters(whitelist_categories=("P", "S", "Zs")), min_size=1, max_size=6),
    st.text(min_size=1, max_size=2),
    st.text(" \t\n\u00a0\u2003", min_size=1, max_size=4),
    # Over MAX_EMBED_CHARS, with an embedded prefix that may be all spaces.
    st.builds(lambda pad, tail: " " * pad + tail, st.integers(0, MAX_EMBED_CHARS + 2),
              st.text(min_size=1, max_size=MAX_EMBED_CHARS)),
)


@settings(max_examples=150, deadline=None)
@given(
    cells=st.lists(_batch_texts, max_size=40),
    columns=st.lists(_batch_texts, max_size=5),
    block=st.sampled_from([1, 2, 3, 256]),
)
# A lone surrogate next to alphanumerics is collapsed away before hashing.
@example(cells=["a\ud800b", "\udfffx1", "ok"], columns=["c\ud800"], block=2)
def test_batch_store_equals_the_dense_store(cells, columns, block):
    runs = [("cell_value", "T", "c", cells)]
    runs += [("column_name", "T", text, [text]) for text in columns]
    with mock.patch.multiple(embedding, _BLOCK=block, _TEXT_BLOCK=block):
        batch = ValueIndex("db", runs)
        dense = ValueIndex("db", runs, _DenseTrigrams())
    _assert_same_index(batch, dense)


def test_build_and_load_call_neither_crc32_nor_padded(tmp_path, clinical_db, clinical_catalog):
    # The batch pass pads and hashes in numpy, not text by text in Python.
    path = tmp_path / "index.jsonl"
    with mock.patch.object(zlib, "crc32", wraps=zlib.crc32) as crc32, \
            mock.patch.object(embedding, "_padded", wraps=embedding._padded) as padded:
        built = ValueIndex.build(clinical_db, clinical_catalog)
        built.save(path)
        loaded = ValueIndex.load(path)
    assert (crc32.call_count, padded.call_count) == (0, 0)
    _assert_same_index(loaded, built)
    assert built.cell_count() == 15


@pytest.mark.parametrize("texts", [["\ud800"], ["ok", " \udfff "], ["+\ud83d", "a"]])
def test_a_text_that_cannot_be_encoded_raises_as_in_embed(texts):
    # A lone surrogate survives collapsing only in a text with no
    # alphanumerics; `embed` then fails to encode it.
    with pytest.raises(UnicodeEncodeError):
        for text in texts:
            TrigramEmbedder().embed(text)
    with pytest.raises(UnicodeEncodeError):
        ValueIndex("db", [("cell_value", "T", "c", texts)])


# -- saved files ----------------------------------------------------------


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    return tmp_path_factory.mktemp("saved") / "index.jsonl"


# (text, table, column, copies): copies of a cell are consecutive, so a
# column's texts fill whole blocks and the blocks hold different trigrams.
_placed = st.tuples(
    _batch_texts, st.sampled_from(["T", "U"]), st.sampled_from(["c", "d"]), st.integers(1, 150)
)


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(_placed, min_size=1, max_size=10), columns=st.lists(_placed, max_size=4))
def test_a_loaded_index_stores_the_same_bytes(index_path, cells, columns):
    # Columns interleave and repeat, so one column's texts are on more than
    # one line, and repeating the draw spans several 256-text blocks.
    runs = [("cell_value", t, c, [text] * n) for text, t, c, n in cells]
    runs += [("column_name", t, text, [text] * n) for text, t, _, n in columns]
    runs *= 600 // sum(len(texts) for *_, texts in runs) + 1
    with mock.patch.object(embedding, "_TEXT_BLOCK", 256):
        index = ValueIndex("db", runs)
        index.save(index_path)
        loaded = ValueIndex.load(index_path)
    _assert_same_index(loaded, index)
    _assert_same_index(loaded, ValueIndex("db", runs, _DenseTrigrams()))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=5,
)
_odd_text = st.text(max_size=6) | st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)
_FIELDS = {
    "kind": st.sampled_from(["cell_value", "column_name"]),
    "table": _odd_text,
    "column": _odd_text,
    "texts": st.lists(_odd_text, max_size=4),
}
_WRONG = {
    "kind": st.sampled_from(["row_count", "Cell_Value"]) | _json,
    "table": _json,
    "column": _json,
    "texts": _json | st.lists(_json, min_size=1, max_size=3),
}


@st.composite
def _records(draw):
    """A format-3 record; half of them with one field of a wrong type or left out."""
    record = {key: draw(value) for key, value in _FIELDS.items()}
    key = draw(st.sampled_from([None] * 4 + list(_FIELDS)))
    if key is not None and draw(st.booleans()):
        del record[key]
    elif key is not None:
        record[key] = draw(_WRONG[key])
    return record


def _dumped(value):
    return json.dumps(value).encode()


# Headers of any version, with small dims only: arrays are sized by the dim.
_headers = st.builds(
    dict,
    format=st.just("t2s-value-index"),
    version=st.sampled_from([3, 3, 3, 2, 1, "3", None]),
    dim=st.integers(1, 4096) | st.sampled_from([0, -1, 2.5, True, "64", None]),
)
_HEADER = _dumped({"format": "t2s-value-index", "version": 3, "dim": 64})
_DEEP = b"[" * 100_000  # deeper than the JSON parser recurses
_line = st.one_of(
    st.binary(max_size=30),
    st.sampled_from([_DEEP, b'{"texts": ' + _DEEP]),
    (_json | _headers).map(_dumped),
)


@settings(max_examples=200, deadline=None)
@given(
    header=st.integers(1, 4096).map(
        lambda dim: _dumped({"format": "t2s-value-index", "version": 3, "dim": dim})) | _line,
    records=st.lists(_records().map(_dumped), max_size=3),
    odd=st.none() | _line,
    at=st.integers(0, 3),
)
@example(header=_DEEP, records=[], odd=None, at=0)
@example(header=_HEADER, records=[], odd=b'{"kind": ' + _DEEP, at=0)
@example(  # a lone surrogate: JSON text, but no encoder takes it
    header=_HEADER,
    records=[_dumped({"kind": "cell_value", "table": "T", "column": "c", "texts": ["\ud800"]})],
    odd=None,
    at=0,
)
def test_load_raises_only_index_build_error(index_path, header, records, odd, at):
    lines = records[:at] + ([] if odd is None else [odd]) + records[at:]
    index_path.write_bytes(b"\n".join([header, *lines]))
    try:
        ValueIndex.load(index_path)
    except IndexBuildError:
        pass


# -- brute-force agreement ------------------------------------------------


def brute_force_search(index, query, config, restrict=None):
    """Reference ranking: max cosine over the same probe set, stable order."""
    embedder = TrigramEmbedder(index.dim)
    probes = []
    for probe in _word_ngrams(query):
        try:
            probes.append(embedder.embed(probe))
        except Exception:
            continue
    if not probes:
        return []
    cells = [e for e in index.entries if e.kind == "cell_value"]
    scored = []
    for i, entry in enumerate(cells):
        sim = max(float(np.dot(p, entry.vector)) for p in probes)
        scored.append((i, entry, sim))
    scored.sort(key=lambda item: (-item[2], item[0]))
    out = []
    for _i, entry, sim in scored:
        if sim < config.threshold:
            break
        if restrict is not None and (
            entry.table.casefold() != restrict[0].casefold()
            or entry.column.casefold() != restrict[1].casefold()
        ):
            continue
        out.append((entry.table, entry.column, entry.text, round(sim, 9)))
        if len(out) >= config.top_k:
            break
    return out


_queries = st.sampled_from(
    [
        "f", "F", "m", "+", "-", "john", "1991-06-12", "1991 06 12",
        "1996", "date", "first date", "admission positive",
        "patients admitted 1995-11-20", "IGA", "Ig A level",
    ]
)
_cfgs = st.builds(
    RetrievalConfig,
    top_k=st.sampled_from([1, 3, 10]),
    threshold=st.sampled_from([0.0, 0.4, 0.65, 0.9]),
)


@settings(max_examples=150, deadline=None)
@given(query=_queries, config=_cfgs)
def test_search_matches_brute_force(clinical_index, query, config):
    got = [
        (h.table, h.column, h.text, round(h.similarity, 9))
        for h in clinical_index.search_values(query, config)
    ]
    assert got == brute_force_search(clinical_index, query, config)


# -- any embedder ---------------------------------------------------------


class _SignedBigramEmbedder:
    """Hashed character bigrams with signed weights, scaled to unit length.

    Its vectors have negative components and exact zeros, and their values
    are not exact binary fractions, so sums in another order would differ
    in the last bits.
    """

    dim = 24

    def embed(self, text):
        folded = text.strip().casefold()
        if not folded:
            raise EmbeddingError("cannot embed empty text")
        vector = np.zeros(self.dim)
        for pair in zip(folded, folded[1:] + "$"):
            code = zlib.crc32("".join(pair).encode("utf-8"))
            vector[code % self.dim] += 1.0 if code & 64 else -0.7
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            raise EmbeddingError("zero vector")
        return vector / norm


def _dense_score(probes, vector):
    """Best plain dot product over the probes, summed dimension by dimension."""
    best = None
    for probe in probes:
        total = 0.0
        for p, v in zip(probe.tolist(), vector.tolist()):
            total += p * v
        best = total if best is None else max(best, total)
    return best


def _dense_ranking(entries, score_of, config, keep=lambda entry: True):
    """(entry, score) by descending score, ties in entry order, thresholded."""
    scored = [(-score_of(e), i, e) for i, e in enumerate(entries) if keep(e)]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [(e, -neg) for neg, _i, e in scored if -neg >= config.threshold][: config.top_k]


@pytest.fixture(scope="module")
def stub_index(tmp_path_factory):
    rng = random.Random(17)
    syllables = ["ka", "lo", "mi", "ne", "ru", "ta", "vi", "so"]
    words = ["".join(rng.choices(syllables, k=rng.randint(1, 3))) for _ in range(40)]
    path = tmp_path_factory.mktemp("stub") / "stub.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE Person (name text, city text)")
    conn.execute("CREATE TABLE Town (city text, Region text)")
    for _ in range(60):
        conn.execute(
            "INSERT INTO Person VALUES (?, ?)",
            (" ".join(rng.choices(words, k=rng.randint(1, 2))), rng.choice(words).upper()),
        )
    for word in words[:25]:
        conn.execute("INSERT INTO Town VALUES (?, ?)", (word, rng.choice(words) + " " + word))
    conn.execute("INSERT INTO Town VALUES ('   ', 'north')")  # a cell that does not embed
    conn.commit()
    conn.close()
    catalog = ingest_schema(path)
    return ValueIndex.build(path, catalog, _SignedBigramEmbedder()), catalog, words


@pytest.mark.parametrize("threshold", [0.0, 0.4, 0.65])
@pytest.mark.parametrize("top_k", [1, 3, 50])
def test_any_embedder_search_matches_dense_scan(stub_index, threshold, top_k):
    index, catalog, words = stub_index
    embedder = index.embedder
    config = RetrievalConfig(top_k=top_k, threshold=threshold)
    cells = [e for e in index.entries if e.kind == "cell_value"]
    columns = [e for e in index.entries if e.kind == "column_name"]
    assert "   " not in {e.text for e in cells}
    queries = words[:6] + [words[3].upper(), f"find {words[5]} {words[8]} now", "zz"]
    for query in queries:
        probes = [embedder.embed(p) for p in _word_ngrams(query)]
        got = [(h.entry, h.similarity) for h in index.search_values(query, config)]
        assert got == _dense_ranking(cells, lambda e: _dense_score(probes, e.vector), config)
        for table, column in (("person", "NAME"), ("Town", "city")):
            got = [
                (h.entry, h.similarity)
                for h in index.search_values(query, config, restrict=(table, column))
            ]
            assert got == _dense_ranking(
                cells,
                lambda e: _dense_score(probes, e.vector),
                config,
                keep=lambda e: (e.table.casefold(), e.column.casefold())
                == (table.casefold(), column.casefold()),
            )
        ranked = _dense_ranking(
            columns,
            lambda e: max(
                _dense_score(probes, e.vector),
                _dense_score(probes, embedder.embed(f"{e.table}.{e.column}")),
            ),
            config,
        )
        assert index.search_columns(query, catalog, config) == ColumnSelection.of(
            catalog, [(e.table, e.column) for e, _score in ranked]
        )


class _RefusingOneSpelling(_SignedBigramEmbedder):
    def embed(self, text):
        if text.casefold() == "person.name":
            raise EmbeddingError("refused")
        return super().embed(text)


def test_a_refused_qualified_spelling_leaves_its_row_empty():
    embedder = _RefusingOneSpelling()
    runs = [("column_name", table, column, [column])
            for table, column in (("Person", "name"), ("Person", "city"), ("Town", "city"))]
    index = ValueIndex("stub", runs, embedder)
    columns = index.entries
    assert [(e.table, e.column) for e in columns] == [run[1:3] for run in runs]
    for text in ("name", "person city", "town.city", "kalo"):
        probe = embedder.embed(text)
        scores = index._column_store.best_scores(embedding.probe_nonzeros(embedder, [text]))
        bare = [_dense_score([probe], e.vector) for e in columns]
        qualified = [0.0] + [
            _dense_score([probe], embedder.embed(f"{e.table}.{e.column}")) for e in columns[1:]
        ]
        assert scores.tolist() == bare + qualified


def test_top_k_zero_returns_nothing(clinical_index, clinical_catalog):
    cfg = RetrievalConfig(threshold=0.0, top_k=0)
    assert clinical_index.search_values("F", cfg) == []
    assert clinical_index.search_columns("Date", clinical_catalog, cfg).pairs() == ()


_block_texts = st.one_of(
    st.text(max_size=24),  # any code points, the empty text included
    st.text(alphabet=string.punctuation + " \t", max_size=8),  # symbols and blanks only
    st.sampled_from(["ß", "İstanbul", "ﬁle", "日本語", "ＡＢＣ", "   ", "F", "female patients"]),
)


@settings(max_examples=100, deadline=None)
@given(queries=st.lists(_block_texts, max_size=5), signed=st.booleans())
@example(queries=["F", "female patients", "1991 05 06", "Ig A", "?"], signed=False)
@example(queries=["kalo", "mi kalo", "RUTA", "zz"], signed=True)
def test_a_probe_block_equals_embed_and_changes_no_hit(
    clinical_index, clinical_catalog, stub_index, queries, signed
):
    # The stub index's embedder is not a `TrigramEmbedder`, so its block
    # goes the dense path; queries repeat, and so do their n-grams.
    index, catalog, column = (
        (stub_index[0], stub_index[1], ("Person", "name")) if signed
        else (clinical_index, clinical_catalog, ("Patient", "First Date"))
    )
    queries = queries + queries[:2]
    probes = index.probes(queries)
    assert list(probes) == list(dict.fromkeys(queries))
    for query, (count, which, dims, values) in probes.items():
        want = []
        for text in _word_ngrams(query):
            try:
                vector = index.embedder.embed(text)
            except EmbeddingError:
                continue
            (nonzero,) = np.nonzero(vector)
            want.append((nonzero, vector[nonzero]))
        assert count == len(want)
        assert which.tolist() == [i for i, (nonzero, _) in enumerate(want) for _ in nonzero]
        assert dims.tolist() == [d for nonzero, _ in want for d in nonzero.tolist()]
        assert values.tobytes() == b"".join(v.tobytes() for _, v in want)
    config = RetrievalConfig(threshold=0.3)
    for query in queries:
        assert index.search_values(query, config, probes=probes) == (
            index.search_values(query, config))
        assert index.search_values(query, config, column, probes) == (
            index.search_values(query, config, column))
        assert index.search_columns(query, catalog, config, probes) == (
            index.search_columns(query, catalog, config))
