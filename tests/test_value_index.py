import gc
import json
import random
import sqlite3
import weakref
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s import TrigramEmbedder, ValueIndex, ingest_schema
from t2s import embedding
from t2s.embedding import SparseRows, cosine, dense_parts
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


def test_stored_values_and_has_value(clinical_index):
    assert set(clinical_index.stored_values("Patient", "SEX")) == {"F", "M"}
    assert "F" in clinical_index.stored_values("Patient", "SEX")
    assert "f" not in clinical_index.stored_values("Patient", "SEX")  # case matters here
    assert "X" not in clinical_index.stored_values("Patient", "SEX")


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
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert len(records) == len(clinical_index.entries)
    assert all(set(record) == {"kind", "text", "table", "column"} for record in records)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.jsonl"
    for header in (
        {"format": "something-else", "version": 1},
        # version 1 stored vectors; such a file is rebuilt, not read
        {"format": "t2s-value-index", "version": 1, "dim": 512, "db_id": "x"},
    ):
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(IndexBuildError):
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
    path.write_text(f"{header}\n{first}\n\n   \n{{not json\n")
    with pytest.raises(IndexBuildError, match=r"at line 5:"):
        ValueIndex.load(path)


def test_load_rejects_an_unknown_record_kind(tmp_path, clinical_index):
    path = tmp_path / "kind.jsonl"
    clinical_index.save(path)
    header, first = path.read_text().splitlines()[:2]
    odd = {"kind": "row_count", "text": "15", "table": "Patient", "column": "SEX"}
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
    records = [("cell_value", text, "T", "c") for text in texts]
    records += [("column_name", name, "T", name) for name in ("", "c", "  ", "Total $")]
    records *= 60  # 840 records: several blocks of the batch
    batch = ValueIndex("db", records)
    _assert_same_index(batch, ValueIndex("db", records, _DenseTrigrams()))
    kept = ["Alice", "Bob Ray", "+", "x" * 300, "ab", " é "] * 60
    assert [e.text for e in batch.entries if e.kind == "cell_value"] == kept
    assert [e.column for e in batch.entries if e.kind == "column_name"] == ["c", "Total $"] * 60
    assert not np.isnan(batch._cell_store.values).any()
    # Row i of the store is the i-th kept text's vector.
    vectors = [TrigramEmbedder().embed(text[:MAX_EMBED_CHARS]) for text in kept]
    want = SparseRows(dense_parts(vectors, 512), len(vectors), 512)
    for array in ("rows", "values", "starts"):
        assert getattr(batch._cell_store, array).tobytes() == getattr(want, array).tobytes()


_batch_texts = st.one_of(
    st.text(max_size=12),  # any Unicode, blanks included
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
def test_batch_store_equals_the_dense_store(cells, columns, block):
    records = [("cell_value", text, "T", "c") for text in cells]
    records += [("column_name", text, "T", text) for text in columns]
    with mock.patch.object(embedding, "_BLOCK", block):
        batch = ValueIndex("db", records)
        dense = ValueIndex("db", records, _DenseTrigrams())
    _assert_same_index(batch, dense)


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
        sim = max(cosine(p, entry.vector) for p in probes)
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


def test_top_k_zero_returns_nothing(clinical_index, clinical_catalog):
    cfg = RetrievalConfig(threshold=0.0, top_k=0)
    assert clinical_index.search_values("F", cfg) == []
    assert clinical_index.search_columns("Date", clinical_catalog, cfg).pairs() == ()
