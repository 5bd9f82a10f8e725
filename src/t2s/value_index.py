"""Vector index over stored cell values and column names.

Questions rarely spell stored values the way the database does ("iga"
vs "IGA", "John" vs "JOHN").  The index embeds every distinct text cell
and every column name once, then answers similarity queries by probing
with word n-grams of the query so multi-word questions still surface
single stored tokens.

Embeddings are mostly zeros, so the index keeps only their non-zero
values, grouped by dimension.  A search reads just the rows that share a
non-zero dimension with a probe; every other row scores exactly 0.0.
Scoring stays exact: each score is the dot product summed over the
dimensions in ascending order, as a plain loop over the dense vectors
sums it.  No approximate structure is involved, so results are
reproducible and easy to check against a brute-force scan.

The saved file holds the stored text only, one JSON line per run of
consecutive entries that share a kind, table and column (format 3).
Vectors are a pure function of that text, so `load` passes those runs
to the same constructor that `build` passes its columns to, and a loaded
index scores exactly as the built one does.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .embedding import (
    EMBEDDING_DIM, Embedder, Probes, SparseRows, TrigramEmbedder, block_probes,
    embed_parts, probe_nonzeros,
)
# EmbeddingError stays importable from here, where callers import it.
from .errors import EmbeddingError, IndexBuildError, read_json_lines  # noqa: F401
from .schema import ColumnSelection, SchemaCatalog, connect_read_only, quote_identifier

FORMAT_NAME = "t2s-value-index"
FORMAT_VERSION = 3

# Texts longer than this are embedded from their prefix only; the stored
# text is kept in full so replacements stay faithful.
MAX_EMBED_CHARS = 256

KINDS = ("cell_value", "column_name")

# (kind, table, column, texts): entries of one column, as a file line holds
# them and the constructor takes them.
Run = tuple[str, str, str, list[str]]


@dataclass(frozen=True)
class RetrievalConfig:
    top_k: int = 10
    threshold: float = 0.65


@dataclass(slots=True)
class IndexedEntry:
    kind: str  # "cell_value" | "column_name"
    text: str
    table: str
    column: str
    embedder: Embedder = field(repr=False, compare=False)

    @property
    def vector(self) -> np.ndarray:
        """The entry's embedding, derived from its text on each read."""
        return self.embedder.embed(self.text[:MAX_EMBED_CHARS])


@dataclass
class ValueHit:
    entry: IndexedEntry
    similarity: float

    @property
    def table(self) -> str:
        return self.entry.table

    @property
    def column(self) -> str:
        return self.entry.column

    @property
    def text(self) -> str:
        return self.entry.text


def _word_ngrams(query: str) -> list[str]:
    """Whitespace word n-grams of 1 to 3 words, plus the whole query."""
    words = query.split()
    probes: list[str] = []
    seen: set[str] = set()
    for n in (1, 2, 3):
        for i in range(len(words) - n + 1):
            probe = " ".join(words[i : i + n])
            if probe not in seen:
                seen.add(probe)
                probes.append(probe)
    whole = query.strip()
    if whole and whole not in seen:
        probes.append(whole)
    return probes


_NO_ROWS = np.empty(0, dtype=np.intp)


def _ranked(scores: np.ndarray, kept: np.ndarray, top_k: int) -> np.ndarray:
    """The kept rows by descending score, ties in row order, cut to top_k."""
    return kept[np.lexsort((kept, -scores[kept]))][: max(top_k, 0)]


class ValueIndex:
    def __init__(
        self,
        db_id: str,
        runs: Iterable[Run],
        embedder: Optional[Embedder] = None,
    ):
        """Embed the runs' texts; a text that does not embed is left out."""
        self.db_id = db_id
        self.embedder = embedder or TrigramEmbedder()
        self.dim = self.embedder.dim
        by_kind: dict[str, list[Run]] = {kind: [] for kind in KINDS}
        for run in runs:
            by_kind[run[0]].append(run)
        self._cells, parts, bounds = self._embedded(by_kind["cell_value"])
        self._cell_store = SparseRows(parts, len(self._cells), self.dim)
        # Cell rows of each column, in row order.
        by_column: dict[tuple[str, str], list[np.ndarray]] = {}
        for (_, table, column, _), start, stop in zip(by_kind["cell_value"], bounds, bounds[1:]):
            key = (table.casefold(), column.casefold())
            by_column.setdefault(key, []).append(np.arange(start, stop))
        self._by_column = {key: np.concatenate(rows) for key, rows in by_column.items()}
        self._columns, parts, _ = self._embedded(by_kind["column_name"])
        # Columns also match their qualified "table.column" spelling: row
        # len(columns) + i of the column store is column i's, and is empty
        # if the embedder refuses the spelling.
        qualified, kept = embed_parts(self.embedder, [f"{e.table}.{e.column}" for e in self._columns])
        row_of = np.array(kept, dtype=np.int32) + len(self._columns)
        parts += [(row_of[rows], dims, values) for rows, dims, values in qualified]
        self._column_store = SparseRows(parts, 2 * len(self._columns), self.dim)
        self.entries = self._cells + self._columns
        # Per column, case-folded text -> the column's texts in row order;
        # built on a column's first lookup (see `stored_spelling`).
        self._spellings: dict[tuple[str, str], dict[str, list[str]]] = {}

    def _embedded(self, runs: list[Run]):
        """The runs' entries whose text embeds, their non-zeros, and the
        bounds of each run's rows: a run's kept entries are consecutive rows."""
        entries = [IndexedEntry(kind, text, table, column, self.embedder)
                   for kind, table, column, texts in runs for text in texts]
        parts, kept = embed_parts(self.embedder, [e.text[:MAX_EMBED_CHARS] for e in entries])
        bounds = np.searchsorted(kept, np.cumsum([0] + [len(texts) for *_, texts in runs]))
        return [entries[i] for i in kept], parts, bounds

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        db_path: str | Path,
        catalog: SchemaCatalog,
        embedder: Optional[Embedder] = None,
    ) -> "ValueIndex":
        runs: list[Run] = []
        try:
            conn = connect_read_only(db_path)
        except sqlite3.Error as exc:
            raise IndexBuildError(f"cannot open {db_path}: {exc}") from exc
        try:
            for table in catalog.tables:
                for col in table.columns:
                    if col.declared_type != "text":
                        continue
                    query = (
                        f"SELECT DISTINCT {quote_identifier(col.name)} "
                        f"FROM {quote_identifier(table.name)} "
                        f"WHERE {quote_identifier(col.name)} IS NOT NULL "
                        f"ORDER BY 1"
                    )
                    try:
                        rows = conn.execute(query).fetchall()
                    except sqlite3.Error as exc:
                        raise IndexBuildError(
                            f"cannot read {table.name}.{col.name}: {exc}"
                        ) from exc
                    texts = [value for (value,) in rows if isinstance(value, str)]
                    runs.append(("cell_value", table.name, col.name, texts))
        finally:
            conn.close()
        runs += [("column_name", table.name, col.name, [col.name])
                 for table in catalog.tables for col in table.columns]
        return cls(catalog.db_id, runs, embedder)

    # -- queries ----------------------------------------------------------

    def probes(self, queries: Iterable[str]) -> dict[str, Probes]:
        """Each query's probes, with every word n-gram of all the queries
        embedded in one block; a search given them reads its query's."""
        queries = list(dict.fromkeys(queries))
        return dict(zip(queries, block_probes(self.embedder, list(map(_word_ngrams, queries)))))

    def _probes(self, query: str, probes: Optional[dict[str, Probes]]) -> Probes:
        if probes is not None and query in probes:
            return probes[query]
        return probe_nonzeros(self.embedder, _word_ngrams(query))

    def search_values(
        self,
        query: str,
        config: Optional[RetrievalConfig] = None,
        restrict: Optional[tuple[str, str]] = None,
        probes: Optional[dict[str, Probes]] = None,
    ) -> list[ValueHit]:
        """Ranked stored-value hits for a query phrase.

        Each cell entry is scored by its best cosine against any word
        n-gram of the query.  Entries below the threshold are dropped
        before the top_k cut.  `restrict` limits hits to one column.
        The query's probes are read from `probes` (see `probes()`) when
        it holds them.
        """
        config = config or RetrievalConfig()
        stacked = self._probes(query, probes)
        if not stacked[0] or not self._cells:
            return []
        scores = self._cell_store.best_scores(stacked)
        if restrict is None:
            kept = np.flatnonzero(scores >= config.threshold)
        else:
            rows = self._column_rows(*restrict)
            kept = rows[scores[rows] >= config.threshold]
        return [
            ValueHit(entry=self._cells[i], similarity=float(scores[i]))
            for i in _ranked(scores, kept, config.top_k)
        ]

    def search_columns(
        self,
        query: str,
        catalog: SchemaCatalog,
        config: Optional[RetrievalConfig] = None,
        probes: Optional[dict[str, Probes]] = None,
    ) -> ColumnSelection:
        """Columns whose bare or qualified name resembles the query."""
        config = config or RetrievalConfig()
        stacked = self._probes(query, probes)
        if not stacked[0] or not self._columns:
            return ColumnSelection(frozenset())
        # Each column scores by the better of its bare and qualified rows.
        scores = self._column_store.best_scores(stacked).reshape(2, -1).max(axis=0)
        kept = np.flatnonzero(scores >= config.threshold)
        pairs = [
            (self._columns[i].table, self._columns[i].column)
            for i in _ranked(scores, kept, config.top_k)
        ]
        return ColumnSelection.of(catalog, pairs)

    def _column_rows(self, table: str, column: str) -> np.ndarray:
        return self._by_column.get((table.casefold(), column.casefold()), _NO_ROWS)

    def stored_spelling(self, table: str, column: str, literal: str) -> Optional[str]:
        """The column's stored text for `literal`: itself if stored, else
        the first case-blind match in row order, else None.

        A column's lookup table is built the first time it is asked for,
        so columns no query names cost nothing.
        """
        key = (table.casefold(), column.casefold())
        spellings = self._spellings.get(key)
        if spellings is None:
            spellings = {}
            for row in self._column_rows(table, column).tolist():
                text = self._cells[row].text
                spellings.setdefault(text.casefold(), []).append(text)
            # Threads racing here build equal tables; the last one is kept.
            self._spellings[key] = spellings
        matches = spellings.get(literal.casefold())
        if not matches:
            return None
        return literal if literal in matches else matches[0]

    def cell_count(self) -> int:
        return len(self._cells)

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "dim": self.dim,
                "db_id": self.db_id,
            }
            handle.write(json.dumps(header) + "\n")
            # Runs of consecutive entries, not whole columns: a load gives
            # the entries back in their order even where columns interleave.
            for (kind, table, column), run in groupby(
                self.entries, attrgetter("kind", "table", "column")
            ):
                record = {"kind": kind, "table": table, "column": column,
                          "texts": [entry.text for entry in run]}
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path: str | Path, embedder: Optional[Embedder] = None) -> "ValueIndex":
        """Read a saved index and embed its runs as `build` does."""
        (_, header), *lines = read_json_lines(
            path, IndexBuildError, "value index",
            header=(FORMAT_NAME, FORMAT_VERSION, "t2s preprocess"),
        )
        dim = header.get("dim", EMBEDDING_DIM)
        if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
            raise IndexBuildError(f"bad embedding dim {dim!r} in {path}")
        runs: list[Run] = []
        for lineno, record in lines:
            try:
                if not isinstance(record, dict):
                    raise TypeError("a record must be a JSON object")
                run = (record["kind"], record["table"], record["column"], record["texts"])
                kind, table, column, texts = run
                if kind not in KINDS:
                    raise ValueError(f"unknown record kind {kind!r}")
                if not (isinstance(texts, list)
                        and all(isinstance(text, str) for text in [table, column, *texts])):
                    raise TypeError("table and column must be text, texts a list of text")
            except (KeyError, TypeError, ValueError) as exc:
                raise IndexBuildError(f"bad index record at line {lineno}: {exc}") from exc
            runs.append(run)
        return cls(header.get("db_id", ""), runs, embedder or TrigramEmbedder(dim))
