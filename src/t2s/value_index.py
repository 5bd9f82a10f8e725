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

The saved file holds the stored text only.  Vectors are a pure function
of that text, so `load` re-embeds it through the same constructor that
`build` uses, and a loaded index scores exactly as the built one does.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .embedding import (
    EMBEDDING_DIM, Embedder, SparseRows, TrigramEmbedder, dense_parts, embed_parts,
)
from .errors import EmbeddingError, IndexBuildError
from .schema import ColumnSelection, SchemaCatalog, quote_identifier

FORMAT_NAME = "t2s-value-index"
FORMAT_VERSION = 2

# Texts longer than this are embedded from their prefix only; the stored
# text is kept in full so replacements stay faithful.
MAX_EMBED_CHARS = 256

# (kind, text, table, column): what the index file stores per entry.
Record = tuple[str, str, str, str]


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


def _ranked(scores: np.ndarray, kept: np.ndarray, top_k: int) -> np.ndarray:
    """The kept rows by descending score, ties in row order, cut to top_k."""
    return kept[np.lexsort((kept, -scores[kept]))][: max(top_k, 0)]


class ValueIndex:
    def __init__(
        self,
        db_id: str,
        records: Iterable[Record],
        embedder: Optional[Embedder] = None,
    ):
        """Embed the records; entries whose text does not embed are left out."""
        self.db_id = db_id
        self.embedder = embedder or TrigramEmbedder()
        self.dim = self.embedder.dim
        records = list(records)
        self._cells, parts = self._embedded(records, "cell_value")
        self._cell_store = SparseRows(parts, len(self._cells), self.dim)
        self._columns, parts = self._embedded(records, "column_name")
        # Columns also match their qualified "table.column" spelling: row
        # len(columns) + i of the column store is column i's.
        qualified = [self.embedder.embed(f"{e.table}.{e.column}") for e in self._columns]
        parts += dense_parts(qualified, self.dim, len(self._columns))
        self._column_store = SparseRows(parts, 2 * len(self._columns), self.dim)
        self.entries = self._cells + self._columns
        # Cell rows of each column, in row order.
        self._by_column: dict[tuple[str, str], list[int]] = {}
        for row, entry in enumerate(self._cells):
            key = (entry.table.casefold(), entry.column.casefold())
            self._by_column.setdefault(key, []).append(row)

    def _embedded(self, records: list[Record], kind: str):
        """The entries of this kind whose text embeds, and their non-zeros."""
        chosen = [record for record in records if record[0] == kind]
        parts, kept = embed_parts(self.embedder, [r[1][:MAX_EMBED_CHARS] for r in chosen])
        return [IndexedEntry(kind, *chosen[i][1:], self.embedder) for i in kept], parts

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        db_path: str | Path,
        catalog: SchemaCatalog,
        embedder: Optional[Embedder] = None,
    ) -> "ValueIndex":
        records: list[Record] = []
        conn = sqlite3.connect(f"file:{Path(db_path)}?mode=ro", uri=True)
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
                    records.extend(
                        ("cell_value", value, table.name, col.name)
                        for (value,) in rows
                        if isinstance(value, str)
                    )
        finally:
            conn.close()
        for table in catalog.tables:
            for col in table.columns:
                records.append(("column_name", col.name, table.name, col.name))
        return cls(catalog.db_id, records, embedder)

    # -- queries ----------------------------------------------------------

    def _probe_vectors(self, query: str) -> list[np.ndarray]:
        vectors = []
        for probe in _word_ngrams(query):
            try:
                vectors.append(self.embedder.embed(probe))
            except EmbeddingError:
                continue
        return vectors

    def search_values(
        self,
        query: str,
        config: Optional[RetrievalConfig] = None,
        restrict: Optional[tuple[str, str]] = None,
    ) -> list[ValueHit]:
        """Ranked stored-value hits for a query phrase.

        Each cell entry is scored by its best cosine against any word
        n-gram of the query.  Entries below the threshold are dropped
        before the top_k cut.  `restrict` limits hits to one column.
        """
        config = config or RetrievalConfig()
        probes = self._probe_vectors(query)
        if not probes or not self._cells:
            return []
        scores = self._cell_store.max_scores(np.stack(probes))
        if restrict is None:
            kept = np.flatnonzero(scores >= config.threshold)
        else:
            key = (restrict[0].casefold(), restrict[1].casefold())
            rows = np.array(self._by_column.get(key, []), dtype=np.intp)
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
    ) -> ColumnSelection:
        """Columns whose bare or qualified name resembles the query."""
        config = config or RetrievalConfig()
        probes = self._probe_vectors(query)
        if not probes or not self._columns:
            return ColumnSelection(frozenset())
        # Each column scores by the better of its bare and qualified rows.
        scores = self._column_store.max_scores(np.stack(probes)).reshape(2, -1).max(axis=0)
        kept = np.flatnonzero(scores >= config.threshold)
        pairs = [
            (self._columns[i].table, self._columns[i].column)
            for i in _ranked(scores, kept, config.top_k)
        ]
        return ColumnSelection.of(catalog, pairs)

    def stored_values(self, table: str, column: str) -> tuple[str, ...]:
        rows = self._by_column.get((table.casefold(), column.casefold()), ())
        return tuple(self._cells[i].text for i in rows)

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
            for entry in self.entries:
                record = {
                    "kind": entry.kind,
                    "text": entry.text,
                    "table": entry.table,
                    "column": entry.column,
                }
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path: str | Path, embedder: Optional[Embedder] = None) -> "ValueIndex":
        """Read a saved index and embed its entries as `build` does."""
        with open(path, encoding="utf-8") as handle:
            lines = ((lineno, raw) for lineno, raw in enumerate(handle, start=1) if raw.strip())
            _, first = next(lines, (0, None))
            if first is None:
                raise IndexBuildError(f"empty index file: {path}")
            try:
                header = json.loads(first)
            except json.JSONDecodeError as exc:
                raise IndexBuildError(f"bad index header in {path}: {exc}") from exc
            if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
                raise IndexBuildError(f"not a value index file: {path}")
            if header.get("version") != FORMAT_VERSION:
                raise IndexBuildError(
                    f"unsupported index version {header.get('version')!r} in {path}; "
                    f"re-run `t2s preprocess` to rebuild it"
                )
            dim = header.get("dim", EMBEDDING_DIM)
            if isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0:
                raise IndexBuildError(f"bad embedding dim {dim!r} in {path}")
            records: list[Record] = []
            for lineno, raw in lines:
                try:
                    record = json.loads(raw)
                    fields = (record["kind"], record["text"], record["table"], record["column"])
                    if not all(isinstance(field, str) for field in fields):
                        raise TypeError("record fields must be strings")
                    if fields[0] not in ("cell_value", "column_name"):
                        raise ValueError(f"unknown record kind {fields[0]!r}")
                except (KeyError, TypeError, ValueError) as exc:
                    raise IndexBuildError(f"bad index record at line {lineno}: {exc}") from exc
                records.append(fields)
        embedder = embedder or TrigramEmbedder(dim)
        return cls(header.get("db_id", ""), records, embedder)
