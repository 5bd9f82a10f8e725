"""Database schema model: ingestion from SQLite, selection, rendering.

A `SchemaCatalog` is the single source of truth the rest of the pipeline
works against.  It is built once per database (`ingest_schema`), can be
serialized to plain dicts, and renders to the prompt block headed by
``/* Database schema */``.

Column subsets are passed around as `ColumnSelection` values.  A selection
produced by retrieval or by a model is always expanded (`expand_selection`)
before use so primary keys and join endpoints survive filtering.
"""

from __future__ import annotations

import csv
import re
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .errors import IngestError, SelectionError

DECLARED_TYPES = ("text", "integer", "real", "blob", "other")

_PLAIN_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Words that would be misread as syntax if left bare in rendered SQL or
# schema lines.  Not the full SQLite keyword list, just the ones that can
# plausibly appear as table or column names in benchmark databases.
_RESERVED = {
    "all", "and", "as", "asc", "between", "by", "case", "cast", "check",
    "collate", "constraint", "create", "cross", "default", "delete", "desc",
    "distinct", "drop", "else", "end", "escape", "except", "exists", "foreign",
    "from", "full", "glob", "group", "having", "in", "index", "inner",
    "insert", "intersect", "into", "is", "join", "key", "left", "like",
    "limit", "match", "natural", "not", "null", "offset", "on", "or", "order",
    "outer", "primary", "references", "regexp", "right", "select", "set",
    "table", "then", "to", "union", "unique", "update", "using", "values",
    "when", "where", "with",
}


def quote_identifier(name: str) -> str:
    """Backquote a name when it cannot stand bare in SQL."""
    if _PLAIN_IDENT.match(name) and name.lower() not in _RESERVED:
        return name
    return "`" + name.replace("`", "``") + "`"


def qualified_name(table: str, column: str) -> str:
    return f"{quote_identifier(table)}.{quote_identifier(column)}"


def connect_read_only(db_path: str | Path) -> sqlite3.Connection:
    """Open a database file read-only; it is never created.

    The path is percent-encoded into the URI, so a `#`, `?` or `%` in it
    names the file rather than ending the path or escaping a character.
    """
    return sqlite3.connect(Path(db_path).absolute().as_uri() + "?mode=ro", uri=True)


@dataclass
class ColumnDef:
    name: str
    declared_type: str = "other"
    description: str = ""
    not_null: bool = False

    def __post_init__(self):
        if self.declared_type not in DECLARED_TYPES:
            raise IngestError(
                f"unknown declared type {self.declared_type!r} for column {self.name!r}"
            )


@dataclass
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    # (local column, "RemoteTable.remote_column")
    foreign_keys: tuple[tuple[str, str], ...] = ()
    # Case-folded name -> the first column of that name.
    _column_map: dict[str, ColumnDef] = field(init=False, repr=False, compare=False)
    # That column's name -> the remote of each foreign key from it.
    _references: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._column_map, self._references = {}, {}
        for col in self.columns:
            self._column_map.setdefault(col.name.casefold(), col)
        for local, remote in self.foreign_keys:
            if (col := self.column(local)) is not None:
                self._references.setdefault(col.name, []).append(remote)

    def column(self, name: str) -> Optional[ColumnDef]:
        return self._column_map.get(name.casefold())

    def references(self, name: str) -> list[str]:
        """The "RemoteTable.remote_column" of each foreign key from `name`."""
        col = self.column(name)
        return self._references.get(col.name, []) if col is not None else []


@dataclass
class SchemaCatalog:
    db_id: str
    tables: tuple[TableDef, ...]
    _table_map: dict[str, TableDef] = field(init=False, repr=False, compare=False)
    # Case-folded column name -> its (table, column) pairs, in table order.
    _bare_map: dict[str, list[tuple[str, str]]] = field(init=False, repr=False, compare=False)
    # Case-folded (table, column) -> the far end of each foreign key from
    # or to that column.
    _fk_ends: dict[tuple[str, str], list[tuple[str, str]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._table_map = {}
        for table in self.tables:
            key = table.name.casefold()
            if key in self._table_map:
                raise IngestError(f"duplicate table name {table.name!r}")
            self._table_map[key] = table
        self._bare_map, self._fk_ends = {}, {}
        for table in self.tables:
            seen: set[str] = set()
            for col in table.columns:
                key = col.name.casefold()
                if key in seen:
                    raise IngestError(
                        f"duplicate column {col.name!r} in table {table.name!r}"
                    )
                seen.add(key)
                self._bare_map.setdefault(key, []).append((table.name, col.name))
            for pk in table.primary_key:
                if table.column(pk) is None:
                    raise IngestError(
                        f"primary key {pk!r} not a column of {table.name!r}"
                    )
            for local, remote in table.foreign_keys:
                if table.column(local) is None:
                    raise IngestError(
                        f"foreign key column {local!r} not in table {table.name!r}"
                    )
                rt, _, rc = remote.partition(".")
                target = self.resolve_table(rt)
                if target is None or not rc or target.column(rc) is None:
                    raise IngestError(
                        f"foreign key {table.name}.{local} references unknown {remote!r}"
                    )
                near, far = (table.name, local), (target.name, target.column(rc).name)
                for (t, c), other in ((near, far), (far, near)):
                    self._fk_ends.setdefault((t.casefold(), c.casefold()), []).append(other)

    def resolve_table(self, name: str) -> Optional[TableDef]:
        return self._table_map.get(name.casefold())

    def resolve_column(self, table: str, column: str) -> Optional[tuple[TableDef, ColumnDef]]:
        tab = self.resolve_table(table)
        if tab is None:
            return None
        col = tab.column(column)
        if col is None:
            return None
        return tab, col

    def resolve_bare_column(self, column: str) -> list[tuple[str, str]]:
        """All (table, column) pairs whose column matches `column` by name."""
        return list(self._bare_map.get(column.casefold(), ()))

    def all_pairs(self) -> list[tuple[str, str]]:
        return [(t.name, c.name) for t in self.tables for c in t.columns]

    def to_dict(self) -> dict:
        return {
            "db_id": self.db_id,
            "tables": [
                {
                    "name": t.name,
                    "columns": [
                        {
                            "name": c.name,
                            "declared_type": c.declared_type,
                            "description": c.description,
                            "not_null": c.not_null,
                        }
                        for c in t.columns
                    ],
                    "primary_key": list(t.primary_key),
                    "foreign_keys": [list(fk) for fk in t.foreign_keys],
                }
                for t in self.tables
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemaCatalog":
        def typed(record: dict, key: str, default, kind: type):
            value = record.get(key, default)
            if not isinstance(value, kind):
                raise IngestError(f"malformed catalog dict: {key} {value!r} is not {kind.__name__}")
            return value

        try:
            tables = tuple(
                TableDef(
                    name=t["name"],
                    columns=tuple(
                        ColumnDef(
                            name=c["name"],
                            declared_type=typed(c, "declared_type", "other", str),
                            description=typed(c, "description", "", str),
                            not_null=typed(c, "not_null", False, bool),
                        )
                        for c in t["columns"]
                    ),
                    primary_key=tuple(t.get("primary_key", ())),
                    foreign_keys=tuple(
                        (fk[0], fk[1]) for fk in t.get("foreign_keys", ())
                    ),
                )
                for t in data["tables"]
            )
            return cls(db_id=typed(data, "db_id", None, str), tables=tables)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise IngestError(f"malformed catalog dict: {exc}") from exc


@dataclass(frozen=True)
class ColumnSelection:
    """A validated set of (table, column) pairs, canonical spelling."""

    members: frozenset[tuple[str, str]]

    @classmethod
    def of(cls, catalog: SchemaCatalog, pairs: Iterable[tuple[str, str]]) -> "ColumnSelection":
        canonical = set()
        for table, column in pairs:
            resolved = catalog.resolve_column(table, column)
            if resolved is None:
                raise SelectionError(f"unknown column {table}.{column}")
            tab, col = resolved
            canonical.add((tab.name, col.name))
        return cls(frozenset(canonical))

    @classmethod
    def full(cls, catalog: SchemaCatalog) -> "ColumnSelection":
        return cls(frozenset(catalog.all_pairs()))

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self.members

    def __len__(self) -> int:
        return len(self.members)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.members))

    def union(self, other: "ColumnSelection") -> "ColumnSelection":
        return ColumnSelection(self.members | other.members)


def _affinity(declared: str) -> str:
    upper = declared.upper()
    if "INT" in upper:
        return "integer"
    if "CHAR" in upper or "CLOB" in upper or "TEXT" in upper:
        return "text"
    if not upper or "BLOB" in upper:
        return "blob"
    if "REAL" in upper or "FLOA" in upper or "DOUB" in upper:
        return "real"
    return "other"


def _read_description_csv(path: Path) -> dict[str, str]:
    """Map lowered original column name -> description text."""
    for encoding in ("utf-8-sig", "cp1252"):
        try:
            with open(path, encoding=encoding, newline="") as handle:
                rows = list(csv.DictReader(handle))
            break
        except UnicodeDecodeError:
            continue
    else:
        raise IngestError(f"cannot decode description file {path}")
    out: dict[str, str] = {}
    for row in rows:
        original = (row.get("original_column_name") or "").strip()
        if not original:
            continue
        description = (row.get("column_description") or "").strip()
        if not description:
            description = (row.get("value_description") or "").strip()
        description = " ".join(description.split())
        if description:
            out[original.casefold()] = description
    return out


def ingest_schema(
    db_path: str | Path,
    db_id: Optional[str] = None,
    description_dir: Optional[str | Path] = None,
) -> SchemaCatalog:
    """Build a catalog from a SQLite file, optionally with column notes.

    `description_dir` points at a directory of per-table CSV files
    (``<table>.csv`` with original_column_name / column_description /
    value_description headers, as shipped with benchmark databases).
    """
    db_path = Path(db_path)
    if not db_path.exists():
        raise IngestError(f"database file not found: {db_path}")
    if db_id is None:
        db_id = db_path.stem
    descriptions: dict[str, dict[str, str]] = {}
    if description_dir is not None:
        for csv_path in sorted(Path(description_dir).glob("*.csv")):
            descriptions[csv_path.stem.casefold()] = _read_description_csv(csv_path)

    conn = connect_read_only(db_path)
    try:
        cursor = conn.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type='table' AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
        )
        table_names = [row[0] for row in cursor.fetchall()]
        tables = []
        for table_name in table_names:
            table_desc = descriptions.get(table_name.casefold(), {})
            info = conn.execute(
                f"PRAGMA table_info({quote_identifier(table_name)})"
            ).fetchall()
            columns = []
            pk_cols: list[tuple[int, str]] = []
            for _cid, name, declared, notnull, _default, pk in info:
                columns.append(
                    ColumnDef(
                        name=name,
                        declared_type=_affinity(declared or ""),
                        description=table_desc.get(name.casefold(), ""),
                        not_null=bool(notnull),
                    )
                )
                if pk:
                    pk_cols.append((pk, name))
            pk_cols.sort()
            fk_rows = conn.execute(
                f"PRAGMA foreign_key_list({quote_identifier(table_name)})"
            ).fetchall()
            foreign_keys = []
            for row in fk_rows:
                # (id, seq, table, from, to, on_update, on_delete, match)
                remote_table, local_col, remote_col = row[2], row[3], row[4]
                if remote_col is None:
                    # Shorthand REFERENCES with no column names the pk.
                    target = next(
                        (t for t in table_names if t.casefold() == remote_table.casefold()),
                        None,
                    )
                    if target is None:
                        continue
                    target_info = conn.execute(
                        f"PRAGMA table_info({quote_identifier(target)})"
                    ).fetchall()
                    target_pk = [r[1] for r in target_info if r[5]]
                    if len(target_pk) != 1:
                        continue
                    remote_col = target_pk[0]
                foreign_keys.append((local_col, f"{remote_table}.{remote_col}"))
            tables.append(
                TableDef(
                    name=table_name,
                    columns=tuple(columns),
                    primary_key=tuple(name for _, name in pk_cols),
                    foreign_keys=tuple(foreign_keys),
                )
            )
    finally:
        conn.close()
    if not tables:
        raise IngestError(f"no tables found in {db_path}")
    return SchemaCatalog(db_id=db_id, tables=tables)


def expand_selection(catalog: SchemaCatalog, selection: ColumnSelection) -> ColumnSelection:
    """Close a selection so keys and join endpoints are always present.

    Adds, for each member and then for each pair it adds: its table's
    primary key, the far end of any foreign key touching it, and every
    same-named column in other tables (shared key names are how benchmark
    schemas express most joins).
    """
    members = set(selection.members)
    pending = list(members)
    while pending:
        table_name, column_name = pending.pop()
        table = catalog.resolve_table(table_name)
        if table is None:
            continue
        folded = column_name.casefold()
        additions = [(table.name, table.column(pk).name) for pk in table.primary_key]
        additions += catalog._fk_ends.get((table.name.casefold(), folded), ())
        additions += catalog._bare_map.get(folded, ())
        for pair in additions:
            if pair not in members:
                members.add(pair)
                pending.append(pair)
    return ColumnSelection(frozenset(members))


def render_schema(
    catalog: SchemaCatalog,
    selection: Optional[ColumnSelection] = None,
) -> str:
    """Render the prompt schema block.

    Tables keep ingestion order; columns keep declaration order.  A table
    with no selected column is dropped entirely.
    """
    lines = ["/* Database schema */"]
    for table in catalog.tables:
        column_lines = []
        for col in table.columns:
            if selection is not None and (table.name, col.name) not in selection:
                continue
            notes = [col.declared_type]
            if col.name in table.primary_key:
                notes.append("primary key")
            for remote in table._references.get(col.name, ()):
                rt, _, rc = remote.partition(".")
                notes.append(f"references {qualified_name(rt, rc)}")
            line = f"{qualified_name(table.name, col.name)} ({', '.join(notes)})"
            if col.description:
                line += f" -- {col.description}"
            column_lines.append(line)
        if not column_lines:
            continue
        lines.append(f"Table {quote_identifier(table.name)}:")
        lines.extend(column_lines)
    return "\n".join(lines)
