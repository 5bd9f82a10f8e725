import os
import shutil
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s import SchemaCatalog, ValueIndex, ingest_schema
from t2s.errors import IngestError, SelectionError
from t2s.schema import (
    ColumnDef,
    ColumnSelection,
    TableDef,
    connect_read_only,
    expand_selection,
    qualified_name,
    quote_identifier,
    render_schema,
    _affinity,
)
from t2s.refine import execute_sql


# -- type affinity --------------------------------------------------------


@pytest.mark.parametrize(
    "declared,expected",
    [
        ("INTEGER", "integer"),
        ("int", "integer"),
        ("BIGINT", "integer"),
        ("VARCHAR(80)", "text"),
        ("TEXT", "text"),
        ("CLOB", "text"),
        ("", "blob"),
        ("BLOB", "blob"),
        ("REAL", "real"),
        ("FLOAT", "real"),
        ("DOUBLE PRECISION", "real"),
        ("DATE", "other"),
        ("BOOLEAN", "other"),
    ],
)
def test_affinity(declared, expected):
    assert _affinity(declared) == expected


# -- identifier quoting ---------------------------------------------------


def test_plain_names_stay_bare():
    assert quote_identifier("Patient") == "Patient"
    assert quote_identifier("IGA") == "IGA"


def test_names_with_spaces_get_backquotes():
    assert quote_identifier("First Date") == "`First Date`"


def test_reserved_words_get_backquotes():
    assert quote_identifier("table") == "`table`"
    assert quote_identifier("order") == "`order`"


def test_qualified_name():
    assert qualified_name("Patient", "First Date") == "Patient.`First Date`"


# -- ingestion ------------------------------------------------------------


def test_ingest_tables_and_columns(clinical_catalog):
    assert clinical_catalog.db_id == "clinical"
    assert [t.name for t in clinical_catalog.tables] == ["Patient", "Laboratory"]
    patient = clinical_catalog.resolve_table("Patient")
    assert [c.name for c in patient.columns] == ["ID", "SEX", "First Date", "Admission"]
    assert patient.primary_key == ("ID",)


def test_ingest_types_and_constraints(clinical_catalog):
    lab = clinical_catalog.resolve_table("Laboratory")
    assert lab.column("IGA").declared_type == "integer"
    assert lab.column("Date").declared_type == "text"
    assert lab.column("ID").not_null
    assert lab.foreign_keys == (("ID", "Patient.ID"),)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(IngestError):
        ingest_schema(tmp_path / "nope.sqlite")


def test_resolution_is_case_insensitive(clinical_catalog):
    assert clinical_catalog.resolve_table("patient").name == "Patient"
    table, column = clinical_catalog.resolve_column("laboratory", "iga")
    assert (table.name, column.name) == ("Laboratory", "IGA")
    assert clinical_catalog.resolve_column("Patient", "missing") is None


def test_resolve_bare_column(clinical_catalog):
    assert clinical_catalog.resolve_bare_column("SEX") == [("Patient", "SEX")]
    # ID exists in both tables
    assert len(clinical_catalog.resolve_bare_column("id")) == 2
    assert clinical_catalog.resolve_bare_column("nope") == []


def test_round_trip_through_dict(clinical_catalog):
    clone = SchemaCatalog.from_dict(clinical_catalog.to_dict())
    assert clone.to_dict() == clinical_catalog.to_dict()
    assert [t.name for t in clone.tables] == [t.name for t in clinical_catalog.tables]


@pytest.mark.parametrize("where,key,value", [
    ("catalog", "db_id", 5),
    ("column", "description", 5),
    ("column", "declared_type", ["text"]),
    ("column", "not_null", 1),
])
def test_from_dict_refuses_a_wrongly_typed_value(clinical_catalog, where, key, value):
    data = clinical_catalog.to_dict()
    target = data if where == "catalog" else data["tables"][0]["columns"][0]
    target[key] = value
    with pytest.raises(IngestError, match=key):
        SchemaCatalog.from_dict(data)


@pytest.mark.parametrize("name", ["a#b.sqlite", "c?d.sqlite", "e%20f.sqlite", "g h.sqlite"])
def test_every_reader_opens_the_named_file_read_only(clinical_db, tmp_path, name):
    # A path spliced into a `file:` URI unescaped loses everything from a
    # `#` or `?` on, and SQLite then opens (and creates) the shortened
    # path read-write; a `%20` is decoded to a space and names no file.
    folder = tmp_path / "dbs"
    folder.mkdir()
    path = folder / name
    shutil.copyfile(clinical_db, path)
    before = sorted(os.listdir(folder))
    catalog = ingest_schema(path)
    assert [t.name for t in catalog.tables] == ["Patient", "Laboratory"]
    assert ValueIndex.build(path, catalog).cell_count() == 15
    assert execute_sql(path, "SELECT COUNT(*) FROM Patient").rows == ((5,),)
    conn = connect_read_only(path)
    try:
        assert conn.execute("SELECT COUNT(*) FROM Laboratory").fetchone() == (6,)
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("CREATE TABLE t (x)")
    finally:
        conn.close()
    with pytest.raises(sqlite3.OperationalError):
        connect_read_only(folder / ("missing" + name)).close()
    assert sorted(os.listdir(folder)) == before


def test_descriptions_from_csv(tmp_path):
    db = tmp_path / "d.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE items (id integer primary key, label text)")
    conn.commit()
    conn.close()
    desc_dir = tmp_path / "database_description"
    desc_dir.mkdir()
    (desc_dir / "items.csv").write_text(
        "original_column_name,column_name,column_description,value_description\n"
        "id,,the row identifier,\n"
        'label,,,"short display   name"\n',
        encoding="utf-8",
    )
    catalog = ingest_schema(db, description_dir=desc_dir)
    table = catalog.resolve_table("items")
    assert table.column("id").description == "the row identifier"
    # value_description is the fallback; whitespace collapses
    assert table.column("label").description == "short display name"


def test_catalog_rejects_duplicate_tables():
    cols = (ColumnDef(name="id", declared_type="integer"),)
    with pytest.raises(IngestError):
        SchemaCatalog(
            db_id="x",
            tables=(
                TableDef(name="t", columns=cols),
                TableDef(name="T", columns=cols),
            ),
        )


def test_catalog_rejects_dangling_foreign_key():
    with pytest.raises(IngestError):
        SchemaCatalog(
            db_id="x",
            tables=(
                TableDef(
                    name="a",
                    columns=(ColumnDef(name="id", declared_type="integer"),),
                    foreign_keys=(("id", "missing.id"),),
                ),
            ),
        )


# -- selections -----------------------------------------------------------


def test_selection_canonicalizes_case(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("patient", "sex"), ("PATIENT", "SEX")])
    assert tuple(sel.pairs()) == (("Patient", "SEX"),)
    assert ("Patient", "SEX") in sel


def test_selection_rejects_unknown_column(clinical_catalog):
    with pytest.raises(SelectionError):
        ColumnSelection.of(clinical_catalog, [("Patient", "nope")])


def test_full_selection(clinical_catalog):
    sel = ColumnSelection.full(clinical_catalog)
    assert len(sel.pairs()) == 7
    assert ("Laboratory", "Date") in sel


def test_selection_union(clinical_catalog):
    a = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    b = ColumnSelection.of(clinical_catalog, [("Laboratory", "IGA")])
    assert sorted(a.union(b).pairs()) == [("Laboratory", "IGA"), ("Patient", "SEX")]


# -- selection expansion --------------------------------------------------


def test_expansion_adds_primary_key(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    expanded = expand_selection(clinical_catalog, sel)
    assert ("Patient", "ID") in expanded


def test_expansion_adds_foreign_key_counterpart(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Laboratory", "ID")])
    expanded = expand_selection(clinical_catalog, sel)
    assert ("Patient", "ID") in expanded


def test_expansion_adds_same_named_columns(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "ID")])
    expanded = expand_selection(clinical_catalog, sel)
    # Laboratory also has an ID column
    assert ("Laboratory", "ID") in expanded


_pair_lists = st.lists(
    st.sampled_from(
        [
            ("Patient", "ID"),
            ("Patient", "SEX"),
            ("Patient", "First Date"),
            ("Patient", "Admission"),
            ("Laboratory", "ID"),
            ("Laboratory", "IGA"),
            ("Laboratory", "Date"),
        ]
    ),
    max_size=7,
)


@settings(max_examples=100, deadline=None)
@given(pairs=_pair_lists)
def test_expansion_monotone_and_idempotent(clinical_catalog, pairs):
    if not pairs:
        return
    sel = ColumnSelection.of(clinical_catalog, pairs)
    expanded = expand_selection(clinical_catalog, sel)
    assert set(sel.pairs()) <= set(expanded.pairs())
    again = expand_selection(clinical_catalog, expanded)
    assert set(again.pairs()) == set(expanded.pairs())


def _scan_column(table, name):
    """`TableDef.column` as a linear scan: the first column of that name."""
    return next((c for c in table.columns if c.name.casefold() == name.casefold()), None)


def _scan_bare(catalog, name):
    """`resolve_bare_column` as a linear scan."""
    return [
        (t.name, c.name)
        for t in catalog.tables
        for c in t.columns
        if c.name.casefold() == name.casefold()
    ]


def _fixpoint_expansion(catalog, selection):
    """`expand_selection` as a fixpoint: every member's additions are worked
    out again on each pass, until a pass adds nothing."""
    members = set(selection.members)
    changed = True
    while changed:
        changed = False
        for table_name, column_name in list(members):
            table = catalog.resolve_table(table_name)
            if table is None:
                continue
            additions = []
            for pk in table.primary_key:
                col = _scan_column(table, pk)
                if col is not None:
                    additions.append((table.name, col.name))
            for local, remote in table.foreign_keys:
                if local.casefold() == column_name.casefold():
                    rt, _, rc = remote.partition(".")
                    target = catalog.resolve_table(rt)
                    col = _scan_column(target, rc)
                    additions.append((target.name, col.name))
            for other in catalog.tables:
                for local, remote in other.foreign_keys:
                    rt, _, rc = remote.partition(".")
                    if (rt.casefold(), rc.casefold()) == (
                        table_name.casefold(), column_name.casefold()
                    ):
                        additions.append((other.name, local))
            additions.extend(_scan_bare(catalog, column_name))
            for pair in additions:
                if pair not in members:
                    members.add(pair)
                    changed = True
    return ColumnSelection(frozenset(members))


_NAMES = ["id", "ID", "name", "Name", "code", "ref", "x"]


def _spelled(draw, name):
    return draw(st.sampled_from([name, name.upper(), name.lower()]))


@st.composite
def _chained_catalogs(draw):
    """Tables whose foreign keys chain each to an earlier one, with shared
    and case-varied names."""
    tables = []
    for i in range(draw(st.integers(1, 5))):
        names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4,
                              unique_by=str.casefold))
        keys = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
        foreign_keys = []
        for target in draw(st.lists(st.sampled_from(tables), max_size=2)) if tables else ():
            remote = draw(st.sampled_from(target.columns)).name
            foreign_keys.append((
                _spelled(draw, draw(st.sampled_from(names))),
                f"{_spelled(draw, target.name)}.{_spelled(draw, remote)}",
            ))
        if tables and draw(st.booleans()):  # the chain: each table to the one before
            foreign_keys.append((names[0], f"{tables[-1].name}.{tables[-1].columns[0].name}"))
        tables.append(TableDef(
            name=f"T{i}" if i % 2 else f"t{i}",
            columns=tuple(ColumnDef(name=name) for name in names),
            primary_key=tuple(_spelled(draw, key) for key in keys),
            foreign_keys=tuple(foreign_keys),
        ))
    return SchemaCatalog(db_id="chained", tables=tuple(tables))


@st.composite
def _catalog_and_selection(draw, catalogs):
    catalog = draw(catalogs)
    pairs = catalog.all_pairs() + [("nope", "id")]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=4))
    # Members spelled in another case, as a foreign key may spell them.
    return catalog, ColumnSelection(frozenset(
        (_spelled(draw, t), _spelled(draw, c)) for t, c in chosen
    ))


def test_table_column_keeps_the_first_match_as_the_scan_does():
    table = TableDef(name="t", columns=(ColumnDef(name="a"), ColumnDef(name="A")))
    assert table.column("A") is table.columns[0] is _scan_column(table, "A")


@settings(max_examples=100, deadline=None)
@given(_catalog_and_selection(_chained_catalogs()), st.sampled_from(_NAMES + ["ID ", "nope"]))
def test_name_maps_equal_the_linear_scans(drawn, name):
    catalog, _ = drawn
    assert catalog.resolve_bare_column(name) == _scan_bare(catalog, name)
    for table in catalog.tables:
        assert table.column(name) is _scan_column(table, name)


@settings(max_examples=100, deadline=None)
@given(_catalog_and_selection(_chained_catalogs()))
def test_expansion_equals_the_fixpoint_on_chained_keys(drawn):
    catalog, selection = drawn
    assert expand_selection(catalog, selection) == _fixpoint_expansion(catalog, selection)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_expansion_equals_the_fixpoint_on_the_clinical_catalog(clinical_catalog, data):
    catalogs = st.just(clinical_catalog)
    catalog, selection = data.draw(_catalog_and_selection(catalogs))
    assert expand_selection(catalog, selection) == _fixpoint_expansion(catalog, selection)
    assert clinical_catalog.resolve_bare_column("id") == _scan_bare(clinical_catalog, "id")


# -- rendering ------------------------------------------------------------


def test_render_full_schema(clinical_catalog):
    text = render_schema(clinical_catalog)
    lines = text.splitlines()
    assert lines[0] == "/* Database schema */"
    assert "Table Patient:" in lines
    assert "Patient.ID (integer, primary key)" in lines
    assert "Patient.`First Date` (text)" in lines
    assert "Laboratory.ID (integer, references Patient.ID)" in lines


def test_render_drops_unselected_tables(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    text = render_schema(clinical_catalog, sel)
    assert "Laboratory" not in text
    assert "Patient.SEX (text)" in text
    assert "Patient.ID" not in text


def test_render_quotes_reserved_table_name(golden_catalog):
    text = render_schema(golden_catalog)
    assert "Table `table`:" in text
    assert "`table`.ID (integer, primary key)" in text
