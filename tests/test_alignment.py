import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s import ValueIndex, ingest_schema
from t2s.alignment import (
    AlignmentContext,
    agent_align,
    align_all,
    align_statement,
    function_align,
    style_align,
)
from t2s.sql_ast import emit, parse_select


@pytest.fixture(scope="module")
def clin_ctx(clinical_catalog, clinical_index):
    return AlignmentContext(catalog=clinical_catalog, index=clinical_index)


@pytest.fixture(scope="module")
def gold_ctx(golden_catalog, golden_index):
    return AlignmentContext(catalog=golden_catalog, index=golden_index)


def run_pass(fn, sql, ctx):
    stmt = parse_select(sql)
    flags = fn(stmt, ctx)
    return emit(stmt), flags


# -- value agent ----------------------------------------------------------


def test_literal_case_repaired(gold_ctx):
    sql, flags = run_pass(
        agent_align, "SELECT ID FROM table WHERE table.name = 'John'", gold_ctx
    )
    assert "'JOHN'" in sql
    assert any(f.startswith("value_replaced:") for f in flags)


def test_exact_stored_literal_untouched(clin_ctx):
    sql, flags = run_pass(agent_align, "SELECT ID FROM Patient WHERE SEX = 'F'", clin_ctx)
    assert "= 'F'" in sql
    assert flags == []


def test_literal_moved_to_owning_column(clin_ctx):
    # '+' lives in Admission, not SEX
    sql, flags = run_pass(agent_align, "SELECT ID FROM Patient WHERE SEX = '+'", clin_ctx)
    assert "Admission = '+'" in sql
    assert any(f.startswith("column_remapped:") for f in flags)


def test_unmatched_literal_flagged_not_touched(clin_ctx):
    sql, flags = run_pass(
        agent_align, "SELECT ID FROM Patient WHERE SEX = 'zebra'", clin_ctx
    )
    assert "'zebra'" in sql
    assert any(f.startswith("value_unmatched:") for f in flags)


def test_like_patterns_left_alone(clin_ctx):
    sql, flags = run_pass(
        agent_align, "SELECT ID FROM Patient WHERE SEX LIKE 'f%'", clin_ctx
    )
    assert "'f%'" in sql


def test_agent_pass_without_index_is_noop(clinical_catalog):
    ctx = AlignmentContext(catalog=clinical_catalog, index=None)
    sql, flags = run_pass(agent_align, "SELECT ID FROM Patient WHERE SEX = 'f'", ctx)
    assert "'f'" in sql and flags == []


def test_case_variant_prefers_whole_stored_value(tmp_path):
    # 'York' ties with 'New York' on the probe 'york'; the stored value that
    # equals the literal case-blind must win.
    path = tmp_path / "city.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE city (id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO city (name) VALUES (?)", [("York",), ("New York",), ("Boston",)]
    )
    conn.commit()
    conn.close()
    catalog = ingest_schema(path)
    ctx = AlignmentContext(catalog=catalog, index=ValueIndex.build(path, catalog))
    sql, flags = run_pass(
        agent_align, "SELECT id FROM city WHERE name = 'new york'", ctx
    )
    assert "name = 'New York'" in sql
    assert flags == ["value_replaced:city.name:'new york'->'New York'"]


# -- function agent -------------------------------------------------------


def test_order_by_aggregate_unwrapped(gold_ctx):
    sql, flags = run_pass(
        function_align, "SELECT ID FROM table ORDER BY MAX(score)", gold_ctx
    )
    assert sql == "SELECT ID FROM table GROUP BY ID ORDER BY score"
    assert "order_aggregate_unwrapped:MAX" in flags
    assert "group_by_introduced" in flags


def test_order_by_aggregate_keeps_existing_group_by(gold_ctx):
    sql, flags = run_pass(
        function_align,
        "SELECT name FROM table GROUP BY name ORDER BY COUNT(ID)",
        gold_ctx,
    )
    # grouped query may legally order by an aggregate
    assert "COUNT(ID)" in sql
    assert flags == []


def test_nested_aggregate_unwrapped(gold_ctx):
    sql, flags = run_pass(
        function_align, "SELECT MAX(COUNT(ID)) FROM table", gold_ctx
    )
    assert "MAX(COUNT" not in sql
    assert any(f.startswith("nested_aggregate_unwrapped:") for f in flags)


def test_redundant_join_removed(clin_ctx):
    # child keeps, unused parent drops: the NOT NULL FK guarantees a match
    sql, flags = run_pass(
        function_align,
        "SELECT T1.IGA FROM Laboratory AS T1 INNER JOIN Patient AS T2 ON T1.ID = T2.ID",
        clin_ctx,
    )
    assert "JOIN" not in sql
    assert sql == "SELECT T1.IGA FROM Laboratory AS T1"
    assert "redundant_join_removed:Patient" in flags


def test_filtering_join_not_removed(clin_ctx):
    # the parent side keeps rows only when labs exist; dropping would change results
    sql, flags = run_pass(
        function_align,
        "SELECT T1.ID FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID",
        clin_ctx,
    )
    assert "JOIN" in sql
    assert flags == []


def test_join_kept_when_other_table_used(clin_ctx):
    sql, flags = run_pass(
        function_align,
        "SELECT T1.IGA FROM Laboratory AS T1 INNER JOIN Patient AS T2 ON T1.ID = T2.ID WHERE T2.SEX = 'F'",
        clin_ctx,
    )
    assert "JOIN" in sql
    assert flags == []


@pytest.fixture(scope="module")
def chain_ctx(tmp_path_factory):
    # person -> city -> region, both foreign keys NOT NULL; person.score nullable
    path = tmp_path_factory.mktemp("chain") / "chain.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE region (id INTEGER PRIMARY KEY, name TEXT);
        CREATE TABLE city (id INTEGER PRIMARY KEY, pop INTEGER,
            region_id INTEGER NOT NULL REFERENCES region(id));
        CREATE TABLE person (id INTEGER PRIMARY KEY, name TEXT, score INTEGER,
            city_id INTEGER NOT NULL REFERENCES city(id));
        """
    )
    conn.close()
    return AlignmentContext(catalog=ingest_schema(path))


def test_join_kept_for_bare_column_of_joined_table(chain_ctx):
    # `pop` exists only on city, so it binds to the joined table
    src = "SELECT p.name, pop FROM person AS p INNER JOIN city AS c ON p.city_id = c.id"
    sql, flags = run_pass(function_align, src, chain_ctx)
    assert sql == src
    assert flags == []


def test_join_kept_for_star_of_joined_table(chain_ctx):
    src = "SELECT c.* FROM person AS p INNER JOIN city AS c ON p.city_id = c.id"
    sql, flags = run_pass(function_align, src, chain_ctx)
    assert sql == src
    assert flags == []


def test_join_kept_when_later_join_uses_it(chain_ctx):
    src = (
        "SELECT r.name FROM person AS p INNER JOIN city AS c ON p.city_id = c.id"
        " INNER JOIN region AS r ON c.region_id = r.id"
    )
    sql, flags = run_pass(function_align, src, chain_ctx)
    assert sql == src
    assert flags == []


def test_null_guard_parenthesises_or(chain_ctx):
    sql, flags = run_pass(
        style_align,
        "SELECT name FROM person WHERE name = 'a' OR name = 'b' ORDER BY score DESC LIMIT 1",
        chain_ctx,
    )
    assert sql == (
        "SELECT name FROM person WHERE (name = 'a' OR name = 'b') AND score IS NOT NULL"
        " ORDER BY score DESC LIMIT 1"
    )
    assert flags == ["null_guard_added:person.score"]


def test_dropped_join_semantics_match(clinical_db, clin_ctx):
    before = "SELECT DISTINCT T1.ID FROM Laboratory AS T1 INNER JOIN Patient AS T2 ON T1.ID = T2.ID"
    after, _ = run_pass(function_align, before, clin_ctx)
    assert "JOIN" not in after
    with sqlite3.connect(clinical_db) as conn:
        rows_before = sorted(conn.execute(before).fetchall())
        rows_after = sorted(conn.execute(after).fetchall())
    assert rows_before == rows_after


# -- style agent ----------------------------------------------------------


def test_minmax_rewritten_to_order_limit(gold_ctx):
    sql, flags = run_pass(style_align, "SELECT MAX(score) FROM table", gold_ctx)
    assert sql == (
        "SELECT score FROM table WHERE score IS NOT NULL ORDER BY score DESC LIMIT 1"
    )
    assert "minmax_rewritten:DESC" in flags


def test_min_rewrites_ascending(gold_ctx):
    sql, flags = run_pass(style_align, "SELECT MIN(score) FROM table", gold_ctx)
    assert "ORDER BY score ASC LIMIT 1" in sql
    assert "minmax_rewritten:ASC" in flags


def test_minmax_left_alone_with_siblings(gold_ctx):
    sql, flags = run_pass(style_align, "SELECT name, MAX(score) FROM table", gold_ctx)
    assert "MAX(score)" in sql


def test_order_limit_gets_null_guard(gold_ctx):
    sql, flags = run_pass(
        style_align, "SELECT ID FROM table ORDER BY score DESC LIMIT 1", gold_ctx
    )
    assert sql == (
        "SELECT ID FROM table WHERE score IS NOT NULL ORDER BY score DESC LIMIT 1"
    )
    assert "null_guard_added:table.score" in flags


def test_no_guard_for_not_null_column(clin_ctx):
    # Laboratory.ID is declared NOT NULL
    sql, flags = run_pass(
        style_align, "SELECT ID FROM Laboratory ORDER BY ID LIMIT 1", clin_ctx
    )
    assert "IS NOT NULL" not in sql
    assert flags == []


def test_no_guard_without_limit(gold_ctx):
    sql, flags = run_pass(style_align, "SELECT ID FROM table ORDER BY score", gold_ctx)
    assert "IS NOT NULL" not in sql


def test_existing_guard_not_duplicated(gold_ctx):
    src = "SELECT ID FROM table WHERE score IS NOT NULL ORDER BY score DESC LIMIT 1"
    sql, flags = run_pass(style_align, src, gold_ctx)
    assert sql.count("IS NOT NULL") == 1
    assert flags == []


# -- combined entry points ------------------------------------------------

GOLDEN = [
    (
        "SELECT ID FROM table WHERE table.name= 'John'",
        "SELECT ID FROM table WHERE table.name= 'JOHN'",
    ),
    (
        "SELECT ID FROM table ORDER BY MAX(score)",
        "SELECT ID FROM table GROUP BY ID ORDER BY score",
    ),
    (
        "SELECT ID FROM table ORDER BY score DESC LIMIT 1",
        "SELECT ID FROM table WHERE score IS NOT NULL ORDER BY score DESC LIMIT 1",
    ),
]


def normalize_ws(sql):
    return "".join(sql.split())


@pytest.mark.parametrize("before,after", GOLDEN)
def test_align_all_golden_pairs(gold_ctx, before, after):
    assert normalize_ws(align_all(before, gold_ctx)) == normalize_ws(after)


def test_align_statement_reports_changes(gold_ctx):
    out = align_statement("SELECT MAX(score) FROM table", gold_ctx)
    assert out.changed
    assert out.sql_in == "SELECT MAX(score) FROM table"
    assert out.flags


def test_unparseable_sql_passes_through(gold_ctx):
    out = align_statement("SELECT ??? FROM", gold_ctx)
    assert out.sql_out == "SELECT ??? FROM"
    assert not out.changed
    assert out.flags == ["unparseable"]


def test_align_all_idempotent_on_golden(gold_ctx):
    for before, _after in GOLDEN:
        once = align_all(before, gold_ctx)
        assert align_all(once, gold_ctx) == once


# -- properties -----------------------------------------------------------

_SAFE_STATEMENTS = [
    "SELECT ID FROM Patient",
    "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
    "SELECT SEX, COUNT(*) FROM Patient GROUP BY SEX",
    "SELECT T1.ID FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID WHERE T2.IGA > 100",
    "SELECT MAX(IGA) FROM Laboratory",
    "SELECT ID FROM Patient ORDER BY `First Date` LIMIT 1",
    "SELECT ID FROM Laboratory WHERE IGA BETWEEN 50 AND 500",
    "SELECT DISTINCT SEX FROM Patient WHERE Admission = '+'",
    "SELECT ID FROM Patient WHERE SEX = 'm'",
    "SELECT AVG(IGA) FROM Laboratory WHERE strftime('%Y', Date) = '1995'",
]


@settings(max_examples=60, deadline=None)
@given(sql=st.sampled_from(_SAFE_STATEMENTS))
def test_alignment_idempotent(clin_ctx, sql):
    once = align_all(sql, clin_ctx)
    twice = align_all(once, clin_ctx)
    assert twice == once


@settings(max_examples=60, deadline=None)
@given(sql=st.sampled_from(_SAFE_STATEMENTS))
def test_alignment_preserves_executability(clinical_db, clin_ctx, sql):
    out = align_all(sql, clin_ctx)
    with sqlite3.connect(clinical_db) as conn:
        conn.execute(out).fetchall()
