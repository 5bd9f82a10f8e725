import copy
import sqlite3
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s.errors import SqlSyntaxError
from t2s.sql_ast import (
    Binary,
    ColumnRef,
    FuncCall,
    NumberLit,
    Select,
    StringLit,
    contains_aggregate,
    is_aggregate_call,
    tokenize,
    Node,
    emit,
    parse_select,
    walk,
)


# -- tokenizer ------------------------------------------------------------


def test_tokenize_basic_kinds():
    kinds = [(t.type, t.text) for t in tokenize("SELECT a, 'x''y' FROM `t 1` WHERE n >= 2.5")]
    assert ("word", "SELECT") in kinds
    assert ("string", "x'y") in kinds
    assert ("qident", "t 1") in kinds
    assert ("op", ">=") in kinds
    assert ("number", "2.5") in kinds
    assert kinds[-1] == ("eof", "")


def test_tokenize_skips_comments():
    toks = tokenize("SELECT 1 -- trailing\n/* block */ FROM t")
    assert [t.text for t in toks[:-1]] == ["SELECT", "1", "FROM", "t"]


def test_tokenize_bracket_identifier():
    tok = tokenize("[First Date]")[0]
    assert (tok.type, tok.text, tok.quote) == ("qident", "First Date", "[")


def test_tokenize_unterminated_string():
    with pytest.raises(SqlSyntaxError) as err:
        tokenize("SELECT 'oops")
    assert err.value.position == 7


def test_tokenize_unexpected_character():
    with pytest.raises(SqlSyntaxError):
        tokenize("SELECT @x")


# -- parse / emit ---------------------------------------------------------

ROUND_TRIP = [
    "SELECT * FROM Patient",
    "SELECT DISTINCT SEX FROM Patient",
    "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
    "SELECT ID, SEX FROM Patient WHERE ID > 2 AND SEX = 'M'",
    "SELECT T1.ID FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.ID = T2.ID",
    "SELECT ID FROM Patient LEFT JOIN Laboratory ON Patient.ID = Laboratory.ID",
    "SELECT SEX, COUNT(*) FROM Patient GROUP BY SEX HAVING COUNT(*) > 1",
    "SELECT ID FROM Patient ORDER BY ID DESC LIMIT 1",
    "SELECT ID FROM Patient ORDER BY SEX ASC, ID DESC",
    "SELECT ID FROM Patient WHERE ID IN (1, 2, 3)",
    "SELECT ID FROM Patient WHERE ID NOT IN (SELECT ID FROM Laboratory)",
    "SELECT ID FROM Patient WHERE ID BETWEEN 1 AND 3",
    "SELECT ID FROM Patient WHERE SEX IS NOT NULL",
    "SELECT ID FROM Patient WHERE SEX LIKE 'F%'",
    "SELECT ID FROM Patient WHERE NOT (ID = 1 OR ID = 2)",
    "SELECT CASE WHEN ID > 2 THEN 'big' ELSE 'small' END FROM Patient",
    "SELECT CAST(ID AS TEXT) FROM Patient",
    "SELECT ID FROM Patient WHERE EXISTS (SELECT 1 FROM Laboratory WHERE Laboratory.ID = Patient.ID)",
    "SELECT AVG(IGA) FROM Laboratory WHERE IGA > 0",
    "SELECT ID FROM Patient UNION SELECT ID FROM Laboratory",
    "SELECT ID FROM Patient EXCEPT SELECT ID FROM Laboratory ORDER BY ID",
    "SELECT ID FROM (SELECT ID FROM Patient WHERE SEX = 'F') AS sub",
    "WITH big AS (SELECT ID FROM Laboratory WHERE IGA > 100) SELECT COUNT(*) FROM big",
    "SELECT strftime('%Y', Date) FROM Laboratory",
    "SELECT ID FROM Patient WHERE ID = 1 LIMIT 5 OFFSET 2",
    "SELECT -ID, ID * 2 + 1 FROM Patient",
    "SELECT ID FROM Patient WHERE SEX = 'F' OR SEX = 'M' AND ID < 3",
    "SELECT `First Date` FROM Patient",
]


def canonical(sql):
    return emit(parse_select(sql))


@pytest.mark.parametrize("sql", ROUND_TRIP)
def test_emit_is_stable(sql):
    once = canonical(sql)
    assert canonical(once) == once


@pytest.mark.parametrize("sql", ROUND_TRIP)
def test_canonical_form_preserves_meaning_tokens(sql):
    # same token stream modulo case of bare words
    def fold(s):
        return [
            (t.type, t.text.upper() if t.type == "word" else t.text)
            for t in tokenize(s)
        ]

    assert fold(canonical(sql)) == fold(sql)


def test_emit_preserves_quote_style():
    assert canonical("select `First Date` from Patient") == "SELECT `First Date` FROM Patient"
    assert canonical('select "First Date" from Patient') == 'SELECT "First Date" FROM Patient'


def test_keywords_uppercased_identifiers_kept():
    got = canonical("select id from Patient where sex = 'F' order by id desc")
    assert got == "SELECT id FROM Patient WHERE sex = 'F' ORDER BY id DESC"


def test_reserved_table_name_parses_bare():
    stmt = parse_select("SELECT ID FROM table WHERE table.name = 'John'")
    assert stmt.from_.name == "table"
    assert emit(stmt) == "SELECT ID FROM table WHERE table.name = 'John'"


def test_limit_pair_becomes_offset():
    got = canonical("SELECT ID FROM Patient LIMIT 2, 5")
    assert got == "SELECT ID FROM Patient LIMIT 5 OFFSET 2"


def test_double_quoted_string_literal_tolerated():
    # sqlite treats unknown "..." as identifier; literal use still parses
    stmt = parse_select('SELECT ID FROM Patient WHERE SEX = "F"')
    assert "SEX" in emit(stmt)


def test_parse_errors_carry_position():
    with pytest.raises(SqlSyntaxError) as err:
        parse_select("SELECT ID FROM Patient WHERE")
    assert err.value.position is not None
    with pytest.raises(SqlSyntaxError):
        parse_select("SELECT (ID FROM Patient")
    with pytest.raises(SqlSyntaxError):
        parse_select("SELECT ID FROM Patient trailing garbage")
    with pytest.raises(SqlSyntaxError):
        parse_select("")


def test_semicolon_tolerated():
    assert canonical("SELECT 1;") == "SELECT 1"


def _sqlite_rows(sql):
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (a)")
        conn.execute("INSERT INTO t VALUES (3)")
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


@pytest.mark.parametrize("sql,want", [
    # Glued, the two signs would read "--", which starts a comment.
    ("SELECT - - a FROM t", [(3,)]),
    ("SELECT -5 FROM t", [(-5,)]),
    # Read as 0 with the alias x10, the statement would return 0.
    ("SELECT 0x10 FROM t", [(16,)]),
])
def test_emit_keeps_sqlites_answer(sql, want):
    assert _sqlite_rows(sql) == want
    assert _sqlite_rows(canonical(sql)) == want


# -- tree helpers ---------------------------------------------------------


def test_walk_reaches_subqueries():
    stmt = parse_select("SELECT ID FROM Patient WHERE ID IN (SELECT ID FROM Laboratory WHERE IGA > 9)")
    names = {n.column for n in walk(stmt) if isinstance(n, ColumnRef)}
    assert names == {"ID", "IGA"}


def _children_by_fields(node):
    """Reference order: every dataclass field in declaration order."""
    out = []
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Node):
                    out.append(item)
                elif isinstance(item, tuple):
                    out.extend(sub for sub in item if isinstance(sub, Node))
    return out


def test_children_follow_field_order():
    stmt = parse_select(
        "WITH recent AS (SELECT ID, Date FROM Laboratory WHERE Date > '2000-01-01') "
        "SELECT p.ID, CASE WHEN p.SEX = 'F' THEN 1 WHEN p.SEX = 'M' THEN 2 ELSE 0 END "
        "FROM Patient AS p INNER JOIN recent AS r ON p.ID = r.ID "
        "WHERE p.ID IN (SELECT ID FROM Examination WHERE Thrombosis = 1) "
        "ORDER BY r.Date DESC LIMIT 5 OFFSET 10"
    )
    nodes = list(walk(stmt)) + list(walk(copy.deepcopy(stmt)))
    kinds = {type(n).__name__ for n in nodes}
    assert {"Cte", "Join", "Case", "InExpr", "Subquery", "OrderTerm"} <= kinds
    assert stmt.limit is not None and stmt.offset is not None
    for node in nodes:
        assert list(vars(node)) == [f.name for f in fields(node)]
        children = list(node.children())
        reference = _children_by_fields(node)
        assert len(children) == len(reference)
        assert all(a is b for a, b in zip(children, reference))


def test_column_refs_in_order():
    stmt = parse_select("SELECT A, B FROM t WHERE C = 1")
    assert [n.column for n in walk(stmt) if isinstance(n, ColumnRef)] == ["A", "B", "C"]


def test_aggregate_detection():
    agg = FuncCall(name="count", args=[ColumnRef(None, "ID")])
    assert is_aggregate_call(agg)
    assert not is_aggregate_call(FuncCall(name="strftime", args=[]))
    expr = Binary("+", agg, NumberLit("1"))
    assert contains_aggregate(expr)
    assert not contains_aggregate(StringLit("COUNT"))


def test_select_fields_populated():
    stmt = parse_select(
        "SELECT SEX, COUNT(*) FROM Patient WHERE ID > 0 GROUP BY SEX "
        "HAVING COUNT(*) >= 1 ORDER BY SEX LIMIT 3"
    )
    assert isinstance(stmt, Select)
    assert stmt.where is not None
    assert len(stmt.group_by) == 1
    assert stmt.having is not None
    assert stmt.order_by[0].direction is None
    assert emit(stmt.limit) == "3"


# -- property: emit of random trees survives a parse ----------------------

_names = st.sampled_from(["ID", "SEX", "IGA", "Date", "name", "score"])
_tables = st.sampled_from(["Patient", "Laboratory", "t"])
_numbers = st.integers(min_value=0, max_value=999).map(lambda n: NumberLit(str(n)))
_strings = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=127),
    max_size=8,
).map(StringLit)


def _exprs():
    leaves = st.one_of(
        _numbers,
        _strings,
        st.builds(ColumnRef, st.none() | _tables, _names),
    )

    def extend(children):
        return st.one_of(
            st.builds(Binary, st.sampled_from(["+", "-", "*", "=", "<", ">", "AND", "OR"]), children, children),
            st.builds(lambda a: FuncCall(name="MAX", args=[a]), children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(expr=_exprs(), table=_tables)
def test_emitted_trees_reparse_identically(expr, table):
    from t2s.sql_ast import SelectItem, TableRef

    stmt = Select(items=[SelectItem(expr=expr)], from_=TableRef(name=table))
    sql = emit(stmt)
    assert emit(parse_select(sql)) == sql
