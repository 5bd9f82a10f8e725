import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s import ScriptedGateway, generation
from t2s.errors import CotParseError, GenerationError
from t2s.gateway import LlmConfig
from t2s.generation import (
    CoTOutput,
    build_generation_prompt,
    format_value_line,
    generate_candidates,
    parse_cot,
    parse_plain_sql,
    render_cot,
    split_columns,
)


# -- prompt assembly ------------------------------------------------------


def test_prompt_block_order():
    prompt = build_generation_prompt(
        question="How many?",
        schema_text="/* Database schema */\nTable Patient:",
        evidence="count means COUNT(*)",
        fewshot_text="/* Answer the following:Earlier? */\n#SQL: SELECT 1",
        value_lines=["Patient.SEX = 'F'"],
        select_content="How many refer to COUNT(*)",
    )
    positions = [
        prompt.index("/* Answer the following:Earlier? */"),
        prompt.index("/* Database schema */"),
        prompt.index("/* Relevant values */"),
        prompt.index("/* Rules */"),
        prompt.index("Reply with exactly these marked lines:"),
        prompt.index("/* Answer the following:How many? count means COUNT(*) */"),
    ]
    assert positions == sorted(positions)
    # question header is the last block, with SELECT content right under it
    assert prompt.rstrip().endswith("SELECT content: [How many refer to COUNT(*)]")


def test_prompt_omits_empty_blocks():
    prompt = build_generation_prompt(
        question="Q?", schema_text="schema", fewshot_text="", value_lines=()
    )
    assert "/* Relevant values */" not in prompt
    assert "/* Answer the following:Q? */" in prompt
    assert "SELECT content:" not in prompt


def test_prompt_carries_cast_rule():
    prompt = build_generation_prompt(question="Q?", schema_text="s")
    assert (
        "- For parts involving division that contain integer types, CAST them to REAL"
        in prompt
    )


def test_prompt_sql_only_mode():
    prompt = build_generation_prompt(question="Q?", schema_text="s", use_cot=False)
    assert "Reply with the final SQLite query only" in prompt
    assert "Reply with exactly these marked lines:" not in prompt


def test_format_value_line_escapes_quotes():
    assert format_value_line("t", "c", "O'Hara") == "t.c = 'O''Hara'"


# -- parsing --------------------------------------------------------------

FULL_BLOCK = "\n".join(
    [
        "#reason: count female patients",
        "#columns: Patient.SEX, Patient.ID",
        "#values: Patient.SEX = 'F'",
        "#SELECT: How many refer to COUNT(*)",
        "#SQL-like: Show COUNT(*) WHERE SEX = 'F'",
        "#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
    ]
)


def test_parse_cot_full_block():
    cot = parse_cot(FULL_BLOCK)
    assert cot.sql == "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"
    assert cot.reason == "count female patients"
    assert cot.columns == ["Patient.SEX", "Patient.ID"]
    assert cot.values == "Patient.SEX = 'F'"
    assert cot.select_clause == "How many refer to COUNT(*)"
    assert cot.sql_like == "Show COUNT(*) WHERE SEX = 'F'"


def test_parse_cot_sql_line_is_enough():
    cot = parse_cot("#SQL: SELECT 1")
    assert cot.sql == "SELECT 1"
    assert cot.columns == []


def test_parse_cot_requires_sql():
    with pytest.raises(CotParseError):
        parse_cot("#reason: I thought about it a lot")


def test_parse_cot_strips_code_fences():
    fenced = "```sql\n#SQL: SELECT 1\n```"
    assert parse_cot(fenced).sql == "SELECT 1"


def test_parse_plain_sql_bare_query():
    assert parse_plain_sql("SELECT 1\n").sql == "SELECT 1"


def test_parse_plain_sql_mines_marker_blocks():
    assert parse_plain_sql(FULL_BLOCK).sql == "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"


def test_parse_plain_sql_rejects_empty():
    with pytest.raises(CotParseError):
        parse_plain_sql("```\n```")


def test_split_columns_respects_backquotes():
    got = split_columns("Patient.`First Date`, Patient.SEX")
    assert got == ["Patient.`First Date`", "Patient.SEX"]


def test_split_columns_handles_comma_inside_quotes():
    got = split_columns("t.`a, b`, t.c")
    assert got == ["t.`a, b`", "t.c"]


# -- render / round trip --------------------------------------------------


def test_render_cot_round_trips_full_block():
    cot = parse_cot(FULL_BLOCK)
    assert render_cot(cot) == FULL_BLOCK
    assert parse_cot(render_cot(cot)) == cot


_sections = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs")),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip() and not s.startswith("#"))
_column_names = st.lists(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}\.[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(
    reason=_sections,
    columns=_column_names,
    values=_sections,
    select=_sections,
    sql_like=_sections,
    sql=_sections,
)
def test_parse_render_identity(reason, columns, values, select, sql_like, sql):
    cot = CoTOutput(
        sql=sql.strip(),
        reason=reason.strip(),
        columns=columns,
        values=values.strip(),
        select_clause=select.strip(),
        sql_like=sql_like.strip(),
    )
    assert parse_cot(render_cot(cot)) == cot


# -- lint -----------------------------------------------------------------


def test_lint_flags_join_in_sql_like():
    cot = CoTOutput(sql="SELECT 1", columns=["t.c"], sql_like="Show x INNER JOIN y")
    assert "sql_like_contains_join" in cot.lint()


def test_lint_flags_missing_columns():
    assert "columns_missing" in CoTOutput(sql="SELECT 1").lint()


def test_lint_clean_block():
    cot = parse_cot(FULL_BLOCK)
    assert cot.lint() == []


# -- sampling -------------------------------------------------------------


def test_generate_keeps_parseable_in_order():
    gw = ScriptedGateway(
        {"cot:q": ["#SQL: SELECT 1", "no sql here", "#SQL: SELECT 2"]}
    )
    result = generate_candidates(
        gw, "prompt", LlmConfig(n_samples=3), stage="cot:q"
    )
    assert [c.sql for c in result.candidates] == ["SELECT 1", "SELECT 2"]
    assert result.parse_failures == 1


def test_generate_parses_each_distinct_reply_once(monkeypatch):
    parsed = []
    original = generation.parse_cot
    monkeypatch.setattr(generation, "parse_cot", lambda text: parsed.append(text) or original(text))
    replies = ["#SQL: SELECT 1", "no sql here", "#SQL: SELECT 2", "#SQL: SELECT 1", "no sql here"]
    gw = ScriptedGateway({"cot:q": replies})
    result = generate_candidates(gw, "prompt", LlmConfig(n_samples=5), stage="cot:q")
    assert sorted(parsed) == sorted(set(replies))
    assert [c.sql for c in result.candidates] == ["SELECT 1", "SELECT 2", "SELECT 1"]
    assert result.parse_failures == 2


def test_generate_requests_n_samples_at_temperature():
    gw = ScriptedGateway({"cot:q": "#SQL: SELECT 1"})
    generate_candidates(gw, "p", LlmConfig(n_samples=5, temperature=0.7), stage="cot:q")
    # the scripted gateway pads the single reply out to n
    assert len(gw.calls) == 1


def test_generate_raises_when_nothing_parses():
    gw = ScriptedGateway({"cot:q": ["nope", "still no"]})
    with pytest.raises(GenerationError):
        generate_candidates(gw, "p", LlmConfig(n_samples=2), stage="cot:q")


def test_generate_sql_only_mode():
    gw = ScriptedGateway({"cot:q": "SELECT 42"})
    result = generate_candidates(
        gw, "p", LlmConfig(n_samples=1), stage="cot:q", use_cot=False
    )
    assert result.candidates[0].sql == "SELECT 42"
