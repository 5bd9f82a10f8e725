"""Candidate SQL generation with a structured reasoning reply.

The generator asks for a fixed marker block instead of free prose:
reason, columns, values, an intermediate one-line query with JOINs
removed, then the final SQL.  The intermediate form exists because
join plumbing is where models most often lose the thread; writing the
query without it first keeps the selection logic and the join logic
separable, and the parser can lint one against the other.

Replies that do not contain a SQL line are dropped; generation only
fails when no sample at all survives parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import CotParseError, GenerationError
from .fewshot import (
    COT_MARKERS,
    MARK_COLUMNS,
    MARK_REASON,
    MARK_SELECT,
    MARK_SQL,
    MARK_SQL_LIKE,
    MARK_VALUES,
    SELECT_CONTENT_PREFIX,
    question_header,
    split_marked_sections,
)
from .gateway import Gateway, LlmConfig

VALUES_HEADER = "/* Relevant values */"
RULES_HEADER = "/* Rules */"

COT_INSTRUCTIONS = "\n".join(
    [
        "Reply with exactly these marked lines:",
        f"{MARK_REASON} step-by-step thinking about the tables, columns and conditions",
        f"{MARK_COLUMNS} the table.column names used, comma separated",
        f"{MARK_VALUES} the literal comparisons used, comma separated; write none if there are none",
        f"{MARK_SQL_LIKE} the query in one line with every JOIN clause removed",
        f"{MARK_SQL} the final SQLite query in one line",
    ]
)

SQL_ONLY_INSTRUCTIONS = (
    "Reply with the final SQLite query only, in one line, with no commentary."
)

DEFAULT_RULES: tuple[str, ...] = (
    "For parts involving division that contain integer types, CAST them to REAL",
    "Return exactly the columns the question asks for, in the order asked",
    "Compare string values against their stored spelling",
    "When ranking by a column, exclude rows where that column is NULL",
)

_JOIN_WORD = re.compile(r"\bJOIN\b", re.IGNORECASE)


@dataclass
class CoTOutput:
    sql: str
    reason: str = ""
    columns: list[str] = field(default_factory=list)
    values: str = ""
    select_clause: str = ""
    sql_like: str = ""

    def lint(self) -> list[str]:
        """Cheap consistency checks between the block's own parts."""
        problems = []
        if self.sql_like and _JOIN_WORD.search(self.sql_like):
            problems.append("sql_like_contains_join")
        if not self.columns:
            problems.append("columns_missing")
        return problems


def format_value_line(table: str, column: str, text: str) -> str:
    return f"{table}.{column} = '" + text.replace("'", "''") + "'"


def build_generation_prompt(
    question: str,
    schema_text: str,
    evidence: str = "",
    fewshot_text: str = "",
    value_lines: Sequence[str] = (),
    select_content: Optional[str] = None,
    use_cot: bool = True,
) -> str:
    """Assemble the generation prompt.

    Block order: demonstrations, schema, retrieved values, rules,
    reply-format instructions, then the question header the model is
    expected to continue from.
    """
    parts: list[str] = []
    if fewshot_text:
        parts.append(fewshot_text)
    parts.append(schema_text)
    if value_lines:
        parts.append("\n".join([VALUES_HEADER, *value_lines]))
    parts.append("\n".join([RULES_HEADER, *[f"- {rule}" for rule in DEFAULT_RULES]]))
    parts.append(COT_INSTRUCTIONS if use_cot else SQL_ONLY_INSTRUCTIONS)
    asked = f"{question} {evidence}".strip() if evidence else question
    header = question_header(asked)
    if select_content is not None:
        header += f"\n{SELECT_CONTENT_PREFIX}[{select_content}]"
    parts.append(header)
    return "\n\n".join(parts)


def _strip_code_fences(text: str) -> str:
    if "```" not in text:
        return text
    return "\n".join(
        line for line in text.splitlines() if not line.strip().startswith("```")
    )


def split_columns(text: str) -> list[str]:
    """Split a #columns payload on commas that sit outside backquotes."""
    items: list[str] = []
    current: list[str] = []
    in_quote = False
    for ch in text:
        if ch == "`":
            in_quote = not in_quote
            current.append(ch)
        elif ch == "," and not in_quote:
            items.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    items.append("".join(current).strip())
    return [item for item in items if item]


def parse_cot(reply: str) -> CoTOutput:
    """Parse a marker-block reply; the SQL line is the only hard need."""
    cleaned = _strip_code_fences(reply)
    sections = split_marked_sections(cleaned, COT_MARKERS)
    sql = sections.get(MARK_SQL, "").strip()
    if not sql:
        raise CotParseError("reply has no #SQL line", raw_reply=reply)
    return CoTOutput(
        sql=sql,
        reason=sections.get(MARK_REASON, ""),
        columns=split_columns(sections.get(MARK_COLUMNS, "")),
        values=sections.get(MARK_VALUES, ""),
        select_clause=sections.get(MARK_SELECT, ""),
        sql_like=sections.get(MARK_SQL_LIKE, ""),
    )


def render_cot(cot: CoTOutput) -> str:
    """Inverse of `parse_cot` for well-formed blocks."""
    lines = []
    if cot.reason:
        lines.append(f"{MARK_REASON} {cot.reason}")
    if cot.columns:
        lines.append(f"{MARK_COLUMNS} {', '.join(cot.columns)}")
    if cot.values:
        lines.append(f"{MARK_VALUES} {cot.values}")
    if cot.select_clause:
        lines.append(f"{MARK_SELECT} {cot.select_clause}")
    if cot.sql_like:
        lines.append(f"{MARK_SQL_LIKE} {cot.sql_like}")
    lines.append(f"{MARK_SQL} {cot.sql}")
    return "\n".join(lines)


def parse_plain_sql(reply: str) -> CoTOutput:
    """Parse a SQL-only reply; marker blocks are tolerated and mined."""
    cleaned = _strip_code_fences(reply)
    if MARK_SQL in cleaned:
        sections = split_marked_sections(cleaned, COT_MARKERS)
        sql = sections.get(MARK_SQL, "").strip()
    else:
        sql = cleaned.strip()
    if not sql:
        raise CotParseError("reply has no SQL", raw_reply=reply)
    return CoTOutput(sql=sql)


@dataclass
class GenerationResult:
    candidates: list[CoTOutput]
    parse_failures: int = 0


def generate_candidates(
    gateway: Gateway,
    prompt: str,
    llm: Optional[LlmConfig] = None,
    stage: Optional[str] = None,
    use_cot: bool = True,
) -> GenerationResult:
    """Sample `llm.n_samples` candidates and keep the parseable ones, in reply order.

    Each distinct text is parsed once; samples with one text share its `CoTOutput`.
    """
    completion = gateway.complete(prompt, llm or LlmConfig(), stage=stage)
    parser = parse_cot if use_cot else parse_plain_sql
    parsed: dict[str, Optional[CoTOutput]] = {}
    for text in dict.fromkeys(completion.texts):
        try:
            parsed[text] = parser(text)
        except CotParseError:
            parsed[text] = None
    candidates = [parsed[text] for text in completion.texts if parsed[text] is not None]
    failures = len(completion.texts) - len(candidates)
    if not candidates:
        raise GenerationError(
            f"none of {len(completion.texts)} samples contained a SQL line"
        )
    return GenerationResult(candidates=candidates, parse_failures=failures)
