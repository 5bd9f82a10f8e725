"""Few-shot store: masked retrieval, CoT augmentation, correction shots.

Demonstrations are selected by similarity between *masked* questions:
literals, dates and numbers are replaced by placeholders first, so two
questions that differ only in the year or name they mention count as the
same shape.

A demonstration pairs a question with its gold SQL plus a reasoning
block in the same marker format the generator must produce.  The block
is written by the model itself once, offline ("write the reasoning that
leads to this known answer"), validated, and stored; the gold SQL is
never altered by that step.  Shots whose reasoning cannot be produced
degrade to question + SQL only instead of being dropped.

This module also owns the marker constants and the section splitter so
generation and refinement agree on the wire format.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .embedding import Embedder, SparseRows, TrigramEmbedder, dense_parts, probe_nonzeros
from .errors import CotParseError, EmbeddingError, GatewayError, IngestError, read_json_lines
from .gateway import Gateway, LlmConfig

# Prompt wire format.  Generated replies are parsed by these exact
# line-initial markers; changing one is a protocol change.
SCHEMA_HEADER = "/* Database schema */"
QUESTION_PREFIX = "/* Answer the following:"
QUESTION_SUFFIX = " */"
MARK_REASON = "#reason:"
MARK_COLUMNS = "#columns:"
MARK_VALUES = "#values:"
MARK_SELECT = "#SELECT:"
MARK_SQL_LIKE = "#SQL-like:"
MARK_SQL = "#SQL:"

COT_MARKERS = (
    MARK_REASON,
    MARK_COLUMNS,
    MARK_VALUES,
    MARK_SELECT,
    MARK_SQL_LIKE,
    MARK_SQL,
)

CORRECTION_HEADER = "/* Fix the SQL and answer the question */"
MARK_QUESTION = "#question:"
MARK_ERROR_SQL = "#Error SQL:"
MARK_CHANGE_AMBIGUITY = "#Change Ambiguity:"
EMPTY_RESULT_TEXT = "Error: Result: None"

SELECT_CONTENT_PREFIX = "SELECT content: "
AUGMENT_RETRIES = 2  # further model calls when an augment reply does not parse

FORMAT_NAME = "t2s-fewshot"
FORMAT_VERSION = 1


def question_header(question: str) -> str:
    return f"{QUESTION_PREFIX}{question}{QUESTION_SUFFIX}"


def split_marked_sections(text: str, markers: Sequence[str]) -> dict[str, str]:
    """Split reply text into marker-led sections.

    A section starts at a line whose stripped form begins with a marker
    and runs to the next marker line.  The first occurrence of each
    marker wins; later repeats are ignored so a rambling reply cannot
    overwrite an earlier answer.
    """
    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    seen: set[str] = set()
    for line in text.splitlines():
        stripped = line.strip()
        matched = None
        for marker in markers:
            if stripped.startswith(marker):
                matched = marker
                break
        if matched is not None:
            if matched in seen:
                current = None
                continue
            seen.add(matched)
            current = matched
            sections[matched] = [stripped[len(matched):].strip()]
            continue
        if current is not None:
            sections[current].append(line.rstrip())
    return {
        marker: "\n".join(lines).strip() for marker, lines in sections.items()
    }


# -- question masking -----------------------------------------------------

_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"")
_DATE = re.compile(
    r"\b(?:\d{4}[-/]\d{1,2}[-/]\d{1,2}|\d{1,2}[-/]\d{1,2}[-/]\d{2,4})\b"
)
_NUMBER = re.compile(r"\b\d+(?:\.\d+)?\b")


def mask_question(question: str) -> str:
    """Replace literals so questions compare by shape, not content.

    Quoted strings become <VAL>, dates <DATE>, remaining numbers <NUM>.
    A bare year is just a number.  Masking is idempotent because the
    placeholders contain nothing the patterns match.
    """
    masked = _QUOTED.sub("<VAL>", question)
    masked = _DATE.sub("<DATE>", masked)
    masked = _NUMBER.sub("<NUM>", masked)
    return masked


# -- data -----------------------------------------------------------------


@dataclass
class CoTBody:
    reason: str = ""
    columns: str = ""
    values: str = ""
    select: str = ""
    sql_like: str = ""


@dataclass
class FewShot:
    question: str
    sql: str
    cot: Optional[CoTBody] = None
    masked_question: str = ""
    vector: Optional[np.ndarray] = None
    db_id: str = ""

    def is_degraded(self) -> bool:
        return self.cot is None


@dataclass
class CorrectionShot:
    error_key: str
    body: str


def render_fewshot(shot: FewShot) -> str:
    """One demonstration block in the generation prompt format."""
    lines = [question_header(shot.question)]
    if shot.cot is not None:
        lines.append(f"{MARK_REASON} {shot.cot.reason}")
        lines.append(f"{MARK_COLUMNS} {shot.cot.columns}")
        lines.append(f"{MARK_VALUES} {shot.cot.values}")
        if shot.cot.select:
            lines.append(f"{MARK_SELECT} {shot.cot.select}")
        lines.append(f"{MARK_SQL_LIKE} {shot.cot.sql_like}")
    lines.append(f"{MARK_SQL} {shot.sql}")
    return "\n".join(lines)


def render_fewshots(shots: Sequence[FewShot]) -> str:
    return "\n\n".join(render_fewshot(shot) for shot in shots)


# -- CoT augmentation -----------------------------------------------------

_AUGMENT_INSTRUCTIONS = """\
You are given a question and the SQL that answers it.
Write the reasoning that leads from the question to this SQL, in exactly this format:
{reason} which tables and columns answer the question and why
{columns} the columns used, comma separated, each as table.column
{values} the literal comparisons used as table.column = 'value', comma separated; write none if there are none
{sql_like} the query in one line with every JOIN clause removed
{sql} the final SQL in one line, unchanged

Do not change the SQL.  Reply with the five marked lines only."""


def build_augment_prompt(question: str, sql: str, schema_text: str = "") -> str:
    parts = []
    if schema_text:
        parts.append(schema_text)
    parts.append(
        _AUGMENT_INSTRUCTIONS.format(
            reason=MARK_REASON,
            columns=MARK_COLUMNS,
            values=MARK_VALUES,
            sql_like=MARK_SQL_LIKE,
            sql=MARK_SQL,
        )
    )
    parts.append(question_header(question))
    parts.append(f"{MARK_SQL} {sql}")
    return "\n\n".join(parts)


def _parse_augment_reply(reply: str) -> CoTBody:
    sections = split_marked_sections(reply, COT_MARKERS)
    required = (MARK_REASON, MARK_COLUMNS, MARK_VALUES, MARK_SQL_LIKE, MARK_SQL)
    missing = [marker for marker in required if marker not in sections]
    if missing:
        raise CotParseError(
            f"reply lacks {', '.join(missing)}", raw_reply=reply
        )
    return CoTBody(
        reason=sections[MARK_REASON],
        columns=sections[MARK_COLUMNS],
        values=sections[MARK_VALUES],
        select=sections.get(MARK_SELECT, ""),
        sql_like=sections[MARK_SQL_LIKE],
    )


def augment_cot(
    question: str,
    sql: str,
    gateway: Gateway,
    config: Optional[LlmConfig] = None,
    schema_text: str = "",
    db_id: str = "",
    stage: Optional[str] = None,
) -> FewShot:
    """Turn a (question, gold SQL) pair into a stored demonstration.

    The gold SQL is kept verbatim no matter what the model writes.  If
    no parseable reasoning block arrives after `AUGMENT_RETRIES` retries,
    the shot is stored degraded (question and SQL only).  The shot's vector
    is left unset; `FewShotLibrary.select_fewshots` fills it in.
    """
    config = config or LlmConfig(temperature=0.0)
    prompt = build_augment_prompt(question, sql, schema_text)
    cot: Optional[CoTBody] = None
    for _attempt in range(AUGMENT_RETRIES + 1):
        try:
            completion = gateway.complete(prompt, config, stage=stage)
        except GatewayError:
            break
        try:
            cot = _parse_augment_reply(completion.texts[0])
            break
        except CotParseError:
            continue
    return FewShot(
        question=question,
        sql=sql,
        cot=cot,
        masked_question=mask_question(question),
        db_id=db_id,
    )


# -- correction templates -------------------------------------------------


def _correction(error_key: str, question: str, error_sql: str, error_line: str,
                values: str, ambiguity: str, fixed_sql: str) -> CorrectionShot:
    body = "\n".join(
        [
            CORRECTION_HEADER,
            f"{MARK_QUESTION} {question}",
            f"{MARK_ERROR_SQL} {error_sql}",
            error_line,
            f"{MARK_VALUES} {values}",
            f"{MARK_CHANGE_AMBIGUITY} {ambiguity}",
            f"{MARK_SQL} {fixed_sql}",
        ]
    )
    return CorrectionShot(error_key=error_key, body=body)


DEFAULT_CORRECTIONS: dict[str, list[CorrectionShot]] = {
    "syntax": [
        _correction(
            "syntax",
            "How many students enrolled after 2019?",
            "SELECT COUNT(*) FROM students WHERE enroll_year > 2019 GROUP BY",
            'Error: near "GROUP": syntax error',
            "none",
            "the trailing GROUP BY names no column and a plain count needs no grouping",
            "SELECT COUNT(*) FROM students WHERE enroll_year > 2019",
        )
    ],
    "empty_result": [
        _correction(
            "empty_result",
            "List the names of clubs located in 'Davis'.",
            "SELECT name FROM club WHERE city = 'davis'",
            EMPTY_RESULT_TEXT,
            "club.city = 'Davis'",
            "the stored city is spelled 'Davis'; compare against the stored spelling",
            "SELECT name FROM club WHERE city = 'Davis'",
        )
    ],
    "timeout": [
        _correction(
            "timeout",
            "Name every customer with at least one order.",
            "SELECT DISTINCT c.name FROM customers c, orders o WHERE c.name IS NOT NULL",
            "Error: Timeout",
            "none",
            "the tables are not joined on a key, so every row pairs with every row",
            "SELECT DISTINCT c.name FROM customers c INNER JOIN orders o ON c.id = o.customer_id",
        )
    ],
    "schema_mismatch": [
        _correction(
            "schema_mismatch",
            "How many students enrolled in 2020?",
            "SELECT COUNT(*) FROM students WHERE yr = 2020",
            "Error: no such column: yr",
            "none",
            "the schema declares enroll_year, not yr",
            "SELECT COUNT(*) FROM students WHERE enroll_year = 2020",
        )
    ],
    "other": [
        _correction(
            "other",
            "What is the average order value?",
            "SELECT AVG(amount) FROM orders WHERE amount = 'high'",
            "Error: the result does not answer the question",
            "none",
            "amount is numeric; comparing it to a word filters out every row",
            "SELECT AVG(amount) FROM orders",
        )
    ],
}


# -- library --------------------------------------------------------------


@dataclass
class FewShotLibrary:
    shots: list[FewShot] = field(default_factory=list)
    # The pool vectors last scored and their store, reused while the pool
    # holds the same vector objects.
    _pool_store: Optional[tuple[list[np.ndarray], SparseRows]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def select_fewshots(
        self,
        question: str,
        k: int,
        embedder: Optional[Embedder] = None,
        restrict_db: Optional[str] = None,
    ) -> list[FewShot]:
        """Top-k shots by masked-question similarity; [] when k is 0."""
        if k <= 0 or not self.shots:
            return []
        embedder = embedder or TrigramEmbedder()
        query = probe_nonzeros(embedder, [mask_question(question)])
        if not query[0]:
            raise EmbeddingError(f"question {question!r} masks to nothing to embed")
        pool = [
            shot
            for shot in self.shots
            if restrict_db is None or shot.db_id == restrict_db
        ]
        for shot in pool:
            if shot.vector is None:
                shot.vector = embedder.embed(mask_question(shot.question))
        vectors = [shot.vector for shot in pool]
        cached = self._pool_store
        if (
            cached is None
            or len(cached[0]) != len(vectors)
            or any(map(operator.is_not, cached[0], vectors))
        ):
            store = SparseRows(dense_parts(vectors, embedder.dim), len(vectors), embedder.dim)
            cached = self._pool_store = (vectors, store)
        scores = cached[1].best_scores(query)
        # Ties keep library order, which pool positions follow.
        return [pool[j] for j in np.lexsort((np.arange(len(pool)), -scores))[:k]]

    def correction_shots(self, error_key: str) -> list[CorrectionShot]:
        return list(DEFAULT_CORRECTIONS.get(error_key) or DEFAULT_CORRECTIONS["other"])

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the shots as text; vectors and correction shots are derived."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
            handle.write(json.dumps(header) + "\n")
            for shot in self.shots:
                record = {
                    "type": "shot",
                    "question": shot.question,
                    "sql": shot.sql,
                    "masked_question": shot.masked_question,
                    "db_id": shot.db_id,
                    "cot": None if shot.cot is None else asdict(shot.cot),
                }
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FewShotLibrary":
        _, *records = read_json_lines(
            path, IngestError, "few-shot library",
            header=(FORMAT_NAME, FORMAT_VERSION, "t2s fewshot"),
        )
        shots: list[FewShot] = []
        for lineno, record in records:
            try:
                kind = record["type"]
                if kind == "shot":
                    shots.append(_read_shot(record))
                elif kind != "correction":  # older files repeat DEFAULT_CORRECTIONS
                    raise ValueError(f"unknown record type {kind!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise IngestError(f"bad few-shot record at line {lineno}: {exc}") from exc
        return cls(shots=shots)


def _read_shot(record: dict) -> FewShot:
    """The demonstration a `shot` record holds; TypeError if a field is not text."""
    cot = record.get("cot")
    if cot is not None:
        if not isinstance(cot, dict):
            raise TypeError("cot must be null or an object")
        cot = CoTBody(**{f.name: cot.get(f.name, "") for f in fields(CoTBody)})
    shot = FewShot(record["question"], record["sql"], cot,
                   masked_question=record.get("masked_question", ""), db_id=record.get("db_id", ""))
    texts = [shot.question, shot.sql, shot.masked_question, shot.db_id]
    if cot is not None:
        texts += vars(cot).values()
    if not all(isinstance(text, str) for text in texts):
        raise TypeError("question, sql, masked_question, db_id and the cot fields must be text")
    return shot
