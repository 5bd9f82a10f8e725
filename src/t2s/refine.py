"""Execution-guided refinement: run, classify, correct, vote.

A candidate is only as good as what it returns.  This module executes
candidates read-only with a deadline, sorts failures into a small error
taxonomy, asks the model for a repair with an error-specific
demonstration, and finally picks the answer most candidates agree on.

The correction loop is defensive by construction: the repaired SQL is
re-aligned and re-executed, and if it lands in a strictly worse state
than what it replaced (working rows becoming an error, an empty result
becoming a syntax error) the repair is thrown away.  A model that
cannot fix a query must not be allowed to break it further.
"""

from __future__ import annotations

import sqlite3
import statistics
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from .alignment import AlignmentContext, align_statement
from .errors import GatewayError, VoteError
from .fewshot import (
    CORRECTION_HEADER,
    EMPTY_RESULT_TEXT,
    FewShotLibrary,
    MARK_CHANGE_AMBIGUITY,
    MARK_ERROR_SQL,
    MARK_QUESTION,
    MARK_SQL,
    MARK_VALUES,
    split_marked_sections,
)
from .gateway import Gateway, LlmConfig


class ErrorType(str, Enum):
    SYNTAX = "syntax"
    EMPTY_RESULT = "empty_result"
    TIMEOUT = "timeout"
    SCHEMA_MISMATCH = "schema_mismatch"
    OTHER = "other"


# How bad each state is, for the regression check in `correct`.
# Healthy rows (None) beat an empty result, which beats any error.
_SEVERITY = {
    None: 0,
    ErrorType.EMPTY_RESULT: 1,
    ErrorType.SYNTAX: 2,
    ErrorType.TIMEOUT: 2,
    ErrorType.SCHEMA_MISMATCH: 2,
    ErrorType.OTHER: 2,
}

DEFAULT_TIMEOUT_S = 30.0

_READ_KEYWORDS = ("SELECT", "WITH", "VALUES")


@dataclass
class ExecutionOutcome:
    status: str  # "Rows" | "Error" | "Timeout"
    rows: tuple[tuple, ...] = ()
    error_text: str = ""
    elapsed: float = 0.0


def _first_keyword(sql: str) -> str:
    text = sql.lstrip()
    while True:
        if text.startswith("--"):
            newline = text.find("\n")
            if newline < 0:
                return ""
            text = text[newline + 1 :].lstrip()
            continue
        if text.startswith("/*"):
            end = text.find("*/")
            if end < 0:
                return ""
            text = text[end + 2 :].lstrip()
            continue
        break
    word = ""
    for ch in text:
        if ch.isalpha():
            word += ch
        else:
            break
    return word.upper()


def execute_sql(
    db_path: str | Path,
    sql: str,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    repeats: int = 1,
) -> ExecutionOutcome:
    """Run one read query with a wall-clock deadline.

    Only SELECT/WITH/VALUES statements are executed; anything else is
    rejected without touching the database, and the connection is
    opened read-only as a second line of defense.

    With `repeats` > 1 a query that returns rows is run again and the
    reported elapsed time is the median of the runs that returned rows.
    Status and rows are the first run's; a failed repeat ends the
    repeats.  The vote's tie-break and the efficiency score read that
    time, so the pipeline asks for repeats only for the tie-break.
    """
    if _first_keyword(sql) not in _READ_KEYWORDS:
        return ExecutionOutcome(
            status="Error", error_text="only read queries are executed"
        )
    outcome = _execute_once(db_path, sql, timeout_s)
    if outcome.status == "Rows" and repeats > 1:
        timings = [outcome.elapsed]
        for _ in range(repeats - 1):
            again = _execute_once(db_path, sql, timeout_s)
            if again.status != "Rows":
                break
            timings.append(again.elapsed)
        outcome.elapsed = statistics.median(timings)
    return outcome


def _execute_once(db_path: str | Path, sql: str, timeout_s: float) -> ExecutionOutcome:
    deadline = time.perf_counter() + timeout_s
    start = time.perf_counter()
    try:
        conn = sqlite3.connect(f"file:{Path(db_path)}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        return ExecutionOutcome(status="Error", error_text=str(exc))
    try:
        conn.set_progress_handler(
            lambda: 1 if time.perf_counter() > deadline else 0, 2000
        )
        try:
            cursor = conn.execute(sql)
            rows = tuple(tuple(row) for row in cursor.fetchall())
        except sqlite3.OperationalError as exc:
            elapsed = time.perf_counter() - start
            if "interrupted" in str(exc).lower() or time.perf_counter() > deadline:
                return ExecutionOutcome(
                    status="Timeout", error_text="Timeout", elapsed=elapsed
                )
            return ExecutionOutcome(status="Error", error_text=str(exc), elapsed=elapsed)
        except sqlite3.Error as exc:
            elapsed = time.perf_counter() - start
            return ExecutionOutcome(status="Error", error_text=str(exc), elapsed=elapsed)
        elapsed = time.perf_counter() - start
        return ExecutionOutcome(status="Rows", rows=rows, elapsed=elapsed)
    finally:
        conn.close()


def is_empty_rows(rows: Sequence[Sequence]) -> bool:
    """No rows, or nothing but NULL in every cell."""
    if len(rows) == 0:
        return True
    return all(cell is None for row in rows for cell in row)


def classify_error(outcome: ExecutionOutcome) -> Optional[ErrorType]:
    """Sort an outcome into the correction taxonomy; None means healthy."""
    if outcome.status == "Timeout":
        return ErrorType.TIMEOUT
    if outcome.status == "Error":
        text = outcome.error_text.lower()
        if "syntax error" in text or "unrecognized token" in text or "incomplete input" in text:
            return ErrorType.SYNTAX
        if (
            "no such table" in text
            or "no such column" in text
            or "ambiguous column" in text
            or "no such function" in text
        ):
            return ErrorType.SCHEMA_MISMATCH
        return ErrorType.OTHER
    if is_empty_rows(outcome.rows):
        return ErrorType.EMPTY_RESULT
    return None


def severity(error: Optional[ErrorType]) -> int:
    return _SEVERITY[error]


# -- answer canonicalization ----------------------------------------------


def _canonical_cell(cell):
    if isinstance(cell, bool):
        return round(float(cell), 6)
    if isinstance(cell, (int, float)):
        return round(float(cell), 6)
    if isinstance(cell, str):
        try:
            return round(float(cell), 6)
        except ValueError:
            return cell
    return cell


def answer_key(rows: Sequence[Sequence], ordered: bool = False):
    """Hashable canonical form of a result set.

    Numbers (and numeric strings) are rounded to 6 decimals so float
    jitter and TEXT-affinity columns do not split agreeing candidates.
    Unordered keys sort rows by repr, which is total even across mixed
    cell types.
    """
    canonical = [tuple(_canonical_cell(cell) for cell in row) for row in rows]
    if not ordered:
        canonical.sort(key=repr)
    return tuple(canonical)


# -- voting ---------------------------------------------------------------


@dataclass
class VoteCandidate:
    sql: str
    outcome: ExecutionOutcome


@dataclass
class VoteResult:
    winner_index: int
    winner_sql: str
    group_indices: list[int]
    group_size: int
    eligible: int
    excluded: int
    fallback: bool


def vote_detail(candidates: Sequence[VoteCandidate]) -> VoteResult:
    """Majority vote over execution answers.

    Candidates that errored, timed out, or returned an empty result do
    not get a say.  The largest agreeing group wins; between equal-size
    groups the one containing the earliest candidate wins; inside the
    winning group the fastest candidate by `outcome.elapsed` wins, the
    earliest of equally fast ones.  `run_pipeline` measures that time
    only for a group of two or more distinct SQL strings.  When nobody
    is eligible the first candidate is returned, flagged as a fallback.
    """
    if not candidates:
        raise VoteError("no candidates to vote over")
    eligible = [
        i
        for i, candidate in enumerate(candidates)
        if candidate.outcome.status == "Rows"
        and not is_empty_rows(candidate.outcome.rows)
    ]
    if not eligible:
        return VoteResult(
            winner_index=0,
            winner_sql=candidates[0].sql,
            group_indices=[],
            group_size=0,
            eligible=0,
            excluded=len(candidates),
            fallback=True,
        )
    groups: dict = {}
    for i in eligible:
        key = answer_key(candidates[i].outcome.rows)
        groups.setdefault(key, []).append(i)
    best_group = max(groups.values(), key=lambda idx: (len(idx), -min(idx)))
    winner = min(
        best_group,
        key=lambda i: (candidates[i].outcome.elapsed, i),
    )
    return VoteResult(
        winner_index=winner,
        winner_sql=candidates[winner].sql,
        group_indices=list(best_group),
        group_size=len(best_group),
        eligible=len(eligible),
        excluded=len(candidates) - len(eligible),
        fallback=False,
    )


def vote(candidates: Sequence[VoteCandidate]) -> int:
    return vote_detail(candidates).winner_index


# -- correction -----------------------------------------------------------


def build_correction_prompt(
    question: str,
    sql: str,
    outcome: ExecutionOutcome,
    error: ErrorType,
    library: FewShotLibrary,
    schema_text: str = "",
    value_lines: Sequence[str] = (),
    include_shots: bool = True,
) -> str:
    """Error-specific demonstrations followed by the failing case."""
    shots = library.correction_shots(error.value) if include_shots else []
    parts = [shot.body for shot in shots]
    if schema_text:
        parts.append(schema_text)
    if error is ErrorType.EMPTY_RESULT:
        error_line = EMPTY_RESULT_TEXT
    elif error is ErrorType.TIMEOUT:
        error_line = "Error: Timeout"
    else:
        error_line = f"Error: {outcome.error_text}"
    values_text = "\n".join(value_lines) if value_lines else "none"
    parts.append(
        "\n".join(
            [
                CORRECTION_HEADER,
                f"{MARK_QUESTION} {question}",
                f"{MARK_ERROR_SQL} {sql}",
                error_line,
                f"{MARK_VALUES} {values_text}",
                f"{MARK_CHANGE_AMBIGUITY}",
            ]
        )
    )
    return "\n\n".join(parts)


class Memo(dict):
    """One question's outcomes by key, and the lock `memoized` takes."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()


def memoized(memo: Optional[Memo], key: tuple, compute: Callable):
    """`compute()`, once per `key` in `memo`; every call without a memo.

    `run_pipeline` keeps one memo per question, keyed by ("align", raw
    SQL) and ("execute", SQL), so each distinct statement is aligned and
    executed once and every candidate holding it shares the outcome.
    Check and compute hold `memo.lock`: chains on several threads still
    run each statement once, and never two alignments or executions at once.
    """
    if memo is None:
        return compute()
    with memo.lock:
        if key not in memo:
            memo[key] = compute()
        return memo[key]


@dataclass
class CorrectionResult:
    sql: str
    outcome: ExecutionOutcome
    rounds: int = 0
    flags: list[str] = field(default_factory=list)
    history: list[tuple[str, str]] = field(default_factory=list)  # (sql, status)


def correct(
    question: str,
    sql: str,
    outcome: ExecutionOutcome,
    db_path: str | Path,
    library: FewShotLibrary,
    gateway: Gateway,
    align_ctx: Optional[AlignmentContext] = None,
    schema_text: str = "",
    value_lines: Sequence[str] = (),
    llm: Optional[LlmConfig] = None,
    max_rounds: int = 2,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    stage_prefix: Optional[str] = None,
    include_shots: bool = True,
    memo: Optional[Memo] = None,
) -> CorrectionResult:
    """Repair a failing candidate, never accepting a worse state.

    Each round: classify, prompt with a matching demonstration, align
    the proposed SQL, execute it, and keep it only if it is no worse
    than what we had.  Stops early when healthy, when the model has
    nothing parseable to offer, or when a repair regresses.  A repair
    found in the question's `memo` (see `memoized`) is not run again.
    Calls on several threads share only the memo, which takes a lock.
    """
    llm_config = (llm or LlmConfig()).with_(n_samples=1)
    result = CorrectionResult(sql=sql, outcome=outcome)
    for round_no in range(1, max_rounds + 1):
        error = classify_error(result.outcome)
        if error is None:
            break
        prompt = build_correction_prompt(
            question,
            result.sql,
            result.outcome,
            error,
            library,
            schema_text=schema_text,
            value_lines=value_lines,
            include_shots=include_shots,
        )
        stage = f"{stage_prefix}:round{round_no}" if stage_prefix else None
        try:
            completion = gateway.complete(prompt, llm_config, stage=stage)
        except GatewayError:
            result.flags.append("correction_gateway_failed")
            break
        sections = split_marked_sections(
            completion.texts[0], (MARK_CHANGE_AMBIGUITY, MARK_SQL)
        )
        new_sql = sections.get(MARK_SQL, "").strip()
        if not new_sql:
            result.flags.append("correction_unparseable")
            break
        result.rounds = round_no
        if align_ctx is not None:
            align = partial(align_statement, new_sql, align_ctx)
            new_sql = memoized(memo, ("align", new_sql), align).sql_out
        run = partial(execute_sql, db_path, new_sql, timeout_s=timeout_s)
        new_outcome = memoized(memo, ("execute", new_sql), run)
        result.history.append((new_sql, new_outcome.status))
        if severity(classify_error(new_outcome)) > severity(error):
            result.flags.append(f"correction_reverted:round{round_no}")
            break
        result.sql = new_sql
        result.outcome = new_outcome
    return result
