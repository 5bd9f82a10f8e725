"""Execution-guided refinement: run, classify, correct, vote.

A candidate is only as good as what it returns.  This module executes
candidates read-only with a deadline, sorts failures into a small error
taxonomy, asks the model for a repair with an error-specific
demonstration, and finally picks the answer most candidates agree on.
Each thread keeps one read-only connection to the database it last
read, so SQLite's page cache stays warm from one query to the next.

The correction loop is defensive by construction: the repaired SQL is
re-aligned and re-executed, and if it lands in a strictly worse state
than what it replaced (working rows becoming an error, an empty result
becoming a syntax error) the repair is thrown away.  A model that
cannot fix a query must not be allowed to break it further.
"""

from __future__ import annotations

import os
import sqlite3
import statistics
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Sequence

from .alignment import AlignmentContext, AlignmentOutcome, align_statement
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
from .schema import connect_read_only


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
) -> ExecutionOutcome:
    """Run one read query once, with a wall-clock deadline.

    Only SELECT/WITH/VALUES statements are executed; anything else is
    rejected without touching the database, and the connection is
    opened read-only as a second line of defense.

    The query runs on the calling thread's held connection, which is
    reopened only when the thread reads another file, or a file that
    replaced the one it held (a new `st_dev`/`st_ino`).  Each query gets
    its own deadline, and no statement stays open after it, so another
    process can write between two queries and the next one sees the
    write.  `elapsed` times the query alone, not the opening of the
    connection.  Runs with repeats go through `SqlSession.time`.
    """
    if _first_keyword(sql) not in _READ_KEYWORDS:
        return ExecutionOutcome(
            status="Error", error_text="only read queries are executed"
        )
    return _execute_once(db_path, sql, timeout_s)


class _HeldConnection(threading.local):
    """One thread's read-only connection to the database file it last read."""

    key: Optional[tuple] = None  # (absolute path, st_dev, st_ino)
    conn: Optional[sqlite3.Connection] = None


_held = _HeldConnection()


def _connection(db_path: str | Path) -> sqlite3.Connection:
    """This thread's held connection to `db_path`, reopened when the file changed.

    The file is known by its path and its (st_dev, st_ino), so a database
    replaced at the same path is opened afresh rather than read through
    the handle of the file it replaced.  The old connection is closed
    first: a thread holds at most one.
    """
    path = os.path.abspath(db_path)
    try:
        info = os.stat(path)
        key = (path, info.st_dev, info.st_ino)
    except OSError:
        key = None  # let SQLite report the missing file
    if key is None or key != _held.key:
        if _held.conn is not None:
            _held.conn.close()
            _held.key = _held.conn = None
        _held.conn = connect_read_only(path)
        _held.key = key
    return _held.conn


def _execute_once(db_path: str | Path, sql: str, timeout_s: float) -> ExecutionOutcome:
    try:
        conn = _connection(db_path)
    except sqlite3.Error as exc:
        return ExecutionOutcome(status="Error", error_text=str(exc))
    start = time.perf_counter()
    deadline = start + timeout_s
    conn.set_progress_handler(lambda: 1 if time.perf_counter() > deadline else 0, 2000)
    cursor = None
    try:
        cursor = conn.execute(sql)
        rows = tuple(tuple(row) for row in cursor.fetchall())
    except sqlite3.OperationalError as exc:
        elapsed = time.perf_counter() - start
        if "interrupted" in str(exc).lower() or time.perf_counter() > deadline:
            return ExecutionOutcome(status="Timeout", error_text="Timeout", elapsed=elapsed)
        return ExecutionOutcome(status="Error", error_text=str(exc), elapsed=elapsed)
    except sqlite3.Error as exc:
        elapsed = time.perf_counter() - start
        return ExecutionOutcome(status="Error", error_text=str(exc), elapsed=elapsed)
    finally:
        # The held connection keeps no statement open, so it holds no read
        # lock between queries, and no deadline carries over to the next.
        if cursor is not None:
            cursor.close()
        conn.set_progress_handler(None, 0)
    elapsed = time.perf_counter() - start
    return ExecutionOutcome(status="Rows", rows=rows, elapsed=elapsed)


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
    # Candidates that share an outcome object share its key, worked out once.
    keys: dict[int, tuple] = {}
    groups: dict = {}
    for i in eligible:
        outcome = candidates[i].outcome
        if id(outcome) not in keys:
            keys[id(outcome)] = answer_key(outcome.rows)
        groups.setdefault(keys[id(outcome)], []).append(i)
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


class SqlSession:
    """One question's alignment, execution and timing, once per distinct SQL.

    One lock covers all three, so correction chains on several threads
    share every outcome and never run two statements at once.  Without
    an alignment context (`no_alignments`) `align` returns the statement
    unchanged.  `time` is the one place a statement runs more than once.
    """

    def __init__(self, db_path: str | Path, align_ctx: Optional[AlignmentContext] = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S):
        self.db_path, self.align_ctx, self.timeout_s = db_path, align_ctx, timeout_s
        self._done: dict = {}
        self._lock = threading.Lock()

    def _once(self, key: tuple, compute: Callable):
        with self._lock:
            if key not in self._done:
                self._done[key] = compute()
            return self._done[key]

    def align(self, sql: str) -> AlignmentOutcome:
        if self.align_ctx is None:
            return AlignmentOutcome(sql_in=sql, sql_out=sql, changed=False, flags=[])
        return self._once(("align", sql), lambda: align_statement(sql, self.align_ctx))

    def execute(self, sql: str) -> ExecutionOutcome:
        return self._once(("execute", sql),
                          lambda: execute_sql(self.db_path, sql, self.timeout_s))

    def time(self, sql: str, repeats: int) -> ExecutionOutcome:
        """The shared outcome, its `elapsed` the median of `repeats` runs.

        The run `execute` made counts as the first.  A statement that
        returns rows runs again until `repeats` runs or a failed one,
        which ends the repeats and is left out of the median; status and
        rows stay the first run's.  Each statement is timed once.
        """
        outcome = self.execute(sql)

        def repeat() -> ExecutionOutcome:
            timings = [outcome.elapsed]
            while outcome.status == "Rows" and len(timings) < repeats:
                again = execute_sql(self.db_path, sql, self.timeout_s)
                if again.status != "Rows":
                    break
                timings.append(again.elapsed)
            outcome.elapsed = statistics.median(timings)
            return outcome

        return self._once(("time", sql), repeat)


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
    session: SqlSession,
    library: FewShotLibrary,
    gateway: Gateway,
    schema_text: str = "",
    value_lines: Sequence[str] = (),
    llm: Optional[LlmConfig] = None,
    max_rounds: int = 2,
    stage_prefix: Optional[str] = None,
    include_shots: bool = True,
) -> CorrectionResult:
    """Repair a failing candidate, never accepting a worse state.

    Each round: classify, prompt with a matching demonstration, align
    the proposed SQL and execute it through the question's `session`,
    and keep it only if it is no worse than what we had.  Stops early
    when healthy, when the model has nothing parseable to offer, or
    when a repair regresses.  A repair the session already aligned or
    executed is not run again.  Calls on several threads share only
    the session, which takes a lock.
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
        new_sql = session.align(new_sql).sql_out
        new_outcome = session.execute(new_sql)
        result.history.append((new_sql, new_outcome.status))
        if severity(classify_error(new_outcome)) > severity(error):
            result.flags.append(f"correction_reverted:round{round_no}")
            break
        result.sql = new_sql
        result.outcome = new_outcome
    return result
