"""Benchmark harness: datasets, execution accuracy, efficiency score.

Execution accuracy (EX) compares what the predicted and gold queries
actually return.  Comparison is order-insensitive unless the gold query
itself orders its result at the top level, in which case row order is
part of the answer.  A gold query that fails to run excludes the task
from aggregates instead of silently counting against the prediction.
A task whose pipeline raises a `T2SError` is recorded with the error's
class and scores EX 0; the rest of the run goes on.

The efficiency score (R-VES) rewards a correct prediction by how its
runtime compares to gold, in fixed tiers of the ratio gold_time/pred_time;
an incorrect prediction scores zero.  Timings are medians over
`rves_repeats` runs in all, because single SQLite timings are noisy.
The tier table is embedded in every report so numbers stay
interpretable later.

`run_bench` scores each task through one `SqlSession`: EX compares the
rows the pipeline returned with one gold run, and R-VES times the gold
and the prediction through `SqlSession.time`.  A prediction identical
to the gold shares the gold's outcome, so it scores the 1.0 tier.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Optional, Sequence

from .errors import BenchError, SqlSyntaxError, T2SError, read_json
from .pipeline import ABLATION_FLAGS, Deps, PipelineConfig, PipelineResult, run_pipeline
from .refine import ExecutionOutcome, SqlSession, answer_key
from .sql_ast import parse_select

REPORT_FORMAT = "t2s-report"
REPORT_VERSION = 2

# (minimum gold_time/pred_time ratio, reward); first match wins.
RVES_TIERS: tuple[tuple[float, float], ...] = (
    (2.0, 1.25),
    (1.0, 1.0),
    (0.5, 0.75),
    (0.25, 0.5),
    (0.0, 0.25),
)

DEFAULT_RVES_REPEATS = 5


@dataclass(frozen=True)
class Task:
    question_id: str
    db_id: str
    question: str
    gold_sql: str
    evidence: str = ""
    difficulty: str = "unknown"


def load_dataset(path: str | Path) -> list[Task]:
    """Read a task list; both benchmark spellings of the SQL key work.

    Accepts entries with `SQL` + `evidence` or with `query`; order is
    preserved.  A malformed entry, or one whose question, db_id or SQL
    is not text, fails loudly with its index.  `question_id` may be a
    number, as BIRD writes it.
    """
    data = read_json(path, BenchError, "dataset")
    if not isinstance(data, list):
        raise BenchError(f"dataset {path} must be a JSON list")
    tasks: list[Task] = []
    for index, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise BenchError(f"dataset entry {index} is not an object")
        gold = entry.get("SQL") or entry.get("query")
        question = entry.get("question")
        db_id = entry.get("db_id")
        if not all(isinstance(text, str) and text for text in (gold, question, db_id)):
            raise BenchError(
                f"dataset entry {index} lacks question, db_id, or SQL/query as text"
            )
        evidence, difficulty = entry.get("evidence"), entry.get("difficulty")
        if not all(isinstance(text, (str, type(None))) for text in (evidence, difficulty)):
            raise BenchError(f"dataset entry {index} has evidence or difficulty not as text")
        tasks.append(
            Task(
                question_id=str(entry.get("question_id", index)),
                db_id=db_id,
                question=question,
                gold_sql=gold,
                evidence=evidence or "",
                difficulty=difficulty or "unknown",
            )
        )
    return tasks


def gold_has_order_by(sql: str) -> bool:
    """Does the gold query order its final result?"""
    try:
        statement = parse_select(sql)
    except SqlSyntaxError:
        return "ORDER BY" in sql.upper()
    return bool(statement.order_by)


@dataclass
class ExResult:
    match: bool
    ordered: bool = False
    gold_failed: bool = False
    pred_status: str = ""
    gold_rows: int = 0
    pred_rows: int = 0


def _compare_answers(gold_sql: str, gold: ExecutionOutcome, pred: ExecutionOutcome) -> ExResult:
    """Compare a prediction's outcome with the gold query's."""
    if gold.status != "Rows":
        return ExResult(match=False, gold_failed=True)
    if pred.status != "Rows":
        return ExResult(match=False, pred_status=pred.status, gold_rows=len(gold.rows))
    ordered = gold_has_order_by(gold_sql)
    match = answer_key(pred.rows, ordered=ordered) == answer_key(
        gold.rows, ordered=ordered
    )
    return ExResult(
        match=match,
        ordered=ordered,
        pred_status="Rows",
        gold_rows=len(gold.rows),
        pred_rows=len(pred.rows),
    )


def eval_ex(
    db_path: str | Path,
    pred_sql: str,
    gold_sql: str,
    timeout_s: float = 30.0,
) -> ExResult:
    """Execute both queries and compare their answers."""
    session = SqlSession(db_path, timeout_s=timeout_s)
    return _compare_answers(gold_sql, session.execute(gold_sql), session.execute(pred_sql))


def rves_reward(time_ratio: float) -> float:
    for minimum, reward in RVES_TIERS:
        if time_ratio >= minimum:
            return reward
    return RVES_TIERS[-1][1]


# -- full runs ------------------------------------------------------------


def run_bench(
    tasks: Sequence[Task],
    deps_by_db: dict[str, Deps],
    config: Optional[PipelineConfig] = None,
    with_rves: bool = True,
    rves_repeats: int = DEFAULT_RVES_REPEATS,
    jobs: int = 1,
    out_path: Optional[str | Path] = None,
) -> dict:
    """Run the pipeline over a task list and score it into a report.

    The report carries no timestamps, so identical runs produce
    identical documents up to measured timings.
    """
    config = config or PipelineConfig()
    for task in tasks:
        if task.db_id not in deps_by_db:
            raise BenchError(f"no database registered for db_id {task.db_id!r}")

    def solve(task: Task) -> tuple[PipelineResult, Optional[str]]:
        try:
            return run_pipeline(
                task.question,
                deps_by_db[task.db_id],
                config,
                evidence=task.evidence,
                question_id=task.question_id,
            ), None
        except T2SError as exc:
            failed = PipelineResult(task.question, sql="", status="Failed", rows=(),
                                    winner_index=-1, candidates=[], trace={})
            return failed, type(exc).__name__

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(solve, tasks))
    else:
        results = [solve(task) for task in tasks]

    task_entries = []
    for task, (result, error) in zip(tasks, results):
        session = SqlSession(deps_by_db[task.db_id].db_path,
                             timeout_s=config.execution_timeout_s)
        ex = _compare_answers(task.gold_sql, session.execute(task.gold_sql),
                              ExecutionOutcome(status=result.status, rows=result.rows))
        entry = {
            "question_id": task.question_id,
            "db_id": task.db_id,
            "difficulty": task.difficulty,
            "question": task.question,
            "sql": result.sql,
            "status": result.status,
            "error": error,
            "gold_failed": ex.gold_failed,
            "ex": bool(ex.match),
            "ordered_comparison": ex.ordered,
            "winner_index": result.winner_index,
            "n_candidates": len(result.candidates),
            "trace_stages": list(result.trace.keys()),
        }
        if with_rves:
            # Zero unless correct; an identical prediction shares the gold's timing.
            entry["rves"] = 0.0
            if ex.match:
                gold = session.time(task.gold_sql, rves_repeats)
                pred = session.time(result.sql, rves_repeats)
                if pred.status == "Rows":
                    ratio = gold.elapsed / pred.elapsed if pred.elapsed > 0 else inf
                    entry["rves"] = rves_reward(ratio)
        task_entries.append(entry)

    scored = [e for e in task_entries if not e["gold_failed"]]

    def aggregate(entries: list[dict]) -> dict:
        n = len(entries)
        out = {
            "n": n,
            "ex": round(sum(e["ex"] for e in entries) / n, 6) if n else 0.0,
        }
        if with_rves:
            out["rves"] = (
                round(sum(e["rves"] for e in entries) / n, 6) if n else 0.0
            )
        return out

    by_difficulty = {}
    for difficulty in sorted({e["difficulty"] for e in scored}):
        by_difficulty[difficulty] = aggregate(
            [e for e in scored if e["difficulty"] == difficulty]
        )
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "config": {
            "k_f": config.k_f,
            "n_candidates": config.n_candidates,
            "threshold": config.threshold,
            "top_k": config.top_k,
            "correction_max_rounds": config.correction_max_rounds,
            "execution_timeout_s": config.execution_timeout_s,
            "timing_repeats": config.timing_repeats,
            "ablations": {name: getattr(config, name) for name in ABLATION_FLAGS},
        },
        "rves_tiers": [list(tier) for tier in RVES_TIERS] if with_rves else None,
        "tasks": task_entries,
        "aggregates": {
            "overall": aggregate(scored),
            "by_difficulty": by_difficulty,
            "gold_failures": len(task_entries) - len(scored),
            "pipeline_failures": sum(1 for e in task_entries if e["error"]),
        },
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
