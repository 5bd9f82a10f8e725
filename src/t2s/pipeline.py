"""End-to-end pipeline: analysis, generation, alignment, refinement.

`run_pipeline` wires the stages together for one question and records a
trace entry per stage it actually ran.  Every stage has a switch that
removes it cleanly, which is what the ablation tooling toggles: a
disabled stage contributes neither work nor a trace entry, and the rest
of the pipeline behaves as if the stage did not exist.

`preprocess_database` and `build_fewshot_library` are the two offline
steps; their artifacts (catalog, value index, demonstration library)
are what `Deps` carries into a run.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

# Unused here, but perfbench patches t2s.pipeline.align_statement and .execute_sql.
from .alignment import AlignmentContext, align_statement  # noqa: F401
from .embedding import Embedder, TrigramEmbedder
from .errors import IngestError
from .extraction import ExtractionResult, run_extraction
from .fewshot import FewShotLibrary, augment_cot, render_fewshots
from .gateway import Gateway, LlmConfig
from .generation import (
    GenerationConfig,
    build_generation_prompt,
    format_value_line,
    generate_candidates,
)
from .refine import (
    ExecutionOutcome,
    SqlSession,
    VoteCandidate,
    correct,
    execute_sql,  # noqa: F401
    vote_detail,
)
from .schema import ColumnSelection, SchemaCatalog, ingest_schema, render_schema
from .value_index import RetrievalConfig, ValueIndex

# Sweep grids for the two knobs worth sweeping.
KF_CHOICES = (0, 3, 5, 7, 9)
N_CANDIDATE_CHOICES = (1, 7, 15, 21)

# A generation call slower than this marks a remote model, whose calls the
# correction chains then wait on side by side; a scripted reply takes under
# 1 ms, and there a thread handoff costs more than the chains overlap.
SLOW_MODEL_CALL_S = 0.005
CORRECTION_THREADS = 8


@dataclass(frozen=True)
class PipelineConfig:
    # shot selection
    k_f: int = 5
    restrict_fewshots_same_db: bool = False
    # generation
    n_candidates: int = 21
    generation_temperature: float = 0.7
    # retrieval
    threshold: float = 0.65
    top_k: int = 10
    # extraction
    extraction_temperature: float = 0.0
    # refinement
    refinement_temperature: float = 0.7
    correction_max_rounds: int = 2
    execution_timeout_s: float = 30.0
    # Runs per timing of each distinct SQL in a winning vote group that
    # holds more than one; only the fastest-member tie-break reads it.
    timing_repeats: int = 3
    # model
    model_name: str = "gpt-4o"
    max_tokens: int = 2048
    # ablation switches; each removes exactly one stage
    no_extraction: bool = False
    no_value_retrieval: bool = False
    no_column_filtering: bool = False
    no_info_alignment: bool = False
    no_fewshot: bool = False
    no_cot: bool = False
    no_alignments: bool = False
    no_correction: bool = False
    no_vote: bool = False

    def retrieval(self) -> RetrievalConfig:
        return RetrievalConfig(top_k=self.top_k, threshold=self.threshold)

    def base_llm(self) -> LlmConfig:
        return LlmConfig(model_name=self.model_name, max_tokens=self.max_tokens)

    def with_(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "PipelineConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise IngestError(f"bad config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise IngestError(f"config file {path} must hold a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise IngestError(f"unknown config keys in {path}: {', '.join(unknown)}")
        data.update(overrides)
        return cls(**data)


# One `no_<stage>` switch per stage, in run order; a stage that runs
# records a trace entry under its own name.
ABLATION_FLAGS = tuple(f.name for f in fields(PipelineConfig) if f.name.startswith("no_"))
TRACE_STAGES = tuple(flag[len("no_"):] for flag in ABLATION_FLAGS)


@dataclass
class Deps:
    catalog: SchemaCatalog
    db_path: str
    index: Optional[ValueIndex] = None
    library: Optional[FewShotLibrary] = None
    gateway: Optional[Gateway] = None
    embedder: Optional[Embedder] = None

    def get_embedder(self) -> Embedder:
        if self.embedder is None:
            self.embedder = TrigramEmbedder()
        return self.embedder


@dataclass
class CandidateRecord:
    sql_raw: str
    sql: str
    alignment_flags: list[str] = field(default_factory=list)
    correction_rounds: int = 0
    correction_flags: list[str] = field(default_factory=list)
    outcome: Optional[ExecutionOutcome] = None


@dataclass
class PipelineResult:
    question: str
    sql: str
    status: str
    rows: tuple[tuple, ...]
    winner_index: int
    candidates: list[CandidateRecord]
    trace: dict
    extraction: Optional[ExtractionResult] = None


def run_pipeline(
    question: str,
    deps: Deps,
    config: Optional[PipelineConfig] = None,
    evidence: str = "",
    question_id: str = "",
) -> PipelineResult:
    config = config or PipelineConfig()
    trace: dict = {}
    tag = question_id or "q"

    # question analysis
    extraction: Optional[ExtractionResult] = None
    selection: Optional[ColumnSelection] = None
    value_hits = []
    select_content = None
    if not config.no_extraction:
        extraction = run_extraction(
            question,
            deps.catalog,
            deps.index,
            deps.gateway,
            evidence=evidence,
            retrieval=config.retrieval(),
            llm=config.base_llm().with_(temperature=config.extraction_temperature),
            stage=f"extraction:{tag}",
            retrieve=not config.no_value_retrieval,
            filter_cols=not config.no_column_filtering,
            align_info=not config.no_info_alignment,
        )
        selection = extraction.selection
        value_hits = extraction.value_hits
        select_content = extraction.select_content
        trace["extraction"] = {
            "entities": [
                {"text": e.text, "source": e.source} for e in extraction.entities
            ],
            "reason": extraction.reason,
        }
        if not config.no_value_retrieval:
            trace["value_retrieval"] = {
                "hits": [
                    {
                        "table": h.table,
                        "column": h.column,
                        "text": h.text,
                        "similarity": round(h.similarity, 6),
                    }
                    for h in value_hits
                ]
            }
        if not config.no_column_filtering:
            trace["column_filtering"] = {
                "columns": [f"{t}.{c}" for t, c in (selection.pairs() if selection else ())]
            }
        if not config.no_info_alignment:
            trace["info_alignment"] = {
                "pairs": [list(p) for p in extraction.select_pairs],
                "select_content": select_content,
            }

    # demonstrations
    fewshot_text = ""
    if not config.no_fewshot and deps.library is not None:
        shots = deps.library.select_fewshots(
            question,
            config.k_f,
            embedder=deps.get_embedder(),
            restrict_db=deps.catalog.db_id if config.restrict_fewshots_same_db else None,
        )
        fewshot_text = render_fewshots(shots)
        trace["fewshot"] = {
            "k": config.k_f,
            "questions": [shot.question for shot in shots],
            "degraded": sum(1 for shot in shots if shot.is_degraded()),
        }

    # candidate generation
    schema_text = render_schema(deps.catalog, selection)
    value_lines = [format_value_line(h.table, h.column, h.text) for h in value_hits]
    prompt = build_generation_prompt(
        question,
        schema_text,
        evidence=evidence,
        fewshot_text=fewshot_text,
        value_lines=value_lines,
        select_content=select_content,
        use_cot=not config.no_cot,
    )
    called = time.perf_counter()
    generation = generate_candidates(
        deps.gateway,
        prompt,
        GenerationConfig(
            n_candidates=config.n_candidates,
            temperature=config.generation_temperature,
        ),
        llm=config.base_llm(),
        stage=f"cot:{tag}",
        use_cot=not config.no_cot,
    )
    slow_model = time.perf_counter() - called > SLOW_MODEL_CALL_S
    if not config.no_cot:
        trace["cot"] = {
            "candidates": len(generation.candidates),
            "parse_failures": generation.parse_failures,
            "lints": [c.lint() for c in generation.candidates],
        }

    # alignment and execution, once per distinct SQL text; every
    # candidate holding a statement shares its outcome (see `SqlSession`)
    align_ctx = AlignmentContext(catalog=deps.catalog, index=deps.index,
                                 retrieval=config.retrieval())
    session = SqlSession(deps.db_path, None if config.no_alignments else align_ctx,
                         config.execution_timeout_s)
    records: list[CandidateRecord] = []
    for cot in generation.candidates:
        aligned = session.align(cot.sql)
        records.append(CandidateRecord(sql_raw=cot.sql, sql=aligned.sql_out,
                                       alignment_flags=aligned.flags,
                                       outcome=session.execute(aligned.sql_out)))
    if not config.no_alignments:
        trace["alignments"] = {
            "changed": sum(1 for r in records if r.sql != r.sql_raw),
            "flags": [r.alignment_flags for r in records],
        }

    # correction, one chain per candidate; the chains share only the session
    if not config.no_correction and deps.library is not None and deps.gateway is not None:
        def chain(index: int, record: CandidateRecord):
            return correct(
                question,
                record.sql,
                record.outcome,
                session,
                deps.library,
                deps.gateway,
                schema_text=schema_text,
                value_lines=value_lines,
                llm=config.base_llm().with_(temperature=config.refinement_temperature),
                max_rounds=config.correction_max_rounds,
                stage_prefix=f"correction:{tag}:c{index}",
                include_shots=not config.no_fewshot,
            )

        if slow_model:
            with ThreadPoolExecutor(CORRECTION_THREADS) as pool:
                results = list(pool.map(chain, range(len(records)), records))
        else:
            results = list(map(chain, range(len(records)), records))
        trace["correction"] = {
            "attempted": sum(1 for r in results if r.rounds),
            "changed": sum(r.sql != record.sql for record, r in zip(records, results)),
            "flags": [r.flags for r in results],
        }
        for record, result in zip(records, results):
            record.sql = result.sql
            record.outcome = result.outcome
            record.correction_rounds = result.rounds
            record.correction_flags = result.flags

    # vote
    vote_input = [VoteCandidate(sql=r.sql, outcome=r.outcome) for r in records]
    if config.no_vote:
        winner_index = 0
    else:
        result = vote_detail(vote_input)
        group_sql = dict.fromkeys(records[i].sql for i in result.group_indices)
        if len(group_sql) > 1:
            # Only the fastest-member tie-break reads `elapsed`: time the
            # group's distinct statements with repeats and vote again.
            for sql in group_sql:
                session.time(sql, config.timing_repeats)
            result = vote_detail(vote_input)
        winner_index = result.winner_index
        trace["vote"] = {
            "winner_index": result.winner_index,
            "group_size": result.group_size,
            "eligible": result.eligible,
            "excluded": result.excluded,
            "fallback": result.fallback,
        }
    winner = records[winner_index]
    return PipelineResult(
        question=question,
        sql=winner.sql,
        status=winner.outcome.status,
        rows=winner.outcome.rows,
        winner_index=winner_index,
        candidates=records,
        trace=trace,
        extraction=extraction,
    )


# -- offline preparation --------------------------------------------------


def preprocess_database(
    db_path: str | Path,
    db_id: Optional[str] = None,
    description_dir: Optional[str | Path] = None,
    out_dir: Optional[str | Path] = None,
    embedder: Optional[Embedder] = None,
) -> tuple[SchemaCatalog, ValueIndex]:
    """Ingest the schema and build the value index, optionally saving both."""
    catalog = ingest_schema(db_path, db_id=db_id, description_dir=description_dir)
    index = ValueIndex.build(db_path, catalog, embedder=embedder)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{catalog.db_id}.catalog.json", "w", encoding="utf-8") as handle:
            json.dump(catalog.to_dict(), handle, indent=2)
        index.save(out / f"{catalog.db_id}.values.jsonl")
    return catalog, index


def build_fewshot_library(
    pairs: Sequence[tuple[str, str]],
    gateway: Gateway,
    schema_text: str = "",
    db_id: str = "",
    llm: Optional[LlmConfig] = None,
    out_path: Optional[str | Path] = None,
) -> FewShotLibrary:
    """Augment (question, gold SQL) pairs into a demonstration library."""
    shots = []
    for index, (question, sql) in enumerate(pairs):
        shots.append(
            augment_cot(
                question,
                sql,
                gateway,
                config=llm,
                schema_text=schema_text,
                db_id=db_id,
                stage=f"augment:{index}",
            )
        )
    library = FewShotLibrary(shots=shots)
    if out_path is not None:
        library.save(out_path)
    return library
