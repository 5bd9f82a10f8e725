"""Command-line interface.

    t2s preprocess --db data/x.sqlite --out artifacts/
    t2s fewshot --pairs pairs.json --out shots.jsonl --transcript t.jsonl
    t2s run --db data/x.sqlite --question "..." --transcript t.jsonl
    t2s bench --dataset dev.json --db-root databases/ --out report.json
    t2s ablate --dataset dev.json --db-root databases/ --out ablation.json

Model access comes from a recorded transcript (--transcript) or, when
absent, from the endpoint named by the T2S_LLM_ENDPOINT / T2S_LLM_KEY
environment variables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bench import DEFAULT_RVES_REPEATS, load_dataset, run_bench
from .errors import IngestError, T2SError, read_json
from .fewshot import FewShotLibrary
from .gateway import HttpGateway, RecordingGateway, ScriptedGateway
from .pipeline import (
    ABLATION_FLAGS,
    Deps,
    PipelineConfig,
    build_fewshot_library,
    preprocess_database,
    run_pipeline,
)
from .schema import SchemaCatalog, ingest_schema, render_schema
from .value_index import ValueIndex


# (flag, PipelineConfig field, type, help); each flag's dest is its field.
CONFIG_FLAGS = (
    ("--k-f", "k_f", int, "number of demonstrations"),
    ("--n-candidates", "n_candidates", int, "samples per question"),
    ("--threshold", "threshold", float, "retrieval similarity cutoff"),
    ("--top-k", "top_k", int, "retrieval result cap"),
    ("--timeout", "execution_timeout_s", float, "per-query execution deadline in seconds"),
    ("--model", "model_name", str, "model name sent to the endpoint"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline configuration")
    group.add_argument("--config", help="JSON file of pipeline settings")
    for flag, name, kind, help_text in CONFIG_FLAGS:
        group.add_argument(flag, type=kind, dest=name, help=help_text,
                           metavar=flag[2:].replace("-", "_").upper())
    for flag in ABLATION_FLAGS:
        group.add_argument(
            f"--{flag.replace('_', '-')}",
            action="store_const",
            const=True,
            help=f"disable the {flag[3:].replace('_', ' ')} stage",
        )


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    names = [name for _flag, name, _kind, _help in CONFIG_FLAGS] + list(ABLATION_FLAGS)
    return config.with_(
        **{name: getattr(args, name) for name in names if getattr(args, name) is not None}
    )


def _add_gateway_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model access")
    group.add_argument("--transcript", help="replay replies from this JSONL transcript")
    group.add_argument("--lenient", action="store_true",
                       help="treat missing transcript entries as empty replies")
    group.add_argument("--record", help="append live replies to this JSONL transcript")


def _build_gateway(args: argparse.Namespace):
    if args.transcript:
        gateway = ScriptedGateway.from_transcript(
            args.transcript, strict=not args.lenient
        )
    else:
        gateway = HttpGateway()
    if args.record:
        gateway = RecordingGateway(gateway, args.record)
    return gateway


def _load_deps(
    db_path: str,
    gateway,
    catalog_path: Optional[str] = None,
    index_path: Optional[str] = None,
    library_path: Optional[str] = None,
    descriptions: Optional[str] = None,
    db_id: Optional[str] = None,
) -> Deps:
    if catalog_path:
        catalog = SchemaCatalog.from_dict(read_json(catalog_path, IngestError, "catalog"))
    else:
        catalog = ingest_schema(db_path, db_id=db_id, description_dir=descriptions)
    index = ValueIndex.load(index_path) if index_path else ValueIndex.build(db_path, catalog)
    library = FewShotLibrary.load(library_path) if library_path else FewShotLibrary()
    return Deps(catalog=catalog, db_path=str(db_path), index=index, library=library,
                gateway=gateway)


def _find_db(root: Path, db_id: str) -> Path:
    candidates = [
        root / db_id / f"{db_id}.sqlite",
        root / f"{db_id}.sqlite",
        root / db_id / f"{db_id}.db",
        root / f"{db_id}.db",
    ]
    for candidate in candidates:
        if candidate.exists():
            return candidate
    raise T2SError(f"no database file for {db_id!r} under {root}")


def _deps_for_dataset(tasks, args, gateway) -> dict[str, Deps]:
    root = Path(args.db_root)
    deps: dict[str, Deps] = {}
    for task in tasks:
        if task.db_id in deps:
            continue
        db_path = _find_db(root, task.db_id)
        descriptions = db_path.parent / "database_description"
        deps[task.db_id] = _load_deps(
            str(db_path),
            gateway,
            library_path=args.library,
            descriptions=str(descriptions) if descriptions.is_dir() else None,
            db_id=task.db_id,
        )
    return deps


# -- subcommands ----------------------------------------------------------


def _cmd_preprocess(args: argparse.Namespace) -> int:
    catalog, index = preprocess_database(
        args.db,
        db_id=args.db_id,
        description_dir=args.descriptions,
        out_dir=args.out,
    )
    print(
        f"{catalog.db_id}: {len(catalog.tables)} tables, "
        f"{index.cell_count()} indexed values -> {args.out}"
    )
    return 0


def _read_pairs(path: str) -> list[tuple[str, str]]:
    """The gold pairs of a JSON list of {question, SQL|sql|query} objects
    or [question, SQL] lists; a pair that is not two texts is refused."""
    data = read_json(path, IngestError, "pairs file")
    if not isinstance(data, list):
        raise IngestError(f"pairs file {path} must hold a JSON list")
    pairs = []
    for index, entry in enumerate(data):
        if isinstance(entry, dict):
            sql = entry.get("SQL") or entry.get("sql") or entry.get("query")
            entry = [entry.get("question"), sql]
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(text, str) and text for text in entry)):
            raise IngestError(f"pair {index} in {path} is not a question and SQL as text")
        pairs.append((entry[0], entry[1]))
    return pairs


def _cmd_fewshot(args: argparse.Namespace) -> int:
    pairs = _read_pairs(args.pairs)
    schema_text = ""
    if args.db:
        schema_text = render_schema(ingest_schema(args.db, db_id=args.db_id))
    gateway = _build_gateway(args)
    library = build_fewshot_library(
        pairs,
        gateway,
        schema_text=schema_text,
        db_id=args.db_id or "",
        out_path=args.out,
    )
    degraded = sum(1 for shot in library.shots if shot.is_degraded())
    print(f"{len(library.shots)} shots ({degraded} degraded) -> {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    gateway = _build_gateway(args)
    deps = _load_deps(
        args.db,
        gateway,
        catalog_path=args.catalog,
        index_path=args.index,
        library_path=args.library,
        descriptions=args.descriptions,
        db_id=args.db_id,
    )
    result = run_pipeline(
        args.question,
        deps,
        config,
        evidence=args.evidence or "",
        question_id="cli",
    )
    payload = {
        "question": result.question,
        "sql": result.sql,
        "status": result.status,
        "rows": [list(row) for row in result.rows[:20]],
        "row_count": len(result.rows),
        "winner_index": result.winner_index,
        "trace_stages": list(result.trace.keys()),
    }
    text = json.dumps(payload, indent=2, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _build_config(args)
    gateway = _build_gateway(args)
    tasks = load_dataset(args.dataset)
    deps_by_db = _deps_for_dataset(tasks, args, gateway)
    report = run_bench(
        tasks,
        deps_by_db,
        config,
        with_rves=not args.no_rves,
        rves_repeats=args.rves_repeats,
        jobs=args.jobs,
        out_path=args.out,
    )
    overall = report["aggregates"]["overall"]
    line = f"EX {overall['ex']:.3f} over {overall['n']} tasks"
    if not args.no_rves:
        line += f", R-VES {overall.get('rves', 0.0):.3f}"
    if args.out:
        line += f" -> {args.out}"
    print(line)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    base_config = _build_config(args)
    gateway = _build_gateway(args)
    tasks = load_dataset(args.dataset)
    deps_by_db = _deps_for_dataset(tasks, args, gateway)

    def light(report: dict) -> dict:
        stages = sorted(
            {stage for entry in report["tasks"] for stage in entry["trace_stages"]}
        )
        return {
            "aggregates": report["aggregates"],
            "trace_stages": stages,
        }

    baseline = run_bench(
        tasks, deps_by_db, base_config, with_rves=False, jobs=args.jobs
    )
    variants = {}
    for flag in ABLATION_FLAGS:
        variant_config = base_config.with_(**{flag: True})
        variants[flag] = light(
            run_bench(tasks, deps_by_db, variant_config, with_rves=False, jobs=args.jobs)
        )
    payload = {
        "format": "t2s-ablation",
        "version": 1,
        "baseline": light(baseline),
        "variants": variants,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t2s", description="Multi-stage text-to-SQL pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="ingest a database and build its value index")
    p.add_argument("--db", required=True, help="SQLite database file")
    p.add_argument("--db-id", default=None)
    p.add_argument("--descriptions", default=None,
                   help="directory of per-table description CSVs")
    p.add_argument("--out", required=True, help="directory for the artifacts")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("fewshot", help="build a demonstration library from gold pairs")
    p.add_argument("--pairs", required=True,
                   help="JSON list of {question, SQL} objects or [question, SQL] pairs")
    p.add_argument("--db", default=None, help="database whose schema to show while augmenting")
    p.add_argument("--db-id", default=None)
    p.add_argument("--out", required=True, help="library JSONL path")
    _add_gateway_flags(p)
    p.set_defaults(func=_cmd_fewshot)

    p = sub.add_parser("run", help="answer one question")
    p.add_argument("--db", required=True)
    p.add_argument("--db-id", default=None)
    p.add_argument("--question", required=True)
    p.add_argument("--evidence", default="")
    p.add_argument("--catalog", default=None, help="saved catalog JSON")
    p.add_argument("--index", default=None, help="saved value index JSONL")
    p.add_argument("--library", default=None, help="demonstration library JSONL")
    p.add_argument("--descriptions", default=None)
    p.add_argument("--out", default=None, help="also write the result JSON here")
    _add_gateway_flags(p)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    for name, help_text in (
        ("bench", "run and score a dataset"),
        ("ablate", "run the dataset once per disabled stage"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", required=True, help="task list JSON")
        p.add_argument("--db-root", required=True,
                       help="directory holding <db_id>/<db_id>.sqlite or <db_id>.sqlite")
        p.add_argument("--library", default=None)
        p.add_argument("--out", default=None, help="write the report JSON here")
        p.add_argument("--jobs", type=int, default=1, help="parallel tasks")
        if name == "bench":
            p.add_argument("--no-rves", action="store_true",
                           help="skip the efficiency score")
            p.add_argument("--rves-repeats", type=int, default=DEFAULT_RVES_REPEATS)
        _add_gateway_flags(p)
        _add_config_flags(p)
        p.set_defaults(func=_cmd_bench if name == "bench" else _cmd_ablate)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (T2SError, OSError) as exc:  # OSError: a missing file, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
