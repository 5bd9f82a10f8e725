"""Offline benchmark of the t2s pipeline on seeded synthetic workloads.

    python3 perfbench/run.py --workload large-index --seed 1 --seconds 15 --trace 0

Run from the repository root.  The benchmark builds a synthetic SQLite
database and one round of questions from the seed, preprocesses the
database as `t2s preprocess` does, loads the saved value index as
`t2s run --index` does, answers one untimed warm-up round and then whole
timed rounds through `run_pipeline` until `--seconds` have passed.  A
model stand-in answers every model call from the round's script.  Every
answer is checked against a gold result the generator computed from its
own rows.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`).  `--trace 1` also writes every span
and the per-layer metrics to `perfbench/out/trace-<workload>-<seed>.json`,
or to `--trace-out`.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: with more, OpenBLAS
# spreads each value-index matmul over every core for no latency gain,
# which makes CPU time, and the spread between runs, depend on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sqlite3  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import has_rows, same_answer, winner_in_largest_group  # noqa: E402
from workload import SPECS, make_workload  # noqa: E402

SETUP_REPEATS = 3
SETUP_LOADS = 5
# Timed samples needed so that question_p90_ms has at least ten above it.
MIN_SAMPLES = 100


def import_t2s():
    """Import t2s from this checkout's `src`, and from nowhere else."""
    package = SRC / "t2s"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no t2s sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import t2s

    if Path(t2s.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported t2s from {t2s.__file__}, not from {package}")
    return t2s


class ModelStandIn:
    """Gateway stand-in: replies from the current question's script by stage
    tag, after a fixed delay per call when the workload models a remote
    model.  Counts calls and prompt characters."""

    def __init__(self, delay_s: float, completion_type, error_type):
        self.delay_s = delay_s
        self.completion_type = completion_type
        self.error_type = error_type
        self.replies: dict = {}
        self.calls = 0
        self.prompt_chars = 0
        self._lock = threading.Lock()

    def start(self, replies: dict) -> None:
        self.replies = replies
        self.calls = 0
        self.prompt_chars = 0

    def complete(self, prompt, config, stage=None):
        with self._lock:
            self.calls += 1
            self.prompt_chars += len(prompt)
        reply = self.replies.get(stage)
        if reply is None:
            raise self.error_type(f"no scripted reply for stage {stage!r}")
        if self.delay_s:
            time.sleep(self.delay_s)
        texts = [reply] if isinstance(reply, str) else list(reply)
        if len(texts) < config.n_samples:
            raise self.error_type(f"script has {len(texts)} samples, {config.n_samples} asked")
        return self.completion_type(texts=tuple(texts[: config.n_samples]))


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run(args) -> dict:
    import_t2s()
    from t2s import (
        Completion, CoTBody, Deps, FewShot, FewShotLibrary, GatewayError, PipelineConfig,
        SchemaCatalog, TrigramEmbedder, ValueIndex, mask_question,
        preprocess_database, run_pipeline,
    )

    spec = SPECS[args.workload]
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=work_root) as tmp, (
        tracer.patched() if tracer else nullcontext()
    ):
        workdir = Path(tmp)
        workload = make_workload(spec, args.seed, workdir)
        gc.collect()

        # set-up: what `t2s preprocess` costs, then what `--index` costs
        if tracer:
            tracer.recording = True
        setup_times = []
        for r in range(SETUP_REPEATS):
            out = workdir / f"artifacts{r}"
            start = time.perf_counter()
            preprocess_database(workload.db_path, db_id="bench", out_dir=out)
            setup_times.append(time.perf_counter() - start)
            gc.collect()
        catalog_path = out / "bench.catalog.json"
        index_path = out / "bench.values.jsonl"
        artifact_bytes = catalog_path.stat().st_size + index_path.stat().st_size
        if tracer:
            tracer.recording = False
        load_times: list[float] = []

        def load_index():
            """Time one `ValueIndex.load`, with the previous index freed first."""
            deps.index = None
            gc.collect()
            start = time.perf_counter()
            deps.index = ValueIndex.load(index_path)
            load_times.append(time.perf_counter() - start)

        with open(catalog_path, encoding="utf-8") as handle:
            catalog = SchemaCatalog.from_dict(json.load(handle))
        embedder = TrigramEmbedder()
        library = FewShotLibrary(
            shots=[
                FewShot(
                    question=q, sql=sql,
                    cot=CoTBody(reason="filter by the named values", columns="",
                                values="", sql_like=sql),
                    masked_question=mask_question(q),
                    vector=embedder.embed(mask_question(q)),
                    db_id="bench",
                )
                for q, sql in workload.shots
            ]
        )
        standin = ModelStandIn(spec.model_delay_s, Completion, GatewayError)
        answer = run_pipeline
        if tracer:
            standin.complete = tracer.wrap("gateway.complete", standin.complete)
            answer = tracer.wrap("pipeline.run", run_pipeline)
        deps = Deps(catalog=catalog, db_path=str(workload.db_path), index=None,
                    library=library, gateway=standin, embedder=embedder)
        for _ in range(SETUP_LOADS):
            load_index()
        config = PipelineConfig(
            n_candidates=spec.n_candidates, no_correction=not spec.correction
        )

        def one_round(tag: str) -> tuple[float, list]:
            results = []
            gc.collect()
            round_start = time.perf_counter()
            for q in workload.questions:
                standin.start(q.replies)
                if tracer:
                    tracer.question = f"{tag}:{q.qid}"
                start = time.perf_counter()
                try:
                    result, error = answer(q.text, deps, config, question_id=q.qid), None
                except Exception as exc:  # a failed question, recorded and checked below
                    result, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                results.append((q, result, error, standin.calls, standin.prompt_chars, elapsed))
            return time.perf_counter() - round_start, results

        # Warm-up without the model delay: it warms the program, not the model.
        standin.delay_s = 0.0
        one_round("warmup")
        standin.delay_s = spec.model_delay_s

        latencies: list[float] = []
        timed_questions: list[str] = []
        pass_wall = 0.0
        attempted = failed = calls = chars = 0
        unexpected: list[str] = []
        rounds = 0
        measure_start = time.perf_counter()
        while True:
            if tracer:
                tracer.recording = True
            wall, results = one_round(f"r{rounds}")
            if tracer:
                tracer.recording = False
            pass_wall += wall
            for q, result, error, n_calls, n_chars, elapsed in results:
                attempted += 1
                calls += n_calls
                chars += n_chars
                latencies.append(elapsed)
                timed_questions.append(f"r{rounds}:{q.qid}")
                answer_ok = error is None and same_answer(result.rows, q.gold)
                vote_ok = error is None and winner_in_largest_group(
                    [c.outcome.rows if c.outcome.status == "Rows" else None
                     for c in result.candidates],
                    result.winner_index,
                )
                calls_ok = n_calls == q.expected_calls
                if answer_ok and vote_ok and calls_ok:
                    continue
                failed += 1
                if not (q.in_slice and error is None and vote_ok and calls_ok
                        and has_rows(result.rows)):
                    unexpected.append(
                        f"{q.qid}: answer_ok={answer_ok} vote_ok={vote_ok} "
                        f"calls={n_calls}/{q.expected_calls} error={error}"
                    )
            rounds += 1
            # One more index load per timed round spreads the load timings
            # over the whole run, as the question timings are.
            load_index()
            if (time.perf_counter() - measure_start >= args.seconds
                    and len(latencies) >= MIN_SAMPLES):
                break

    latencies_ms = [t * 1000.0 for t in latencies]
    summary = {
        "workload": spec.name,
        "seed": args.seed,
        "rounds": rounds,
        "questions_per_round": len(workload.questions),
        "samples": len(latencies),
        "setup_s_each": setup_times,
        "index_load_s_each": load_times,
        "unexpected_failures": unexpected[:10],
        "env": environment(),
    }
    if tracer:
        metrics = tracer.per_layer(timed_questions)
        traced = {
            "summary": summary,
            "traced_question_p50_ms": statistics.median(latencies_ms),
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "span_fields": ["sid", "parent", "name", "question", "start", "end", "attrs"],
            "spans": tracer.to_json(),
        }
        out_path = Path(args.trace_out) if args.trace_out else (
            HERE / "out" / f"trace-{spec.name}-{args.seed}.json")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(traced, handle)
        summary["trace_file"] = str(out_path)
        summary["traced_question_p50_ms"] = traced["traced_question_p50_ms"]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "index_load_s": (statistics.median(load_times), "s"),
            "artifact_mb": (artifact_bytes / 1e6, "MB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "question_p50_ms": (statistics.median(latencies_ms), "ms"),
            "question_p90_ms": (percentile(latencies_ms, 90), "ms"),
            "questions_per_s": (attempted / pass_wall, "1/s"),
            "gateway_calls_per_q": (calls / attempted, "calls"),
            "prompt_chars_per_q": (chars / attempted, "chars"),
        }
    print(json.dumps(summary))
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="trace JSON path (default perfbench/out/trace-<workload>-<seed>.json)")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
