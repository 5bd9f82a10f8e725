import json
import sqlite3
from itertools import count

import pytest

import t2s.bench
import t2s.refine
from t2s import Deps, PipelineConfig, ScriptedGateway, ingest_schema
from t2s.bench import (
    RVES_TIERS,
    Task,
    eval_ex,
    gold_has_order_by,
    load_dataset,
    run_bench,
    rves_reward,
)
from t2s.errors import BenchError


# -- dataset loading ------------------------------------------------------


def test_load_dataset_bird_spelling(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(
        json.dumps(
            [
                {
                    "question_id": 7,
                    "db_id": "clinical",
                    "question": "How many?",
                    "evidence": "count",
                    "SQL": "SELECT COUNT(*) FROM Patient",
                    "difficulty": "simple",
                }
            ]
        )
    )
    tasks = load_dataset(path)
    assert tasks == [
        Task(
            question_id="7",
            db_id="clinical",
            question="How many?",
            gold_sql="SELECT COUNT(*) FROM Patient",
            evidence="count",
            difficulty="simple",
        )
    ]


def test_load_dataset_spider_spelling(tmp_path):
    path = tmp_path / "tasks.json"
    path.write_text(
        json.dumps(
            [{"db_id": "concert", "question": "Q?", "query": "SELECT 1"}]
        )
    )
    tasks = load_dataset(path)
    assert tasks[0].gold_sql == "SELECT 1"
    assert tasks[0].question_id == "0"
    assert tasks[0].difficulty == "unknown"
    assert tasks[0].evidence == ""


def test_load_dataset_errors_name_the_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"db_id": "x", "question": "Q?"}]))
    with pytest.raises(BenchError) as err:
        load_dataset(path)
    assert "entry 0" in str(err.value)

    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(BenchError):
        load_dataset(path)

    path.write_text("{broken")
    with pytest.raises(BenchError):
        load_dataset(path)


@pytest.mark.parametrize("key", ["question", "db_id", "SQL"])
def test_load_dataset_rejects_a_field_that_is_not_text(tmp_path, key):
    entry = {"question_id": 3, "question": "Q?", "db_id": "x", "SQL": "SELECT 1"}
    entry[key] = 5
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(BenchError, match="entry 0"):
        load_dataset(path)


@pytest.mark.parametrize("key,value", [
    ("evidence", {"a": [1]}), ("evidence", 5), ("difficulty", 7), ("difficulty", ["hard"]),
])
def test_load_dataset_rejects_evidence_or_difficulty_not_as_text(tmp_path, key, value):
    entry = {"question": "Q?", "db_id": "x", "SQL": "SELECT 1", key: value}
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(BenchError, match="entry 0"):
        load_dataset(path)


def test_load_dataset_null_evidence_and_difficulty_keep_their_defaults(tmp_path):
    entry = {"question": "Q?", "db_id": "x", "SQL": "SELECT 1", "evidence": None,
             "difficulty": None}
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps([entry]))
    task = load_dataset(path)[0]
    assert (task.evidence, task.difficulty) == ("", "unknown")


def test_load_dataset_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('[{"db_id": "x", "question": "Caf\u00e9?", "SQL": "SELECT 1"}]'.encode("latin-1"))
    with pytest.raises(BenchError, match="cannot parse dataset"):
        load_dataset(path)


# -- EX -------------------------------------------------------------------


def test_gold_has_order_by():
    assert gold_has_order_by("SELECT ID FROM t ORDER BY ID")
    assert not gold_has_order_by("SELECT ID FROM t")
    # subquery ordering does not order the outer result
    assert not gold_has_order_by(
        "SELECT * FROM (SELECT ID FROM t ORDER BY ID LIMIT 3) AS sub"
    )
    # unparseable input falls back to a text scan
    assert gold_has_order_by("SELECT ??? ORDER BY x")


def test_eval_ex_matching_answers(clinical_db):
    got = eval_ex(
        clinical_db,
        "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        "SELECT COUNT(ID) FROM Patient WHERE SEX = 'F'",
    )
    assert got.match and not got.gold_failed


def test_eval_ex_mismatch(clinical_db):
    got = eval_ex(
        clinical_db,
        "SELECT COUNT(*) FROM Patient",
        "SELECT COUNT(*) FROM Laboratory",
    )
    assert not got.match
    assert got.pred_rows == got.gold_rows == 1


def test_eval_ex_unordered_gold_ignores_row_order(clinical_db):
    got = eval_ex(
        clinical_db,
        "SELECT ID FROM Patient ORDER BY ID DESC",
        "SELECT ID FROM Patient",
    )
    assert got.match and not got.ordered


def test_eval_ex_ordered_gold_is_order_sensitive(clinical_db):
    got = eval_ex(
        clinical_db,
        "SELECT ID FROM Patient ORDER BY ID DESC",
        "SELECT ID FROM Patient ORDER BY ID ASC",
    )
    assert got.ordered and not got.match
    same = eval_ex(
        clinical_db,
        "SELECT ID FROM Patient ORDER BY ID",
        "SELECT ID FROM Patient ORDER BY ID ASC",
    )
    assert same.ordered and same.match


def test_eval_ex_gold_failure_excludes(clinical_db):
    got = eval_ex(clinical_db, "SELECT 1", "SELECT x FROM NoSuch")
    assert got.gold_failed and not got.match


def test_eval_ex_pred_failure(clinical_db):
    got = eval_ex(clinical_db, "SELECT x FROM NoSuch", "SELECT COUNT(*) FROM Patient")
    assert not got.match and not got.gold_failed
    assert got.pred_status == "Error"


def test_eval_ex_numeric_jitter_tolerated(clinical_db):
    got = eval_ex(
        clinical_db,
        "SELECT AVG(IGA) FROM Laboratory",
        "SELECT SUM(IGA) * 1.0 / COUNT(IGA) FROM Laboratory",
    )
    assert got.match


# -- R-VES ----------------------------------------------------------------


def test_rves_tier_table():
    assert RVES_TIERS == ((2.0, 1.25), (1.0, 1.0), (0.5, 0.75), (0.25, 0.5), (0.0, 0.25))
    assert rves_reward(3.0) == 1.25
    assert rves_reward(2.0) == 1.25
    assert rves_reward(1.5) == 1.0
    assert rves_reward(0.8) == 0.75
    assert rves_reward(0.3) == 0.5
    assert rves_reward(0.1) == 0.25


def _bench_one(e2e, pred_sql, gold_sql, db_path=None, rves_repeats=3):
    """The report entry of one task whose pipeline answers `pred_sql`."""
    gateway = ScriptedGateway({"cot:t": f"#SQL: {pred_sql}"})
    deps = e2e.make_deps(gateway)
    if db_path is not None:
        deps = Deps(catalog=ingest_schema(db_path), db_path=str(db_path), gateway=gateway)
    config = e2e.config.with_(n_candidates=1, no_extraction=True, no_alignments=True,
                              no_correction=True)
    task = Task(question_id="t", db_id="db", question="How many?", gold_sql=gold_sql)
    return run_bench([task], {"db": deps}, config, rves_repeats=rves_repeats)["tasks"][0]


def test_rves_zero_when_wrong(e2e):
    entry = _bench_one(e2e, "SELECT 1", "SELECT 2")
    assert entry["ex"] is False and entry["rves"] == 0.0


def test_rves_rewards_correct_prediction(e2e):
    entry = _bench_one(e2e, "SELECT COUNT(ID) FROM Patient", "SELECT COUNT(*) FROM Patient")
    assert entry["ex"] is True
    assert entry["rves"] in {1.25, 1.0, 0.75, 0.5, 0.25}


def test_rves_fast_prediction_beats_slow_gold(e2e, tmp_path):
    db = tmp_path / "wide.sqlite"
    with sqlite3.connect(db) as conn:
        conn.execute("CREATE TABLE n (x integer)")
        conn.executemany("INSERT INTO n VALUES (?)", [(i,) for i in range(400)])
    conn.close()
    # A 400 x 400 cross join whose predicate no index can serve: about
    # 100x the work of the prediction, so the speed tier cannot flip.
    slow_gold = "SELECT COUNT(*) FROM n a, n b WHERE a.x + b.x = 399"
    fast_pred = "SELECT COUNT(*) FROM n"
    assert _bench_one(e2e, fast_pred, slow_gold, db_path=db)["rves"] == 1.25


@pytest.fixture
def scoring_runs(monkeypatch):
    """The SQL of every run `run_bench` makes outside `run_pipeline`.  Each
    run, wherever it is made, takes a second longer than the run before."""
    runs = []
    clock = count(1)
    execute_once, run_pipeline = t2s.refine._execute_once, t2s.bench.run_pipeline
    in_pipeline = []

    def slower_each_run(db_path, sql, timeout_s):
        if not in_pipeline:
            runs.append(sql)
        outcome = execute_once(db_path, sql, timeout_s)
        outcome.elapsed = float(next(clock))
        return outcome

    def marked_pipeline(*args, **kwargs):
        in_pipeline.append(True)
        try:
            return run_pipeline(*args, **kwargs)
        finally:
            in_pipeline.pop()

    monkeypatch.setattr(t2s.refine, "_execute_once", slower_each_run)
    monkeypatch.setattr(t2s.bench, "run_pipeline", marked_pipeline)
    return runs


def test_rves_identical_prediction_scores_the_even_tier(e2e, scoring_runs):
    tasks = load_dataset(e2e.dataset_path)
    report = run_bench(tasks, {"clinical": e2e.make_deps()}, e2e.config, rves_repeats=5)
    same = [e for e, t in zip(report["tasks"], tasks) if e["sql"] == t.gold_sql]
    assert len(same) == 8
    # the prediction shares the gold's runs, so later runs cannot slow it
    assert [e["rves"] for e in same] == [1.0] * 8


def test_run_bench_scoring_runs_each_query_at_most_rves_repeats_times(e2e, scoring_runs):
    tasks = load_dataset(e2e.dataset_path)
    report = run_bench(tasks, {"clinical": e2e.make_deps()}, e2e.config, rves_repeats=5)
    assert all(e["ex"] for e in report["tasks"])
    # the gold 5 times; a prediction other than the gold 5 times more
    expected = [5 if e["sql"] == t.gold_sql else 10 for e, t in zip(report["tasks"], tasks)]
    assert len(scoring_runs) == sum(expected) == 60
    scoring_runs.clear()
    run_bench(tasks, {"clinical": e2e.make_deps()}, e2e.config, with_rves=False)
    assert scoring_runs == [t.gold_sql for t in tasks]


# -- full bench run -------------------------------------------------------


@pytest.fixture()
def bench_run(e2e):
    deps = e2e.make_deps()
    tasks = load_dataset(e2e.dataset_path)
    report = run_bench(tasks, {"clinical": deps}, e2e.config, with_rves=False)
    return tasks, report


def test_run_bench_report_shape(bench_run):
    tasks, report = bench_run
    assert report["format"] == "t2s-report"
    assert report["version"] == 2
    assert len(report["tasks"]) == len(tasks) == 10
    overall = report["aggregates"]["overall"]
    assert overall["n"] == 10
    assert overall["ex"] == 1.0
    assert report["aggregates"]["gold_failures"] == 0
    assert report["aggregates"]["pipeline_failures"] == 0
    assert report["config"]["n_candidates"] == 3
    assert set(report["aggregates"]["by_difficulty"]) == {
        "simple",
        "moderate",
        "challenging",
    }
    assert report["aggregates"]["by_difficulty"]["simple"]["n"] == 5
    for entry in report["tasks"]:
        assert entry["ex"] is True
        assert entry["status"] == "Rows"
        assert entry["error"] is None
        assert "extraction" in entry["trace_stages"]


def test_run_bench_with_rves_carries_tiers(e2e):
    deps = e2e.make_deps()
    tasks = load_dataset(e2e.dataset_path)[:2]
    report = run_bench(tasks, {"clinical": deps}, e2e.config, rves_repeats=1)
    assert report["rves_tiers"] == [list(t) for t in RVES_TIERS]
    for entry in report["tasks"]:
        assert entry["rves"] > 0
    assert report["aggregates"]["overall"]["rves"] > 0


def test_run_bench_jobs_equal_results(e2e):
    tasks = load_dataset(e2e.dataset_path)

    def strip(report):
        return [
            {k: v for k, v in entry.items() if k != "winner_index"}
            for entry in report["tasks"]
        ]

    serial = run_bench(tasks, {"clinical": e2e.make_deps()}, e2e.config, with_rves=False)
    threaded = run_bench(
        tasks, {"clinical": e2e.make_deps()}, e2e.config, with_rves=False, jobs=4
    )
    assert strip(serial) == strip(threaded)
    assert serial["aggregates"] == threaded["aggregates"]


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_bench_failed_task_scores_zero_and_the_rest_as_before(e2e, jobs):
    tasks = load_dataset(e2e.dataset_path)
    # q03's generation call finds no scripted reply and raises GatewayError
    replies = {k: v for k, v in e2e.replies.items() if k != "cot:q03"}
    before = run_bench(tasks, {"clinical": e2e.make_deps()}, e2e.config, with_rves=False)
    report = run_bench(tasks, {"clinical": e2e.make_deps(ScriptedGateway(replies))},
                       e2e.config, with_rves=False, jobs=jobs)
    failed = report["tasks"][2]
    assert failed["question_id"] == "q03"
    assert failed["error"] == "GatewayError"
    assert failed["status"] == "Failed"
    assert failed["ex"] is False and failed["gold_failed"] is False

    def others(report):
        return [{k: v for k, v in entry.items() if k != "winner_index"}
                for entry in report["tasks"] if entry["question_id"] != "q03"]

    assert others(report) == others(before)
    aggregates = report["aggregates"]
    assert aggregates["overall"] == {"n": 10, "ex": 0.9}
    assert aggregates["pipeline_failures"] == 1
    assert aggregates["gold_failures"] == 0


def test_run_bench_writes_report(e2e, tmp_path):
    tasks = load_dataset(e2e.dataset_path)[:1]
    out = tmp_path / "report.json"
    report = run_bench(
        tasks, {"clinical": e2e.make_deps()}, e2e.config, with_rves=False, out_path=out
    )
    assert json.loads(out.read_text()) == report


def test_run_bench_unknown_db_rejected(e2e):
    tasks = [
        Task(question_id="1", db_id="mystery", question="Q?", gold_sql="SELECT 1")
    ]
    with pytest.raises(BenchError):
        run_bench(tasks, {"clinical": e2e.make_deps()}, e2e.config)
