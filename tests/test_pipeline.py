import json
import threading
from collections import Counter

import pytest

import t2s.pipeline
import t2s.refine
from t2s import (
    Deps,
    FewShotLibrary,
    PipelineConfig,
    ScriptedGateway,
    ValueIndex,
    preprocess_database,
    run_pipeline,
)
from t2s.errors import IngestError
from t2s.gateway import LlmConfig
from t2s.pipeline import KF_CHOICES, N_CANDIDATE_CHOICES, TRACE_STAGES, build_fewshot_library


# -- config ---------------------------------------------------------------


def test_config_defaults_match_reported_operating_point():
    cfg = PipelineConfig()
    assert cfg.k_f == 5
    assert cfg.n_candidates == 21
    assert cfg.threshold == 0.65
    assert cfg.extraction_temperature == 0.0
    assert cfg.generation_temperature == 0.7
    assert cfg.correction_max_rounds == 2
    assert KF_CHOICES == (0, 3, 5, 7, 9)
    assert N_CANDIDATE_CHOICES == (1, 7, 15, 21)


def test_config_with_copies():
    cfg = PipelineConfig()
    other = cfg.with_(n_candidates=3)
    assert cfg.n_candidates == 21 and other.n_candidates == 3


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_f": 3, "n_candidates": 7}))
    cfg = PipelineConfig.from_file(path)
    assert (cfg.k_f, cfg.n_candidates) == (3, 7)
    cfg = PipelineConfig.from_file(path, n_candidates=15)
    assert cfg.n_candidates == 15


def test_config_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k_f": 3, "mystery_knob": 1}))
    with pytest.raises(IngestError) as err:
        PipelineConfig.from_file(path)
    assert "mystery_knob" in str(err.value)


@pytest.mark.parametrize("key,value", [
    ("k_f", "five"),
    ("n_candidates", "3"),
    ("threshold", None),
    ("no_vote", "yes"),
    ("no_vote", 1),
    ("top_k", 2.5),
    ("top_k", True),
    ("threshold", False),
    ("model_name", 4),
    ("restrict_fewshots_same_db", 0),
])
def test_config_from_file_rejects_a_value_of_the_wrong_type(tmp_path, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(IngestError, match=repr(key)):
        PipelineConfig.from_file(path)


def test_config_from_file_takes_an_integer_for_a_float(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"threshold": 1, "execution_timeout_s": 2, "no_vote": False}))
    cfg = PipelineConfig.from_file(path)
    assert (cfg.threshold, cfg.execution_timeout_s, cfg.no_vote) == (1, 2, False)


def test_config_from_file_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(IngestError):
        PipelineConfig.from_file(path)
    path.write_text("{broken")
    with pytest.raises(IngestError):
        PipelineConfig.from_file(path)


def test_retrieval_view_carries_knobs():
    retrieval = PipelineConfig(threshold=0.5, top_k=3).retrieval()
    assert retrieval.threshold == 0.5 and retrieval.top_k == 3


# -- full run -------------------------------------------------------------


def test_pipeline_answers_simple_question(e2e):
    deps = e2e.make_deps()
    result = run_pipeline(
        "How many patients are female?",
        deps,
        e2e.config,
        question_id="q01",
    )
    assert result.status == "Rows"
    assert result.rows == ((3,),)
    assert result.sql
    assert len(result.candidates) == 3
    assert result.extraction is not None


def test_pipeline_trace_covers_active_stages(e2e):
    deps = e2e.make_deps()
    result = run_pipeline(
        "How many patients are female?", deps, e2e.config, question_id="q01"
    )
    assert set(result.trace) == set(TRACE_STAGES)
    assert result.trace["cot"]["candidates"] == 3
    assert result.trace["vote"]["winner_index"] == result.winner_index


def test_pipeline_correction_repairs_bad_column(e2e):
    deps = e2e.make_deps()
    result = run_pipeline(
        "How many distinct patients had a lab test in 1996?",
        deps,
        e2e.config,
        question_id="q10",
    )
    assert result.status == "Rows"
    assert result.rows == ((1,),)
    assert all(r.correction_rounds == 1 for r in result.candidates)
    assert result.trace["correction"]["changed"] == 3


def test_pipeline_without_gateway_needs_no_llm_stages(e2e):
    # offline smoke: no extraction reply, no fewshot, no correction;
    # generation still needs a scripted reply
    gw = ScriptedGateway({"cot:raw": "#SQL: SELECT COUNT(*) FROM Patient"})
    deps = e2e.make_deps(gateway=gw)
    cfg = e2e.config.with_(no_extraction=True, no_correction=True, no_fewshot=True)
    result = run_pipeline("How many patients?", deps, cfg, question_id="raw")
    assert result.rows == ((5,),)
    assert "extraction" not in result.trace
    assert "correction" not in result.trace
    assert "fewshot" not in result.trace


def test_pipeline_sends_configured_model_settings(e2e):
    inner = ScriptedGateway(e2e.replies)
    seen = []

    class Recorder:
        def complete(self, prompt, config, stage=None):
            seen.append((stage.split(":")[0], config))
            return inner.complete(prompt, config, stage=stage)

    cfg = e2e.config.with_(
        extraction_temperature=0.2,
        generation_temperature=0.9,
        refinement_temperature=0.4,
        model_name="test-model",
        max_tokens=512,
    )
    result = run_pipeline(
        "How many distinct patients had a lab test in 1996?",
        e2e.make_deps(gateway=Recorder()),
        cfg,
        question_id="q10",
    )
    assert result.rows == ((1,),)
    expected = {
        "extraction": LlmConfig("test-model", 0.2, 1, 512),
        "cot": LlmConfig("test-model", 0.9, 3, 512),
        "correction": LlmConfig("test-model", 0.4, 1, 512),
    }
    assert {stage for stage, _ in seen} == set(expected)
    for stage, config in seen:
        assert config == expected[stage], stage


def test_pipeline_deterministic_across_runs(e2e):
    results = [
        run_pipeline(
            "How many patients are female?",
            e2e.make_deps(),
            e2e.config,
            question_id="q01",
        )
        for _ in range(2)
    ]
    assert results[0].sql == results[1].sql
    assert results[0].rows == results[1].rows


# -- one alignment and one execution per distinct SQL --------------------

FEMALE = "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"


@pytest.fixture
def sql_calls(monkeypatch):
    """("align" | "execute", SQL) of every call through the module globals
    that `run_pipeline` and `correct` align and execute with."""
    calls = []

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            sql = args[0] if kind == "align" else args[1]
            calls.append((kind, sql))
            return original(*args, **kwargs)

        return wrapper

    for module in (t2s.pipeline, t2s.refine):
        for kind, name in (("align", "align_statement"), ("execute", "execute_sql")):
            monkeypatch.setattr(module, name, counting(kind, getattr(module, name)))
    return calls


def _run_samples(e2e, samples, repairs=None):
    gateway = ScriptedGateway({"cot:t": [f"#SQL: {sql}" for sql in samples], **(repairs or {})})
    config = e2e.config.with_(n_candidates=len(samples), no_extraction=True)
    return run_pipeline("How many patients are female?", e2e.make_deps(gateway), config,
                        question_id="t")


def test_pipeline_aligns_and_executes_each_distinct_sql_once(e2e, sql_calls):
    bad = "SELECT COUNT(PatientID) FROM Patient WHERE SEX = 'F'"
    lower = "SELECT COUNT(*) FROM Patient WHERE SEX = 'f'"
    samples = [FEMALE, FEMALE, lower, bad, bad]
    # both repairs equal the first sample, already aligned and executed
    repairs = {f"correction:t:c{i}:round1": f"#SQL: {FEMALE}" for i in (3, 4)}
    result = _run_samples(e2e, samples, repairs)
    assert [c.sql for c in result.candidates] == [FEMALE] * 5
    assert [c.correction_rounds for c in result.candidates] == [0, 0, 0, 1, 1]
    assert [sql for kind, sql in sql_calls if kind == "align"] == [FEMALE, lower, bad]
    executed = [sql for kind, sql in sql_calls if kind == "execute"]
    # one distinct SQL in the winning group: no timing repeats
    assert len(executed) == 2
    assert executed[0] == FEMALE and "PatientID" in executed[1]
    assert result.winner_index == 0
    assert result.rows == ((3,),)


def test_pipeline_times_only_a_mixed_winning_group(e2e, sql_calls):
    by_id = "SELECT COUNT(ID) FROM Patient WHERE SEX = 'F'"
    everyone = "SELECT COUNT(*) FROM Patient"
    result = _run_samples(e2e, [FEMALE, by_id, FEMALE, everyone])
    group = {result.candidates[i].sql for i in (0, 1, 2)}
    assert len(group) == 2
    # each statement of the group runs `timing_repeats` times in all, its
    # first run included; the statement outside it runs once
    executed = Counter(sql for kind, sql in sql_calls if kind == "execute")
    assert executed == {**dict.fromkeys(group, e2e.config.timing_repeats),
                        result.candidates[3].sql: 1}
    assert result.winner_index in (0, 1)
    assert result.rows == ((3,),)


def test_pipeline_winner_of_one_distinct_sql_is_its_first_member(e2e):
    samples = ["SELECT COUNT(*) FROM Patient"] + [FEMALE] * 6
    winners = {_run_samples(e2e, samples).winner_index for _ in range(2)}
    assert winners == {1}


@pytest.mark.parametrize("delay_s", [0, None], ids=["fast", "slow"])
def test_pipeline_starts_a_chain_only_for_a_failing_candidate(e2e, slow_gateway, monkeypatch,
                                                              delay_s):
    bad = "SELECT COUNT(PatientID) FROM Patient WHERE SEX = 'F'"
    samples = [FEMALE, bad, FEMALE, bad]
    replies = {"cot:t": [f"#SQL: {sql}" for sql in samples],
               **{f"correction:t:c{i}:round1": f"#SQL: {FEMALE}" for i in (1, 3)}}
    gateway = slow_gateway(replies) if delay_s is None else slow_gateway(replies, delay_s)
    chains = []
    original = t2s.pipeline.correct

    def counting(question, sql, outcome, *args, stage_prefix, **kwargs):
        chains.append(stage_prefix)
        return original(question, sql, outcome, *args, stage_prefix=stage_prefix, **kwargs)

    monkeypatch.setattr(t2s.pipeline, "correct", counting)
    config = e2e.config.with_(n_candidates=len(samples), no_extraction=True)
    result = run_pipeline("How many patients are female?", e2e.make_deps(gateway), config,
                          question_id="t")
    assert sorted(chains) == ["correction:t:c1", "correction:t:c3"]
    assert [c.sql for c in result.candidates] == [FEMALE] * 4
    assert [c.correction_rounds for c in result.candidates] == [0, 1, 0, 1]
    assert result.trace["correction"] == {"attempted": 2, "changed": 2, "flags": [[]] * 4}
    assert result.rows == ((3,),)


# -- correction chains on a pool when the model is slow -------------------

Q10 = "How many distinct patients had a lab test in 1996?"
Q10_FIX = "SELECT COUNT(DISTINCT ID) FROM Laboratory WHERE strftime('%Y', Date) = '1996'"


def test_pipeline_fast_model_corrects_on_the_calling_thread(e2e, slow_gateway):
    gateway = slow_gateway(e2e.replies, delay_s=0)
    result = run_pipeline(Q10, e2e.make_deps(gateway), e2e.config, question_id="q10")
    assert [c.correction_rounds for c in result.candidates] == [1, 1, 1]
    assert sum(1 for _, stage in gateway.calls if stage.startswith("correction:")) == 3
    assert {t.ident for t in gateway.threads} == {threading.get_ident()}


def test_pipeline_slow_model_runs_chains_concurrently(e2e, slow_gateway):
    gateway = slow_gateway(e2e.replies)
    result = run_pipeline(Q10, e2e.make_deps(gateway), e2e.config, question_id="q10")
    assert [c.sql for c in result.candidates] == [Q10_FIX] * 3
    assert [c.correction_rounds for c in result.candidates] == [1, 1, 1]
    assert result.trace["correction"]["changed"] == 3
    assert result.rows == ((1,),)
    assert gateway.max_in_flight >= 2
    pool_threads = {t for t in gateway.threads if t.ident != threading.get_ident()}
    assert pool_threads
    assert not any(t.is_alive() for t in pool_threads)


def test_pipeline_slow_model_gateway_error_stays_in_its_chain(e2e, slow_gateway):
    replies = {k: v for k, v in e2e.replies.items() if k != "correction:q10:c1:round1"}
    result = run_pipeline(Q10, e2e.make_deps(slow_gateway(replies)), e2e.config,
                          question_id="q10")
    assert [c.correction_flags for c in result.candidates] == [
        [], ["correction_gateway_failed"], []]
    assert [c.correction_rounds for c in result.candidates] == [1, 0, 1]
    assert result.candidates[0].sql == result.candidates[2].sql == Q10_FIX
    assert result.candidates[1].outcome.status == "Error"
    assert result.rows == ((1,),)


def test_pipeline_slow_model_unexpected_chain_error_is_raised(e2e, slow_gateway):
    class Broken(slow_gateway):
        def complete(self, prompt, config, stage=None):
            if stage == "correction:q10:c1:round1":
                raise RuntimeError("chain c1 broke")
            return super().complete(prompt, config, stage=stage)

    with pytest.raises(RuntimeError, match="chain c1 broke"):
        run_pipeline(Q10, e2e.make_deps(Broken(e2e.replies)), e2e.config, question_id="q10")


# -- offline preparation --------------------------------------------------


def test_preprocess_database_artifacts(clinical_db, tmp_path):
    catalog, index = preprocess_database(
        clinical_db, db_id="clinical", out_dir=tmp_path
    )
    assert {t.name for t in catalog.tables} == {"Patient", "Laboratory"}
    assert index.cell_count() == 15

    catalog_path = tmp_path / "clinical.catalog.json"
    values_path = tmp_path / "clinical.values.jsonl"
    assert catalog_path.exists() and values_path.exists()
    reloaded = ValueIndex.load(values_path)
    assert reloaded.cell_count() == 15
    saved = json.loads(catalog_path.read_text())
    assert saved["db_id"] == "clinical"


def test_build_fewshot_library_augments_and_saves(tmp_path):
    reply = (
        "#reason: count rows\n#columns: Patient.SEX\n#values: none\n"
        "#SQL-like: Show COUNT(*)\n#SQL: SELECT COUNT(*) FROM Patient"
    )
    gw = ScriptedGateway({"augment:0": reply, "augment:1": "unusable"})
    out = tmp_path / "lib.jsonl"
    library = build_fewshot_library(
        [
            ("How many patients?", "SELECT COUNT(*) FROM Patient"),
            ("How many labs?", "SELECT COUNT(*) FROM Laboratory"),
        ],
        gw,
        db_id="clinical",
        out_path=out,
    )
    assert len(library.shots) == 2
    assert not library.shots[0].is_degraded()
    assert library.shots[1].is_degraded()
    assert library.shots[1].sql == "SELECT COUNT(*) FROM Laboratory"

    loaded = FewShotLibrary.load(out)
    assert [s.question for s in loaded.shots] == [
        "How many patients?",
        "How many labs?",
    ]


def test_built_library_file_holds_text_only(tmp_path):
    reply = (
        "#reason: count rows\n#columns: Patient.SEX\n#values: Patient.SEX = 'F'\n"
        "#SQL-like: Show COUNT(*) WHERE SEX = 'F'\n"
        "#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"
    )
    pairs = [
        ("How many female patients are there?", "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"),
        ("How many labs were taken in 1997?", "SELECT COUNT(*) FROM Laboratory WHERE Date LIKE '1997%'"),
        ("List the IDs of male patients.", "SELECT ID FROM Patient WHERE SEX = 'M'"),
    ]
    gw = ScriptedGateway({"augment:0": reply})
    out = tmp_path / "lib.jsonl"
    built = build_fewshot_library(pairs, gw, db_id="clinical", out_path=out)
    assert all(shot.vector is None for shot in built.shots)

    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records[0] == {"format": "t2s-fewshot", "version": 1}
    assert [r["type"] for r in records[1:]] == ["shot"] * 3
    assert not any("vector" in r or "dim" in r for r in records)

    loaded = FewShotLibrary.load(out)
    for question in ("How many male patients are there?", "List the labs from 2001."):
        picked = built.select_fewshots(question, k=2)
        again = loaded.select_fewshots(question, k=2)
        assert [s.question for s in again] == [s.question for s in picked]
    for a, b in zip(built.shots, loaded.shots):
        assert a.vector.dtype == b.vector.dtype
        assert a.vector.tobytes() == b.vector.tobytes()
