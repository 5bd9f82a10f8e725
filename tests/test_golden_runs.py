"""Golden runs: what the pipeline does on two fixed question lists.

Behaviour is meant to stay identical across refactors of the candidate
loop, apart from timings.  This test runs two scripted question lists
through `run_pipeline` and compares a record of each question with the
committed files under `tests/golden/`:

- the ten questions of the `e2e` fixture (three candidates each);
- one round of perfbench's many-candidates workload at seed 1, built by
  `make_workload` from `perfbench/workload.py` and replayed through
  `ScriptedGateway`;
- three scripted cases that neither list reaches: a tie between vote
  groups of equal size, the function-alignment pass, and a vote with no
  eligible candidate.

Per question the record holds:

- the stage key and a sha256 prefix of every prompt, in call order;
- each candidate's raw SQL, final (aligned and corrected) SQL, correction
  rounds, execution status and answer digest;
- the trace of every stage, which holds each candidate's alignment and
  correction flags, apart from the vote's winner;
- the vote's winning group, `eligible`, `excluded` and `fallback`, and
  the answer digest of the result.

Timing-dependent fields are left out.  Inside the winning group the vote
picks the fastest member, so when that group holds more than one
distinct SQL string the winner's index and SQL depend on timing noise.
The record holds the group's sorted set of distinct SQL instead.

Rewrite the files with `T2S_REGENERATE_GOLDEN=1`, and say why in the
change that does so.
"""

import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import pytest

import t2s.pipeline
from t2s import (
    CoTBody,
    Deps,
    FewShot,
    FewShotLibrary,
    PipelineConfig,
    ScriptedGateway,
    mask_question,
    preprocess_database,
    run_pipeline,
)
from t2s.refine import answer_key

GOLDEN = Path(__file__).parent / "golden"
REGENERATE = os.environ.get("T2S_REGENERATE_GOLDEN") == "1"
WORKLOAD_SEED = 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _answer(rows) -> str:
    return _digest(repr(answer_key(rows)))


def _record(qid, result, gateway, vote):
    """One question's record; SQL strings are stored once, in `sql`, and
    candidates refer to them by position."""
    sql: dict[str, int] = {}

    def ref(text):
        return sql.setdefault(text, len(sql))

    trace = dict(result.trace)
    if "vote" in trace:
        trace["vote"] = {k: v for k, v in trace["vote"].items() if k != "winner_index"}
    record = {
        "question": qid,
        "prompts": [[stage, _digest(prompt)] for prompt, stage in gateway.calls],
        # raw SQL, final SQL, correction rounds, execution status, answer
        # digest; the trace holds each candidate's alignment and correction flags
        "candidates": [
            [ref(c.sql_raw), ref(c.sql), c.correction_rounds, c.outcome.status,
             _answer(c.outcome.rows)]
            for c in result.candidates
        ],
        "trace": trace,
        "answer": _answer(result.rows),
        "status": result.status,
    }
    if vote is not None:
        record["vote"] = {
            "group_indices": vote.group_indices,
            "group_sql": sorted({result.candidates[i].sql for i in vote.group_indices}),
            "eligible": vote.eligible,
            "excluded": vote.excluded,
            "fallback": vote.fallback,
        }
    record["sql"] = list(sql)
    return record


@pytest.fixture
def last_vote(monkeypatch):
    """Keeps the last `VoteResult` that `run_pipeline` computed."""
    seen = {}
    original = t2s.pipeline.vote_detail

    def capture(candidates):
        seen["vote"] = original(candidates)
        return seen["vote"]

    monkeypatch.setattr(t2s.pipeline, "vote_detail", capture)
    return seen


def _check(name: str, records: list) -> None:
    path = GOLDEN / f"{name}.json"
    if REGENERATE:
        GOLDEN.mkdir(exist_ok=True)
        lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
        path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        return
    # Round-trip through JSON so tuples and lists compare alike.
    got = json.loads(json.dumps(records))
    want = json.loads(path.read_text(encoding="utf-8"))
    assert [r["question"] for r in got] == [r["question"] for r in want]
    for g, w in zip(got, want):
        for key in sorted(set(g) | set(w)):
            assert g.get(key) == w.get(key), f"{name} {g['question']}: {key} differs"


def test_golden_e2e(e2e, last_vote):
    records = []
    for qid, question, evidence, *_ in e2e.tasks:
        deps = e2e.make_deps()
        last_vote.clear()
        result = run_pipeline(question, deps, e2e.config, evidence=evidence, question_id=qid)
        records.append(_record(qid, result, deps.gateway, last_vote.get("vote")))
    _check("e2e", records)


EDGE_CASES = (
    ("tie", "How many patients?", (
        "SELECT COUNT(*) FROM Patient",
        "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        "SELECT COUNT(*) FROM Patient",
    )),
    ("function", "Which patient has the highest IGA?", (
        "SELECT MAX(COUNT(ID)) FROM Laboratory",
        "SELECT ID FROM Laboratory ORDER BY MAX(IGA) DESC LIMIT 1",
        "SELECT T1.ID FROM Laboratory AS T1 INNER JOIN Patient AS T2 ON T1.ID = T2.ID",
    )),
    ("fallback", "Which patients have an unknown sex?", (
        "SELECT ID FROM Patient WHERE SEX = 'X'",
        "SELECT nope FROM Patient",
    )),
)


def test_golden_edge_cases(e2e, last_vote):
    records = []
    for qid, question, samples in EDGE_CASES:
        gateway = ScriptedGateway({f"cot:{qid}": [f"#SQL: {sql}" for sql in samples]})
        config = e2e.config.with_(n_candidates=len(samples), no_extraction=True)
        last_vote.clear()
        result = run_pipeline(question, e2e.make_deps(gateway), config, question_id=qid)
        records.append(_record(qid, result, gateway, last_vote.get("vote")))
    _check("edge_cases", records)


def _perfbench_workload(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"
    spec = importlib.util.spec_from_file_location("perfbench_workload", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _many_candidates_records(tmp_path, monkeypatch, last_vote, gateway_type):
    workload_module = _perfbench_workload(monkeypatch)
    spec = workload_module.SPECS["many-candidates"]
    workload = workload_module.make_workload(spec, WORKLOAD_SEED, tmp_path)
    catalog, index = preprocess_database(workload.db_path, db_id="bench")
    library = FewShotLibrary(
        shots=[
            FewShot(
                question=q,
                sql=sql,
                cot=CoTBody(reason="filter by the named values", columns="",
                            values="", sql_like=sql),
                masked_question=mask_question(q),
                db_id="bench",
            )
            for q, sql in workload.shots
        ]
    )
    config = PipelineConfig(n_candidates=spec.n_candidates, no_correction=not spec.correction)
    records = []
    for q in workload.questions:
        gateway = gateway_type(q.replies)
        deps = Deps(catalog=catalog, db_path=str(workload.db_path), index=index,
                    library=library, gateway=gateway)
        last_vote.clear()
        result = run_pipeline(q.text, deps, config, question_id=q.qid)
        records.append(_record(q.qid, result, gateway, last_vote.get("vote")))
    return records


def test_golden_many_candidates(tmp_path, monkeypatch, last_vote):
    # The sequential path, however long the scripted generation call takes:
    # on the pool the chains would call the model in another order.
    monkeypatch.setattr(t2s.pipeline, "SLOW_MODEL_CALL_S", math.inf)
    records = _many_candidates_records(tmp_path, monkeypatch, last_vote, ScriptedGateway)
    _check("many_candidates", records)


def test_golden_many_candidates_on_concurrent_chains(tmp_path, monkeypatch, last_vote,
                                                     slow_gateway):
    """A model slower than the pipeline's gate puts the correction chains on
    a pool.  Every field matches the golden file, apart from the order of
    prompts across chains: they are compared as a multiset."""
    threads = []

    def gateway_type(replies):
        gateway = slow_gateway(replies)
        threads.append(gateway.threads)
        return gateway

    records = _many_candidates_records(tmp_path, monkeypatch, last_vote, gateway_type)
    assert len({t.ident for seen in threads for t in seen}) > 1
    got = json.loads(json.dumps(records))
    want = json.loads((GOLDEN / "many_candidates.json").read_text(encoding="utf-8"))
    assert [r["question"] for r in got] == [r["question"] for r in want]
    for g, w in zip(got, want):
        assert sorted(g["prompts"]) == sorted(w["prompts"]), f"{g['question']}: prompts"
        for key in sorted((set(g) | set(w)) - {"prompts"}):
            assert g.get(key) == w.get(key), f"many_candidates {g['question']}: {key} differs"
