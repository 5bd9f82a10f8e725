import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2s import (
    CoTBody,
    FewShot,
    FewShotLibrary,
    GatewayError,
    ScriptedGateway,
    TrigramEmbedder,
    mask_question,
)
from t2s.errors import IngestError
from t2s.fewshot import (
    COT_MARKERS,
    EMPTY_RESULT_TEXT,
    DEFAULT_CORRECTIONS,
    augment_cot,
    build_augment_prompt,
    render_fewshot,
    render_fewshots,
    split_marked_sections,
)
from t2s.gateway import LlmConfig


# -- masking --------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,masked",
    [
        ("How many patients are there?", "How many patients are there?"),
        ("Who scored more than 50 points?", "Who scored more than <NUM> points?"),
        ("Admitted on 1996-02-11?", "Admitted on <DATE>?"),
        ("Admitted on 11/02/1996?", "Admitted on <DATE>?"),
        ("Is the name 'John Smith'?", "Is the name <VAL>?"),
        ('Is the city "Davis"?', "Is the city <VAL>?"),
        ("Between 1996 and 1997?", "Between <NUM> and <NUM>?"),
        ("IGA above 80.5 in '1996'?", "IGA above <NUM> in <VAL>?"),
    ],
)
def test_mask_question_examples(raw, masked):
    assert mask_question(raw) == masked


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_mask_question_idempotent(text):
    once = mask_question(text)
    assert mask_question(once) == once


def test_masks_share_shape():
    a = mask_question("How many labs list IGA above 80?")
    b = mask_question("How many labs list IGA above 500?")
    assert a == b


# -- marked sections ------------------------------------------------------


def test_split_marked_sections_basic():
    text = "#reason: because\n#columns: a.b, c.d\n#SQL: SELECT 1"
    got = split_marked_sections(text, COT_MARKERS)
    assert got["#reason:"] == "because"
    assert got["#columns:"] == "a.b, c.d"
    assert got["#SQL:"] == "SELECT 1"


def test_split_marked_sections_multiline_value():
    text = "#reason: first line\ncontinues here\n#SQL: SELECT 1"
    got = split_marked_sections(text, ("#reason:", "#SQL:"))
    assert got["#reason:"] == "first line\ncontinues here"


def test_split_marked_sections_first_occurrence_wins():
    text = "#SQL: SELECT 1\n#SQL: SELECT 2\ntrailing chatter"
    got = split_marked_sections(text, ("#SQL:",))
    # the repeat and everything after it are dropped, not appended
    assert got["#SQL:"] == "SELECT 1"


def test_split_marked_sections_ignores_preamble():
    text = "chatty intro\n#SQL: SELECT 1"
    got = split_marked_sections(text, ("#SQL:",))
    assert got["#SQL:"] == "SELECT 1"
    assert len(got) == 1


# -- rendering ------------------------------------------------------------


def test_render_fewshot_full_block():
    shot = FewShot(
        question="How many male patients are there?",
        sql="SELECT COUNT(*) FROM Patient WHERE SEX = 'M'",
        cot=CoTBody(
            reason="count rows of Patient filtered by sex",
            columns="Patient.SEX",
            values="Patient.SEX = 'M'",
            select="How many male patients refer to COUNT(*)",
            sql_like="Show COUNT(*) WHERE SEX = 'M'",
        ),
    )
    text = render_fewshot(shot)
    assert text.splitlines() == [
        "/* Answer the following:How many male patients are there? */",
        "#reason: count rows of Patient filtered by sex",
        "#columns: Patient.SEX",
        "#values: Patient.SEX = 'M'",
        "#SELECT: How many male patients refer to COUNT(*)",
        "#SQL-like: Show COUNT(*) WHERE SEX = 'M'",
        "#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'M'",
    ]


def test_render_degraded_shot_is_question_and_sql():
    shot = FewShot(question="Q?", sql="SELECT 1")
    assert render_fewshot(shot).splitlines() == [
        "/* Answer the following:Q? */",
        "#SQL: SELECT 1",
    ]


def test_render_fewshots_blank_line_between():
    shots = [FewShot(question="A?", sql="SELECT 1"), FewShot(question="B?", sql="SELECT 2")]
    assert render_fewshots(shots).count("\n\n") == 1


# -- augmentation ---------------------------------------------------------

GOOD_REPLY = (
    "#reason: count matching rows\n"
    "#columns: Patient.SEX\n"
    "#values: Patient.SEX = 'F'\n"
    "#SQL-like: Show COUNT(*) WHERE SEX = 'F'\n"
    "#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"
)


def test_augment_builds_full_shot():
    gw = ScriptedGateway({"augment:0": GOOD_REPLY})
    shot = augment_cot(
        "How many female patients are there?",
        "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        gw,
        db_id="clinical",
        stage="augment:0",
    )
    assert not shot.is_degraded()
    assert shot.cot.reason == "count matching rows"
    assert shot.db_id == "clinical"
    assert shot.masked_question == "How many female patients are there?"
    assert shot.vector is None


def test_augment_keeps_gold_sql_verbatim():
    tampered = GOOD_REPLY.replace(
        "#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        "#SQL: SELECT 999",
    )
    gw = ScriptedGateway({"augment:0": tampered})
    shot = augment_cot("Q?", "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'", gw, stage="augment:0")
    assert shot.sql == "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"


def test_augment_retries_then_degrades():
    gw = ScriptedGateway({"augment:0": "no markers at all"})
    shot = augment_cot("Q?", "SELECT 1", gw, stage="augment:0")
    assert shot.is_degraded()
    assert len(gw.calls) == 3


def test_augment_degrades_on_gateway_error():
    shot = augment_cot("Q?", "SELECT 1", ScriptedGateway(), stage="augment:0")
    assert shot.is_degraded()
    assert shot.sql == "SELECT 1"


def test_augment_degrades_on_empty_completion(empty_gateway):
    shot = augment_cot("Q?", "SELECT 1", empty_gateway, stage="augment:0")
    assert shot.is_degraded()
    assert shot.sql == "SELECT 1"
    assert empty_gateway.calls == 1


def test_augment_prompt_contains_pair_and_format():
    prompt = build_augment_prompt("The question?", "SELECT 1", schema_text="/* Database schema */\nTable X:")
    assert prompt.startswith("/* Database schema */")
    assert "/* Answer the following:The question? */" in prompt
    assert prompt.rstrip().endswith("#SQL: SELECT 1")
    for marker in ("#reason:", "#columns:", "#values:", "#SQL-like:"):
        assert marker in prompt


# -- library selection ----------------------------------------------------


def make_library():
    shots = [
        FewShot(
            question="How many male patients are there?",
            sql="SELECT COUNT(*) FROM Patient WHERE SEX = 'M'",
            masked_question=mask_question("How many male patients are there?"),
            db_id="clinical",
        ),
        FewShot(
            question="List the clubs in 'Davis'.",
            sql="SELECT name FROM club WHERE city = 'Davis'",
            masked_question=mask_question("List the clubs in 'Davis'."),
            db_id="clubs",
        ),
        FewShot(
            question="How many female patients are there?",
            sql="SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
            masked_question=mask_question("How many female patients are there?"),
            db_id="clinical",
        ),
    ]
    return FewShotLibrary(shots=shots)


def test_select_fewshots_ranks_by_masked_similarity():
    lib = make_library()
    got = lib.select_fewshots("How many male patients are there?", k=2)
    assert got[0].question == "How many male patients are there?"
    assert got[1].question == "How many female patients are there?"


def test_select_fewshots_k_zero():
    assert make_library().select_fewshots("anything", k=0) == []


def test_select_fewshots_restrict_db():
    lib = make_library()
    got = lib.select_fewshots("List the clubs in 'X'.", k=3, restrict_db="clinical")
    assert len(got) == 2
    assert all(s.db_id == "clinical" for s in got)


def test_select_fewshots_caches_lazy_vectors():
    lib = make_library()
    assert all(s.vector is None for s in lib.shots)
    lib.select_fewshots("How many male patients are there?", k=1)
    assert all(s.vector is not None for s in lib.shots)


def test_select_fewshots_ties_break_by_insertion_order():
    lib = FewShotLibrary(
        shots=[
            FewShot(question="Same shape 1?", sql="SELECT 1", db_id="a"),
            FewShot(question="Same shape 2?", sql="SELECT 2", db_id="a"),
        ]
    )
    got = lib.select_fewshots("Same shape 9?", k=2)
    assert [s.sql for s in got] == ["SELECT 1", "SELECT 2"]


class _QuarterCountEmbedder:
    """Word counts times 0.25 hashed into 16 dimensions.

    Every dot product of these vectors is a small multiple of 1/16, so it
    is exact in any summation order: a tie is a tie in every kernel.
    """

    dim = 16

    def embed(self, text):
        vector = np.zeros(self.dim)
        for word in text.split():
            vector[sum(map(ord, word)) % self.dim] += 0.25
        return vector


def _old_selection(shots, question, k, embedder, restrict_db=None):
    """The per-shot loop selection used to run: (-cosine, index) order."""
    query = embedder.embed(mask_question(question))
    scored = [
        (-float(np.dot(query, embedder.embed(mask_question(shot.question)))), i, shot)
        for i, shot in enumerate(shots)
        if restrict_db is None or shot.db_id == restrict_db
    ]
    scored.sort(key=lambda item: (item[0], item[1]))
    return [shot for _neg, _i, shot in scored[:k]]


def test_select_fewshots_matches_per_shot_loop():
    rng = random.Random(5)
    words = ["how", "many", "list", "cities", "orders", "total", "in", "year", "name"]
    questions = [" ".join(rng.choices(words, k=rng.randint(2, 6))) for _ in range(120)]
    # Every question appears two or three times, so exact ties are common.
    questions += rng.choices(questions, k=200)
    shots = [
        FewShot(question=q, sql=f"SELECT {i}", db_id=rng.choice(["a", "b", "c"]))
        for i, q in enumerate(questions)
    ]
    lib = FewShotLibrary(shots=shots)
    embedder = _QuarterCountEmbedder()
    for restrict_db in (None, "b"):
        for question in ("how many cities", "list orders in year", questions[7], "zzz"):
            for k in (1, 3, 10, 50, 400):
                got = lib.select_fewshots(question, k, embedder, restrict_db=restrict_db)
                want = _old_selection(shots, question, k, embedder, restrict_db)
                assert [id(s) for s in got] == [id(s) for s in want]


def test_select_fewshots_fills_only_the_pool():
    lib = make_library()
    lib.select_fewshots("How many male patients are there?", k=1, restrict_db="clinical")
    assert [s.vector is not None for s in lib.shots] == [True, False, True]
    assert lib.select_fewshots("anything", k=2, restrict_db="nowhere") == []


def test_select_fewshots_follows_replaced_and_added_shots():
    lib = make_library()
    question = "List the clubs in 'Davis'."
    assert lib.select_fewshots(question, k=1)[0] is lib.shots[1]
    # A shot whose vector is replaced is scored by its new vector.
    lib.shots[0].vector = TrigramEmbedder().embed(mask_question(question))
    assert lib.select_fewshots(question, k=1)[0] is lib.shots[0]
    lib.shots.insert(0, FewShot(question=question, sql="SELECT 0", db_id="clubs"))
    assert lib.select_fewshots(question, k=1)[0] is lib.shots[0]


# -- correction shots -----------------------------------------------------


def test_default_corrections_present():
    lib = FewShotLibrary()
    for key in ("syntax", "empty_result", "timeout", "schema_mismatch", "other"):
        assert lib.correction_shots(key)


def test_correction_shot_golden_body():
    body = DEFAULT_CORRECTIONS["empty_result"][0].body
    lines = body.splitlines()
    assert lines[0] == "/* Fix the SQL and answer the question */"
    assert lines[1].startswith("#question: ")
    assert lines[2].startswith("#Error SQL: ")
    assert lines[3] == EMPTY_RESULT_TEXT
    assert lines[4].startswith("#values: ")
    assert lines[5].startswith("#Change Ambiguity: ")
    assert lines[6].startswith("#SQL: ")


def test_correction_shots_fall_back_to_other():
    lib = FewShotLibrary()
    got = lib.correction_shots("never_heard_of_it")
    assert got and got[0].error_key == "other"


# -- persistence ----------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    lib = make_library()
    lib.shots[0].cot = CoTBody(reason="r", columns="c", values="v", select="s", sql_like="q")
    lib.select_fewshots("warm the vectors", k=1)
    path = tmp_path / "lib.jsonl"
    lib.save(path)

    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0] == {"format": "t2s-fewshot", "version": 1}
    assert all(r["type"] == "shot" and "vector" not in r for r in records[1:])

    loaded = FewShotLibrary.load(path)
    assert [s.question for s in loaded.shots] == [s.question for s in lib.shots]
    assert loaded.shots[0].cot.reason == "r"
    assert loaded.shots[1].cot is None
    assert loaded.correction_shots("syntax")

    # selection behaves the same after the round trip
    a = [s.sql for s in lib.select_fewshots("How many male patients are there?", k=2)]
    b = [s.sql for s in loaded.select_fewshots("How many male patients are there?", k=2)]
    assert a == b
    for built, read in zip(lib.shots, loaded.shots):
        assert np.array_equal(read.vector, built.vector)


def _write_vector_format(library, path):
    """A library file as writers before the text-only format made it:
    a header `dim`, a rounded vector per shot and every correction shot."""
    lines = [{"format": "t2s-fewshot", "version": 1, "dim": 512}]
    for shot in library.shots:
        lines.append({
            "type": "shot",
            "question": shot.question,
            "sql": shot.sql,
            "masked_question": shot.masked_question,
            "db_id": shot.db_id,
            "cot": None if shot.cot is None else vars(shot.cot),
            "vector": [round(float(x), 9) for x in shot.vector],
        })
    for key, shots in sorted(DEFAULT_CORRECTIONS.items()):
        lines.extend({"type": "correction", "error": key, "body": c.body} for c in shots)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_load_reads_vector_format(tmp_path):
    built = make_library()
    built.shots[0].cot = CoTBody(reason="r", columns="c", values="v", select="s", sql_like="q")
    built.select_fewshots("warm the vectors", k=1)
    path = tmp_path / "old.jsonl"
    _write_vector_format(built, path)

    loaded = FewShotLibrary.load(path)
    assert all(s.vector is None for s in loaded.shots)
    assert loaded.shots[0].cot == built.shots[0].cot
    for key in list(DEFAULT_CORRECTIONS) + ["never_heard_of_it"]:
        expected = DEFAULT_CORRECTIONS.get(key, DEFAULT_CORRECTIONS["other"])
        assert loaded.correction_shots(key) == expected
    for question in ("How many male patients are there?", "List the clubs in 'Oslo'."):
        assert [s.sql for s in loaded.select_fewshots(question, k=3)] == [
            s.sql for s in built.select_fewshots(question, k=3)
        ]
    for built_shot, read in zip(built.shots, loaded.shots):
        assert np.array_equal(read.vector, built_shot.vector)


@pytest.mark.parametrize("header", ['{"format": "t2s-few', "[1, 2]", "null"])
def test_load_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(IngestError):
        FewShotLibrary.load(path)


def test_load_rejects_unknown_record_type(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"format": "t2s-fewshot", "version": 1}\n{"type": "mystery"}\n')
    with pytest.raises(IngestError):
        FewShotLibrary.load(path)


def test_load_reports_the_file_line_of_a_bad_record(tmp_path):
    # Blank lines are skipped but still counted: the broken record is on
    # line 5 of the file.
    path = tmp_path / "x.jsonl"
    shot = {"type": "shot", "question": "q", "sql": "SELECT 1"}
    path.write_text(
        '{"format": "t2s-fewshot", "version": 1}\n'
        + json.dumps(shot) + "\n\n  \n"
        + '{"type": "shot", "question": "no sql"}\n'
    )
    with pytest.raises(IngestError, match=r"at line 5:"):
        FewShotLibrary.load(path)


@pytest.mark.parametrize("key", ["question", "sql"])
def test_load_rejects_a_shot_field_that_is_not_text(tmp_path, key):
    shot = {"type": "shot", "question": "q", "sql": "SELECT 1"}
    shot[key] = 5
    path = tmp_path / "x.jsonl"
    path.write_text('{"format": "t2s-fewshot", "version": 1}\n' + json.dumps(shot) + "\n")
    with pytest.raises(IngestError, match=r"at line 2:"):
        FewShotLibrary.load(path)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"format": "other", "version": 1, "dim": 0}\n')
    with pytest.raises(IngestError):
        FewShotLibrary.load(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"format": "t2s-fewshot", "version": 99, "dim": 0}\n')
    with pytest.raises(IngestError):
        FewShotLibrary.load(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(IngestError):
        FewShotLibrary.load(path)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(
        b'{"format": "t2s-fewshot", "version": 1}\n'
        b'{"type": "shot", "question": "Caf\xe9?", "sql": "SELECT 1"}\n'
    )
    with pytest.raises(IngestError, match="not UTF-8"):
        FewShotLibrary.load(path)


_COT = {"reason": "r", "columns": "T.c", "values": "none", "select": "", "sql_like": "SELECT 1"}


@pytest.mark.parametrize("change", [
    {"cot": [1]},
    {"cot": "reasoning"},
    {"cot": {**_COT, "reason": 5}},
    {"cot": {**_COT, "sql_like": None}},
    {"db_id": 3},
    {"masked_question": 5},
], ids=["cot-list", "cot-text", "cot-reason", "cot-sql-like", "db-id", "masked-question"])
def test_load_rejects_a_shot_of_the_wrong_shape(tmp_path, change):
    shot = {"type": "shot", "question": "q", "sql": "SELECT 1", "masked_question": "q",
            "db_id": "db", "cot": _COT, **change}
    path = tmp_path / "x.jsonl"
    path.write_text('{"format": "t2s-fewshot", "version": 1}\n' + json.dumps(shot) + "\n")
    with pytest.raises(IngestError, match=r"at line 2:"):
        FewShotLibrary.load(path)


def test_load_takes_a_shot_without_optional_fields(tmp_path):
    path = tmp_path / "x.jsonl"
    shot = {"type": "shot", "question": "q", "sql": "SELECT 1", "cot": {"reason": "r"}}
    path.write_text('{"format": "t2s-fewshot", "version": 1}\n' + json.dumps(shot) + "\n")
    (loaded,) = FewShotLibrary.load(path).shots
    assert (loaded.masked_question, loaded.db_id) == ("", "")
    assert loaded.cot == CoTBody(reason="r")
