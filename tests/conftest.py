"""Shared fixtures: two small SQLite databases and a fully scripted
ten-question run (dataset, transcript, demonstration library).

The clinical database has a two-table layout with a quoted column name
and a foreign key; the second database exercises the awkward case of a
table named with a reserved word.  Everything is session-scoped and
read-only once built.
"""

import json
import sqlite3
import threading
import time
from types import SimpleNamespace

import pytest

from t2s import (
    CoTBody,
    Completion,
    Deps,
    FewShot,
    FewShotLibrary,
    PipelineConfig,
    ScriptedGateway,
    ValueIndex,
    ingest_schema,
    mask_question,
)
from t2s.pipeline import SLOW_MODEL_CALL_S

CLINICAL_DDL = """
CREATE TABLE Patient (
    ID integer primary key,
    SEX text,
    `First Date` text,
    Admission text
);
CREATE TABLE Laboratory (
    ID integer NOT NULL references Patient(ID),
    IGA integer,
    Date text
);
"""

CLINICAL_PATIENTS = [
    (1, "F", "1991-06-12", "+"),
    (2, "M", "1988-01-03", "-"),
    (3, "F", "1995-11-20", "+"),
    (4, "M", "1992-04-05", "-"),
    (5, "F", "1985-09-30", "+"),
]

CLINICAL_LABS = [
    (1, 120, "1995-01-10"),
    (1, 90, "1996-02-11"),
    (2, 300, "1991-05-06"),
    (3, 700, "1997-07-08"),
    (4, 60, "1993-03-04"),
    (5, 450, "1998-08-09"),
]


def build_clinical_db(path):
    conn = sqlite3.connect(path)
    conn.executescript(CLINICAL_DDL)
    conn.executemany("INSERT INTO Patient VALUES (?,?,?,?)", CLINICAL_PATIENTS)
    conn.executemany("INSERT INTO Laboratory VALUES (?,?,?)", CLINICAL_LABS)
    conn.commit()
    conn.close()


def build_golden_db(path):
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE "table" (ID integer primary key, name text, score integer);
        INSERT INTO "table" VALUES (1,'JOHN',45),(2,'MARY',78),(3,'DAVE',NULL);
        """
    )
    conn.commit()
    conn.close()


@pytest.fixture(scope="session")
def clinical_db(tmp_path_factory):
    # placed in a bench-style layout so the CLI tests can reuse it
    root = tmp_path_factory.mktemp("dbroot")
    db_dir = root / "clinical"
    db_dir.mkdir()
    path = db_dir / "clinical.sqlite"
    build_clinical_db(path)
    return path


@pytest.fixture(scope="session")
def db_root(clinical_db):
    return clinical_db.parent.parent


@pytest.fixture(scope="session")
def clinical_catalog(clinical_db):
    return ingest_schema(clinical_db)


@pytest.fixture(scope="session")
def clinical_index(clinical_db, clinical_catalog):
    return ValueIndex.build(clinical_db, clinical_catalog)


@pytest.fixture(scope="session")
def golden_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.sqlite"
    build_golden_db(path)
    return path


@pytest.fixture(scope="session")
def golden_catalog(golden_db):
    return ingest_schema(golden_db)


@pytest.fixture(scope="session")
def golden_index(golden_db, golden_catalog):
    return ValueIndex.build(golden_db, golden_catalog)


# -- scripted ten-question run -------------------------------------------


def _cot(reason, columns, values, select, sql_like, sql):
    return "\n".join(
        [
            f"#reason: {reason}",
            f"#columns: {columns}",
            f"#values: {values}",
            f"#SELECT: {select}",
            f"#SQL-like: {sql_like}",
            f"#SQL: {sql}",
        ]
    )


def _extraction(reason, columns, values, select):
    return "\n".join(
        [
            f"#reason: {reason}",
            f"#columns: {columns}",
            f"#values: {values}",
            f"#SELECT: {select}",
        ]
    )


# question_id, question, evidence, gold SQL, difficulty, extraction reply, generation reply
E2E_TASKS = [
    (
        "q01",
        "How many patients are female?",
        "female refers to SEX = 'F'",
        "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        "simple",
        _extraction(
            "count the patients whose sex column holds the female code",
            "Patient.ID, Patient.SEX",
            "F",
            "How many patients => COUNT(Patient.ID)",
        ),
        _cot(
            "Count rows of Patient filtered on the stored sex code.",
            "Patient.ID, Patient.SEX",
            "Patient.SEX = 'F'",
            "How many patients refer to COUNT(*)",
            "Show COUNT(*) WHERE Patient.SEX = 'F'",
            "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'",
        ),
    ),
    (
        "q02",
        "How many patients with a normal Ig A level came to the hospital after 1990?",
        "normal Ig A level refers to IGA > 80 AND IGA < 500;",
        "SELECT COUNT(DISTINCT T1.ID) FROM Patient AS T1 INNER JOIN Laboratory AS T2 "
        "ON T1.ID = T2.ID WHERE T2.IGA > 80 AND T2.IGA < 500 "
        "AND strftime('%Y', T1.`First Date`) >= '1990'",
        "moderate",
        _extraction(
            "count distinct patients joined to laboratory results in an IGA range",
            "Patient.ID, Laboratory.IGA, Patient.`First Date`",
            "normal Ig A level",
            "How many patients => COUNT(DISTINCT Patient.ID)",
        ),
        _cot(
            "The question wants to count the number of patients with a normal Ig A "
            "level who came to the hospital after 1990, so SELECT will count distinct "
            "patients based on the specified conditions.",
            "Patient.ID, Laboratory.IGA, Patient.`First Date`",
            "normal Ig A level refers to Laboratory.IGA > 80 AND Laboratory.IGA < 500",
            "How many patients refer to COUNT(DISTINCT Patient.ID)",
            "Show COUNT(DISTINCT Patient.ID) WHERE Laboratory.IGA > 80 AND "
            "Laboratory.IGA < 500 AND YEAR(Patient.`First Date`) >= '1990'",
            "SELECT COUNT(DISTINCT T1.ID) FROM Patient AS T1 INNER JOIN Laboratory AS T2 "
            "ON T1.ID = T2.ID WHERE T2.IGA > 80 AND T2.IGA < 500 "
            "AND strftime('%Y', T1.`First Date`) >= '1990'",
        ),
    ),
    (
        "q03",
        "List the IDs of patients whose admission is positive.",
        "positive admission refers to Admission = '+'",
        "SELECT ID FROM Patient WHERE Admission = '+'",
        "simple",
        _extraction(
            "list patient identifiers filtered by the admission flag",
            "Patient.ID, Patient.Admission",
            "+",
            "List the IDs => Patient.ID",
        ),
        _cot(
            "Filter Patient rows on the admission flag and return the IDs.",
            "Patient.ID, Patient.Admission",
            "Patient.Admission = '+'",
            "List the IDs refer to Patient.ID",
            "Show Patient.ID WHERE Patient.Admission = '+'",
            "SELECT ID FROM Patient WHERE Admission = '+'",
        ),
    ),
    (
        "q04",
        "What is the highest IGA value recorded?",
        "",
        "SELECT MAX(IGA) FROM Laboratory",
        "simple",
        _extraction(
            "find the maximum IGA measurement",
            "Laboratory.IGA",
            "none",
            "What is the highest IGA value => MAX(Laboratory.IGA)",
        ),
        _cot(
            "Take the maximum of the IGA column over all laboratory rows.",
            "Laboratory.IGA",
            "none",
            "What is the highest IGA value refer to MAX(Laboratory.IGA)",
            "Show MAX(Laboratory.IGA)",
            "SELECT MAX(IGA) FROM Laboratory",
        ),
    ),
    (
        "q05",
        "Show each patient ID with their number of laboratory tests.",
        "",
        "SELECT ID, COUNT(*) FROM Laboratory GROUP BY ID",
        "moderate",
        _extraction(
            "group laboratory rows per patient and count them",
            "Laboratory.ID",
            "none",
            "Show each patient ID => Laboratory.ID",
        ),
        _cot(
            "Group the Laboratory table by patient ID and count rows per group.",
            "Laboratory.ID",
            "none",
            "Show each patient ID refer to Laboratory.ID, COUNT(*)",
            "Show Laboratory.ID, COUNT(*) GROUP BY Laboratory.ID",
            "SELECT ID, COUNT(*) FROM Laboratory GROUP BY ID",
        ),
    ),
    (
        "q06",
        "Which patient has the earliest first date?",
        "",
        "SELECT ID FROM Patient ORDER BY `First Date` ASC LIMIT 1",
        "moderate",
        _extraction(
            "order patients by their first date and keep the earliest",
            "Patient.ID, Patient.`First Date`",
            "none",
            "Which patient => Patient.ID",
        ),
        _cot(
            "Order Patient rows by the first date ascending and keep one row.",
            "Patient.ID, Patient.`First Date`",
            "none",
            "Which patient refer to Patient.ID",
            "Show Patient.ID ORDER BY Patient.`First Date` LIMIT 1",
            "SELECT ID FROM Patient ORDER BY `First Date` LIMIT 1",
        ),
    ),
    (
        "q07",
        "How many male patients have an IGA value above 100?",
        "male refers to SEX = 'M'",
        "SELECT COUNT(DISTINCT Patient.ID) FROM Patient INNER JOIN Laboratory "
        "ON Patient.ID = Laboratory.ID WHERE Patient.SEX = 'M' AND Laboratory.IGA > 100",
        "moderate",
        _extraction(
            "count male patients joined to laboratory rows with IGA above 100",
            "Patient.ID, Patient.SEX, Laboratory.IGA",
            "M",
            "How many male patients => COUNT(DISTINCT Patient.ID)",
        ),
        _cot(
            "Join Patient to Laboratory on ID, keep males with IGA above 100.",
            "Patient.ID, Patient.SEX, Laboratory.IGA",
            "Patient.SEX = 'M'",
            "How many male patients refer to COUNT(DISTINCT Patient.ID)",
            "Show COUNT(DISTINCT Patient.ID) WHERE Patient.SEX = 'M' AND Laboratory.IGA > 100",
            "SELECT COUNT(DISTINCT Patient.ID) FROM Patient INNER JOIN Laboratory "
            "ON Patient.ID = Laboratory.ID WHERE Patient.SEX = 'M' AND Laboratory.IGA > 100",
        ),
    ),
    (
        "q08",
        "List the IDs of female patients admitted with a positive flag.",
        "positive flag refers to Admission = '+'",
        "SELECT ID FROM Patient WHERE SEX = 'F' AND Admission = '+'",
        "simple",
        _extraction(
            "list female patients with the positive admission flag",
            "Patient.ID, Patient.SEX, Patient.Admission",
            "f, +",
            "List the IDs => Patient.ID",
        ),
        # lowercase 'f' is deliberate: the value rewrite must fix it
        _cot(
            "Filter Patient by sex and admission flag, return the IDs.",
            "Patient.ID, Patient.SEX, Patient.Admission",
            "Patient.SEX = 'f', Patient.Admission = '+'",
            "List the IDs refer to Patient.ID",
            "Show Patient.ID WHERE Patient.SEX = 'f' AND Patient.Admission = '+'",
            "SELECT ID FROM Patient WHERE SEX = 'f' AND Admission = '+'",
        ),
    ),
    (
        "q09",
        "How many laboratory tests were taken before 1995?",
        "",
        "SELECT COUNT(*) FROM Laboratory WHERE strftime('%Y', Date) < '1995'",
        "simple",
        _extraction(
            "count laboratory rows dated before 1995",
            "Laboratory.Date",
            "none",
            "How many laboratory tests => COUNT(*)",
        ),
        _cot(
            "Count Laboratory rows whose date falls before the year 1995.",
            "Laboratory.Date",
            "none",
            "How many laboratory tests refer to COUNT(*)",
            "Show COUNT(*) WHERE YEAR(Laboratory.Date) < '1995'",
            "SELECT COUNT(*) FROM Laboratory WHERE strftime('%Y', Date) < '1995'",
        ),
    ),
    (
        "q10",
        "How many patients had a laboratory test in 1996?",
        "",
        "SELECT COUNT(DISTINCT ID) FROM Laboratory WHERE strftime('%Y', Date) = '1996'",
        "challenging",
        _extraction(
            "count distinct patients with a laboratory date in 1996",
            "Laboratory.ID, Laboratory.Date",
            "1996",
            "How many patients => COUNT(DISTINCT Laboratory.ID)",
        ),
        # the column name is invented; the correction round repairs it
        _cot(
            "Count distinct patient IDs in Laboratory restricted to 1996.",
            "Laboratory.ID, Laboratory.Date",
            "none",
            "How many patients refer to COUNT(DISTINCT Laboratory.ID)",
            "Show COUNT(DISTINCT Laboratory.PatientID) WHERE YEAR(Laboratory.Date) = '1996'",
            "SELECT COUNT(DISTINCT PatientID) FROM Laboratory WHERE strftime('%Y', Date) = '1996'",
        ),
    ),
]

CORRECTION_REPLY_Q10 = (
    "#Change Ambiguity: the laboratory table names its patient column ID, not PatientID\n"
    "#SQL: SELECT COUNT(DISTINCT ID) FROM Laboratory WHERE strftime('%Y', Date) = '1996'"
)


def e2e_replies(n_candidates=3):
    replies = {}
    for qid, _q, _e, _gold, _d, extraction, cot in E2E_TASKS:
        replies[f"extraction:{qid}"] = extraction
        replies[f"cot:{qid}"] = cot
    for i in range(n_candidates):
        replies[f"correction:q10:c{i}:round1"] = CORRECTION_REPLY_Q10
    return replies


def e2e_library():
    shots = []
    for question, sql, cot in [
        (
            "How many patients are male?",
            "SELECT COUNT(*) FROM Patient WHERE SEX = 'M'",
            CoTBody(
                reason="count rows of Patient with the male code",
                columns="Patient.ID, Patient.SEX",
                values="Patient.SEX = 'M'",
                sql_like="Show COUNT(*) WHERE Patient.SEX = 'M'",
            ),
        ),
        (
            "List the IDs of patients with a negative admission.",
            "SELECT ID FROM Patient WHERE Admission = '-'",
            CoTBody(
                reason="filter Patient on the admission flag",
                columns="Patient.ID, Patient.Admission",
                values="Patient.Admission = '-'",
                sql_like="Show Patient.ID WHERE Patient.Admission = '-'",
            ),
        ),
        (
            "What is the lowest IGA value recorded?",
            "SELECT IGA FROM Laboratory WHERE IGA IS NOT NULL ORDER BY IGA ASC LIMIT 1",
            CoTBody(
                reason="order laboratory rows by IGA and keep the smallest",
                columns="Laboratory.IGA",
                values="none",
                sql_like="Show Laboratory.IGA ORDER BY Laboratory.IGA ASC LIMIT 1",
            ),
        ),
    ]:
        shots.append(
            FewShot(
                question=question,
                sql=sql,
                cot=cot,
                masked_question=mask_question(question),
                db_id="clinical",
            )
        )
    return FewShotLibrary(shots=shots)


@pytest.fixture(scope="session")
def e2e(tmp_path_factory, clinical_db, clinical_catalog, clinical_index, db_root):
    work = tmp_path_factory.mktemp("e2e")

    dataset = [
        {
            "question_id": qid,
            "db_id": "clinical",
            "question": question,
            "evidence": evidence,
            "SQL": gold,
            "difficulty": difficulty,
        }
        for qid, question, evidence, gold, difficulty, _x, _c in E2E_TASKS
    ]
    dataset_path = work / "dataset.json"
    dataset_path.write_text(json.dumps(dataset, indent=2), encoding="utf-8")

    replies = e2e_replies()
    transcript_path = work / "transcript.jsonl"
    with open(transcript_path, "w", encoding="utf-8") as handle:
        for key, reply in replies.items():
            stage = key
            handle.write(json.dumps({"key": key, "stage": stage, "reply": reply}) + "\n")

    library = e2e_library()
    library_path = work / "library.jsonl"
    library.save(library_path)

    config = PipelineConfig(n_candidates=3)

    def make_deps(gateway=None):
        return Deps(
            catalog=clinical_catalog,
            db_path=str(clinical_db),
            index=clinical_index,
            library=e2e_library(),
            gateway=gateway or ScriptedGateway(e2e_replies()),
        )

    return SimpleNamespace(
        db_path=clinical_db,
        db_root=db_root,
        dataset_path=dataset_path,
        transcript_path=transcript_path,
        library_path=library_path,
        config=config,
        replies=replies,
        tasks=E2E_TASKS,
        make_deps=make_deps,
    )


class SlowGateway(ScriptedGateway):
    """Scripted replies, each after a delay past the pipeline's slow-model
    gate, so `run_pipeline` runs the correction chains on a pool.  Records
    the thread of every call and the most calls in flight at once."""

    def __init__(self, replies, delay_s=SLOW_MODEL_CALL_S + 0.001):
        super().__init__(replies)
        self.delay_s = delay_s
        self.threads: list[threading.Thread] = []
        self.in_flight = self.max_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, prompt, config, stage=None):
        with self._lock:
            self.threads.append(threading.current_thread())
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(self.delay_s)
            return super().complete(prompt, config, stage=stage)
        finally:
            with self._lock:
                self.in_flight -= 1


@pytest.fixture
def slow_gateway():
    """The `SlowGateway` class; `slow_gateway(replies, delay_s=0)` is a
    fast one that still records threads."""
    return SlowGateway


class EmptyGateway:
    """A model whose every completion holds no text at all."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, config, stage=None):
        self.calls += 1
        return Completion(texts=())


@pytest.fixture
def empty_gateway():
    return EmptyGateway()
