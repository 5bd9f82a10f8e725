import os
import shutil
import sqlite3
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import t2s.refine
from t2s import FewShotLibrary, ScriptedGateway
from t2s.alignment import AlignmentContext
from t2s.errors import VoteError
from t2s.refine import (
    CorrectionResult,
    ErrorType,
    ExecutionOutcome,
    SqlSession,
    VoteCandidate,
    answer_key,
    build_correction_prompt,
    classify_error,
    correct,
    execute_sql,
    is_empty_rows,
    severity,
    vote,
    vote_detail,
)


# -- execution ------------------------------------------------------------


def test_execute_returns_rows(clinical_db):
    out = execute_sql(clinical_db, "SELECT COUNT(*) FROM Patient")
    assert out.status == "Rows"
    assert out.rows == ((5,),)
    assert out.elapsed >= 0


def test_execute_rejects_writes_without_running(clinical_db, tmp_path):
    for sql in (
        "DELETE FROM Patient",
        "UPDATE Patient SET SEX = 'X'",
        "DROP TABLE Patient",
        "INSERT INTO Patient VALUES (9, 'F', 'x', '+')",
        "PRAGMA writable_schema = 1",
    ):
        out = execute_sql(clinical_db, sql)
        assert out.status == "Error"
        assert out.error_text == "only read queries are executed"
    # table is intact
    assert execute_sql(clinical_db, "SELECT COUNT(*) FROM Patient").rows == ((5,),)


def test_execute_allows_with_and_values(clinical_db):
    assert execute_sql(clinical_db, "WITH x AS (SELECT 1) SELECT * FROM x").status == "Rows"
    assert execute_sql(clinical_db, "VALUES (1)").status == "Rows"
    assert execute_sql(clinical_db, "  /* note */ SELECT 1").status == "Rows"


def test_execute_read_gate_skips_comments(clinical_db):
    out = execute_sql(clinical_db, "-- note\nDELETE FROM Patient")
    assert out.status == "Error"
    assert out.error_text == "only read queries are executed"
    assert execute_sql(clinical_db, "/* note */ SELECT 1").rows == ((1,),)
    out = execute_sql(clinical_db, "/* open SELECT 1")
    assert out.status == "Error"
    assert out.error_text == "only read queries are executed"
    assert execute_sql(clinical_db, "SELECT COUNT(*) FROM Patient").rows == ((5,),)


def test_execute_reports_sql_errors(clinical_db):
    out = execute_sql(clinical_db, "SELECT * FROM NoSuchTable")
    assert out.status == "Error"
    assert "no such table" in out.error_text


def test_execute_times_out(clinical_db):
    big = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
        "SELECT COUNT(*) FROM c"
    )
    start = time.perf_counter()
    out = execute_sql(clinical_db, big, timeout_s=0.2)
    elapsed = time.perf_counter() - start
    assert out.status == "Timeout"
    assert elapsed < 5


def test_execute_median_timing(clinical_db, monkeypatch):
    elapsed = iter([1.0, 9.0, 2.0])
    runs = []
    original = t2s.refine.execute_sql

    def timed(db_path, sql, timeout_s):
        runs.append(sql)
        outcome = original(db_path, sql, timeout_s)
        outcome.elapsed = next(elapsed)
        return outcome

    monkeypatch.setattr(t2s.refine, "execute_sql", timed)
    session = SqlSession(clinical_db)
    sql = "SELECT * FROM Laboratory"
    out = session.time(sql, 3)
    assert out is session.execute(sql)
    assert out.status == "Rows" and len(out.rows) == 6
    assert len(runs) == 3  # the first run is one of the three
    assert out.elapsed == 2.0  # the median of 1, 9 and 2
    assert session.time(sql, 3) is out and len(runs) == 3  # timed once


def test_execute_failed_repeat_keeps_first_rows(clinical_db, monkeypatch):
    runs = []
    original = t2s.refine.execute_sql

    def second_run_times_out(db_path, sql, timeout_s):
        runs.append(sql)
        if len(runs) == 2:
            return ExecutionOutcome(status="Timeout", error_text="Timeout", elapsed=9.0)
        return original(db_path, sql, timeout_s)

    monkeypatch.setattr(t2s.refine, "execute_sql", second_run_times_out)
    out = SqlSession(clinical_db).time("SELECT COUNT(*) FROM Patient", 3)
    assert out.status == "Rows"
    assert out.rows == ((5,),)
    assert len(runs) == 2  # the failed repeat ends the repeats
    assert out.elapsed < 9.0  # and is left out of the median


# -- the held connection ---------------------------------------------------

# Enough VM steps for the progress handler to run, yet a few milliseconds.
COUNT_TO_10K = (
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < 10000) "
    "SELECT COUNT(*) FROM c"
)


def _one_value_db(path, value):
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (v)")
    conn.execute("INSERT INTO t VALUES (?)", (value,))
    conn.commit()
    conn.close()


def test_execute_reads_a_file_replaced_at_the_same_path(tmp_path):
    path = tmp_path / "db.sqlite"
    _one_value_db(path, "old")
    assert execute_sql(path, "SELECT v FROM t").rows == (("old",),)
    _one_value_db(tmp_path / "new.sqlite", "new")
    os.replace(tmp_path / "new.sqlite", path)
    assert execute_sql(path, "SELECT v FROM t").rows == (("new",),)
    os.remove(path)
    assert execute_sql(path, "SELECT v FROM t").status == "Error"


def test_execute_after_a_timeout_runs_with_its_own_deadline(clinical_db):
    big = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
        "SELECT COUNT(*) FROM c"
    )
    assert execute_sql(clinical_db, big, timeout_s=0.05).status == "Timeout"
    out = execute_sql(clinical_db, COUNT_TO_10K)
    assert (out.status, out.rows) == ("Rows", ((10000,),))


def test_execute_from_many_threads_reads_the_right_file(tmp_path):
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"db{i}.sqlite")
        _one_value_db(paths[-1], i)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as pool:
            outcomes = list(pool.map(
                lambda i: execute_sql(paths[i % 3], f"SELECT v, {i} FROM t"), range(96)
            ))
    finally:
        sys.setswitchinterval(interval)
    assert [out.rows for out in outcomes] == [((i % 3, i),) for i in range(96)]


def test_a_writer_commits_between_two_reads(clinical_db, tmp_path):
    path = tmp_path / "db.sqlite"
    shutil.copyfile(clinical_db, path)
    assert execute_sql(path, "SELECT COUNT(*) FROM Patient").rows == ((5,),)
    writer = sqlite3.connect(path, timeout=0.5)
    try:
        writer.execute("INSERT INTO Patient VALUES (6, 'M', '1990-01-01', '-')")
        writer.commit()  # "database is locked" if a read left a lock behind
    finally:
        writer.close()
    assert execute_sql(path, "SELECT COUNT(*) FROM Patient").rows == ((6,),)


def test_a_thread_holds_at_most_one_connection(tmp_path, monkeypatch):
    opened = {}  # thread ident -> the connections that thread opened
    original = t2s.refine.connect_read_only

    def still_open(conn):
        try:
            conn.execute("SELECT 1")
        except sqlite3.ProgrammingError:
            return False
        return True

    def reads(thread_no):
        # Each thread reads files of its own, so no other thread's
        # replacement makes it reopen one.
        paths = [tmp_path / f"t{thread_no}-{i}.sqlite" for i in range(3)]
        for i, path in enumerate(paths):
            _one_value_db(path, i)
        for step in range(6):
            execute_sql(paths[step // 2 % 2], "SELECT v FROM t")
        os.replace(paths[2], paths[0])
        execute_sql(paths[0], "SELECT v FROM t")
        states[thread_no] = [still_open(conn) for conn in opened[threading.get_ident()]]

    def recording_connect(db_path):
        conn = original(db_path)
        opened.setdefault(threading.get_ident(), []).append(conn)
        return conn

    monkeypatch.setattr(t2s.refine, "connect_read_only", recording_connect)
    states = {}
    threads = [threading.Thread(target=reads, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    # A connection per switch of file (paths 0, 1, 0) and one for the
    # replaced file; every one but the last is closed.
    assert states == {i: [False, False, False, True] for i in range(4)}


# -- classification -------------------------------------------------------


def test_is_empty_rows():
    assert is_empty_rows(())
    assert is_empty_rows(((None,), (None, None)))
    assert not is_empty_rows(((0,),))
    assert not is_empty_rows(((None, 1),))


@pytest.mark.parametrize(
    "outcome,expected",
    [
        (ExecutionOutcome(status="Timeout"), ErrorType.TIMEOUT),
        (ExecutionOutcome(status="Error", error_text='near "FORM": syntax error'), ErrorType.SYNTAX),
        (ExecutionOutcome(status="Error", error_text="unrecognized token: '#'"), ErrorType.SYNTAX),
        (ExecutionOutcome(status="Error", error_text="no such column: yr"), ErrorType.SCHEMA_MISMATCH),
        (ExecutionOutcome(status="Error", error_text="no such table: students"), ErrorType.SCHEMA_MISMATCH),
        (ExecutionOutcome(status="Error", error_text="ambiguous column name: ID"), ErrorType.SCHEMA_MISMATCH),
        (ExecutionOutcome(status="Error", error_text="no such function: levenshtein"), ErrorType.SCHEMA_MISMATCH),
        (ExecutionOutcome(status="Error", error_text="misuse of aggregate"), ErrorType.OTHER),
        (ExecutionOutcome(status="Rows", rows=()), ErrorType.EMPTY_RESULT),
        (ExecutionOutcome(status="Rows", rows=((None,),)), ErrorType.EMPTY_RESULT),
        (ExecutionOutcome(status="Rows", rows=((1,),)), None),
    ],
)
def test_classify_error(outcome, expected):
    assert classify_error(outcome) == expected


def test_severity_ordering():
    assert severity(None) < severity(ErrorType.EMPTY_RESULT)
    assert severity(ErrorType.EMPTY_RESULT) < severity(ErrorType.SYNTAX)
    assert severity(ErrorType.SYNTAX) == severity(ErrorType.TIMEOUT)


# -- answer canonicalization ----------------------------------------------


def test_answer_key_rounds_floats():
    assert answer_key(((0.30000000004,),)) == answer_key(((0.3,),))


def test_answer_key_keeps_six_decimals():
    # Six decimals tell these apart; five would merge them.
    assert answer_key(((0.123456,),)) != answer_key(((0.123457,),))
    assert answer_key((("0.123456",),)) != answer_key((("0.123457",),))
    # Jitter below the sixth decimal still merges.
    assert answer_key(((0.123456 + 1e-7,),)) == answer_key(((0.123456,),))
    assert answer_key(((0.123456 - 1e-7,),)) == answer_key(((0.123456,),))


def test_answer_key_coerces_numeric_strings():
    assert answer_key((("42",),)) == answer_key(((42,),))
    assert answer_key((("x",),)) != answer_key((("y",),))


def test_answer_key_order_sensitivity():
    a, b = ((1,), (2,)), ((2,), (1,))
    assert answer_key(a) == answer_key(b)
    assert answer_key(a, ordered=True) != answer_key(b, ordered=True)


def test_answer_key_mixed_types_total():
    rows = ((None,), ("x",), (1,))
    assert answer_key(rows) == answer_key(tuple(reversed(rows)))


# -- voting ---------------------------------------------------------------


def rows_candidate(sql, rows, elapsed=0.001, status="Rows"):
    return VoteCandidate(
        sql=sql, outcome=ExecutionOutcome(status=status, rows=rows, elapsed=elapsed)
    )


def test_vote_majority_wins():
    candidates = [
        rows_candidate("A1", ((1,),)),
        rows_candidate("B", ((2,),)),
        rows_candidate("A2", ((1,),)),
    ]
    result = vote_detail(candidates)
    assert result.winner_index in (0, 2)
    assert result.group_size == 2
    assert result.eligible == 3
    assert not result.fallback


def test_vote_prefers_fastest_in_winning_group():
    candidates = [
        rows_candidate("slow", ((1,),), elapsed=0.005),
        rows_candidate("fast", ((1,),), elapsed=0.003),
        rows_candidate("slowest", ((1,),), elapsed=0.009),
    ]
    result = vote_detail(candidates)
    assert result.winner_index == 1
    assert result.winner_sql == "fast"


def test_vote_tie_goes_to_earliest_group():
    candidates = [
        rows_candidate("A", ((1,),)),
        rows_candidate("B1", ((2,),)),
        rows_candidate("B2", ((2,),)),
        rows_candidate("A2", ((1,),)),
    ]
    # both groups have size 2; the group containing index 0 wins
    result = vote_detail(candidates)
    assert result.winner_index in (0, 3)
    assert sorted(result.group_indices) == [0, 3]


def test_vote_excludes_errors_and_empties():
    candidates = [
        rows_candidate("err", (), status="Error"),
        rows_candidate("empty", ()),
        rows_candidate("nulls", ((None,),)),
        rows_candidate("good", ((7,),)),
    ]
    result = vote_detail(candidates)
    assert result.winner_index == 3
    assert result.eligible == 1
    assert result.excluded == 3


def test_vote_all_ineligible_falls_back_to_first():
    candidates = [
        rows_candidate("a", (), status="Error"),
        rows_candidate("b", ()),
    ]
    result = vote_detail(candidates)
    assert result.winner_index == 0
    assert result.fallback
    assert result.group_size == 0


def test_vote_equivalent_rows_in_different_order_agree():
    candidates = [
        rows_candidate("x", ((1,), (2,))),
        rows_candidate("y", ((2,), (1,))),
        rows_candidate("z", ((3,),)),
    ]
    result = vote_detail(candidates)
    assert sorted(result.group_indices) == [0, 1]


def test_vote_keys_each_shared_outcome_once(monkeypatch):
    keyed = []
    original = t2s.refine.answer_key
    monkeypatch.setattr(t2s.refine, "answer_key", lambda rows: keyed.append(rows) or original(rows))
    one = ExecutionOutcome(status="Rows", rows=((1,),))
    two = ExecutionOutcome(status="Rows", rows=((2,),))
    # A third outcome equal to the first, but its own object: keyed on its own.
    candidates = [VoteCandidate(sql, outcome) for sql, outcome in (
        ("a", one), ("b", two), ("a", one), ("b", two), ("a", one),
        ("c", ExecutionOutcome(status="Rows", rows=((1,),))),
    )]
    result = vote_detail(candidates)
    assert keyed == [((1,),), ((2,),), ((1,),)]
    assert result.group_indices == [0, 2, 4, 5]


def test_vote_empty_input_raises():
    with pytest.raises(VoteError):
        vote([])


@settings(max_examples=100, deadline=None)
@given(
    groups=st.lists(
        st.tuples(st.integers(0, 3), st.floats(0.001, 0.1)), min_size=1, max_size=8
    ),
    seed=st.randoms(use_true_random=False),
)
def test_vote_winner_answer_stable_under_permutation(groups, seed):
    candidates = [
        rows_candidate(f"sql{i}", ((value,),), elapsed=elapsed)
        for i, (value, elapsed) in enumerate(groups)
    ]
    baseline = vote_detail(candidates)
    baseline_key = answer_key(candidates[baseline.winner_index].outcome.rows)
    baseline_sizes = baseline.group_size

    shuffled = list(candidates)
    seed.shuffle(shuffled)
    permuted = vote_detail(shuffled)
    permuted_key = answer_key(shuffled[permuted.winner_index].outcome.rows)
    # the winning group size never depends on order; the winning answer
    # only switches when two groups tie in size
    assert permuted.group_size == baseline_sizes
    if baseline_sizes * 2 > len(candidates):
        assert permuted_key == baseline_key


# -- correction prompt ----------------------------------------------------


def test_correction_prompt_golden_empty_result():
    lib = FewShotLibrary()
    outcome = ExecutionOutcome(status="Rows", rows=())
    prompt = build_correction_prompt(
        "List the names of clubs located in 'Davis'.",
        "SELECT name FROM club WHERE city = 'davis'",
        outcome,
        ErrorType.EMPTY_RESULT,
        lib,
        value_lines=["club.city = 'Davis'"],
    )
    blocks = prompt.split("\n\n")
    # demonstration first, then the live case
    assert blocks[0].startswith("/* Fix the SQL and answer the question */")
    live = blocks[-1].splitlines()
    assert live[0] == "/* Fix the SQL and answer the question */"
    assert live[1] == "#question: List the names of clubs located in 'Davis'."
    assert live[2] == "#Error SQL: SELECT name FROM club WHERE city = 'davis'"
    assert live[3] == "Error: Result: None"
    assert live[4] == "#values: club.city = 'Davis'"
    assert live[5] == "#Change Ambiguity:"


def test_correction_prompt_error_text_inlined():
    lib = FewShotLibrary()
    outcome = ExecutionOutcome(status="Error", error_text="no such column: yr")
    prompt = build_correction_prompt(
        "Q?", "SELECT yr FROM t", outcome, ErrorType.SCHEMA_MISMATCH, lib
    )
    assert "Error: no such column: yr" in prompt
    assert "#values: none" in prompt
    # schema_mismatch demonstration was chosen
    assert "the schema declares enroll_year, not yr" in prompt


def test_correction_prompt_without_shots():
    lib = FewShotLibrary()
    outcome = ExecutionOutcome(status="Timeout")
    prompt = build_correction_prompt(
        "Q?", "SELECT 1", outcome, ErrorType.TIMEOUT, lib, include_shots=False
    )
    assert prompt.count("/* Fix the SQL and answer the question */") == 1
    assert "Error: Timeout" in prompt


# -- correction loop ------------------------------------------------------


def run_failing(db, sql):
    return execute_sql(db, sql)


def test_correct_repairs_schema_mismatch(clinical_db):
    bad = "SELECT COUNT(*) FROM Patient WHERE Gender = 'F'"
    reply = "#Change Ambiguity: the column is SEX\n#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"
    gw = ScriptedGateway({"fix:round1": reply})
    result = correct(
        "How many female patients?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db),
        FewShotLibrary(),
        gw,
        stage_prefix="fix",
    )
    assert result.rounds == 1
    assert result.sql == "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"
    assert result.outcome.rows == ((3,),)
    assert result.flags == []
    assert result.history == [(result.sql, "Rows")]


def test_correct_healthy_input_is_untouched(clinical_db):
    good = "SELECT COUNT(*) FROM Patient"
    result = correct(
        "How many?",
        good,
        run_failing(clinical_db, good),
        SqlSession(clinical_db),
        FewShotLibrary(),
        ScriptedGateway(),
    )
    assert result.rounds == 0
    assert result.sql == good


def test_correct_two_rounds(clinical_db):
    bad = "SELECT COUNT(*) FROM Pat1ent"
    gw = ScriptedGateway(
        {
            "fix:round1": "#SQL: SELECT COUNT(*) FROM Patien",
            "fix:round2": "#SQL: SELECT COUNT(*) FROM Patient",
        }
    )
    result = correct(
        "How many?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db),
        FewShotLibrary(),
        gw,
        stage_prefix="fix",
    )
    assert result.rounds == 2
    assert result.outcome.rows == ((5,),)
    assert [status for _sql, status in result.history] == ["Error", "Rows"]


def test_correct_reverts_regression(clinical_db):
    # empty result (severity 1) must not be traded for an error (severity 2)
    empty = "SELECT ID FROM Patient WHERE SEX = 'X'"
    gw = ScriptedGateway({"fix:round1": "#SQL: SELECT broken FROM"})
    result = correct(
        "Which?",
        empty,
        run_failing(clinical_db, empty),
        SqlSession(clinical_db),
        FewShotLibrary(),
        gw,
        stage_prefix="fix",
        max_rounds=3,
    )
    assert result.sql == empty
    assert "correction_reverted:round1" in result.flags


def test_correct_sideways_move_is_accepted(clinical_db):
    # schema error to empty result is an improvement and sticks
    bad = "SELECT Gender FROM Patient WHERE Gender = 'X'"
    gw = ScriptedGateway({"fix:round1": "#SQL: SELECT SEX FROM Patient WHERE SEX = 'X'"})
    result = correct(
        "Which?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db),
        FewShotLibrary(),
        gw,
        stage_prefix="fix",
        max_rounds=1,
    )
    assert result.sql == "SELECT SEX FROM Patient WHERE SEX = 'X'"
    assert result.rounds == 1


def test_correct_unparseable_reply_stops(clinical_db):
    bad = "SELECT COUNT(*) FROM Nowhere"
    gw = ScriptedGateway({"fix:round1": "I cannot help with that"})
    result = correct(
        "How many?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db),
        FewShotLibrary(),
        gw,
        stage_prefix="fix",
    )
    assert result.sql == bad
    assert "correction_unparseable" in result.flags
    assert result.rounds == 0


def test_correct_gateway_failure_flagged(clinical_db):
    bad = "SELECT COUNT(*) FROM Nowhere"
    result = correct(
        "How many?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db),
        FewShotLibrary(),
        ScriptedGateway(),  # strict and empty
        stage_prefix="fix",
    )
    assert "correction_gateway_failed" in result.flags
    assert result.sql == bad


def test_correct_empty_completion_flagged(clinical_db, empty_gateway):
    bad = "SELECT COUNT(*) FROM Nowhere"
    result = correct(
        "How many?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db),
        FewShotLibrary(),
        empty_gateway,
        stage_prefix="fix",
    )
    assert result.flags == ["correction_gateway_failed"]
    assert result.sql == bad and result.rounds == 0


def test_correct_applies_alignment(clinical_db, clinical_catalog, clinical_index):
    bad = "SELECT COUNT(*) FROM Patient WHERE Gender = 'f'"
    # the proposed fix still spells the literal lowercase; alignment repairs it
    reply = "#SQL: SELECT COUNT(*) FROM Patient WHERE SEX = 'f'"
    gw = ScriptedGateway({"fix:round1": reply})
    ctx = AlignmentContext(catalog=clinical_catalog, index=clinical_index)
    result = correct(
        "How many female patients?",
        bad,
        run_failing(clinical_db, bad),
        SqlSession(clinical_db, ctx),
        FewShotLibrary(),
        gw,
        stage_prefix="fix",
    )
    assert "= 'F'" in result.sql
    assert result.outcome.rows == ((3,),)


def test_correction_result_is_dataclass():
    result = CorrectionResult(sql="SELECT 1", outcome=ExecutionOutcome(status="Rows"))
    assert result.rounds == 0 and result.flags == [] and result.history == []


def test_session_shares_outcomes_and_times_in_place(clinical_db, clinical_catalog,
                                                    clinical_index):
    lower = "SELECT COUNT(*) FROM Patient WHERE SEX = 'f'"
    unaligned = SqlSession(clinical_db).align(lower)
    assert unaligned.sql_out == lower and not unaligned.changed and unaligned.flags == []
    ctx = AlignmentContext(catalog=clinical_catalog, index=clinical_index)
    session = SqlSession(clinical_db, ctx)
    assert session.align(lower) is session.align(lower)
    fixed = session.align(lower).sql_out
    assert fixed == "SELECT COUNT(*) FROM Patient WHERE SEX = 'F'"
    outcome = session.execute(fixed)
    assert outcome.rows == ((3,),) and session.execute(fixed) is outcome
    outcome.elapsed = -1.0
    assert session.time(fixed, 3) is outcome
    assert session.execute(fixed) is outcome and outcome.elapsed >= 0


def test_session_executes_once_across_threads(monkeypatch):
    # More threads than cores and a short switch interval: without the
    # session's lock, several threads find the statement missing and run it.
    computed = []

    def slow_execute(db_path, sql, timeout_s):
        computed.append(sql)
        time.sleep(0.001)
        return ExecutionOutcome(status="Rows")

    monkeypatch.setattr(t2s.refine, "execute_sql", slow_execute)
    session = SqlSession("unused.sqlite")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            outcomes = list(pool.map(lambda _: session.execute("SELECT 1"), range(32)))
    finally:
        sys.setswitchinterval(interval)
    assert len(computed) == 1
    assert all(outcome is outcomes[0] for outcome in outcomes)
