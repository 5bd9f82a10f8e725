"""Seeded synthetic workloads: database rows, questions, model scripts, gold.

Everything here is plain Python plus `sqlite3` for writing the database
file.  Gold answers are computed from the generator's own row lists, never
by running SQL and never through `t2s`, so a wrong answer from the
pipeline cannot also be the expected one.

Schema (same for every workload, only the sizes differ):

    region(id, name)
    city(id, name, region_id -> region.id)
    person(id, name, city_id -> city.id, job, age, salary)

Every stored text value is two words of 4-7 letters, distinct from every
other value once case, spaces and punctuation are dropped.  So a
case-variant literal of one value can only tie at similarity 1.0 with that
value itself, and every literal costs the value index the same three
probes.  The one exception is the known-fault slice (`SLICE_PAIRS`): fixed
names whose first word is also stored alone in `person.name`.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Fixed, seed-independent inputs of the known-fault slice: (two-word name,
# its first word, stored as a name of its own).  For both pairs the
# single word scores at least as high as the full name against the
# lower-cased literal, so value alignment respells the literal to the
# single word every time.
SLICE_PAIRS = (("Kalo Mineru", "Kalo"), ("Orla Benvic", "Orla"))
# Ages of the slice people; the two people of a pair never share an age.
SLICE_AGES = {"Kalo Mineru": 41, "Kalo": 67, "Orla Benvic": 38, "Orla": 59}
SLICE_WORDS = {word.casefold() for full, _ in SLICE_PAIRS for word in full.split()}

TEMPLATES = ("age", "city", "count", "max_salary", "names")

# Sample kinds of one question at n_candidates=21, in candidate order:
#   exact  the right SQL, literals spelled as stored
#   case   the right SQL, one literal in another case (alignment respells)
#   lower  the right SQL with lower-case keywords (same answer, other text)
#   col1   an invented column; one correction round repairs it
#   col2   an invented column; the first repair invents another, the second fixes it
#   limit0 LIMIT 0 (empty result); one correction round repairs it
#   wrong  a valid query about another entity (a minority answer)
MANY_KINDS = (
    "exact", "case", "col1", "exact", "lower", "limit0", "case",
    "exact", "col2", "wrong", "exact", "case", "exact", "limit0",
    "col2", "case", "exact", "lower", "wrong", "case", "exact",
)
CORRECTION_ROUNDS = {"col1": 1, "col2": 2, "limit0": 1}


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    people: int
    cities: int
    regions: int
    jobs: int
    questions: int  # per round
    n_candidates: int
    correction: bool
    model_delay_s: float = 0.0
    slice_questions: int = 0  # known-fault questions per round


SPECS = {
    "large-index": WorkloadSpec(
        name="large-index", people=7800, cities=120, regions=10, jobs=40,
        questions=40, n_candidates=1, correction=False, slice_questions=2,
    ),
    "many-candidates": WorkloadSpec(
        name="many-candidates", people=1400, cities=60, regions=8, jobs=30,
        questions=50, n_candidates=21, correction=True,
    ),
    "remote-model": WorkloadSpec(
        name="remote-model", people=1400, cities=60, regions=8, jobs=30,
        questions=50, n_candidates=21, correction=True, model_delay_s=0.020,
    ),
}


@dataclass
class Question:
    qid: str
    text: str
    gold: list[tuple]
    replies: dict[str, object]  # stage tag -> reply text or list of texts
    expected_calls: int
    in_slice: bool = False


@dataclass
class Workload:
    db_path: Path
    questions: list[Question]  # one round
    shots: list[tuple[str, str]]  # few-shot (question, sql) pairs


# -- words and rows --------------------------------------------------------

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            + (rng.choice(_CONSONANTS) if rng.random() < 0.3 else "")
            for _ in range(rng.randint(2, 3))
        )
        if not 4 <= len(word) <= 7 or word in taken or word in SLICE_WORDS:
            continue
        taken.add(word)
        out.append(word.capitalize())
    return out


def _collapsed(text: str) -> str:
    return "".join(ch for ch in text.casefold() if ch.isalnum())


def _case_variant(text: str, which: int) -> str:
    return text.upper() if which % 2 else text.lower()


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


@dataclass
class _Rows:
    regions: list[str]
    cities: list[tuple[str, int]]  # (name, region index)
    people: list[tuple[str, int, str, int, float]]  # name, city index, job, age, salary


def _two_word_values(rng, count, firsts, lasts, seen: set[str]) -> list[str]:
    """`count` distinct "First Last" values, distinct also once collapsed."""
    out: list[str] = []
    while len(out) < count:
        value = f"{rng.choice(firsts)} {rng.choice(lasts)}"
        key = _collapsed(value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


def _make_rows(spec: WorkloadSpec, rng: random.Random) -> _Rows:
    taken: set[str] = set()
    firsts = _words(rng, 160, taken)
    lasts = _words(rng, 160, taken)
    seen = {_collapsed(n) for pair in SLICE_PAIRS for n in pair}
    regions = _two_word_values(rng, spec.regions, firsts, lasts, seen)
    city_names = _two_word_values(rng, spec.cities, firsts, lasts, seen)
    cities = [(name, i % spec.regions) for i, name in enumerate(city_names)]
    jobs = _two_word_values(rng, spec.jobs, firsts, lasts, seen)
    names = _two_word_values(
        rng, spec.people - (4 if spec.slice_questions else 0), firsts, lasts, seen
    )
    people = [
        (
            name,
            rng.randrange(spec.cities),
            rng.choice(jobs),
            rng.randint(20, 69),
            round(rng.uniform(20000, 150000), 2),
        )
        for name in names
    ]
    if spec.slice_questions:
        # Both people of a pair share a job, so the respelled literal
        # selects a real row: a wrong answer, not an empty one.
        for full, word in SLICE_PAIRS:
            job = rng.choice(jobs)
            for name in (full, word):
                people.append(
                    (name, rng.randrange(spec.cities), job,
                     SLICE_AGES[name], round(rng.uniform(20000, 150000), 2))
                )
    rng.shuffle(people)
    return _Rows(regions=regions, cities=cities, people=people)


def _write_db(rows: _Rows, path: Path) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.executescript(
            """
            CREATE TABLE region (id INTEGER PRIMARY KEY, name TEXT NOT NULL);
            CREATE TABLE city (
                id INTEGER PRIMARY KEY, name TEXT NOT NULL,
                region_id INTEGER NOT NULL REFERENCES region(id));
            CREATE TABLE person (
                id INTEGER PRIMARY KEY, name TEXT NOT NULL,
                city_id INTEGER NOT NULL REFERENCES city(id),
                job TEXT NOT NULL, age INTEGER NOT NULL, salary REAL NOT NULL);
            """
        )
        conn.executemany(
            "INSERT INTO region VALUES (?, ?)",
            [(i + 1, name) for i, name in enumerate(rows.regions)],
        )
        conn.executemany(
            "INSERT INTO city VALUES (?, ?, ?)",
            [(i + 1, name, r + 1) for i, (name, r) in enumerate(rows.cities)],
        )
        conn.executemany(
            "INSERT INTO person VALUES (?, ?, ?, ?, ?, ?)",
            [
                (i + 1, name, c + 1, job, age, salary)
                for i, (name, c, job, age, salary) in enumerate(rows.people)
            ],
        )
        conn.commit()
    finally:
        conn.close()


# -- questions ---------------------------------------------------------------


@dataclass
class _Shape:
    """One question: its text, its two literals, SQL builder and gold rows."""

    text: str
    literals: list[str]  # stored spellings, in SQL order
    sql: Callable[[list[str]], str]  # literals as spelled -> SQL
    bad_column: str  # qualified column the invented-column samples replace
    gold: list[tuple]
    select: str  # answer phrase => expression, for the extraction reply
    columns: str


_JOIN_CITY = "FROM person AS T1 INNER JOIN city AS T2 ON T1.city_id = T2.id"
_JOIN_REGION = _JOIN_CITY + " INNER JOIN region AS T3 ON T2.region_id = T3.id"


def _shape(template: str, rows: _Rows, person: tuple) -> _Shape:
    """Every template filters on exactly two text literals, so every
    question costs the same number of value searches."""
    name, city_i, job, age, _salary = person
    city, region_i = rows.cities[city_i]
    region = rows.regions[region_i]
    if template == "age":
        return _Shape(
            text="What is the age of {0}, who works as {1}?", literals=[name, job],
            sql=lambda l: (
                f"SELECT T1.age FROM person AS T1 "
                f"WHERE T1.name = {_quote(l[0])} AND T1.job = {_quote(l[1])}"
            ),
            bad_column="T1.name",
            gold=[(p[3],) for p in rows.people if p[0] == name and p[2] == job],
            select="age => T1.age", columns="person.age, person.name, person.job",
        )
    if template == "city":
        return _Shape(
            text="Which city does {0}, a {1}, live in?", literals=[name, job],
            sql=lambda l: (
                f"SELECT T2.name {_JOIN_CITY} "
                f"WHERE T1.name = {_quote(l[0])} AND T1.job = {_quote(l[1])}"
            ),
            bad_column="T1.name",
            gold=[(rows.cities[p[1]][0],) for p in rows.people
                  if p[0] == name and p[2] == job],
            select="city => T2.name", columns="city.name, person.name, person.job",
        )
    if template == "count":
        return _Shape(
            text="How many people work as {0} in {1}?", literals=[job, city],
            sql=lambda l: (
                f"SELECT COUNT(*) {_JOIN_CITY} "
                f"WHERE T1.job = {_quote(l[0])} AND T2.name = {_quote(l[1])}"
            ),
            bad_column="T1.job",
            gold=[(sum(1 for p in rows.people if p[2] == job and p[1] == city_i),)],
            select="How many people => COUNT(*)", columns="person.job, city.name",
        )
    if template == "max_salary":
        best = max(
            p[4] for p in rows.people
            if p[2] == job and rows.cities[p[1]][1] == region_i
        )
        return _Shape(
            text="What is the highest salary of a {0} in {1}?", literals=[job, region],
            sql=lambda l: (
                f"SELECT MAX(T1.salary) {_JOIN_REGION} "
                f"WHERE T1.job = {_quote(l[0])} AND T3.name = {_quote(l[1])}"
            ),
            bad_column="T1.job",
            gold=[(best,)],
            select="highest salary => MAX(T1.salary)",
            columns="person.salary, person.job, region.name",
        )
    if template == "names":
        return _Shape(
            text=f"List the names of people aged {age} who work as {{0}} in {{1}}.",
            literals=[job, city],
            sql=lambda l: (
                f"SELECT T1.name {_JOIN_CITY} WHERE T1.age = {age} "
                f"AND T1.job = {_quote(l[0])} AND T2.name = {_quote(l[1])}"
            ),
            bad_column="T1.job",
            gold=[(p[0],) for p in rows.people
                  if p[3] == age and p[2] == job and p[1] == city_i],
            select="names => T1.name", columns="person.name, person.age, person.job, city.name",
        )
    raise ValueError(template)


def _cot(sql: str, shape: _Shape, literals: list[str]) -> str:
    values = ", ".join(_quote(l) for l in literals)
    return "\n".join(
        [
            "#reason: filter the rows the question names and return what it asks for",
            f"#columns: {shape.columns}",
            f"#values: {values}",
            f"#SQL-like: {sql}",
            f"#SQL: {sql}",
        ]
    )


def _lower_keywords(sql: str) -> str:
    words = ("SELECT", "FROM", "WHERE", "AND", "INNER", "JOIN", "AS", "ON", "COUNT", "MAX")
    out = sql
    for word in words:
        out = out.replace(f"{word} ", f"{word.lower()} ").replace(f"{word}(", f"{word.lower()}(")
    return out


def _invent(sql: str, column: str, invented: str) -> str:
    table = column.split(".")[0]
    return sql.replace(f"{column} =", f"{table}.{invented} =", 1)


def _fix(sql: str) -> str:
    return f"#Change Ambiguity: use the stored column and spelling\n#SQL: {sql}"


def _question(
    spec: WorkloadSpec, rows: _Rows, rng: random.Random, index: int, qid: str,
    person: tuple, in_slice: bool,
) -> Question:
    template = TEMPLATES[index % len(TEMPLATES)]
    shape = _shape(template, rows, person)
    # In the question and the model's SQL one literal, alternating between
    # the two, is a case variant of its stored spelling; the slice
    # questions lower-case the name.
    varied = 0 if in_slice else index % 2
    asked = list(shape.literals)
    asked[varied] = _case_variant(asked[varied], 0 if in_slice else index // 2)
    text = shape.text.format(*asked)
    values_line = "\n".join(asked)
    extraction = "\n".join(
        [
            "#reason: the question filters by the named values",
            f"#columns: {shape.columns}",
            f"#values: {values_line}",
            f"#SELECT: {shape.select}",
        ]
    )
    replies: dict[str, object] = {f"extraction:{qid}": extraction}
    exact_sql = shape.sql(shape.literals)
    asked_sql = shape.sql(asked)
    if spec.n_candidates == 1:
        replies[f"cot:{qid}"] = [_cot(asked_sql, shape, asked)]
        return Question(qid, text, shape.gold, replies, 2, in_slice)
    case_lits = list(shape.literals)
    case_lits[1 - varied] = _case_variant(case_lits[1 - varied], index)
    case_sql = shape.sql(case_lits)
    other = _shape(template, rows, rows.people[rng.randrange(len(rows.people))])
    wrong_sql = other.sql(other.literals)
    bad1 = _invent(exact_sql, shape.bad_column, "full_" + shape.bad_column.split(".")[1])
    bad2 = _invent(exact_sql, shape.bad_column, shape.bad_column.split(".")[1] + "_text")
    samples = []
    rounds = 0
    for i, kind in enumerate(MANY_KINDS):
        sql = {
            "exact": exact_sql,
            "case": case_sql,
            "lower": _lower_keywords(exact_sql),
            "col1": bad1,
            "col2": bad1,
            "limit0": exact_sql + " LIMIT 0",
            "wrong": wrong_sql,
        }[kind]
        samples.append(_cot(sql, shape, shape.literals))
        stage = f"correction:{qid}:c{i}"
        if kind == "col1":
            replies[f"{stage}:round1"] = _fix(case_sql)
        elif kind == "col2":
            replies[f"{stage}:round1"] = _fix(bad2)
            replies[f"{stage}:round2"] = _fix(exact_sql)
        elif kind == "limit0":
            replies[f"{stage}:round1"] = _fix(exact_sql)
        rounds += CORRECTION_ROUNDS.get(kind, 0)
    replies[f"cot:{qid}"] = samples
    return Question(qid, text, shape.gold, replies, 2 + rounds, in_slice)


def _slice_person(rows: _Rows, full: str) -> tuple:
    return next(p for p in rows.people if p[0] == full)


def make_workload(spec: WorkloadSpec, seed: int, workdir: Path) -> Workload:
    """Build the database file under `workdir` and one round of questions."""
    rng = random.Random(f"{spec.name}:{seed}")
    rows = _make_rows(spec, rng)
    db_path = workdir / "bench.sqlite"
    _write_db(rows, db_path)
    slice_at = {
        (k + 1) * spec.questions // (spec.slice_questions + 1): pair
        for k, pair in enumerate(SLICE_PAIRS[: spec.slice_questions])
    }
    questions = []
    for i in range(spec.questions):
        qid = f"q{i:03d}"
        if i in slice_at:
            person = _slice_person(rows, slice_at[i][0])
            # Slice questions ask for the age (template 0) of the full name.
            questions.append(_question(spec, rows, rng, 0, qid, person, True))
            continue
        person = rows.people[rng.randrange(len(rows.people))]
        while person[0] in SLICE_AGES:
            person = rows.people[rng.randrange(len(rows.people))]
        questions.append(_question(spec, rows, rng, i, qid, person, False))
    shots = []
    for i in range(2 * len(TEMPLATES)):
        person = rows.people[rng.randrange(len(rows.people))]
        shape = _shape(TEMPLATES[i % len(TEMPLATES)], rows, person)
        shots.append((shape.text.format(*shape.literals), shape.sql(shape.literals)))
    return Workload(db_path=db_path, questions=questions, shots=shots)
