"""Every reader of an input file raises only its documented error.

The seven readers share one JSON reader (`t2s.errors.read_json` and
`read_json_lines`), which refuses bytes that are not UTF-8, bad JSON,
JSON nested deeper than the parser recurses and lone surrogate escapes;
each reader then checks the shape of what it read.  The property test
feeds each reader arbitrary bytes and mutations of a valid file: one
value of it replaced by arbitrary JSON, a lone surrogate, a surrogate
pair or JSON nested 100k deep, or one key or item removed.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t2s import FewShotLibrary, PipelineConfig, ScriptedGateway, ValueIndex
from t2s.bench import load_dataset
from t2s.cli import _load_deps, _read_pairs
from t2s.errors import (
    BenchError, GatewayError, IndexBuildError, IngestError, read_json, read_json_lines,
)

PAIR = "\U0001F600"  # json.dumps writes it as the escaped pair "😀"
_DEEP = b"[" * 100_000  # deeper than the JSON parser recurses
_DEEP_MARK = "\x00deep\x00"  # stands for _DEEP in a drawn value

INDEX_HEADER = {"format": "t2s-value-index", "version": 3, "dim": 64, "db_id": "db"}
FEWSHOT_HEADER = {"format": "t2s-fewshot", "version": 1}
SHOT = {
    "type": "shot", "question": "How many in 2020?", "sql": "SELECT 1",
    "masked_question": "How many in <NUM>?", "db_id": "db",
    "cot": {"reason": "count " + PAIR, "columns": "T.c", "values": "none",
            "select": "", "sql_like": "SELECT 1"},
}
CATALOG = {
    "db_id": "db",
    "tables": [
        {"name": "T", "columns": [
            {"name": "id", "declared_type": "integer", "description": "", "not_null": True},
            {"name": "c", "declared_type": "text", "description": PAIR, "not_null": False},
        ], "primary_key": ["id"], "foreign_keys": []},
        {"name": "U", "columns": [{"name": "t_id", "declared_type": "integer"}],
         "foreign_keys": [["t_id", "T.id"]]},
    ],
}


def _load_catalog(path, workdir):
    # `t2s run --catalog`; an empty saved index spares the database a read.
    index_path = workdir / "empty-index.jsonl"
    index_path.write_text(json.dumps(INDEX_HEADER))
    return _load_deps("absent.sqlite", None, catalog_path=str(path), index_path=str(index_path))


# name: (reader, its documented error, a valid file as JSON values: a
# list of lines for a JSON-lines file, else one value).  Each valid file
# holds the surrogate pair, which must load.
READERS = {
    "value-index": (lambda path, _tmp: ValueIndex.load(path), IndexBuildError, [
        INDEX_HEADER,
        {"kind": "cell_value", "table": "T", "column": "c", "texts": ["a", PAIR]},
        {"kind": "column_name", "table": "T", "column": "c", "texts": ["c"]},
    ]),
    "few-shot": (lambda path, _tmp: FewShotLibrary.load(path), IngestError, [
        FEWSHOT_HEADER, SHOT, {**SHOT, "cot": None}, {"type": "correction"},
    ]),
    "transcript": (lambda path, _tmp: ScriptedGateway.from_transcript(path), GatewayError, [
        {"key": "cot:q1", "reply": ["SELECT 1", PAIR]},
        {"key": "extraction", "stage": "", "reply": "none"},
    ]),
    "dataset": (lambda path, _tmp: load_dataset(path), BenchError, [
        {"question_id": 1, "db_id": "db", "question": "Q " + PAIR, "evidence": "",
         "SQL": "SELECT 1", "difficulty": "simple"},
        {"db_id": "db", "question": "Q2", "query": "SELECT 2"},
    ]),
    "config": (lambda path, _tmp: PipelineConfig.from_file(path), IngestError, {
        "k_f": 3, "threshold": 0.5, "execution_timeout_s": 2, "no_vote": True,
        "model_name": "m" + PAIR,
    }),
    "catalog": (_load_catalog, IngestError, CATALOG),
    "pairs": (lambda path, _tmp: _read_pairs(path), IngestError, [
        {"question": "Q " + PAIR, "SQL": "SELECT 1"},
        {"question": "Q2", "sql": "SELECT 2"},
        ["Q3", "SELECT 3"],
    ]),
}
JSON_LINES = {"value-index", "few-shot", "transcript"}


_REMOVE = object()  # a replacement that removes the key or item


def _paths(value, path=()):
    """The path of every value in `value`, itself first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def _changed(value, path, new):
    """`value` with the item at `path` set to `new`, or removed."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) == 1 and new is _REMOVE:
        del copy[path[0]]
    else:
        copy[path[0]] = _changed(value[path[0]], path[1:], new)
    return copy


def _dumped(value) -> bytes:
    return json.dumps(value).replace(json.dumps(_DEEP_MARK), _DEEP.decode()).encode()


# Small integers only: an index header's dim sizes its arrays.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4096) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=3,
)
_surrogates = st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2)
_replacement = st.one_of(
    _json,
    _surrogates,
    _surrogates.map(lambda key: {key: 1}),
    st.sampled_from([PAIR, _DEEP_MARK, _REMOVE]),
)
# (where, what it becomes): `where` picks a line, then a value in it.
_mutation = st.tuples(st.integers(0, 999), _replacement)


def _content(name, mutation) -> bytes:
    """The file a reader is fed: raw bytes, or its valid file mutated."""
    if isinstance(mutation, bytes):
        return mutation
    valid = READERS[name][2]
    lines = list(valid) if name in JSON_LINES else [valid]
    if mutation is not None:
        where, new = mutation
        at, line = divmod(where, len(lines))
        paths = list(_paths(lines[line]))
        lines[line] = _changed(lines[line], paths[at % len(paths)], new)
        if lines[line] is _REMOVE:
            del lines[line]
    return b"\n".join(_dumped(value) for value in lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=200, deadline=None)
@given(mutation=st.binary(max_size=40) | _mutation)
@example(mutation=None)  # the valid file, escaped surrogate pair and all, loads
@example(mutation=_DEEP)
@example(mutation=b'["\\ud800"]')
@example(mutation=b'{"\\udfff": 1}')
@example(mutation=b"1" * 5000)  # an integer too long for int()
@example(mutation=_dumped(INDEX_HEADER).replace(b"}", b', "x": ') + _DEEP)
@example(mutation=_dumped(INDEX_HEADER) + b'\n{"kind": "cell_value", "table": "T", '
         b'"column": "c", "texts": ["\\ud800"]}')
@example(mutation=_dumped(FEWSHOT_HEADER) + b"\n" + _DEEP)
@example(mutation=_dumped(FEWSHOT_HEADER) + b"\n" + _dumped({**SHOT, "question": "\ud800"}))
@example(mutation=_dumped(FEWSHOT_HEADER) + b"\n" + _dumped({**SHOT, "cot": [1]}))
@example(mutation=_dumped(FEWSHOT_HEADER) + b"\n"
         + _dumped({**SHOT, "cot": {**SHOT["cot"], "reason": 5}}))
@example(mutation=_dumped(FEWSHOT_HEADER) + b"\n" + _dumped({**SHOT, "db_id": 5}))
@example(mutation=_dumped(FEWSHOT_HEADER) + b"\n" + _dumped({**SHOT, "masked_question": 3}))
@example(mutation=b'{"key": "k", "reply": ' + _DEEP)
@example(mutation=b'{"key": "k", "reply": "\\udc00"}')
@example(mutation=b'[{"question_id": 1, "db_id": "db", "question": ' + _DEEP)
@example(mutation=b'{"k_f": "five"}')
@example(mutation=b'{"n_candidates": "3"}')
@example(mutation=b'{"threshold": null}')
@example(mutation=b'{"no_vote": "yes"}')
@example(mutation=b'{"db_id": "db", "tables": ' + _DEEP)
@example(mutation=b'[{"question": "q", "sql": "SELECT 1"')  # truncated
@example(mutation=b'[{"question": "caf\xe9", "sql": "SELECT 1"}]')  # not UTF-8
@example(mutation=b"[5]")
@example(mutation=b'[["q"]]')
@example(mutation=b'{"a": 1}')
@example(mutation=b'[{"question": 5, "sql": "SELECT 1"}]')
def test_a_reader_raises_only_its_error(workdir, name, mutation):
    read, error, _valid = READERS[name]
    path = workdir / f"{name}.json"
    path.write_bytes(_content(name, mutation))
    if mutation is None:
        read(path, workdir)
        return
    try:
        read(path, workdir)
    except error:
        pass


# -- the shared reader ----------------------------------------------------


def test_read_json_lines_names_the_line(tmp_path):
    path = tmp_path / "x.jsonl"
    for bad, reason in ((b"caf\xe9", "not UTF-8"), (b'"\\ud800"', "surrogate"),
                        (b"[1,", "Expecting value"), (_DEEP, "recursion")):
        path.write_bytes(b'{"a": 1}\n\n' + bad + b"\n")
        with pytest.raises(IngestError, match=rf"thing {re.escape(str(path))} at line 3: .*{reason}"):
            read_json_lines(path, IngestError, "thing")


def test_read_json_takes_escaped_surrogate_pairs_and_backslashes(tmp_path):
    path = tmp_path / "x.json"
    # A pair is one character; an escaped backslash before "ud800" is text.
    path.write_text(json.dumps(["\U0001F600", "\\ud800", {"\U0001F600": "\\udc00"}]))
    assert read_json(path, IngestError, "thing") == [
        "\U0001F600", "\\ud800", {"\U0001F600": "\\udc00"},
    ]
    path.write_text('["\\ud83d\\ude00 \\ude00"]')  # a pair, then a lone low half
    with pytest.raises(IngestError, match="surrogate"):
        read_json(path, IngestError, "thing")


def test_read_json_lines_checks_the_header_first(tmp_path):
    path = tmp_path / "x.jsonl"
    header = ("t2s-thing", 2, "t2s remake")
    for content, message in (
        ("", "not a thing file"),
        ("\n  \n", "not a thing file"),
        ('{"format": "other", "version": 2}', "not a thing file"),
        ('[1]\n{"broken', "not a thing file"),
        ('{"format": "t2s-thing", "version": 1}\n{"broken', r"version 1 .*re-run `t2s remake`"),
    ):
        path.write_text(content)
        with pytest.raises(IngestError, match=message):
            read_json_lines(path, IngestError, "thing", header=header)
    path.write_text('\n{"format": "t2s-thing", "version": 2}\n\n[3]\n')
    assert read_json_lines(path, IngestError, "thing", header=header) == [
        (2, {"format": "t2s-thing", "version": 2}), (4, [3]),
    ]
