import json
from dataclasses import fields

import pytest

from t2s import FewShotLibrary, PipelineConfig
from t2s.cli import ABLATION_FLAGS, _build_config, _read_pairs, build_parser, main
from t2s.errors import IngestError


def write_cli_transcript(e2e, path):
    """Re-key the q01 replies for the run command's fixed question tag."""
    records = [
        {"key": "extraction:cli", "reply": e2e.replies["extraction:q01"]},
        {"key": "cot:cli", "reply": e2e.replies["cot:q01"]},
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def test_preprocess_command(e2e, tmp_path, capsys):
    code = main(
        [
            "preprocess",
            "--db", str(e2e.db_path),
            "--db-id", "clinical",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == f"clinical: 2 tables, 15 indexed values -> {tmp_path}"
    assert (tmp_path / "clinical.catalog.json").exists()
    assert (tmp_path / "clinical.values.jsonl").exists()


def test_run_command_prints_result(e2e, tmp_path, capsys):
    transcript = tmp_path / "cli.jsonl"
    write_cli_transcript(e2e, transcript)
    out_path = tmp_path / "result.json"
    code = main(
        [
            "run",
            "--db", str(e2e.db_path),
            "--db-id", "clinical",
            "--question", "How many patients are female?",
            "--evidence", "female refers to SEX = 'F'",
            "--transcript", str(transcript),
            "--library", str(e2e.library_path),
            "--n-candidates", "2",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Rows"
    assert payload["rows"] == [[3]]
    assert payload["row_count"] == 1
    assert payload["sql"].startswith("SELECT COUNT(*)")
    assert "vote" in payload["trace_stages"]
    assert json.loads(out_path.read_text()) == payload


def test_run_command_no_vote_flag(e2e, tmp_path, capsys):
    transcript = tmp_path / "cli.jsonl"
    write_cli_transcript(e2e, transcript)
    code = main(
        [
            "run",
            "--db", str(e2e.db_path),
            "--question", "How many patients are female?",
            "--transcript", str(transcript),
            "--n-candidates", "2",
            "--no-vote",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "vote" not in payload["trace_stages"]
    assert payload["winner_index"] == 0


def test_fewshot_command(e2e, tmp_path, capsys):
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(
        json.dumps(
            [
                {"question": "How many patients?", "SQL": "SELECT COUNT(*) FROM Patient"},
                ["How many labs?", "SELECT COUNT(*) FROM Laboratory"],
            ]
        )
    )
    transcript = tmp_path / "augment.jsonl"
    good = (
        "#reason: count rows\n#columns: Patient.ID\n#values: none\n"
        "#SQL-like: Show COUNT(*)\n#SQL: SELECT COUNT(*) FROM Patient"
    )
    with open(transcript, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"key": "augment:0", "reply": good}) + "\n")
        handle.write(json.dumps({"key": "augment:1", "reply": "no markers"}) + "\n")
    out = tmp_path / "lib.jsonl"
    code = main(
        [
            "fewshot",
            "--pairs", str(pairs_path),
            "--db", str(e2e.db_path),
            "--db-id", "clinical",
            "--transcript", str(transcript),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == f"2 shots (1 degraded) -> {out}"
    library = FewShotLibrary.load(out)
    assert len(library.shots) == 2
    assert library.shots[0].db_id == "clinical"


def test_bench_command(e2e, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "bench",
            "--dataset", str(e2e.dataset_path),
            "--db-root", str(e2e.db_root),
            "--library", str(e2e.library_path),
            "--transcript", str(e2e.transcript_path),
            "--n-candidates", "3",
            "--no-rves",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == f"EX 1.000 over 10 tasks -> {report_path}"
    report = json.loads(report_path.read_text())
    assert report["aggregates"]["overall"]["ex"] == 1.0
    assert report["rves_tiers"] is None


def test_ablate_command(e2e, tmp_path, capsys):
    out = tmp_path / "ablation.json"
    code = main(
        [
            "ablate",
            "--dataset", str(e2e.dataset_path),
            "--db-root", str(e2e.db_root),
            "--library", str(e2e.library_path),
            "--transcript", str(e2e.transcript_path),
            "--n-candidates", "3",
            "--timing-repeats", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "t2s-ablation"
    assert payload["version"] == 1
    baseline_stages = set(payload["baseline"]["trace_stages"])
    assert baseline_stages == {
        "extraction", "value_retrieval", "column_filtering", "info_alignment",
        "fewshot", "cot", "alignments", "correction", "vote",
    }
    assert set(payload["variants"]) == set(ABLATION_FLAGS)
    for flag, variant in payload["variants"].items():
        stage = flag[3:]
        assert stage not in set(variant["trace_stages"]), flag


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--db", "x.sqlite"])  # --question missing
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_missing_database_exits_1(tmp_path, capsys):
    code = main(
        [
            "run",
            "--db", str(tmp_path / "absent.sqlite"),
            "--question", "Q?",
            "--transcript", str(tmp_path / "also-absent.jsonl"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_db_id_in_dataset_exits_1(e2e, tmp_path, capsys):
    dataset = tmp_path / "ghost.json"
    dataset.write_text(
        json.dumps([{"db_id": "ghost", "question": "Q?", "SQL": "SELECT 1"}])
    )
    code = main(
        [
            "bench",
            "--dataset", str(dataset),
            "--db-root", str(e2e.db_root),
            "--transcript", str(e2e.transcript_path),
        ]
    )
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_bad_config_file_exits_1(e2e, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery_knob": 1}))
    code = main(
        [
            "run",
            "--db", str(e2e.db_path),
            "--question", "Q?",
            "--transcript", str(e2e.transcript_path),
            "--config", str(cfg),
        ]
    )
    assert code == 1
    assert "mystery_knob" in capsys.readouterr().err


FLAG_CASES = [
    # flag, value on the command line, PipelineConfig field, parsed value
    ("--k-f", "5", "k_f", 5),
    ("--n-candidates", "7", "n_candidates", 7),
    ("--threshold", "0.25", "threshold", 0.25),
    ("--top-k", "9", "top_k", 9),
    ("--timeout", "1.5", "execution_timeout_s", 1.5),
    ("--timing-repeats", "2", "timing_repeats", 2),
    ("--model", "some-model", "model_name", "some-model"),
]

CONFIG_FLAG_HELP = {
    # flag: (type, metavar shown in --help, help text)
    "--k-f": (int, "K_F", "number of demonstrations"),
    "--n-candidates": (int, "N_CANDIDATES", "samples per question"),
    "--threshold": (float, "THRESHOLD", "retrieval similarity cutoff"),
    "--top-k": (int, "TOP_K", "retrieval result cap"),
    "--timeout": (float, "TIMEOUT", "per-query execution deadline in seconds"),
    "--timing-repeats": (int, "TIMING_REPEATS", "executions per timing measurement"),
    "--model": (str, "MODEL", "model name sent to the endpoint"),
}


def _run_args(*extra):
    return build_parser().parse_args(["run", "--db", "x.sqlite", "--question", "Q?", *extra])


@pytest.mark.parametrize("flag,text,name,value", FLAG_CASES)
def test_config_flag_sets_its_field(flag, text, name, value):
    config = _build_config(_run_args(flag, text))
    assert getattr(config, name) == value
    untouched = PipelineConfig()
    for other in fields(PipelineConfig):
        if other.name != name:
            assert getattr(config, other.name) == getattr(untouched, other.name)


def test_ablation_flags_set_their_fields():
    for flag in ABLATION_FLAGS:
        config = _build_config(_run_args(f"--{flag.replace('_', '-')}"))
        assert getattr(config, flag) is True
        assert sum(getattr(config, other) for other in ABLATION_FLAGS) == 1


def test_config_file_values_survive_absent_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    from_file = {name: value for _flag, _text, name, value in FLAG_CASES}
    from_file["no_fewshot"] = True
    cfg.write_text(json.dumps(from_file))
    config = _build_config(_run_args("--config", str(cfg)))
    for name, value in from_file.items():
        assert getattr(config, name) == value
    # a flag given on the command line still wins over the file
    config = _build_config(_run_args("--config", str(cfg), "--k-f", "1", "--no-vote"))
    assert config.k_f == 1 and config.no_vote and config.no_fewshot
    assert config.n_candidates == 7


def test_config_flag_help_unchanged():
    parser = build_parser()
    run = next(
        action for action in parser._actions if action.dest == "command"
    ).choices["run"]
    shown = {
        action.option_strings[0]: (
            action.type or str,  # argparse keeps the text as it is
            action.metavar or action.dest.upper(),
            action.help,
        )
        for action in run._actions
        if action.option_strings and action.option_strings[0] in CONFIG_FLAG_HELP
    }
    assert shown == CONFIG_FLAG_HELP


CATALOG_COLUMN_NOT_TEXT = {"db_id": "x", "tables": [{"name": "t", "columns": [{"name": 5}]}]}


@pytest.mark.parametrize("flag,content", [
    ("--catalog", b'{"db_id": "x", "tables": ['),
    ("--catalog", b"\xff\xfe not UTF-8"),
    ("--catalog", json.dumps(CATALOG_COLUMN_NOT_TEXT).encode()),
    ("--config", b"\xff\xfe not UTF-8"),
], ids=["catalog-truncated", "catalog-not-utf8", "catalog-name-not-text", "config-not-utf8"])
def test_unreadable_catalog_or_config_exits_1(e2e, tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    transcript = tmp_path / "empty.jsonl"
    transcript.write_text("")
    code = main(["run", "--db", str(e2e.db_path), "--question", "Q?",
                 "--transcript", str(transcript), flag, str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content,message", [
    (b'[{"question": "q", "sql": "SELECT 1"', "cannot parse pairs file"),
    (b'[{"question": "caf\xe9", "sql": "SELECT 1"}]', "not UTF-8"),
    (b"[5]", "pair 0 "),
    (b'[["q", "SELECT 1"], ["q"]]', "pair 1 "),
    (b'{"a": 1}', "must hold a JSON list"),
    (b'[{"question": 5, "sql": "SELECT 1"}]', "pair 0 "),
    (b'[{"question": "q", "sql": ""}]', "pair 0 "),
    (b'[["q", "SELECT 1", "extra"]]', "pair 0 "),
], ids=["truncated", "not-utf8", "number", "one-item", "object", "question-number",
        "sql-empty", "three-items"])
def test_fewshot_command_refuses_bad_pairs(tmp_path, capsys, content, message):
    pairs = tmp_path / "pairs.json"
    pairs.write_bytes(content)
    with pytest.raises(IngestError, match=message):
        _read_pairs(str(pairs))
    code = main(["fewshot", "--pairs", str(pairs), "--out", str(tmp_path / "lib.jsonl")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "lib.jsonl").exists()


def test_read_pairs_takes_every_spelling_of_the_sql_key(tmp_path):
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([
        {"question": "a", "SQL": "SELECT 1"},
        {"question": "b", "sql": "SELECT 2"},
        {"question": "c", "query": "SELECT 3"},
        ["d", "SELECT 4"],
    ]))
    assert _read_pairs(str(pairs)) == [
        ("a", "SELECT 1"), ("b", "SELECT 2"), ("c", "SELECT 3"), ("d", "SELECT 4"),
    ]


def test_a_directory_as_an_input_file_exits_1(tmp_path, capsys):
    transcript = tmp_path / "empty.jsonl"
    transcript.write_text("")
    code = main(["bench", "--dataset", str(tmp_path), "--db-root", str(tmp_path),
                 "--transcript", str(transcript)])
    assert code == 1
    assert "Is a directory" in capsys.readouterr().err
