import json

import pytest
import requests

from t2s import Completion, GatewayError, HttpGateway, RecordingGateway, ScriptedGateway
from t2s.gateway import MAX_RETRY_AFTER_S, LlmConfig, normalize_prompt, prompt_key

CFG = LlmConfig()


def test_normalize_prompt_strips_trailing_space():
    assert normalize_prompt("a  \nb\t\n  c  ") == "a\nb\n  c"
    assert normalize_prompt("\n\nx\n\n") == "x"


def test_prompt_key_invariant_to_trailing_space():
    assert prompt_key("hello \nworld  ") == prompt_key("hello\nworld")
    assert prompt_key("hello") != prompt_key("world")
    assert len(prompt_key("x")) == 64


def test_lookup_by_prompt_key():
    gw = ScriptedGateway()
    gw.add(prompt_key("What is 2+2?"), "4")
    got = gw.complete("What is 2+2?  ", CFG)
    assert got.texts == ("4",)


def test_lookup_falls_back_to_stage():
    gw = ScriptedGateway({"cot:q01": "#SQL: SELECT 1"})
    got = gw.complete("anything", CFG, stage="cot:q01")
    assert got.texts == ("#SQL: SELECT 1",)


def test_prompt_key_wins_over_stage():
    gw = ScriptedGateway({"cot:q01": "by stage"})
    gw.add(prompt_key("p"), "by prompt")
    assert gw.complete("p", CFG, stage="cot:q01").texts == ("by prompt",)


def test_strict_miss_raises_with_stage_and_hash():
    gw = ScriptedGateway()
    with pytest.raises(GatewayError) as err:
        gw.complete("mystery prompt", CFG, stage="cot:q09")
    msg = str(err.value)
    assert "cot:q09" in msg
    assert prompt_key("mystery prompt")[:12] in msg


def test_lenient_miss_returns_empty():
    gw = ScriptedGateway(strict=False)
    assert gw.complete("mystery", CFG).texts == ("",)


def test_multi_sample_padding_and_truncation():
    gw = ScriptedGateway({"s": ["a", "b"]})
    assert gw.complete("x", CFG.with_(n_samples=1), stage="s").texts == ("a",)
    assert gw.complete("x", CFG.with_(n_samples=4), stage="s").texts == (
        "a",
        "b",
        "b",
        "b",
    )


def test_calls_are_recorded():
    gw = ScriptedGateway({"s": "r"})
    gw.complete("p1", CFG, stage="s")
    gw.complete("p2", CFG, stage="s")
    assert gw.calls == [("p1", "s"), ("p2", "s")]


def test_config_with_returns_copy():
    cfg = LlmConfig(temperature=0.0)
    warm = cfg.with_(temperature=0.7, n_samples=3)
    assert cfg.temperature == 0.0 and cfg.n_samples == 1
    assert warm.temperature == 0.7 and warm.n_samples == 3


def test_recording_round_trip(tmp_path):
    inner = ScriptedGateway({"stage-a": ["one", "two"]})
    path = tmp_path / "trace.jsonl"
    rec = RecordingGateway(inner, path)
    rec.complete("prompt text", CFG.with_(n_samples=2), stage="stage-a")

    replay = ScriptedGateway.from_transcript(path)
    got = replay.complete("prompt text", CFG.with_(n_samples=2))
    assert got.texts == ("one", "two")
    # the stage is preserved in the record even though replay keys on hash
    line = json.loads(path.read_text().splitlines()[0])
    assert line["stage"] == "stage-a"


def test_transcript_blank_lines_skipped(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('\n{"key": "k", "reply": "r"}\n\n')
    gw = ScriptedGateway.from_transcript(path)
    assert gw.complete("x", CFG, stage="k").texts == ("r",)


def test_transcript_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"key": "k", "reply": "r"}\nnot json\n')
    with pytest.raises(GatewayError) as err:
        ScriptedGateway.from_transcript(path)
    assert "line 2" in str(err.value)

    path.write_text('{"key": "k"}\n')
    with pytest.raises(GatewayError) as err:
        ScriptedGateway.from_transcript(path)
    assert "line 1" in str(err.value)

    for reply in ("5", "[]", '["a", 3]', "null"):
        path.write_text('{"key": "k", "reply": "r"}\n{"key": "k2", "reply": %s}\n' % reply)
        with pytest.raises(GatewayError) as err:
            ScriptedGateway.from_transcript(path)
        assert "line 2" in str(err.value)


def test_scripted_reply_must_be_text():
    for reply in ([], 5, ["a", None]):
        with pytest.raises(GatewayError):
            ScriptedGateway({"cot:q": reply})
    assert ScriptedGateway({"s": ("a", "b")}).complete("x", CFG, stage="s").texts == ("a",)


def test_empty_completion_is_a_gateway_error():
    with pytest.raises(GatewayError):
        Completion(texts=())


def test_missing_transcript_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ScriptedGateway.from_transcript(tmp_path / "absent.jsonl")


# -- HTTP client ----------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code, texts=(), headers=None):
        self.status_code = status_code
        self._texts = texts
        self.headers = headers or {}

    def json(self):
        return {"choices": [{"message": {"content": t}} for t in self._texts]}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"{self.status_code} error")


class FakeSession:
    """Answers each post with the next scripted response."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.posted = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posted.append(json)
        return self.responses.pop(0)


def http_gateway(session):
    return HttpGateway(endpoint="http://model.test/v1", session=session, backoff=0)


def test_http_client_error_is_not_retried():
    session = FakeSession(*[FakeResponse(401) for _ in range(4)])
    with pytest.raises(GatewayError):
        http_gateway(session).complete("p", CFG)
    assert len(session.posted) == 1


def test_http_server_error_is_retried():
    session = FakeSession(FakeResponse(503), FakeResponse(200, ["SELECT 1"]))
    got = http_gateway(session).complete("p", CFG)
    assert got.texts == ("SELECT 1",)
    assert len(session.posted) == 2


def test_http_short_reply_tops_up_one_at_a_time():
    session = FakeSession(
        FakeResponse(200, ["a"]), FakeResponse(200, ["b"]), FakeResponse(200, ["c"])
    )
    got = http_gateway(session).complete("p", CFG.with_(n_samples=3))
    assert got.texts == ("a", "b", "c")
    assert [payload["n"] for payload in session.posted] == [3, 1, 1]


@pytest.mark.parametrize(
    "status, retry_after, slept",
    [
        (429, "2", 2.0),
        (503, "0.25", 0.25),
        (503, "3600", MAX_RETRY_AFTER_S),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),
        (429, "soon", None),
        (503, "-1", None),
        (503, "nan", None),
        (502, "2", None),  # only 429 and 503 carry a Retry-After worth reading
    ],
)
def test_http_retry_after(monkeypatch, status, retry_after, slept):
    sleeps = []
    monkeypatch.setattr("t2s.gateway.time.sleep", sleeps.append)
    session = FakeSession(
        FakeResponse(status, headers={"Retry-After": retry_after}),
        FakeResponse(200, ["SELECT 1"]),
    )
    gateway = HttpGateway(endpoint="http://model.test/v1", session=session, backoff=0.5)
    assert gateway.complete("p", CFG).texts == ("SELECT 1",)
    assert len(sleeps) == 1
    if slept is None:
        assert 0.5 <= sleeps[0] <= 0.625  # the first backoff delay plus its jitter
    else:
        assert sleeps[0] == slept
