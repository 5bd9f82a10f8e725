"""LLM access: one protocol, an HTTP client, and a scripted replayer.

Every stage that needs a model goes through the `Gateway` protocol, so
the whole pipeline runs offline by swapping in a `ScriptedGateway` fed
from a JSON-lines transcript.  Deterministic tests and the acceptance
runs rely on that swap; nothing outside this module knows whether a
reply came from a server or a file.

Transcript format, one JSON object per line:

    {"key": "<sha256 of normalized prompt or a stage tag>",
     "stage": "cot:q07",               // optional, documentation only
     "reply": "..." | ["...", "..."]}

Replies are matched by normalized-prompt hash first, then by the stage
tag the pipeline passed, so transcripts survive cosmetic prompt edits.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Protocol, runtime_checkable

import requests

from .errors import GatewayError

ENDPOINT_ENV = "T2S_LLM_ENDPOINT"
API_KEY_ENV = "T2S_LLM_KEY"

# A numeric Retry-After on a 429 or 503 replaces the backoff delay, but a
# server never makes a retry wait longer than this many seconds.
MAX_RETRY_AFTER_S = 30.0


@dataclass(frozen=True)
class LlmConfig:
    model_name: str = "gpt-4o"
    temperature: float = 0.0
    n_samples: int = 1
    max_tokens: int = 2048
    timeout: float = 60.0

    def with_(self, **kwargs) -> "LlmConfig":
        return replace(self, **kwargs)


@dataclass
class Completion:
    texts: tuple[str, ...]
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        # Every caller reads texts[0]; an empty completion is a failed call.
        if not self.texts:
            raise GatewayError("completion holds no text")


@runtime_checkable
class Gateway(Protocol):
    def complete(
        self, prompt: str, config: LlmConfig, stage: Optional[str] = None
    ) -> Completion: ...


def normalize_prompt(prompt: str) -> str:
    return "\n".join(line.rstrip() for line in prompt.strip().splitlines())


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(normalize_prompt(prompt).encode("utf-8")).hexdigest()


class ScriptedGateway:
    """Replays canned replies; raises on anything it has no answer for.

    With `strict=False` an unmatched prompt yields an empty reply
    instead, which downstream code treats as a failed sample.
    """

    def __init__(
        self,
        replies: Optional[dict[str, str | list[str]]] = None,
        strict: bool = True,
    ):
        self._replies: dict[str, list[str]] = {}
        self.strict = strict
        self.calls: list[tuple[str, Optional[str]]] = []
        for key, reply in (replies or {}).items():
            self.add(key, reply)

    @classmethod
    def from_transcript(cls, path: str | Path, strict: bool = True) -> "ScriptedGateway":
        gateway = cls(strict=strict)
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                    gateway.add(record["key"], record["reply"])
                except (json.JSONDecodeError, KeyError, TypeError, GatewayError) as exc:
                    raise GatewayError(
                        f"bad transcript line {lineno} in {path}: {exc}"
                    ) from exc
        return gateway

    def add(self, key: str, reply: str | list[str]) -> None:
        replies = [reply] if isinstance(reply, str) else reply
        if (not isinstance(replies, (list, tuple)) or not replies
                or not all(isinstance(text, str) for text in replies)):
            raise GatewayError(
                f"reply for {key!r} must be a string or a non-empty list of strings"
            )
        self._replies[key] = list(replies)

    def complete(
        self, prompt: str, config: LlmConfig, stage: Optional[str] = None
    ) -> Completion:
        self.calls.append((prompt, stage))
        replies = self._replies.get(prompt_key(prompt))
        if replies is None and stage is not None:
            replies = self._replies.get(stage)
        if replies is None:
            if self.strict:
                raise GatewayError(
                    f"no scripted reply for stage {stage!r} "
                    f"(prompt hash {prompt_key(prompt)[:12]})"
                )
            replies = [""]
        texts = list(replies[: config.n_samples])
        while len(texts) < config.n_samples:
            texts.append(replies[-1])
        return Completion(texts=tuple(texts))


class RecordingGateway:
    """Wraps another gateway and appends every exchange to a transcript."""

    def __init__(self, inner: Gateway, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()

    def complete(
        self, prompt: str, config: LlmConfig, stage: Optional[str] = None
    ) -> Completion:
        completion = self.inner.complete(prompt, config, stage=stage)
        record = {
            "key": prompt_key(prompt),
            "stage": stage or "",
            "reply": list(completion.texts),
        }
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        return completion


class HttpGateway:
    """Client for an OpenAI-style chat completions endpoint.

    Endpoint and key default to the T2S_LLM_ENDPOINT / T2S_LLM_KEY
    environment variables.  Connection errors and the statuses 429, 500,
    502, 503 and 504 are retried with exponential backoff, or after the
    reply's Retry-After seconds on 429 and 503; any other error status
    fails at once.  Sampling falls back to sequential single
    completions when the server returns fewer choices than asked.
    """

    def __init__(
        self,
        endpoint: Optional[str] = None,
        api_key: Optional[str] = None,
        max_concurrency: int = 4,
        max_retries: int = 3,
        backoff: float = 0.5,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not self.endpoint:
            raise GatewayError(
                f"no endpoint configured; set {ENDPOINT_ENV} or pass endpoint="
            )
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.max_retries = max_retries
        self.backoff = backoff
        self._limiter = threading.Semaphore(max_concurrency)
        self._session = session or requests.Session()
        self._rng = random.Random(0)

    def complete(
        self, prompt: str, config: LlmConfig, stage: Optional[str] = None
    ) -> Completion:
        texts: list[str] = []
        prompt_tokens = completion_tokens = 0
        want = max(1, config.n_samples)
        reply = self._request(prompt, config, n=want)
        texts.extend(reply[0])
        prompt_tokens += reply[1]
        completion_tokens += reply[2]
        while len(texts) < want:
            reply = self._request(prompt, config, n=1)
            texts.extend(reply[0])
            prompt_tokens += reply[1]
            completion_tokens += reply[2]
        return Completion(
            texts=tuple(texts[:want]),
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )

    def _request(
        self, prompt: str, config: LlmConfig, n: int
    ) -> tuple[list[str], int, int]:
        payload = {
            "model": config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
            "n": n,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Optional[Exception] = None
        retry_after: Optional[float] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = self.backoff * (2 ** (attempt - 1))
                time.sleep(
                    delay + self._rng.uniform(0, delay / 4)
                    if retry_after is None
                    else retry_after
                )
            retry_after = None
            try:
                with self._limiter:
                    response = self._session.post(
                        self.endpoint,
                        json=payload,
                        headers=headers,
                        timeout=config.timeout,
                    )
                if response.status_code in (429, 500, 502, 503, 504):
                    last_error = GatewayError(
                        f"server returned {response.status_code}"
                    )
                    retry_after = _retry_after(response)
                    continue
                if response.status_code >= 400:
                    raise GatewayError(f"server returned {response.status_code}")
                data = response.json()
                choices = data.get("choices", [])
                texts = [
                    (choice.get("message") or {}).get("content") or ""
                    for choice in choices
                ]
                if not texts:
                    raise GatewayError("response contained no choices")
                usage = data.get("usage") or {}
                return (
                    texts,
                    int(usage.get("prompt_tokens") or 0),
                    int(usage.get("completion_tokens") or 0),
                )
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
        raise GatewayError(f"request failed after retries: {last_error}")


def _retry_after(response) -> Optional[float]:
    """The capped Retry-After seconds of a 429 or 503 reply, else None.

    Only a number of seconds is read; an HTTP date or any other value is
    ignored, and the retry falls back to the backoff delay.
    """
    if response.status_code not in (429, 503):
        return None
    try:
        seconds = float(response.headers.get("Retry-After", ""))
    except ValueError:
        return None
    if not seconds >= 0:  # negative or NaN
        return None
    return min(seconds, MAX_RETRY_AFTER_S)
