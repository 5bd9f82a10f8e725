"""Spans around the public functions of each `t2s` layer, for traced runs.

`Tracer.patched` swaps each function for a wrapper at the name its caller
looks it up by (a module global such as `t2s.pipeline.align_statement`, or
a class attribute such as `ValueIndex.search_values`), and puts every
original back on exit.  Untraced runs never install a wrapper.

A span records its name, the question it belongs to, start, end and the
span that was open when it started in the same thread.  A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    question: Optional[str]
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (owner, attribute, span name, position of the SQL argument or None).
# The owner is a module or "module:Class".
TARGETS = (
    ("t2s.pipeline", "ingest_schema", "schema.ingest", None),
    ("t2s.value_index:ValueIndex", "build", "value_index.build", None),
    ("t2s.value_index:ValueIndex", "save", "value_index.save", None),
    ("t2s.value_index:ValueIndex", "search_values", "value_index.search", None),
    ("t2s.value_index:ValueIndex", "search_columns", "value_index.column_search", None),
    ("t2s.embedding:TrigramEmbedder", "embed", "embedding.embed", None),
    ("t2s.pipeline", "run_extraction", "extraction.run", None),
    ("t2s.fewshot:FewShotLibrary", "select_fewshots", "fewshot.select", None),
    ("t2s.pipeline", "generate_candidates", "generation.generate", None),
    ("t2s.pipeline", "align_statement", "alignment.align", 0),
    ("t2s.refine", "align_statement", "alignment.align", 0),
    ("t2s.alignment", "parse_select", "sql_ast.parse", None),
    ("t2s.pipeline", "execute_sql", "refine.execute", 1),
    ("t2s.refine", "execute_sql", "refine.execute", 1),
    ("t2s.pipeline", "correct", "refine.correct", None),
    ("t2s.pipeline", "vote_detail", "refine.vote", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.question: Optional[str] = None
        self.recording = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, sql_position: Optional[int] = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[sid] = Span(sid, parent, name, tracer.question, start, end)
            span = tracer.spans[sid]
            if sql_position is not None:
                span.attrs["sql"] = kwargs.get("sql", args[sql_position]
                                               if len(args) > sql_position else None)
            if name == "refine.execute":
                span.attrs["status"] = result.status
            elif name == "refine.correct":
                span.attrs["rounds"] = result.rounds
            return result

        return wrapper

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner_path, attr, name, sql_position in TARGETS:
                module_name, _, class_name = owner_path.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__))
                else:
                    replacement = self.wrap(name, original, sql_position)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def per_layer(self, questions: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans of `questions` and of set-up."""
        asked = set(questions)
        n = len(questions)
        spans = [s for s in self.spans if s.question in asked]
        children: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for s in spans:
            total[s.name] += s.duration
            self_time[s.name] += s.duration - children[s.sid]
            calls[s.name] += 1

        def setup_median(name):
            times = [s.duration for s in self.spans if s.name == name and s.question is None]
            return statistics.median(times) if times else 0.0

        def distinct_share(name):
            per_question = defaultdict(set)
            for s in spans:
                if s.name == name:
                    per_question[s.question].add(s.attrs.get("sql"))
            distinct = sum(len(v) for v in per_question.values())
            return distinct / calls[name] if calls[name] else 0.0

        busy, serial = self._gateway_overlap(spans)
        ms = 1000.0
        return {
            "schema.ingest_s": (setup_median("schema.ingest"), "s"),
            "value_index.build_s": (setup_median("value_index.build"), "s"),
            "value_index.save_s": (setup_median("value_index.save"), "s"),
            "value_index.search_calls_per_q": (calls["value_index.search"] / n, "calls"),
            "value_index.search_ms_per_q": (total["value_index.search"] * ms / n, "ms"),
            "value_index.column_search_ms_per_q": (
                total["value_index.column_search"] * ms / n, "ms"),
            "embedding.embed_calls_per_q": (calls["embedding.embed"] / n, "calls"),
            "extraction.self_ms_per_q": (self_time["extraction.run"] * ms / n, "ms"),
            "fewshot.select_ms_per_q": (total["fewshot.select"] * ms / n, "ms"),
            "generation.self_ms_per_q": (self_time["generation.generate"] * ms / n, "ms"),
            "alignment.calls_per_q": (calls["alignment.align"] / n, "calls"),
            "alignment.distinct_sql_share": (distinct_share("alignment.align"), "share"),
            "alignment.self_ms_per_q": (self_time["alignment.align"] * ms / n, "ms"),
            "sql_ast.parse_calls_per_q": (calls["sql_ast.parse"] / n, "calls"),
            "sql_ast.parse_ms_per_q": (total["sql_ast.parse"] * ms / n, "ms"),
            "refine.execute_calls_per_q": (calls["refine.execute"] / n, "calls"),
            "refine.execute_distinct_share": (distinct_share("refine.execute"), "share"),
            "refine.execute_ms_per_q": (total["refine.execute"] * ms / n, "ms"),
            "refine.exec_errors_per_q": (
                sum(1 for s in spans
                    if s.name == "refine.execute" and s.attrs.get("status") != "Rows") / n,
                "count"),
            "refine.correct_calls_per_q": (calls["refine.correct"] / n, "calls"),
            "refine.correction_rounds_per_q": (
                sum(s.attrs.get("rounds", 0) for s in spans if s.name == "refine.correct") / n,
                "rounds"),
            "refine.correct_self_ms_per_q": (self_time["refine.correct"] * ms / n, "ms"),
            "refine.vote_ms_per_q": (total["refine.vote"] * ms / n, "ms"),
            "pipeline.self_ms_per_q": (self_time["pipeline.run"] * ms / n, "ms"),
            "gateway.busy_ms_per_q": (busy * ms / n, "ms"),
            "gateway.serial_calls_per_q": (serial / n, "calls"),
        }

    @staticmethod
    def _gateway_overlap(spans: list[Span]) -> tuple[float, int]:
        """Time with at least one model call in flight, and calls that
        started while no other call was in flight."""
        calls = sorted(
            (s.start, s.end) for s in spans if s.name == "gateway.complete"
        )
        busy = 0.0
        serial = 0
        open_until = float("-inf")
        for start, end in calls:
            if start >= open_until:
                serial += 1
                busy += end - start
                open_until = end
            elif end > open_until:
                busy += end - open_until
                open_until = end
        return busy, serial

    def to_json(self) -> list:
        return [
            [s.sid, s.parent, s.name, s.question, s.start, s.end,
             {k: v for k, v in s.attrs.items() if k != "sql"}]
            for s in self.spans
        ]
