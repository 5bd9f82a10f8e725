"""Question analysis: entities, value retrieval, column filtering, and
alignment of answer phrases with SELECT expressions.

One deterministic-temperature model call reads the question against the
full schema and replies in the same marker format the generator uses.
Everything parsed out of that reply is *advisory*: entities feed the
value index, suggested columns are unioned with vector-retrieved ones,
and anything that fails validation is dropped rather than trusted.
The final selection is closed over keys so the filtered schema can
still express its joins, and an empty selection falls back to the full
catalog because showing too much beats showing nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .embedding import Probes
from .errors import GatewayError
from .fewshot import (
    MARK_COLUMNS,
    MARK_REASON,
    MARK_SELECT,
    MARK_VALUES,
    question_header,
    split_marked_sections,
)
from .gateway import Gateway, LlmConfig
from .generation import split_columns
from .schema import ColumnSelection, SchemaCatalog, expand_selection, render_schema
from .value_index import RetrievalConfig, ValueHit, ValueIndex

# Comparative words that condition the query shape; they are kept as
# entities whenever the question contains them, model reply or not.
PREDEFINED_KEYWORDS = ("highest", "lowest", "most", "least")

EXTRACTION_MARKERS = (MARK_REASON, MARK_COLUMNS, MARK_VALUES, MARK_SELECT)

_LIST_PREFIX = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")
_WH_PHRASE = re.compile(
    r"^(how many|how much|what|which|who|whose|when|where|list|count|name|give|show|find|state)\b[^,.?;]*",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Entity:
    text: str
    source: str  # "llm" | "predefined"


@dataclass
class ExtractionResult:
    entities: list[Entity] = field(default_factory=list)
    value_hits: list[ValueHit] = field(default_factory=list)
    selection: Optional[ColumnSelection] = None
    select_pairs: list[tuple[str, str]] = field(default_factory=list)
    select_content: Optional[str] = None
    reason: str = ""


def build_extraction_prompt(
    question: str, schema_text: str, evidence: str = ""
) -> str:
    instructions = "\n".join(
        [
            "Read the question and the schema, then reply with exactly these marked lines:",
            f"{MARK_REASON} one sentence on what the question asks for",
            f"{MARK_COLUMNS} the table.column names likely needed, comma separated",
            f"{MARK_VALUES} literal words or phrases from the question that should match stored values, one per line; write none if there are none",
            f"{MARK_SELECT} each answer phrase and the expression returning it, as phrase => expression, one per line",
        ]
    )
    asked = f"{question} {evidence}".strip() if evidence else question
    return "\n\n".join([schema_text, instructions, question_header(asked)])


def extract_entities(question: str, values_section: str) -> list[Entity]:
    """Entities from the model's #values lines plus predefined keywords.

    Reply lines are split on newlines and commas with list bullets
    stripped.  Dedupe is case-insensitive, first spelling wins.  When
    the reply gave nothing usable the predefined keywords found in the
    question are still returned, so retrieval never starves silently.
    """
    entities: list[Entity] = []
    seen: set[str] = set()

    def add(text: str, source: str) -> None:
        text = text.strip().strip("'\"")
        if not text or text.casefold() in ("none", "n/a"):
            return
        key = text.casefold()
        if key in seen:
            return
        seen.add(key)
        entities.append(Entity(text=text, source=source))

    for line in values_section.splitlines():
        line = _LIST_PREFIX.sub("", line)
        for part in line.split(","):
            add(part, "llm")
    lowered = question.casefold()
    for keyword in PREDEFINED_KEYWORDS:
        if re.search(rf"\b{keyword}\b", lowered):
            add(keyword, "predefined")
    return entities


def retrieve_values(
    index: ValueIndex,
    entities: Sequence[Entity],
    config: Optional[RetrievalConfig] = None,
    probes: Optional[dict[str, Probes]] = None,
) -> list[ValueHit]:
    """Search the index per entity and merge, best similarity first.

    The same stored cell found through two entities is kept once at its
    best score.  Scores equal to 12 decimals keep first-seen order.  The
    merged list is re-cut at top_k so downstream prompts see a bounded,
    globally ranked set.  `probes` is `ValueIndex.probes` of the searches.
    """
    config = config or RetrievalConfig()
    shared = {} if probes is None else {"probes": probes}
    best: dict[tuple[str, str, str], ValueHit] = {}
    order: list[tuple[str, str, str]] = []
    for entity in entities:
        for hit in index.search_values(entity.text, config, **shared):
            key = (hit.table, hit.column, hit.text)
            if key not in best:
                best[key] = hit
                order.append(key)
            elif hit.similarity > best[key].similarity:
                best[key] = hit
    merged = [best[key] for key in order]
    merged.sort(key=lambda h: -round(h.similarity, 12))
    return merged[: config.top_k]


def filter_columns(
    catalog: SchemaCatalog,
    index: Optional[ValueIndex],
    question: str,
    entities: Sequence[Entity],
    columns_section: str,
    config: Optional[RetrievalConfig] = None,
    probes: Optional[dict[str, Probes]] = None,
) -> ColumnSelection:
    """Union of model-suggested and vector-retrieved columns.

    Suggestions that do not resolve against the catalog are dropped.
    An empty union falls back to every column.
    """
    config = config or RetrievalConfig()
    pairs: list[tuple[str, str]] = []
    for name in split_columns(columns_section):
        cleaned = name.replace("`", "")
        table, dot, column = cleaned.partition(".")
        if not dot:
            matches = catalog.resolve_bare_column(cleaned)
            if len(matches) == 1:
                pairs.append(matches[0])
            continue
        resolved = catalog.resolve_column(table.strip(), column.strip())
        if resolved is not None:
            pairs.append((resolved[0].name, resolved[1].name))
    if index is not None:
        queries = [question] + [entity.text for entity in entities]
        for query in queries:
            pairs.extend(index.search_columns(query, catalog, config, probes).pairs())
    if not pairs:
        return ColumnSelection.full(catalog)
    return ColumnSelection.of(catalog, pairs)


def info_align(
    question: str,
    select_section: str,
    selection: ColumnSelection,
    catalog: SchemaCatalog,
) -> tuple[list[tuple[str, str]], Optional[str], ColumnSelection]:
    """Bind answer phrases to SELECT expressions and close the selection.

    Pairs come from reply lines of the form ``phrase => expression``;
    a phrase that does not occur in the question is dropped as
    hallucinated.  With no usable pairs, the leading question phrase
    ("How many patients", "Which city", ...) stands in, because the
    generator still benefits from being told what the answer column is.
    """
    pairs: list[tuple[str, str]] = []
    lowered = question.casefold()
    for line in select_section.splitlines():
        line = _LIST_PREFIX.sub("", line).strip()
        if not line or "=>" not in line:
            continue
        phrase, _, expression = line.partition("=>")
        phrase = phrase.strip().strip("'\"")
        expression = expression.strip()
        if phrase and phrase.casefold() in lowered:
            pairs.append((phrase, expression))
    if not pairs:
        match = _WH_PHRASE.match(question.strip())
        if match:
            pairs.append((match.group(0).strip(), ""))
    select_content = "; ".join(phrase for phrase, _ in pairs) if pairs else None
    return pairs, select_content, expand_selection(catalog, selection)


def run_extraction(
    question: str,
    catalog: SchemaCatalog,
    index: Optional[ValueIndex],
    gateway: Optional[Gateway],
    evidence: str = "",
    retrieval: Optional[RetrievalConfig] = None,
    llm: Optional[LlmConfig] = None,
    stage: Optional[str] = None,
    retrieve: bool = True,
    filter_cols: bool = True,
    align_info: bool = True,
) -> ExtractionResult:
    """Full question-analysis pass; each sub-step can be switched off."""
    retrieval = retrieval or RetrievalConfig()
    llm_config = (llm or LlmConfig()).with_(n_samples=1)
    sections: dict[str, str] = {}
    if gateway is not None:
        prompt = build_extraction_prompt(
            question, render_schema(catalog), evidence=evidence
        )
        try:
            completion = gateway.complete(prompt, llm_config, stage=stage)
            sections = split_marked_sections(completion.texts[0], EXTRACTION_MARKERS)
        except GatewayError:
            sections = {}
    result = ExtractionResult(reason=sections.get(MARK_REASON, ""))
    result.entities = extract_entities(question, sections.get(MARK_VALUES, ""))
    # The probes of every search below, embedded in one block.
    searched = [e.text for e in result.entities] if retrieve else []
    if filter_cols:
        searched += [question] + [e.text for e in result.entities]
    probes = index.probes(searched) if index is not None else None
    if retrieve and index is not None and result.entities:
        result.value_hits = retrieve_values(index, result.entities, retrieval, probes)
    if filter_cols:
        selection = filter_columns(
            catalog,
            index,
            question,
            result.entities,
            sections.get(MARK_COLUMNS, ""),
            retrieval,
            probes,
        )
    else:
        selection = ColumnSelection.full(catalog)
    if align_info:
        pairs, content, selection = info_align(
            question, sections.get(MARK_SELECT, ""), selection, catalog
        )
        result.select_pairs = pairs
        result.select_content = content
    result.selection = selection
    return result
