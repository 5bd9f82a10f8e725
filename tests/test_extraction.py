import pytest

from t2s import ScriptedGateway, embedding
from t2s.extraction import (
    Entity,
    build_extraction_prompt,
    extract_entities,
    filter_columns,
    info_align,
    retrieve_values,
    run_extraction,
)
from t2s.schema import ColumnSelection
from t2s.value_index import IndexedEntry, RetrievalConfig, ValueHit, _word_ngrams


# -- entity parsing -------------------------------------------------------


def test_entities_from_lines_and_commas():
    got = extract_entities("q", "John Smith, 1996\nDavis")
    assert [e.text for e in got] == ["John Smith", "1996", "Davis"]
    assert all(e.source == "llm" for e in got)


def test_entities_strip_bullets_and_quotes():
    got = extract_entities("q", "- 'female'\n2) \"Davis\"\n* third")
    assert [e.text for e in got] == ["female", "Davis", "third"]


def test_entities_skip_none_markers():
    assert extract_entities("q", "none") == []
    assert extract_entities("q", "N/A") == []
    assert extract_entities("q", "") == []


def test_entities_dedupe_case_insensitive_first_wins():
    got = extract_entities("q", "Davis\ndavis\nDAVIS")
    assert [e.text for e in got] == ["Davis"]


def test_predefined_keywords_join_from_question():
    got = extract_entities("Which patient has the highest IGA?", "none")
    assert [(e.text, e.source) for e in got] == [("highest", "predefined")]


def test_predefined_keywords_need_word_boundary():
    assert extract_entities("The mostly empty table?", "none") == []


def test_predefined_keyword_not_duplicated():
    got = extract_entities("Who scored the most?", "most")
    assert [e.text for e in got] == ["most"]
    assert got[0].source == "llm"


# -- value retrieval ------------------------------------------------------


def test_retrieve_merges_entities_best_first(clinical_index):
    hits = retrieve_values(
        clinical_index,
        [Entity("f", "llm"), Entity("1991-05-06", "llm")],
    )
    assert hits[0].similarity >= hits[-1].similarity
    found = {(h.table, h.column, h.text) for h in hits}
    assert ("Patient", "SEX", "F") in found
    assert ("Laboratory", "Date", "1991-05-06") in found


def test_retrieve_dedupes_repeated_cells(clinical_index):
    once = retrieve_values(clinical_index, [Entity("F", "llm")])
    twice = retrieve_values(clinical_index, [Entity("F", "llm"), Entity("f", "llm")])
    keys = lambda hits: [(h.table, h.column, h.text) for h in hits]  # noqa: E731
    assert keys(once) == keys(twice)


def test_retrieve_respects_global_top_k(clinical_index):
    cfg = RetrievalConfig(threshold=0.0, top_k=2)
    hits = retrieve_values(
        clinical_index, [Entity("1991", "llm"), Entity("1996", "llm")], cfg
    )
    assert len(hits) == 2


def test_retrieve_keeps_entity_order_on_rounding_ties():
    # Exact matches score 1.0 only up to the last bits of a float sum;
    # such ties keep the order their entities came in.
    scores = {"alpha": 0.9999999999999998, "beta": 0.9999999999999999}

    class StubIndex:
        def search_values(self, text, config):
            entry = IndexedEntry("cell_value", text, "T", "C", embedder=None)
            return [ValueHit(entry, scores[text])]

    hits = retrieve_values(StubIndex(), [Entity("alpha", "llm"), Entity("beta", "llm")])
    assert [h.text for h in hits] == ["alpha", "beta"]


# -- column filtering -----------------------------------------------------


def test_filter_resolves_qualified_suggestions(clinical_catalog):
    sel = filter_columns(
        clinical_catalog, None, "q", [], "Patient.SEX, Laboratory.IGA"
    )
    assert tuple(sel.pairs()) == (("Laboratory", "IGA"), ("Patient", "SEX"))


def test_filter_resolves_unique_bare_names(clinical_catalog):
    sel = filter_columns(clinical_catalog, None, "q", [], "SEX")
    assert ("Patient", "SEX") in sel


def test_filter_drops_ambiguous_bare_and_unknown(clinical_catalog):
    # ID exists in both tables, Bogus nowhere; nothing usable -> full schema
    sel = filter_columns(clinical_catalog, None, "q", [], "ID, Bogus.Nope")
    assert len(tuple(sel.pairs())) == 7


def test_filter_strips_backquotes(clinical_catalog):
    sel = filter_columns(clinical_catalog, None, "q", [], "Patient.`First Date`")
    assert ("Patient", "First Date") in sel


def test_filter_unions_vector_matches(clinical_catalog, clinical_index):
    sel = filter_columns(
        clinical_catalog,
        clinical_index,
        "What is the normal Ig A level?",
        [],
        "Patient.SEX",
    )
    assert ("Patient", "SEX") in sel
    assert ("Laboratory", "IGA") in sel


def test_filter_empty_everything_falls_back_to_full(clinical_catalog):
    sel = filter_columns(clinical_catalog, None, "zzz", [], "")
    assert len(tuple(sel.pairs())) == 7


# -- info alignment -------------------------------------------------------


def test_info_align_binds_phrases(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    pairs, content, _sel = info_align(
        "How many female patients are there?",
        "How many female patients => COUNT(Patient.ID)",
        sel,
        clinical_catalog,
    )
    assert pairs == [("How many female patients", "COUNT(Patient.ID)")]
    assert content == "How many female patients"


def test_info_align_drops_hallucinated_phrases(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    pairs, content, _sel = info_align(
        "How many female patients are there?",
        "average admission fee => AVG(fee)",
        sel,
        clinical_catalog,
    )
    # hallucinated pair gone; wh-phrase fallback takes over
    assert pairs == [("How many female patients are there", "")]
    assert content == "How many female patients are there"


def test_info_align_wh_fallback_stops_at_punctuation(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    pairs, _content, _sel = info_align(
        "Which city, among all, is largest?", "", sel, clinical_catalog
    )
    assert pairs == [("Which city", "")]


def test_info_align_expands_selection(clinical_catalog):
    sel = ColumnSelection.of(clinical_catalog, [("Patient", "SEX")])
    _pairs, _content, expanded = info_align(
        "How many?", "", sel, clinical_catalog
    )
    # key closure pulls in the pk and the child table's join column
    assert ("Patient", "ID") in expanded
    assert ("Laboratory", "ID") in expanded


def test_info_align_multiple_pairs_joined(clinical_catalog):
    sel = ColumnSelection.full(clinical_catalog)
    pairs, content, _sel = info_align(
        "Show the name and the score of each player.",
        "the name => t.name\nthe score => t.score",
        sel,
        clinical_catalog,
    )
    assert len(pairs) == 2
    assert content == "the name; the score"


# -- full pass ------------------------------------------------------------

REPLY = "\n".join(
    [
        "#reason: count female patients",
        "#columns: Patient.SEX",
        "#values: F",
        "#SELECT: How many female patients => COUNT(Patient.ID)",
    ]
)


def test_run_extraction_offline_without_gateway(clinical_catalog, clinical_index):
    result = run_extraction(
        "How many female patients are there?",
        clinical_catalog,
        clinical_index,
        gateway=None,
    )
    assert result.entities == []
    assert result.value_hits == []
    assert result.selection is not None
    # wh fallback still names the answer phrase
    assert result.select_content == "How many female patients are there"


def test_run_extraction_full_pass(clinical_catalog, clinical_index):
    gw = ScriptedGateway({"extraction:q": REPLY})
    result = run_extraction(
        "How many female patients are there?",
        clinical_catalog,
        clinical_index,
        gw,
        stage="extraction:q",
    )
    assert [e.text for e in result.entities] == ["F"]
    assert any(h.text == "F" for h in result.value_hits)
    assert ("Patient", "SEX") in result.selection
    assert result.select_pairs == [
        ("How many female patients", "COUNT(Patient.ID)")
    ]
    assert result.reason == "count female patients"
    # prompt embeds full schema and the question header
    prompt = gw.calls[0][0]
    assert "/* Database schema */" in prompt
    assert "/* Answer the following:How many female patients are there? */" in prompt


def test_run_extraction_survives_gateway_error(clinical_catalog, clinical_index):
    gw = ScriptedGateway()  # strict, no replies
    result = run_extraction(
        "Which patient has the highest IGA?",
        clinical_catalog,
        clinical_index,
        gw,
        stage="extraction:q",
    )
    # reply lost, but predefined keywords and vector retrieval still ran
    assert [e.text for e in result.entities] == ["highest"]
    assert result.selection is not None


def test_run_extraction_survives_empty_completion(
    clinical_catalog, clinical_index, empty_gateway
):
    result = run_extraction(
        "Which patient has the highest IGA?",
        clinical_catalog,
        clinical_index,
        empty_gateway,
        stage="extraction:q",
    )
    assert empty_gateway.calls == 1
    assert [e.text for e in result.entities] == ["highest"]
    assert result.reason == ""


def test_run_extraction_stage_toggles(clinical_catalog, clinical_index):
    gw = ScriptedGateway({"extraction:q": REPLY})
    result = run_extraction(
        "How many female patients are there?",
        clinical_catalog,
        clinical_index,
        gw,
        stage="extraction:q",
        retrieve=False,
        filter_cols=False,
        align_info=False,
    )
    assert result.value_hits == []
    assert len(tuple(result.selection.pairs())) == 7
    assert result.select_content is None


def test_extraction_prompt_appends_evidence():
    prompt = build_extraction_prompt("Q?", "schema", evidence="hint here")
    assert "/* Answer the following:Q? hint here */" in prompt


def test_run_extraction_embeds_each_probe_text_once(clinical_catalog, clinical_index,
                                                     monkeypatch):
    # Both entities' n-grams feed value search and then column search; all
    # of them, and the question's, go through one block before any search.
    reply = REPLY.replace("#values: F", "#values: F, female sex")
    blocks = []
    original = embedding.embed_parts

    def counting(embedder, texts):
        blocks.append(list(texts))
        return original(embedder, texts)

    def one_by_one(embedder, text):
        raise AssertionError(f"{text!r} was embedded outside the block")

    monkeypatch.setattr(embedding, "embed_parts", counting)
    monkeypatch.setattr(embedding, "_probe", one_by_one)
    question = "How many female patients are there?"
    result = run_extraction(question, clinical_catalog, clinical_index,
                            ScriptedGateway({"extraction:q": reply}), stage="extraction:q")
    assert [e.text for e in result.entities] == ["F", "female sex"]
    assert result.value_hits and result.selection is not None
    (block,) = blocks
    assert sorted(block) == sorted(
        {probe for text in (question, "F", "female sex") for probe in _word_ngrams(text)})
