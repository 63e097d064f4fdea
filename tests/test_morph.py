import pytest

from gfgen.ingest import parse_conllu_file
from gfgen.morph import (
    IRREGULAR_PARTICIPLES,
    inflect_verb_3sg,
    noun_lemma_from_plural,
    past_participle,
    pluralize_noun,
    verb_lemma_from_3sg,
)


@pytest.mark.parametrize(
    "lemma,expected",
    [
        ("play", "plays"),
        ("be", "is"),
        ("have", "has"),
        ("do", "does"),
        ("watch", "watches"),
        ("pass", "passes"),
        ("go", "goes"),
        ("study", "studies"),
        ("stay", "stays"),
    ],
)
def test_inflect_verb_3sg(lemma, expected):
    assert inflect_verb_3sg(lemma) == expected


@pytest.mark.parametrize(
    "noun,expected",
    [
        ("board game", "board games"),
        ("Bill", "Bill"),
        ("person", "people"),
        ("friend", "friends"),
        ("dish", "dishes"),
        ("box", "boxes"),
        ("city", "cities"),
        ("day", "days"),
        ("species", "species"),
        ("child", "children"),
        ("Daily Mirror", "Daily Mirror"),
        ("grass species", "grass species"),
    ],
)
def test_pluralize_noun(noun, expected):
    assert pluralize_noun(noun) == expected


@pytest.mark.parametrize(
    "lemma,expected",
    [
        ("play", "played"),
        ("bake", "baked"),
        ("make", "made"),
        ("write", "written"),
        ("stop", "stopped"),
        ("attend", "attended"),
        ("carry", "carried"),
        ("snow", "snowed"),
    ],
)
def test_past_participle(lemma, expected):
    assert past_participle(lemma) == expected


@pytest.mark.parametrize(
    "form,expected",
    [("reads", "read"), ("has", "have"), ("is", "be"), ("likes", "like"), ("studies", "study")],
)
def test_verb_lemma_from_3sg(form, expected):
    assert verb_lemma_from_3sg(form) == expected


@pytest.mark.parametrize(
    "form,expected",
    [
        ("watches", "watch"),
        ("pushes", "push"),
        ("fixes", "fix"),
        ("passes", "pass"),
        ("goes", "go"),
        ("undergoes", "undergo"),
        ("undoes", "undo"),
        ("echoes", "echo"),
        ("vetoes", "veto"),
        ("torpedoes", "torpedo"),
        ("canoes", "canoe"),
        ("hoes", "hoe"),
        ("tiptoes", "tiptoe"),
        ("shoes", "shoe"),
    ],
)
def test_verb_lemma_from_3sg_strips_es_after_sibilants_and_o(form, expected):
    assert verb_lemma_from_3sg(form) == expected
    assert inflect_verb_3sg(expected) == form


@pytest.mark.parametrize(
    "lemma",
    sorted(
        set(IRREGULAR_PARTICIPLES)
        | set("ache cache niche teach catch go do echo veto canoe shoe fix buzz miss wash carry".split())
    ),
)
def test_verb_lemma_from_3sg_undoes_inflect_verb_3sg(lemma):
    assert verb_lemma_from_3sg(inflect_verb_3sg(lemma)) == lemma


def test_verb_lemma_from_3sg_agrees_with_every_corpus_vbz_lemma(fixtures_dir):
    tokens = [
        token
        for path in sorted((fixtures_dir / "corpus").glob("*/sentences.conllu"))
        for facts in parse_conllu_file(path)
        for token in facts.tokens
        if token.pos == "vbz"
    ]
    assert len(tokens) > 40
    assert [(t.surface, verb_lemma_from_3sg(t.surface.lower())) for t in tokens] == [
        (t.surface, t.lemma) for t in tokens
    ]


@pytest.mark.parametrize(
    "form,expected",
    [("friends", "friend"), ("people", "person"), ("knives", "knive"), ("cities", "city")],
)
def test_noun_lemma_from_plural(form, expected):
    # the fallback strips a trailing s (or -ies); irregulars come from the table
    assert noun_lemma_from_plural(form) == expected
