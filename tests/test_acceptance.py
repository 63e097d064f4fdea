"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

from test_metrics import FIXTURE_PAIRS, bf_bleu3, bf_rouge_l, bf_rouge_n

from gfgen.corpus_eval import run_corpus
from gfgen.encoder import synthesize_sentence
from gfgen.exporter import merge, render
from gfgen.ingest import facts_to_text, parse_conllu_file
from gfgen.linearizer import infer_category, linearize
from gfgen.metrics import bleu3, is_bleu_assessable, rouge, tokenize
from gfgen.structure import recognize, select
from gfgen.verbalizer import load_annotations, parse_atoms, parse_triples, verbalize_atoms, verbalize_triples

from conftest import build_people_grammar, round_trip


def _report(n, label):
    print("[PASS] criterion %d: %s" % (n, label))


def test_criterion_1_table_fidelity(fixtures_dir):
    start = time.monotonic()
    facts = parse_conllu_file(fixtures_dir / "bill_game.conllu")[0]
    rendered = facts_to_text(facts)
    golden = (fixtures_dir / "bill_game_facts.golden").read_text(encoding="utf-8")
    assert rendered == golden
    dep_lines = [l for l in rendered.splitlines() if not l.startswith("pos_tag")]
    pos_lines = [l for l in rendered.splitlines() if l.startswith("pos_tag")]
    assert len(dep_lines) == 4 and len(pos_lines) == 5
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "fact program byte-exact (4 deps + 5 pos tags) in %.3fs" % elapsed)


def test_criterion_2_structure_suite(fixtures_dir):
    expected = {
        "s1_birds": (1, 1),
        "s2_game": (2, 2),
        "s3_wants": (3, 3),
        "s4_cathy": (4, 2),
        "s5_played": (5, 2),
    }
    sentences = parse_conllu_file(fixtures_dir / "structures.conllu")
    assert len(sentences) == 5
    for facts in sentences:
        found = recognize(facts)
        assert found, facts.sentence_id
        assert (1, 1) in {(s.kind, s.i_value) for s in found}, facts.sentence_id
        chosen = select(found)
        assert (chosen.kind, chosen.i_value) == expected[facts.sentence_id]
    bill = next(f for f in sentences if f.sentence_id == "s2_game")
    assert {(s.kind, s.i_value) for s in recognize(bill)} == {(1, 1), (2, 2)}
    assert (select(recognize(bill)).kind, select(recognize(bill)).i_value) == (2, 2)
    _report(2, "five structures recognized and selected; simplest reading always present")


GAME_LINE = (
    "Game = mkNP (mkNP popular_board_game_CN ) "
    "(ConstructorsEng.mkAdv with_Prep (mkNP close_friend_CN )) ;"
)

GAME_OPERS = (
    'popular_A = mkA "popular" ;',
    "popular_AP = mkAP popular_A ;",
    "popular_board_game_CN = mkCN popular_AP board_game_N ;",
    'board_game_N = mkN "board game" "board games" ;',
    'close_A = mkA "close" ;',
    "close_AP = mkAP close_A ;",
    "close_friend_CN = mkCN close_AP friend_N ;",
    'friend_N = mkN "friend" "friends" ;',
)


def test_criterion_3_encoder_golden(board_game_facts):
    fragment = synthesize_sentence(board_game_facts)
    _, concrete = render(merge([fragment]), "Games")
    assert GAME_LINE in concrete
    for oper in GAME_OPERS:
        assert oper in concrete, oper
    _report(3, "constructor line and all eight opers byte-exact")


def test_criterion_4_round_trip(bill_game_facts):
    grammar = merge([synthesize_sentence(bill_game_facts)])
    assert linearize(grammar, "sent_bill_game") == "Bill plays game"
    people = build_people_grammar()
    assert linearize(people, "simple_sent", args=["Bill", "Play", "Soccer"]) == "Bill plays soccer"
    _report(4, 'round trips: "Bill plays game" and "Bill plays soccer"')


PHYLO_DESCRIPTION = (
    "Input of phylotastic FindScientificNamesFromWeb GET is web link. "
    "Type of web link is url. "
    "Output of phylotastic FindScientificNamesFromWeb GET is scientific names. "
    "Output of phylotastic FindScientificNamesFromWeb GET is species names. "
    "Type of scientific names is names. "
    "Type of species names is names."
)


def test_criterion_5_verbalization(fixtures_dir):
    annotations = load_annotations(
        (fixtures_dir / "phylotastic_annotations.tsv").read_text(encoding="utf-8")
    )
    atoms = parse_atoms((fixtures_dir / "phylotastic_atoms.lp").read_text(encoding="utf-8"))
    assert verbalize_atoms(atoms, annotations) == PHYLO_DESCRIPTION

    people = load_annotations(
        (fixtures_dir / "people_annotations.tsv").read_text(encoding="utf-8")
    )
    triples = parse_triples((fixtures_dir / "people_triples.tsv").read_text(encoding="utf-8"))
    assert verbalize_triples(triples, people) == [
        "Kevin has_pets Flossie.",
        "Flossie is cow.",
        "Mick reads Daily Mirror.",
    ]
    _report(5, "workflow description and people-ontology triples verbatim")


def test_criterion_6_exporter_algebra(fixtures_dir):
    fragments = []
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(fixtures_dir / "corpus" / portal / "sentences.conllu"):
            fragment = synthesize_sentence(facts)
            if fragment is not None:
                fragments.append(fragment)
    base = render(merge(fragments), "G")
    assert render(merge([merge(fragments)]), "G") == base  # idempotent
    rng = random.Random(42)
    for _ in range(5):
        shuffled = fragments[:]
        rng.shuffle(shuffled)
        assert render(merge(shuffled), "G") == base  # permutation-invariant
    assert render(merge(fragments + fragments), "G") == base  # duplicates collapse
    assert render(merge(fragments), "G") == base  # byte-deterministic across runs
    _report(6, "merge idempotent, permutation-invariant, duplicate-collapsing; render deterministic")


def test_criterion_7_metric_oracles():
    assert len(FIXTURE_PAIRS) == 20
    for hyp_text, ref_text in FIXTURE_PAIRS:
        hyp, ref = hyp_text.split(), ref_text.split()
        assert math.isclose(bleu3(hyp, ref), bf_bleu3(hyp, ref), rel_tol=1e-9, abs_tol=1e-12)
        got = rouge(hyp, ref)
        want = (
            100 * bf_rouge_n(hyp, ref, 1),
            100 * bf_rouge_n(hyp, ref, 2),
            100 * bf_rouge_l(hyp, ref),
        )
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)
    identity = "numbers are written in decimal notation".split()
    assert bleu3(identity, identity) == 100.0
    assert rouge(identity, identity) == (100.0, 100.0, 100.0)
    _report(7, "BLEU-3/ROUGE match the brute-force reference on 20 pairs to 1e-9")


def test_criterion_8_corpus_experiment(fixtures_dir):
    start = time.monotonic()
    scores = run_corpus(fixtures_dir / "corpus", warn=lambda msg: None)
    # recognition counts per the published schema
    assert scores["people"].n_sentences == 15 and scores["people"].n_recognized == 15
    assert scores["mathematics"].n_sentences == 24 and scores["mathematics"].n_recognized == 22
    assert scores["food_drink"].n_sentences == 23 and scores["food_drink"].n_recognized == 23

    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(fixtures_dir / "corpus" / portal / "sentences.conllu"):
            fragment = synthesize_sentence(facts)
            if fragment is None:
                continue
            # type-correct grammar for every recognized sentence
            funs = {
                f.name: ("Cl" if f.result == "Message" else f.result)
                for f in fragment.functions
            }
            for oper in fragment.opers.values():
                assert infer_category(oper.definition, fragment.opers) == oper.category
            for fun in fragment.functions:
                expected = "Cl" if fun.result == "Message" else fun.result
                args = dict(zip(fun.arg_names, fun.arg_cats))
                assert infer_category(fun.lin, fragment.opers, funs, args) == expected
            # article/determiner-free subset property
            hypothesis = round_trip(facts)
            assert hypothesis is not None, facts.sentence_id
            assert set(tokenize(hypothesis)) <= set(tokenize(facts.source_text)), (
                facts.sentence_id,
                hypothesis,
            )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        8,
        "62-sentence corpus: counts 15/15, 22/24, 23/23; grammars type-correct; "
        "token subsets hold; %.2fs" % elapsed,
    )
