import csv
import json
import shutil
import time

from gfgen.corpus_eval import EvalScores, run_corpus, write_report
from gfgen.ingest import parse_conllu_file
from gfgen.metrics import tokenize

from conftest import round_trip


def test_recognition_counts_match_schema(fixtures_dir):
    scores = run_corpus(fixtures_dir / "corpus", warn=lambda msg: None)
    assert scores["people"].n_sentences == 15
    assert scores["people"].n_recognized == 15
    assert scores["mathematics"].n_sentences == 24
    assert scores["mathematics"].n_recognized == 22
    assert scores["food_drink"].n_sentences == 23
    assert scores["food_drink"].n_recognized == 23


def test_score_invariants(fixtures_dir):
    for s in run_corpus(fixtures_dir / "corpus", warn=lambda msg: None).values():
        assert s.n_bleu_assessable <= s.n_recognized <= s.n_sentences
        for value in (s.bleu3, s.rouge1_f, s.rouge2_f, s.rougeL_f):
            assert 0.0 <= value <= 100.0


def test_regenerated_tokens_subset_of_original(fixtures_dir):
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            hypothesis = round_trip(facts)
            if hypothesis is None:
                continue
            assert set(tokenize(hypothesis)) <= set(tokenize(facts.source_text)), (
                facts.sentence_id,
                hypothesis,
            )


def test_full_corpus_under_ten_seconds(fixtures_dir):
    start = time.monotonic()
    run_corpus(fixtures_dir / "corpus", warn=lambda msg: None)
    assert time.monotonic() - start < 10.0


def test_empty_corpus(tmp_path):
    assert run_corpus(tmp_path) == {}
    empty_portal = tmp_path / "portal"
    empty_portal.mkdir()
    scores = run_corpus(tmp_path)
    assert scores["portal"] == EvalScores(portal="portal")


def test_missing_parse_file_counts_unrecognized(tmp_path, fixtures_dir):
    portal = tmp_path / "people"
    portal.mkdir()
    shutil.copy(fixtures_dir / "corpus/people/sentences.conllu", portal / "sentences.conllu")
    (portal / "extra.txt").write_text("An orphan sentence.\n", encoding="utf-8")
    warnings = []
    scores = run_corpus(tmp_path, warn=warnings.append)
    assert scores["people"].n_sentences == 16
    assert scores["people"].n_recognized == 15
    assert any("missing parse" in w for w in warnings)


def test_report_csv_format(fixtures_dir, tmp_path):
    scores = run_corpus(fixtures_dir / "corpus", warn=lambda msg: None)
    report = tmp_path / "report.csv"
    write_report(scores, report)
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "portal",
        "n_sentences",
        "n_recognized",
        "n_bleu_assessable",
        "bleu3",
        "rouge1",
        "rouge2",
        "rougeL",
    ]
    assert [r[0] for r in rows[1:]] == ["food_drink", "mathematics", "people"]
    for row in rows[1:]:
        for cell in row[4:]:
            assert "." in cell and len(cell.split(".")[1]) == 1  # one decimal place


def test_regenerate_matches_reference_hypotheses(fixtures_dir):
    reference = fixtures_dir.parent / "bench" / "reference" / "hypotheses.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))
    got = {
        facts.sentence_id: round_trip(facts)
        for path in sorted((fixtures_dir / "corpus").glob("*/*.conllu"))
        for facts in parse_conllu_file(path)
    }
    assert got == expected


# Exact per-portal scores as float.hex of (bleu3, rouge1, rouge2, rougeL), with
# (sentences, recognized, BLEU-assessable); the report rounds them to one decimal
FROZEN_SCORES = {
    "food_drink": (
        (23, 23, 18),
        ("0x1.3d569f87acc6cp+6", "0x1.72c225c9ace61p+6", "0x1.2aceef768e2d3p+6", "0x1.5e856fa745b06p+6"),
    ),
    "mathematics": (
        (24, 22, 19),
        ("0x1.1f5308c3d4e24p+6", "0x1.6aacb276869d5p+6", "0x1.2abc43917236fp+6", "0x1.6366e10229861p+6"),
    ),
    "people": (
        (15, 15, 8),
        ("0x1.29a29c0c3a204p+6", "0x1.68188d2bbb75ep+6", "0x1.0148cada4108ep+6", "0x1.62c337d666209p+6"),
    ),
}


def test_corpus_scores_are_bit_identical_to_the_frozen_values(fixtures_dir):
    scores = run_corpus(fixtures_dir / "corpus", warn=lambda msg: None)
    got = {
        portal: (
            (s.n_sentences, s.n_recognized, s.n_bleu_assessable),
            tuple(float.hex(v) for v in (s.bleu3, s.rouge1_f, s.rouge2_f, s.rougeL_f)),
        )
        for portal, s in scores.items()
    }
    assert got == FROZEN_SCORES
