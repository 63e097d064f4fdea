"""Metric tests against independently written references.

The brute-force reference below deliberately avoids the library's n-gram
tables: n-grams live in plain lists counted with list.count, and the LCS is a
memoized recursion.  The Counter-slice reference further down counts each
side's n-grams in its own Counter and takes the min-sum, in the arithmetic
order the scores must keep, so it shows that they stay bit-identical.
"""

import math
import random
from collections import Counter
from functools import lru_cache

from gfgen import metrics
from gfgen.ingest import parse_conllu_file
from gfgen.metrics import bleu3, is_bleu_assessable, rouge, tokenize

from conftest import round_trip


def bf_ngrams(tokens, n):
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def bf_precision(hyp, ref, n):
    hyp_grams = bf_ngrams(hyp, n)
    ref_grams = bf_ngrams(ref, n)
    if not hyp_grams:
        return 0.0
    matched = 0
    for gram in set(hyp_grams):
        matched += min(hyp_grams.count(gram), ref_grams.count(gram))
    return matched / len(hyp_grams)


def bf_bleu3(hyp, ref):
    ps = [bf_precision(hyp, ref, n) for n in (1, 2, 3)]
    if 0.0 in ps:
        return 0.0
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return 100.0 * bp * (ps[0] * ps[1] * ps[2]) ** (1.0 / 3.0)


def bf_f1(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def bf_rouge_n(hyp, ref, n):
    hyp_grams = bf_ngrams(hyp, n)
    ref_grams = bf_ngrams(ref, n)
    if not hyp_grams or not ref_grams:
        return 0.0
    matched = 0
    for gram in set(ref_grams):
        matched += min(hyp_grams.count(gram), ref_grams.count(gram))
    return bf_f1(matched / len(hyp_grams), matched / len(ref_grams))


def bf_lcs(a, b):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def bf_rouge_l(hyp, ref):
    if not hyp or not ref:
        return 0.0
    lcs = bf_lcs(tuple(hyp), tuple(ref))
    return bf_f1(lcs / len(hyp), lcs / len(ref))


FIXTURE_PAIRS = [
    ("bill plays game", "bill plays a game"),
    ("bill plays a game", "bill plays a game"),
    ("rice is seed of grass species", "rice is the seed of a grass species"),
    ("the cat sat on the mat", "a dog ran in a park"),
    ("one two three four five", "one two three four five six seven"),
    ("a a a a", "a a"),
    ("a b c d e f", "a b c x e f"),
    ("it is extension to numbers", "it is the extension to non-integer numbers"),
    ("numbers are written in decimal notation", "numbers are written in decimal notation"),
    ("she wants to join club", "she wants to join the club"),
    ("x", "x"),
    ("x y", "y x"),
    ("big red ball", "small red ball"),
    ("the quick brown fox jumps", "the quick brown dog sleeps"),
    ("alpha beta gamma delta", "delta gamma beta alpha"),
    ("repeat repeat repeat word", "repeat word"),
    ("she solves equations with computer", "she solves equations with a computer"),
    ("one", "one two three"),
    ("water boils quickly", "water boils very quickly"),
    ("cham joof is author and politician", "cham joof is a politician and an author"),
]


def test_oracle_equivalence_on_fixture_pairs():
    assert len(FIXTURE_PAIRS) == 20
    for hyp_text, ref_text in FIXTURE_PAIRS:
        hyp, ref = hyp_text.split(), ref_text.split()
        expected = bf_bleu3(hyp, ref)
        got = bleu3(hyp, ref)
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12), (hyp_text, ref_text)
        r1, r2, rl = rouge(hyp, ref)
        assert math.isclose(r1, 100 * bf_rouge_n(hyp, ref, 1), rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(r2, 100 * bf_rouge_n(hyp, ref, 2), rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(rl, 100 * bf_rouge_l(hyp, ref), rel_tol=1e-9, abs_tol=1e-12)


def test_identity_scores_100():
    # identity scores 100 whenever the n-grams exist at all (a sentence
    # shorter than the order is non-assessable by definition)
    for text in (
        "bill plays game",
        "numbers are written in decimal notation",
        "cham joof is author and politician",
    ):
        tokens = text.split()
        assert bleu3(tokens, tokens) == 100.0
        assert is_bleu_assessable(tokens, tokens)
        assert rouge(tokens, tokens) == (100.0, 100.0, 100.0)


def test_disjoint_vocabulary_scores_zero():
    assert rouge("a b c".split(), "x y z".split()) == (0.0, 0.0, 0.0)
    assert bleu3("a b c".split(), "x y z".split()) == 0.0


def test_empty_hypothesis():
    assert bleu3([], "a b".split()) == 0.0
    assert not is_bleu_assessable([], "a b".split())
    assert rouge([], []) == (0.0, 0.0, 0.0)


def test_no_common_trigram_not_assessable():
    hyp = "a b x c d".split()
    ref = "a b y c d".split()
    assert not is_bleu_assessable(hyp, ref)
    assert bleu3(hyp, ref) == 0.0


def test_known_value_hand_computed():
    # hyp "bill plays game" vs ref "bill plays a game":
    # p1 = 3/3, p2 = 1/2, p3 = 0/1 -> not assessable, score 0
    hyp = "bill plays game".split()
    ref = "bill plays a game".split()
    assert not is_bleu_assessable(hyp, ref)
    assert bleu3(hyp, ref) == 0.0
    # ROUGE-1: overlap 3, P = 1, R = 3/4 -> F1 = 6/7
    r1, r2, rl = rouge(hyp, ref)
    assert math.isclose(r1, 100 * 6 / 7, rel_tol=1e-12)
    # ROUGE-2: bigram overlap 1 of hyp-2 and ref-3 -> P=1/2, R=1/3, F1=2/5
    assert math.isclose(r2, 100 * 0.4, rel_tol=1e-12)
    # LCS = 3 -> P=1, R=3/4 -> F1 = 6/7
    assert math.isclose(rl, 100 * 6 / 7, rel_tol=1e-12)


def test_random_pairs_match_oracle():
    rng = random.Random(123)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        assert math.isclose(
            bleu3(hyp, ref), bf_bleu3(hyp, ref), rel_tol=1e-9, abs_tol=1e-12
        )
        r = rouge(hyp, ref)
        expected = (
            100 * bf_rouge_n(hyp, ref, 1),
            100 * bf_rouge_n(hyp, ref, 2),
            100 * bf_rouge_l(hyp, ref),
        )
        for got, want in zip(r, expected):
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def test_rouge1_monotone_under_matched_extension():
    rng = random.Random(99)
    vocab = ["a", "b", "c", "d"]
    for _ in range(100):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        before = rouge(hyp, ref)[0]
        tail = [rng.choice(vocab)]
        after = rouge(hyp + tail, ref + tail)[0]
        assert after >= before - 1e-12


def counted_tables(monkeypatch):
    """The order of every count table the scores build, by wrapping ``metrics._overlap``."""
    orders = []
    overlap = metrics._overlap

    def counted(hypothesis, reference, n):
        orders.append(n)
        return overlap(hypothesis, reference, n)

    monkeypatch.setattr(metrics, "_overlap", counted)
    return orders


def test_rouge_builds_two_count_tables_per_pair(monkeypatch):
    orders = counted_tables(monkeypatch)
    for hyp_text, ref_text in FIXTURE_PAIRS:
        hyp, ref = hyp_text.split(), ref_text.split()
        orders.clear()
        rouge(hyp, ref)
        # an order longer than either side has no n-grams, and no table
        assert orders == [n for n in (1, 2) if min(len(hyp), len(ref)) >= n], (hyp_text, ref_text)


def test_bleu3_builds_a_table_per_order_up_to_the_first_zero_overlap(monkeypatch):
    orders = counted_tables(monkeypatch)
    cases = [
        ("a b c", "x y z", [1]),  # no shared unigram
        ("x y", "y x", [1, 2]),  # no shared bigram
        ("a b x c d", "a b y c d", [1, 2, 3]),  # no shared trigram
        ("a b c d e f", "a b c x e f", [1, 2, 3]),
        ("x", "x", [1]),  # one token has no bigram: no table for order 2
        ("", "a b", []),
    ]
    for hyp_text, ref_text, expected in cases:
        orders.clear()
        bleu3(hyp_text.split(), ref_text.split())
        assert orders == expected, (hyp_text, ref_text)
    for hyp_text, ref_text in FIXTURE_PAIRS:
        hyp, ref = hyp_text.split(), ref_text.split()
        zeros = [n for n in (1, 2, 3) if bf_precision(hyp, ref, n) == 0.0]
        last = zeros[0] if zeros else 3
        orders.clear()
        bleu3(hyp, ref)
        assert orders == [n for n in range(1, last + 1) if len(hyp) >= n], (hyp_text, ref_text)


def test_tokenize():
    assert tokenize("Bill plays a game.") == ["bill", "plays", "a", "game"]
    assert tokenize("  Kevin   has_pets  Flossie. ") == ["kevin", "has_pets", "flossie"]
    assert tokenize("(rice, 741.5 tonnes)") == ["rice", "741.5", "tonnes"]
    assert tokenize("...") == []


# --- Counter-slice reference: the exact arithmetic the scores must keep --------


def cs_ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def cs_precision(hyp_tokens, ref_tokens, n):
    hyp = cs_ngrams(hyp_tokens, n)
    if not hyp:
        return 0.0
    ref = cs_ngrams(ref_tokens, n)
    clipped = sum(min(count, ref[gram]) for gram, count in hyp.items())
    return clipped / sum(hyp.values())


def cs_bleu3(hypothesis, reference):
    precisions = [cs_precision(hypothesis, reference, n) for n in (1, 2, 3)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    c, r = len(hypothesis), len(reference)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 3.0)


def cs_is_bleu_assessable(hypothesis, reference):
    return all(cs_precision(hypothesis, reference, n) > 0.0 for n in (1, 2, 3))


def cs_f1(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def cs_rouge_n(hypothesis, reference, n):
    hyp = cs_ngrams(hypothesis, n)
    ref = cs_ngrams(reference, n)
    if not hyp or not ref:
        return 0.0
    overlap = sum(min(count, hyp[gram]) for gram, count in ref.items())
    return cs_f1(overlap / sum(hyp.values()), overlap / sum(ref.values()))


def assert_same_scores(hyp, ref):
    # ROUGE-L does not count n-grams; the brute-force tests above cover it
    assert is_bleu_assessable(hyp, ref) == cs_is_bleu_assessable(hyp, ref), (hyp, ref)
    assert bleu3(hyp, ref) == cs_bleu3(hyp, ref), (hyp, ref)
    r1, r2, _ = rouge(hyp, ref)
    assert (r1, r2) == (100.0 * cs_rouge_n(hyp, ref, 1), 100.0 * cs_rouge_n(hyp, ref, 2)), (
        hyp,
        ref,
    )


def test_scores_equal_counter_reference_on_random_pairs():
    rng = random.Random(20261018)
    for size in (2, 5, 11):
        vocab = ["w%d" % i for i in range(size)]
        for _ in range(34_000):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            assert_same_scores(hyp, ref)


def test_scores_equal_counter_reference_on_corpus_pairs(fixtures_dir):
    pairs = 0
    for path in sorted((fixtures_dir / "corpus").glob("*/*.conllu")):
        for facts in parse_conllu_file(path):
            hypothesis = round_trip(facts)
            if hypothesis is not None:
                assert_same_scores(tokenize(hypothesis), tokenize(facts.source_text))
                pairs += 1
    assert pairs == 60
