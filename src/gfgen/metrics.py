"""Sentence-level BLEU-3 and ROUGE-1/2/L scores, scaled to [0, 100].

BLEU-3 is the geometric mean of clipped 1/2/3-gram precisions with equal
weights and the standard brevity penalty; a sentence is BLEU-assessable only
when all three precisions are nonzero.  ROUGE-N is the F1 of clipped n-gram
overlap and ROUGE-L the F1 over the longest common subsequence.  One order's
clipped overlap takes one count table: the reference's n-grams are counted,
and each hypothesis n-gram that finds a count left takes one.
"""

import math

STRIP_CHARS = ".,;:!?()[]{}\"'"


def tokenize(text):
    """Scoring tokenization: lowercase, whitespace split, punctuation stripped."""
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


_GRAMS = {1: iter, 2: lambda t: zip(t, t[1:]), 3: lambda t: zip(t, t[1:], t[2:])}


def _overlap(hypothesis, reference, n):
    """Clipped overlap of order ``n`` (1 to 3): the size of the two n-gram multisets' intersection."""
    grams = _GRAMS[n]
    left = {}
    for gram in grams(reference):
        left[gram] = left.get(gram, 0) + 1
    overlap = 0
    for gram in grams(hypothesis):
        if count := left.get(gram):
            left[gram] = count - 1
            overlap += 1
    return overlap


def bleu3(hypothesis, reference):
    """BLEU-3 with weights (1/3, 1/3, 1/3); 0.0 when any precision is zero."""
    c, r = len(hypothesis), len(reference)
    log_sum = 0.0
    for n in (1, 2, 3):
        overlap = _overlap(hypothesis, reference, n) if c >= n else 0
        if not overlap:
            return 0.0
        log_sum += math.log(overlap / (c - n + 1))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_sum / 3.0)


def is_bleu_assessable(hypothesis, reference):
    # a shared trigram holds a shared bigram and unigram: all three precisions are nonzero
    trigrams = set(zip(hypothesis, hypothesis[1:], hypothesis[2:]))
    return not trigrams.isdisjoint(zip(reference, reference[1:], reference[2:]))


def _f1(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _rouge_n(hypothesis, reference, n):
    c, r = len(hypothesis) - n + 1, len(reference) - n + 1
    overlap = _overlap(hypothesis, reference, n) if c > 0 and r > 0 else 0
    return _f1(overlap / c, overlap / r) if overlap else 0.0


def _lcs_length(a, b):
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    Bit i of ``row`` is 0 where the LCS of ``a[: i + 1]`` with the part of
    ``b`` read so far is longer than with ``a[:i]``; the zeros count the LCS.
    """
    matches = {}
    for i, x in enumerate(a):
        matches[x] = matches.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    row = full
    for y in b:
        u = row & matches.get(y, 0)
        row = ((row + u) | (row - u)) & full
    return len(a) - row.bit_count()


def _rouge_l(hypothesis, reference):
    if not hypothesis or not reference:
        return 0.0
    lcs = _lcs_length(hypothesis, reference)
    return _f1(lcs / len(hypothesis), lcs / len(reference))


def rouge(hypothesis, reference):
    """(ROUGE-1, ROUGE-2, ROUGE-L) F1 scores."""
    return (
        100.0 * _rouge_n(hypothesis, reference, 1),
        100.0 * _rouge_n(hypothesis, reference, 2),
        100.0 * _rouge_l(hypothesis, reference),
    )
