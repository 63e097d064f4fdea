"""Sentence-level BLEU-3 and ROUGE-1/2/L scores, scaled to [0, 100].

BLEU-3 is the geometric mean of clipped 1/2/3-gram precisions with equal
weights and the standard brevity penalty; a sentence is BLEU-assessable only
when all three precisions are nonzero.  ROUGE-N is the F1 of clipped n-gram
overlap and ROUGE-L the F1 over the longest common subsequence.
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


def _ngrams(tokens, n):
    counts = {}
    for gram in tokens if n == 1 else zip(*[tokens[i:] for i in range(n)]):
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _precision(hyp_tokens, ref_tokens, n):
    hyp = _ngrams(hyp_tokens, n)
    if not hyp:
        return 0.0
    ref = _ngrams(ref_tokens, n)
    clipped = sum(min(count, ref.get(gram, 0)) for gram, count in hyp.items())
    return clipped / (len(hyp_tokens) - n + 1)


def bleu3(hypothesis, reference):
    """BLEU-3 with weights (1/3, 1/3, 1/3); 0.0 when any precision is zero."""
    precisions = []
    for n in (1, 2, 3):
        p = _precision(hypothesis, reference, n)
        if p == 0.0:
            return 0.0
        precisions.append(p)
    c, r = len(hypothesis), len(reference)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 3.0)


def is_bleu_assessable(hypothesis, reference):
    # a shared trigram holds a shared bigram and unigram: all three precisions are nonzero
    trigrams = set(zip(hypothesis, hypothesis[1:], hypothesis[2:]))
    return not trigrams.isdisjoint(zip(reference, reference[1:], reference[2:]))


def _f1(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _rouge_n(hypothesis, reference, n):
    hyp = _ngrams(hypothesis, n)
    ref = _ngrams(reference, n)
    if not hyp or not ref:
        return 0.0
    overlap = sum(min(count, hyp.get(gram, 0)) for gram, count in ref.items())
    return _f1(overlap / (len(hypothesis) - n + 1), overlap / (len(reference) - n + 1))


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
