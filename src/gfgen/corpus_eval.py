"""Round-trip evaluation over a fixture corpus of frozen parses.

A corpus directory holds one subdirectory per portal; each portal contains
CoNLL-U files whose sentence blocks carry the original sentence in a
``# text`` comment.  Every sentence is synthesized and linearized back to
English; BLEU-3 averages over the BLEU-assessable sentences and ROUGE over
the sentences that were recognized and encoded.
"""

import csv
import sys
from dataclasses import dataclass
from pathlib import Path

from .encoder import sanitize_ident, synthesize_sentence
from .ingest import parse_conllu_file
from .linearizer import linearize
from .metrics import bleu3, is_bleu_assessable, rouge, tokenize


@dataclass
class EvalScores:
    portal: str
    n_sentences: int = 0
    n_recognized: int = 0
    n_bleu_assessable: int = 0
    bleu3: float = 0.0
    rouge1_f: float = 0.0
    rouge2_f: float = 0.0
    rougeL_f: float = 0.0


@dataclass
class SentenceResult:
    sentence_id: str
    reference: str
    hypothesis: str = None  # None: unrecognized or not encodable
    recognized: bool = False


def _linearized(fragment):
    return linearize(fragment, "sent_" + sanitize_ident(fragment.sentence_id))


def regenerate(facts):
    """Synthesize one sentence and linearize it back; None when impossible."""
    fragment = synthesize_sentence(facts)
    return None if fragment is None else _linearized(fragment)


def evaluate_sentences(sentences, warn=None):
    """Per-sentence round-trip results for parsed sentences.

    A sentence the encoder rejects (an unsupported tag or category, or two
    conflicting definitions of one oper) counts as recognized but not encodable.
    """
    results = []
    for facts in sentences:
        result = SentenceResult(sentence_id=facts.sentence_id, reference=facts.source_text)
        try:
            fragment = synthesize_sentence(facts)
        except ValueError as exc:
            if warn:
                warn("sentence %s not encodable: %s" % (facts.sentence_id, exc))
            result.recognized = True
        else:
            if fragment is not None:
                result.recognized = True
                result.hypothesis = _linearized(fragment)
            elif warn:
                warn("sentence %s unrecognized" % facts.sentence_id)
        results.append(result)
    return results


def _portal_scores(portal, results):
    scores = EvalScores(portal=portal, n_sentences=len(results))
    bleu_values = []
    rouge_values = []
    for r in results:
        if r.recognized:
            scores.n_recognized += 1
        if r.hypothesis is None:
            continue
        hyp = tokenize(r.hypothesis)
        ref = tokenize(r.reference)
        rouge_values.append(rouge(hyp, ref))
        if is_bleu_assessable(hyp, ref):
            scores.n_bleu_assessable += 1
            bleu_values.append(bleu3(hyp, ref))
    if bleu_values:
        scores.bleu3 = sum(bleu_values) / len(bleu_values)
    if rouge_values:
        scores.rouge1_f = sum(v[0] for v in rouge_values) / len(rouge_values)
        scores.rouge2_f = sum(v[1] for v in rouge_values) / len(rouge_values)
        scores.rougeL_f = sum(v[2] for v in rouge_values) / len(rouge_values)
    return scores


def run_corpus(corpus_dir, warn=None):
    """Evaluate every portal subdirectory; returns {portal: EvalScores}."""
    corpus_dir = Path(corpus_dir)
    warn = warn or (lambda msg: print(msg, file=sys.stderr))
    out = {}
    for portal_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        results = []
        parses = sorted(portal_dir.glob("*.conllu"))
        parsed_stems = {p.stem for p in parses}
        for stray in sorted(portal_dir.glob("*.txt")):
            if stray.stem not in parsed_stems:
                warn("missing parse file for %s" % stray.name)
                results.append(
                    SentenceResult(
                        sentence_id=stray.stem,
                        reference=stray.read_text(encoding="utf-8").strip(),
                    )
                )
        for parse_file in parses:
            results.extend(evaluate_sentences(parse_conllu_file(parse_file), warn=warn))
        out[portal_dir.name] = _portal_scores(portal_dir.name, results)
    return out


REPORT_COLUMNS = (
    "portal",
    "n_sentences",
    "n_recognized",
    "n_bleu_assessable",
    "bleu3",
    "rouge1",
    "rouge2",
    "rougeL",
)


def write_report(scores_by_portal, path):
    """CSV report with scores at one decimal place."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for portal in sorted(scores_by_portal):
            s = scores_by_portal[portal]
            writer.writerow(
                [
                    s.portal,
                    s.n_sentences,
                    s.n_recognized,
                    s.n_bleu_assessable,
                    "%.1f" % s.bleu3,
                    "%.1f" % s.rouge1_f,
                    "%.1f" % s.rouge2_f,
                    "%.1f" % s.rougeL_f,
                ]
            )
