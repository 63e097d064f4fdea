"""gfgen: synthesize GF grammars from dependency parses and talk back in English.

The pipeline reads CoNLL-U parses, recognizes one of five clause structures
per sentence by forward-chaining rule inference, assigns main/complement
components, emits a per-sentence GF grammar fragment, merges fragments into
one grammar, and linearizes grammar functions back to English text.  On top
of that sit an atom/triple verbalizer driven by annotation sentences and a
BLEU-3/ROUGE evaluation harness for round-tripped paragraphs.
"""

__version__ = "0.1.0"

from .ingest import SentenceFacts, parse_conllu, parse_conllu_file, facts_to_text
from .structure import recognize, select
from .components import main_components, complements, build_chunk
from .encoder import analyze, synthesize_sentence, encode_sentence
from .exporter import GfGrammar, merge, render
from .linearizer import linearize, inflect_verb_3sg, pluralize_noun
from .verbalizer import load_annotations, verbalize_atoms, verbalize_triples
from .metrics import bleu3, rouge
from .corpus_eval import EvalScores, run_corpus

__all__ = [
    "SentenceFacts",
    "parse_conllu",
    "parse_conllu_file",
    "facts_to_text",
    "recognize",
    "select",
    "main_components",
    "complements",
    "build_chunk",
    "analyze",
    "synthesize_sentence",
    "encode_sentence",
    "GfGrammar",
    "merge",
    "render",
    "linearize",
    "inflect_verb_3sg",
    "pluralize_noun",
    "load_annotations",
    "verbalize_atoms",
    "verbalize_triples",
    "bleu3",
    "rouge",
    "EvalScores",
    "run_corpus",
]
