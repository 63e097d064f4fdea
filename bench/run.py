"""Benchmark of the gfgen pipeline: three closed-loop workloads, end to end and per layer.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 bench/run.py --workload eval_x32 --seed 1 --seconds 10 --trace 0

Every workload runs in one process and one thread as a closed loop: the next
call starts when the previous one returns.  The seed shapes only the inputs.

- ``eval_x32``: the 62-sentence fixture corpus replicated x32 under distinct
  sentence ids (``<id>_rNN``), in a seeded shuffle.  Each sentence is round
  tripped the way ``gfgen eval`` does it: ingest, structure, components,
  encoder, a one-fragment merge, linearize, scoring.  An item is a sentence.
- ``export_x64``: set-up synthesizes the corpus x64 into fragment JSON text
  held in memory, in a seeded order.  The timed pass decodes the fragments,
  merges them, renders ``Corpus.gf``/``CorpusEng.gf`` and linearizes every
  ``sent_*`` function, as ``gfgen export`` followed by ``gfgen linearize``.
  An item is one ``sent_*`` linearization.
- ``verbalize``: a seeded knowledge base of the fixture annotations plus 30
  annotations drawn from corpus lemmas, and 1,008 paragraphs of 1-12 atoms or
  triples.  The timed pass is ``load_annotations`` followed by verbalizing
  every paragraph.  An item is a paragraph.

An item's latency is the time of its own calls: the whole round trip
(eval_x32), one linearize call (export_x64), one verbalize call (verbalize).
Every item, and each pass's shared part (decode, merge and render in
export_x64; ``load_annotations`` in verbalize), is timed in every pass.  An
item's time is the fastest time of its input over the run: replicas of one
corpus sentence are the same input under another id, so in eval_x32 and
export_x64 that is the fastest of the sentence's replicas over all passes.
``item_ms_p50``/``item_ms_p99`` are percentiles of the items' times and
``items_per_s`` is the items of a pass over the sum of those times and the
shared part's fastest time.
``grammar_kb`` is the rendered GF source the workload linearizes over: the
one-fragment grammars (eval_x32), the merged grammar (export_x64), the
annotation grammars (verbalize).  ``bleu3``/``rougeL`` score the outputs
against the source sentences, or against the template sentences (verbalize).

The timed code calls only the package's public functions.  Every output is
checked: eval_x32 against ``reference/eval_x1.csv`` (the behaviour baseline,
counts scaled by 32) and the frozen per-sentence hypotheses; export_x64
against the one-fragment path and a frozen digest of the rendered grammar;
verbalize against the fixture sentences and the annotation templates.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics.  With ``--trace 1`` the loop alternates untraced and
traced passes; spans are recorded around each call into the package, kept in
memory, written to ``.bench_out/`` at the end, and the last line holds the
per-layer metrics.  export_x64 then also runs its pipeline at x16 and reports
growth exponents log(busy at x64 / busy at x16) / log 4.

Self-test: ``python3 -m pytest bench``.
"""

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
CORPUS = FIXTURES / "corpus"
REFERENCE = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".bench_out"


def _require_checkout():
    missing = [p for p in (SRC / "gfgen" / "__init__.py", CORPUS) if not p.exists()]
    if missing:
        sys.exit("bench: not a gfgen checkout, missing %s" % ", ".join(map(str, missing)))
    sys.path.insert(0, str(SRC))


_require_checkout()

from gfgen import verbalizer  # noqa: E402
from gfgen.components import UnsupportedCopularComplement, main_components  # noqa: E402
from gfgen.corpus_eval import EvalScores, write_report  # noqa: E402
from gfgen.encoder import (  # noqa: E402
    CategoryError,
    encode_sentence,
    fragment_from_dict,
    fragment_to_dict,
    sanitize_ident,
    sentence_slots,
)
from gfgen.exporter import merge, render  # noqa: E402
from gfgen.ingest import parse_conllu, parse_conllu_file  # noqa: E402
from gfgen.linearizer import linearize  # noqa: E402
from gfgen.metrics import bleu3, is_bleu_assessable, rouge, tokenize  # noqa: E402
from gfgen.structure import recognize, select  # noqa: E402
from gfgen.verbalizer import (  # noqa: E402
    GroundAtom,
    Triple,
    load_annotations,
    parse_atoms,
    parse_triples,
    verbalize_atoms,
    verbalize_triples,
)

# name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "grammar_kb": "KiB",
    "bleu3": "score",
    "rougeL": "score",
}

# busy_ms is a layer's self time per pass; counts are per pass
PER_LAYER = {
    "ingest.busy_ms": "ms",
    "ingest.tokens": "count",
    "ingest.facts": "count",
    "structure.busy_ms": "ms",
    "structure.readings": "count",
    "structure.unrecognized": "count",
    "components.busy_ms": "ms",
    "encoder.busy_ms": "ms",
    "encoder.opers": "count",
    "encoder.functions": "count",
    "encoder.not_encodable": "count",
    "fragment_io.busy_ms": "ms",
    "fragment_io.bytes": "bytes",
    "merge.busy_ms": "ms",
    "merge.calls": "count",
    "merge.defs_in": "count",
    "merge.defs_out": "count",
    "merge.renamed": "count",
    "merge.divergent": "count",
    "render.busy_ms": "ms",
    "render.bytes": "bytes",
    "linearize.busy_ms": "ms",
    "linearize.calls": "count",
    "linearize.us_per_call": "us",
    "scoring.busy_ms": "ms",
    "verbalizer.load_ms": "ms",
    "verbalizer.busy_ms": "ms",
    "verbalizer.annotations": "count",
    "gc.pause_ms": "ms",
    "gc.collections": "count",
    "trace.overhead_pct": "%",
    "merge.growth": "exponent",
    "linearize.growth": "exponent",
    "encoder.growth": "exponent",
}

# the export_x64 rendering must not depend on fragment order, so on the seed
EXPORT_X64_SHA256 = "4d834dbb422350b94217f487e0008c44fc2a79a8d0ed18421c092ad46c9b934a"

NOT_ENCODABLE = (UnsupportedCopularComplement, CategoryError)


# --- tracing ----------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as ``[id, parent, item, name, start, end]``.

    All spans opened between two ``begin_item`` calls share the item id.
    ``failed_stage`` names the innermost span an exception left in the
    current item.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.item = None
        self.failed_stage = None

    def begin_item(self, item):
        self.item = item
        self.failed_stage = None

    def span(self, name):
        return _Span(self, name)

    def self_ms(self):
        """Self time per span name: duration minus the time its children cover."""
        children = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        busy = Counter()
        for sid, _, _, name, start, end in self.spans:
            busy[name] += (end - start - children[sid]) * 1000.0
        return busy


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.record = [len(tr.spans), tr._open[-1] if tr._open else None, tr.item, self.name]
        tr.spans.append(self.record)
        tr._open.append(self.record[0])
        self.record += [time.perf_counter(), None]

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        self.record[5] = time.perf_counter()
        tr._open.pop()
        if exc_type is not None and issubclass(exc_type, Exception) and tr.failed_stage is None:
            tr.failed_stage = self.name
        return False


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a reused null context."""

    _null = contextlib.nullcontext()
    failed_stage = None

    def begin_item(self, item):
        pass

    def span(self, name):
        return self._null


NULL = NullTracer()


# --- calls into the package, shared by the workloads ---------------------------------


def ingest(tr, counts, text):
    with tr.span("ingest"):
        sentences = parse_conllu(text)
    if counts is not None:
        for facts in sentences:
            counts["ingest.tokens"] += len(facts.tokens)
            counts["ingest.facts"] += len(facts.tokens) + len(facts.deps)
    return sentences


def synthesize(tr, counts, facts):
    """(status, fragment) as ``synthesize_sentence`` builds the fragment.

    status is "ok", "unrecognized" or "not_encodable"; the last is the
    outcome ``gfgen eval`` reports for the two not-encodable errors.
    """
    with tr.span("structure"):
        readings = recognize(facts)
        selected = select(readings)
    if counts is not None:
        counts["structure.readings"] += len(readings)
        counts["structure.unrecognized"] += selected is None
    if selected is None:
        return "unrecognized", None
    try:
        with tr.span("components"):
            roles = main_components(facts, selected)
        with tr.span("encoder"):
            fragment = encode_sentence(facts, selected, roles, slots=sentence_slots(facts))
    except NOT_ENCODABLE:
        if counts is not None:
            counts["encoder.not_encodable"] += 1
        return "not_encodable", None
    if counts is not None:
        counts["encoder.opers"] += len(fragment.opers)
        counts["encoder.functions"] += len(fragment.functions)
    return "ok", fragment


def merged(tr, counts, sources):
    with tr.span("merge"):
        grammar = merge(sources)
    if counts is not None:
        names_in = set()
        for source in sources:
            names_in.update(_fun_name(f) for f in source.functions)
            names_in.update(source.opers)
        out = [_fun_name(f) for f in grammar.functions] + list(grammar.opers)
        counts["merge.calls"] += 1
        counts["merge.defs_in"] += sum(len(s.functions) + len(s.opers) for s in sources)
        counts["merge.defs_out"] += len(out)
        counts["merge.renamed"] += sum(name not in names_in for name in out)
    return grammar


def _fun_name(entry):
    # fragments list functions; merged grammars list (sentence id, index, function)
    return entry[2].name if isinstance(entry, tuple) else entry.name


def linearized(tr, counts, grammar, name, **kwargs):
    if counts is not None:
        counts["linearize.calls"] += 1
    with tr.span("linearize"):
        return linearize(grammar, name, **kwargs)


def rendered(tr, counts, grammar, name):
    with tr.span("render"):
        abstract, concrete = render(grammar, name)
    if counts is not None:
        counts["render.bytes"] += len(abstract.encode()) + len(concrete.encode())
    return abstract, concrete


def sent_function(sentence_id):
    return "sent_" + sanitize_ident(sentence_id)


def rendered_kb(grammar, name):
    return sum(len(text.encode()) for text in render(grammar, name)) / 1024.0


def corpus_quality(pairs):
    """Corpus-mean (BLEU-3 over assessable pairs, ROUGE-L over all) of (hyp, ref) texts."""
    bleu, rouge_l = [], []
    for hypothesis, reference in pairs:
        hyp, ref = tokenize(hypothesis), tokenize(reference)
        rouge_l.append(rouge(hyp, ref)[2])
        if is_bleu_assessable(hyp, ref):
            bleu.append(bleu3(hyp, ref))
    return statistics.fmean(bleu), statistics.fmean(rouge_l)


@dataclasses.dataclass
class PassResult:
    passed: int = 0
    # (input, seconds) per timed call that succeeded: an item's input, or None
    # for the pass's calls that serve every item (export, annotation load)
    times: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)  # (item, stage, reason)
    problems: list = dataclasses.field(default_factory=list)  # failed whole-pass checks
    notes: list = dataclasses.field(default_factory=list)  # known defects seen, not failures

    def item(self, tr, item_id, call, check, source=None):
        """Time ``call()``; it fails when it raises or ``check`` rejects its output.

        ``source`` names the item's input, ``item_id`` by default: replicas of
        one corpus sentence share it.
        """
        tr.begin_item(item_id)
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:
            self.failures.append((item_id, tr.failed_stage, "%s: %s" % (type(exc).__name__, exc)))
            return
        elapsed = time.perf_counter() - start
        if check(out):
            self.passed += 1
            self.times.append((item_id if source is None else source, elapsed))
        else:
            self.failures.append((item_id, "check", "output differs from its reference"))

    def shared(self, call):
        """Time ``call()``, the part of the pass that no single item owns; exceptions propagate."""
        start = time.perf_counter()
        out = call()
        self.times.append((None, time.perf_counter() - start))
        return out

    @property
    def attempted(self):
        return self.passed + len(self.failures)


# --- inputs ---------------------------------------------------------------------------

SENT_ID = re.compile(r"^# sent_id = (\S+)$", re.M)


def corpus_blocks(scale):
    """(portal, base id, CoNLL-U block) per corpus sentence, ``scale`` replicas each.

    Replica r of sentence ``m01`` is the same block under id ``m01_rNN``;
    portals and files are read in the order ``gfgen eval`` reads them.
    """
    base = []
    for portal_dir in sorted(p for p in CORPUS.iterdir() if p.is_dir()):
        for path in sorted(portal_dir.glob("*.conllu")):
            for block in path.read_text(encoding="utf-8").strip().split("\n\n"):
                match = SENT_ID.search(block)
                if match is None:
                    raise ValueError("%s: a corpus block has no sent_id" % path)
                base.append((portal_dir.name, match.group(1), block))
    return [
        (portal, sid, block.replace(" = %s\n" % sid, " = %s_r%02d\n" % (sid, r), 1))
        for r in range(scale)
        for portal, sid, block in base
    ]


def reference_json(name):
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


# --- workloads ---------------------------------------------------------------------------


class EvalX32:
    """The corpus x32, each sentence round tripped and scored as ``gfgen eval`` does."""

    scale = 32

    def __init__(self, seed):
        self.seed = seed
        # base sentence id -> one-fragment round trip hypothesis, None when unrecognized
        self.expected = reference_json("hypotheses.json")
        self.first_pass = None

    def setup(self, tr, counts):
        items = corpus_blocks(self.scale)
        random.Random(self.seed).shuffle(items)
        self.items = items

    def round_trip(self, tr, counts, block, results, portal):
        (facts,) = ingest(tr, counts, block)
        status, fragment = synthesize(tr, counts, facts)
        hypothesis = None
        if fragment is not None:
            grammar = merged(tr, counts, [fragment])
            hypothesis = linearized(tr, counts, grammar, sent_function(facts.sentence_id))
        scores = None
        if hypothesis is not None:
            with tr.span("scoring"):
                hyp, ref = tokenize(hypothesis), tokenize(facts.source_text)
                scores = rouge(hyp, ref), bleu3(hyp, ref) if is_bleu_assessable(hyp, ref) else None
        results.append((portal, status, hypothesis, facts.source_text, scores))
        return status, hypothesis

    def run_pass(self, tr, counts):
        result, results = PassResult(), []
        for portal, base_id, block in self.items:
            expected = self.expected[base_id]
            want = ("unrecognized", None) if expected is None else ("ok", expected)
            result.item(
                tr,
                base_id,
                lambda: self.round_trip(tr, counts, block, results, portal),
                lambda out: out == want,
            )
        if result.failures:
            result.problems.append("eval report skipped: %d item(s) failed" % len(result.failures))
        else:
            problem = self.check_report(results)
            if problem:
                result.problems.append(problem)
        if self.first_pass is None:
            self.first_pass = results
        return result

    def check_report(self, results):
        """The x32 eval CSV must equal the x1 baseline with every count times 32."""
        scores = {}
        for portal in sorted({r[0] for r in results}):
            rows = [r for r in results if r[0] == portal]
            scored = [r[4] for r in rows if r[4] is not None]
            bleu = [b for _, b in scored if b is not None]
            scores[portal] = EvalScores(
                portal=portal,
                n_sentences=len(rows),
                n_recognized=sum(r[1] != "unrecognized" for r in rows),
                n_bleu_assessable=len(bleu),
                bleu3=statistics.fmean(bleu) if bleu else 0.0,
                rouge1_f=statistics.fmean(s[0][0] for s in scored) if scored else 0.0,
                rouge2_f=statistics.fmean(s[0][1] for s in scored) if scored else 0.0,
                rougeL_f=statistics.fmean(s[0][2] for s in scored) if scored else 0.0,
            )
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            path = Path(tmp) / "eval.csv"
            write_report(scores, path)
            with open(path, encoding="utf-8", newline="") as fh:
                got = list(csv.reader(fh))
        with open(REFERENCE / "eval_x1.csv", encoding="utf-8", newline="") as fh:
            want = list(csv.reader(fh))
        counts = ("n_sentences", "n_recognized", "n_bleu_assessable")
        for row in want[1:]:
            for i, column in enumerate(want[0]):
                if column in counts:
                    row[i] = str(int(row[i]) * self.scale)
        if got != want:
            return "eval report %r differs from the x%d baseline %r" % (got, self.scale, want)
        return None

    def quality(self):
        scored = [(r[2], r[3]) for r in self.first_pass if r[2] is not None]
        bleu, rouge_l = corpus_quality(scored)
        size = 0.0
        for _, _, block in self.items:
            (facts,) = parse_conllu(block)
            _, fragment = synthesize(NULL, None, facts)
            if fragment is not None:
                size += rendered_kb(merge([fragment]), "Sentence")
        return {"grammar_kb": size, "bleu3": bleu, "rougeL": rouge_l}


class ExportX64:
    """Fragments of the corpus x64 decoded, merged, rendered and every sentence linearized."""

    def __init__(self, seed, scale=64):
        self.seed = seed
        self.scale = scale
        self.expected = reference_json("hypotheses.json")
        # A known merge defect: definitions that render alike but carry different
        # realizer metadata (observed forms, number) collapse to one, so these
        # sentences read differently over the merged grammar.  The check accepts
        # the one-fragment hypothesis or, for these sentences only, the recorded
        # text, and reports every divergence.
        self.known_divergences = reference_json("known_divergences.json")
        self.first_pass = None

    def setup(self, tr, counts):
        blocks = corpus_blocks(self.scale)
        random.Random(self.seed).shuffle(blocks)
        texts, sentences, fragments = [], [], []
        for _, base_id, block in blocks:
            (facts,) = ingest(tr, counts, block)
            _, fragment = synthesize(tr, counts, facts)
            if fragment is None:
                continue
            with tr.span("fragment_io"):
                text = json.dumps(fragment_to_dict(fragment), indent=2, sort_keys=True) + "\n"
            texts.append(text)
            sentences.append((sent_function(facts.sentence_id), base_id, facts.source_text))
            fragments.append(fragment)
        self.texts, self.sentences, self._fragments = texts, sentences, fragments

    def prepare_checks(self):
        """The hypothesis of each sentence on the one-fragment path (untimed)."""
        self.one_fragment = {
            name: linearize(merge([fragment]), name)
            for (name, _, _), fragment in zip(self.sentences, self._fragments)
        }
        self._fragments = None

    def run_pass(self, tr, counts):
        result = PassResult()
        tr.begin_item("pass")

        def export():
            with tr.span("fragment_io"):
                fragments = [fragment_from_dict(json.loads(text)) for text in self.texts]
            grammar = merged(tr, counts, fragments)
            return grammar, rendered(tr, counts, grammar, "Corpus")

        try:
            grammar, (abstract, concrete) = result.shared(export)
        except Exception as exc:
            result.problems.append("export failed at %s: %r" % (tr.failed_stage, exc))
            result.failures.extend((name, tr.failed_stage, "export failed") for name, _, _ in self.sentences)
            return result
        if counts is not None:
            counts["fragment_io.bytes"] += sum(len(text.encode()) for text in self.texts)
        digest = hashlib.sha256((abstract + concrete).encode()).hexdigest()
        if self.scale == 64 and digest != EXPORT_X64_SHA256:
            result.problems.append("rendered grammar sha256 %s, want %s" % (digest, EXPORT_X64_SHA256))
        names = {n for n in grammar.function_names() if n.startswith("sent_")}
        if names != {name for name, _, _ in self.sentences}:
            result.problems.append("merged grammar holds other sent_* functions than its inputs")
        texts, divergent = [], []
        for name, base_id, _ in self.sentences:
            want = self.one_fragment[name]

            def check(text):
                texts.append(text)
                if text != want and text == self.known_divergences.get(base_id):
                    divergent.append(base_id)
                    return want == self.expected[base_id]
                return text == want == self.expected[base_id]

            result.item(tr, name, lambda: linearized(tr, counts, grammar, name), check, base_id)
        if divergent:
            result.notes.append(
                "known merge defect: %s read differently over the merged grammar"
                % ", ".join(sorted(set(divergent)))
            )
        if counts is not None:
            counts["merge.divergent"] += len(divergent)
        if self.first_pass is None:
            self.first_pass = (texts, len(abstract.encode()) + len(concrete.encode()))
        return result

    def quality(self):
        texts, size = self.first_pass
        bleu, rouge_l = corpus_quality(zip(texts, (s[2] for s in self.sentences)))
        return {"grammar_kb": size / 1024.0, "bleu3": bleu, "rougeL": rouge_l}


# test_criterion_5_verbalization's expected strings for the fixture atoms and triples
PHYLO_DESCRIPTION = (
    "Input of phylotastic FindScientificNamesFromWeb GET is web link. "
    "Type of web link is url. "
    "Output of phylotastic FindScientificNamesFromWeb GET is scientific names. "
    "Output of phylotastic FindScientificNamesFromWeb GET is species names. "
    "Type of scientific names is names. "
    "Type of species names is names."
)
PEOPLE_SENTENCES = ["Kevin has_pets Flossie.", "Flossie is cow.", "Mick reads Daily Mirror."]

def split_sentences(paragraph):
    """The sentences of a verbalized paragraph; no symbol holds ". "."""
    return [s if s.endswith(".") else s + "." for s in paragraph.split(". ")]


VERBALIZE_ANNOTATIONS = 10  # per shape
VERBALIZE_PARAGRAPHS = 42  # per length 1..12 and kind: 1,008 paragraphs, 6,552 facts


class Verbalize:
    """A seeded knowledge base loaded and every paragraph verbalized."""

    # shape: (annotation sentence, expected sentence) over $1/$2 and {0}/{1}; the
    # realizer drops articles and capitalizes the first letter
    SHAPES = {
        "noun_of": ("The {w} of $1 is $2", "{w} of {0} is {1}"),
        "is_noun_of": ("$1 is the {w} of $2", "{0} is {w} of {1}"),
        "verb": ("$1 {w} $2", "{0} {w} {1}"),
    }

    def __init__(self, seed):
        self.seed = seed
        self.first_pass = None

    def setup(self, tr, counts):
        rng = random.Random(self.seed)
        fixture_kb = [
            (FIXTURES / name).read_text(encoding="utf-8").strip()
            for name in ("phylotastic_annotations.tsv", "people_annotations.tsv")
        ]
        phylo = parse_atoms((FIXTURES / "phylotastic_atoms.lp").read_text(encoding="utf-8"))
        people = parse_triples((FIXTURES / "people_triples.tsv").read_text(encoding="utf-8"))

        nouns, verbs, names = set(), set(), set()
        for path in sorted(CORPUS.glob("*/*.conllu")):
            for facts in parse_conllu_file(path):
                for tok in facts.tokens:
                    plain = tok.lemma.isalpha() and tok.lemma.islower()
                    if tok.pos == "nn" and plain:
                        nouns.add(tok.lemma)
                    elif tok.pos == "vbz" and plain and tok.lemma != "be":
                        verbs.add((tok.lemma, tok.surface))
                    elif tok.pos == "nnp":
                        names.add(tok.lemma)
        nouns, verbs, names = sorted(nouns), sorted(verbs), sorted(names)

        lines, templates = list(fixture_kb), {}
        drawn = rng.sample(nouns, 2 * VERBALIZE_ANNOTATIONS)
        words = {
            "noun_of": [(w + "_of", w) for w in drawn[:VERBALIZE_ANNOTATIONS]],
            "is_noun_of": [("is_%s_of" % w, w) for w in drawn[VERBALIZE_ANNOTATIONS:]],
            "verb": rng.sample(verbs, VERBALIZE_ANNOTATIONS),
        }
        for shape, pairs in words.items():
            annotation, expected = self.SHAPES[shape]
            for predicate, word in pairs:
                lines.append("%s/2\t%s" % (predicate, annotation.format(w=word)))
                templates[predicate] = expected.replace("{w}", word)
        self.kb_text = "\n".join(lines) + "\n"
        self.n_annotations = sum(1 for line in self.kb_text.splitlines() if "\t" in line)

        symbols = names + ["%s_%s" % (a, b) for a, b in zip(nouns, reversed(nouns))]
        predicates = sorted(templates)
        paragraphs = []
        for length in range(1, 13):
            for k in range(2 * VERBALIZE_PARAGRAPHS):
                facts, want = [], []
                for _ in range(length):
                    subject, obj = rng.choice(symbols), rng.choice(symbols)
                    # triples are rdf:type with chance 2/3, so a third of all facts
                    if k % 2 and rng.random() < 2 / 3:
                        obj = rng.choice(nouns)
                        facts.append(Triple(subject, "rdf:type", obj))
                        template = "{0} is {1}"
                    else:
                        predicate = rng.choice(predicates)
                        facts.append(
                            Triple(subject, predicate, obj)
                            if k % 2
                            else GroundAtom(predicate, (subject, obj))
                        )
                        template = templates[predicate]
                    text = template.format(subject.replace("_", " "), obj.replace("_", " "))
                    want.append(text[:1].upper() + text[1:] + ".")
                paragraphs.append(("triples" if k % 2 else "atoms", facts, want))
        rng.shuffle(paragraphs)
        paragraphs[rng.randrange(len(paragraphs))] = ("atoms", phylo, split_sentences(PHYLO_DESCRIPTION))
        paragraphs[rng.randrange(len(paragraphs))] = ("triples", people, PEOPLE_SENTENCES)
        self.paragraphs = paragraphs

    def run_pass(self, tr, counts):
        result = PassResult()
        tr.begin_item("load")
        try:
            with tr.span("verbalizer.load"):
                annotations = result.shared(lambda: load_annotations(self.kb_text))
        except Exception as exc:
            result.problems.append("load_annotations failed: %r" % exc)
            result.failures.extend((i, tr.failed_stage, "load failed") for i in range(len(self.paragraphs)))
            return result
        if counts is not None:
            counts["verbalizer.annotations"] += len(annotations)
        if len(annotations) != self.n_annotations:
            result.problems.append("loaded %d of %d annotations" % (len(annotations), self.n_annotations))
        outputs = []
        for i, (kind, facts, want) in enumerate(self.paragraphs):

            def call():
                with tr.span("verbalizer"):
                    if kind == "atoms":
                        return verbalize_atoms(facts, annotations)
                    return verbalize_triples(facts, annotations)

            def check(out):
                got = split_sentences(out) if kind == "atoms" else out
                outputs.append((got, want))
                return len(got) == len(facts) and got == want

            result.item(tr, i, call, check)
        if self.first_pass is None:
            self.first_pass = (outputs, annotations)
        return result

    def quality(self):
        outputs, annotations = self.first_pass
        pairs = []
        for got, want in outputs:
            pairs.extend(zip(got, want))
        bleu, rouge_l = corpus_quality(pairs)
        size = sum(rendered_kb(a.grammar, "Annotation") for a in annotations)
        return {"grammar_kb": size, "bleu3": bleu, "rougeL": rouge_l}


WORKLOADS = {"eval_x32": EvalX32, "export_x64": ExportX64, "verbalize": Verbalize}

SETUP_SECONDS = 3.0  # set-up repeats at least three times and until this long; setup_s is the median


# --- measurement ------------------------------------------------------------------------


class GcClock:
    """Collections and pause time of the cyclic garbage collector while installed."""

    def __init__(self):
        self.collections = 0
        self.pause = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause += time.perf_counter() - self._start
            self.collections += 1
            self._start = None

    @contextlib.contextmanager
    def installed(self):
        gc.callbacks.append(self)
        try:
            yield
        finally:
            gc.callbacks.remove(self)


def timed_pass(workload, tr, counts):
    gc.collect()
    start = time.perf_counter()
    result = workload.run_pass(tr, counts)
    return result, time.perf_counter() - start


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def prepare(workload, tr, counts):
    workload.setup(tr, counts)
    if hasattr(workload, "prepare_checks"):
        workload.prepare_checks()


def run_untraced(name, seed, seconds):
    setups = []
    while len(setups) < 3 or sum(setups) < SETUP_SECONDS:
        workload = WORKLOADS[name](seed)
        gc.collect()
        start = time.perf_counter()
        workload.setup(NULL, None)
        setups.append(time.perf_counter() - start)
    if hasattr(workload, "prepare_checks"):
        workload.prepare_checks()

    # Each input (a corpus sentence and its replicas, a paragraph, or the pass's
    # shared part) keeps its fastest time over the run.  Load from other tenants
    # of a shared host only ever adds time, and it comes and goes from one
    # second to the next and over minutes, so a median over passes follows it
    # while the fastest time does not.  An item's latency is its input's time;
    # every pass has over 1,000 items, so p99 has at least ten items beyond it.
    results, fastest, wall = [], {}, 0.0
    while wall < seconds:
        result, elapsed = timed_pass(workload, NULL, None)
        results.append(result)
        for source, seconds_taken in result.times:
            fastest[source] = min(seconds_taken, fastest.get(source, math.inf))
        replicas = Counter(source for source, _ in result.times)
        result.times = []
        wall += elapsed

    latencies = [fastest[source] for source, n in replicas.items() if source is not None for _ in range(n)]
    pass_s = sum(fastest[source] * n for source, n in replicas.items())
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    metrics = {
        "items_per_s": len(latencies) / pass_s if latencies else 0.0,
        "item_ms_p50": 1000.0 * percentile(latencies, 0.50) if latencies else 0.0,
        "item_ms_p99": 1000.0 * percentile(latencies, 0.99) if latencies else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (attempted - failed) / attempted,
    }
    if failed == 0:
        metrics.update(workload.quality())
    else:
        metrics.update(grammar_kb=0.0, bleu3=0.0, rougeL=0.0)
    return results, metrics, END_TO_END


def run_traced(name, seed, seconds):
    workload = WORKLOADS[name](seed)
    log = SpanLog()
    _, setup = log.traced(prepare, workload, label="setup")

    gc_clock = GcClock()
    results, untraced, traced, passes = [], [], [], []
    while sum(untraced) + sum(traced) < seconds or not traced:
        with gc_clock.installed():
            result, elapsed = timed_pass(workload, NULL, None)
        results.append(result)
        untraced.append(elapsed)
        (result, elapsed), summary = log.traced(timed_pass, workload, label=len(passes))
        results.append(result)
        traced.append(elapsed)
        passes.append(summary)
        for result in results[-2:]:
            result.times = []  # memory stays flat; per-layer metrics come from the spans

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    # layers of the timed pass override those of set-up (export_x64 synthesizes in set-up)
    metrics.update(layer_metrics([setup]))
    metrics.update(layer_metrics(passes))
    metrics["gc.pause_ms"] = 1000.0 * gc_clock.pause / len(untraced)
    metrics["gc.collections"] = gc_clock.collections / len(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    if isinstance(workload, ExportX64):
        metrics.update(growth(workload, seed, setup, passes))

    log.write(OUT / ("spans_%s_seed%d.jsonl" % (name, seed)), results)
    return results, metrics, PER_LAYER


class SpanLog:
    """Spans of every traced call, serialized as soon as it returns.

    Holding the spans as text keeps them out of the garbage collector's
    traversals, so a long traced run does not slow its own later passes.
    """

    def __init__(self):
        self.lines = []

    def traced(self, fn, workload, label):
        """(fn's result, summary) of ``fn(workload, tracer, counts)`` run under a fresh tracer."""
        tr, counts = Tracer(), Counter()
        with traced_verbalizer_calls(tr, counts):
            out = fn(workload, tr, counts)
        self.lines.extend(json.dumps([label] + record) for record in tr.spans)
        summary = {name + ".busy_ms": ms for name, ms in tr.self_ms().items()}
        load = [end - start for _, _, _, n, start, end in tr.spans if n == "verbalizer.load"]
        if load:
            # the whole load_annotations call, including the merges it makes
            summary["verbalizer.load_ms"] = 1000.0 * sum(load)
        summary.update(counts)
        return out, summary

    def write(self, path, results):
        OUT.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["pass", "id", "parent", "item", "name", "start", "end"]}) + "\n")
            fh.writelines(line + "\n" for line in self.lines)
            for result in results:
                for item, stage, reason in result.failures:
                    fh.write(json.dumps({"failed": item, "stage": stage, "reason": reason}) + "\n")


def layer_metrics(summaries):
    """Median over traced passes of each busy time; counts are equal in every pass."""
    out = {k: statistics.median(s.get(k, 0) for s in summaries) for k in set().union(*summaries)}
    if out.get("linearize.calls"):
        out["linearize.us_per_call"] = 1000.0 * out["linearize.busy_ms"] / out["linearize.calls"]
    return {k: float(v) for k, v in out.items() if k in PER_LAYER}


def growth(workload, seed, setup, passes):
    """Growth exponents from x16 to x64: log(busy at x64 / busy at x16) / log 4."""
    small = ExportX64(seed, scale=16)
    log = SpanLog()
    _, small_setup = log.traced(prepare, small, label="setup")
    small_passes = [log.traced(timed_pass, small, label=i)[1] for i in range(3)]
    big, little = layer_metrics(passes), layer_metrics(small_passes)
    big["encoder.busy_ms"], little["encoder.busy_ms"] = setup["encoder.busy_ms"], small_setup["encoder.busy_ms"]
    ratio = math.log(workload.scale / small.scale)
    return {
        layer + ".growth": math.log(big[layer + ".busy_ms"] / little[layer + ".busy_ms"]) / ratio
        for layer in ("merge", "linearize", "encoder")
    }


@contextlib.contextmanager
def traced_verbalizer_calls(tr, counts):
    """Route gfgen.verbalizer's own merge and linearize calls through spans.

    The verbalizer reaches these two layers from inside the package, so a
    span around verbalize_atoms alone would fold them into its own time.
    """
    calls = verbalizer.merge, verbalizer.linearize
    verbalizer.merge = lambda sources: merged(tr, counts, sources)
    verbalizer.linearize = lambda grammar, name, **kw: linearized(tr, counts, grammar, name, **kw)
    try:
        yield
    finally:
        verbalizer.merge, verbalizer.linearize = calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = run_traced if args.trace else run_untraced
    results, metrics, units = run(args.workload, args.seed, args.seconds)
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    problems = [p for r in results for p in r.problems]
    for item, stage, reason in [f for r in results for f in r.failures][:10]:
        print("failed %s at %s: %s" % (item, stage, reason), file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print("check failed: %s" % problem, file=sys.stderr)
    for note in dict.fromkeys(n for r in results for n in r.notes):
        print(note, file=sys.stderr)
    for key in units:
        print("%-24s %14.4f %s" % (key, metrics[key], units[key]))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
