"""Dependency annotation for annotation-template sentences.

Annotation sentences are short simple clauses ("The input of $1 is $2",
"$1 reads $2") that must flow through the same synthesis pipeline as parsed
corpus sentences, but arrive as raw text.  This module assigns them tags and
dependency edges with a small deterministic grammar: an optional-determiner
noun run with chained of/with/... phrases, then either a copula plus a second
noun phrase or a finite verb plus an object noun phrase.  Slot markers ($1,
$2, ...) behave like singular nouns.
"""

from . import morph
from .ingest import DependencyFact, SentenceFacts, Token

DETERMINERS = {"the", "a", "an"}
COPULAS = {"is", "are", "was", "were"}
PREPOSITIONS = {
    "of",
    "for",
    "with",
    "in",
    "on",
    "at",
    "by",
    "to",
    "from",
    "during",
    "about",
    "under",
    "over",
}
COORDINATORS = {"and", "or"}


class TemplateError(ValueError):
    """An annotation sentence the template grammar cannot analyze."""


def _is_slot(word):
    return word.startswith("$") and word[1:].isdigit()


class _Builder:
    def __init__(self, words):
        self.words = words
        self.tags = [None] * len(words)
        self.lemmas = list(words)
        self.deps = []
        self._cc_positions = []

    def edge(self, relation, head, dependent):
        # token positions are 1-based in facts
        self.deps.append(DependencyFact(relation=relation, head=head + 1, dependent=dependent + 1))

    def noun_phrase(self, start, end):
        """Analyze words[start:end] as a noun phrase; returns the head position.

        Shape: [det] noun+ (prep [det] noun+)* with conjunction splitting on
        coordinators.  The head of the first noun run heads the phrase.
        """
        if start >= end:
            raise TemplateError("empty noun phrase")
        segments = self._split_coordination(start, end)
        heads = [self._simple_np(s, e) for s, e in segments]
        head = heads[0]
        for conj_head in heads[1:]:
            self.edge("conj", head, conj_head)
        return head

    def _split_coordination(self, start, end):
        segments = []
        seg_start = start
        for i in range(start, end):
            if self.words[i].lower() in COORDINATORS:
                segments.append((seg_start, i))
                self.tags[i] = "cc"
                self.lemmas[i] = self.words[i].lower()
                self._cc_positions.append(i)
                seg_start = i + 1
        segments.append((seg_start, end))
        return [s for s in segments if s[0] < s[1]]

    def _simple_np(self, start, end):
        i = start
        det = None
        if i < end and self.words[i].lower() in DETERMINERS and not _is_slot(self.words[i]):
            det = i
            self.tags[i] = "dt"
            self.lemmas[i] = self.words[i].lower()
            i += 1
        run_start = i
        while i < end and self.words[i].lower() not in PREPOSITIONS:
            i += 1
        if run_start == i:
            raise TemplateError("noun phrase without a noun")
        head = i - 1
        for pos in range(run_start, head):
            self.tags[pos] = "nn"
            self.lemmas[pos] = self.words[pos].lower()
            self.edge("compound", head, pos)
        self.tags[head] = "nn"
        self.lemmas[head] = self.words[head] if _is_slot(self.words[head]) else self.words[head].lower()
        if det is not None:
            self.edge("det", head, det)
        while i < end:
            prep = i
            self.tags[prep] = "in"
            self.lemmas[prep] = self.words[prep].lower()
            rest_end = end
            for j in range(prep + 1, end):
                if self.words[j].lower() in PREPOSITIONS:
                    rest_end = j
                    break
            sub_head = self._simple_np(prep + 1, rest_end)
            self.edge("case", sub_head, prep)
            self.edge("nmod", head, sub_head)
            i = rest_end
        return head

    def attach_cc_edges(self):
        for pos in self._cc_positions:
            # attach the coordinator to the following conjunct, if any
            for dep in self.deps:
                if dep.relation == "conj" and dep.dependent > pos + 1:
                    self.edge("cc", dep.dependent - 1, pos)
                    break


def parse_template(sentence, sentence_id):
    """SentenceFacts for an annotation-template sentence."""
    words = sentence.split()
    if not words:
        raise TemplateError("empty annotation sentence")
    b = _Builder(words)
    lowered = [w.lower() for w in words]

    cop = next((i for i, w in enumerate(lowered) if i > 0 and w in COPULAS), None)
    if cop is not None:
        subj = b.noun_phrase(0, cop)
        pred = b.noun_phrase(cop + 1, len(words))
        b.tags[cop] = "vbz" if lowered[cop] in ("is", "was") else "vbp"
        b.lemmas[cop] = "be"
        b.edge("nsubj", pred, subj)
        b.edge("cop", pred, cop)
    else:
        verb = _find_verb(b, lowered)
        subj = b.noun_phrase(0, verb)
        obj = b.noun_phrase(verb + 1, len(words))
        lemma = _verb_lemma(words[verb])
        # an already-inflected verb is vbz; a bare relation name stays vbp so
        # its surface is not mistaken for an observed third-person form
        b.tags[verb] = "vbz" if lemma != lowered[verb] else "vbp"
        b.lemmas[verb] = lemma
        b.edge("nsubj", verb, subj)
        b.edge("dobj", verb, obj)
    b.attach_cc_edges()

    tokens = tuple(
        Token(index=i + 1, surface=w, lemma=b.lemmas[i], pos=b.tags[i])
        for i, w in enumerate(words)
    )
    return SentenceFacts(
        sentence_id=sentence_id,
        tokens=tokens,
        deps=frozenset(b.deps),
        source_text=sentence,
    )


def _find_verb(b, lowered):
    """The finite verb of a transitive template: the first word after the
    subject noun run that is not part of a noun phrase."""
    start = 1 if lowered[0] in DETERMINERS else 0
    for i in range(start + 1, len(lowered) - 1):
        w = lowered[i]
        if w in PREPOSITIONS or w in DETERMINERS or w in COORDINATORS or _is_slot(b.words[i]):
            continue
        # a word followed by a noun phrase is our verb candidate
        return i
    raise TemplateError("could not locate a verb in %r" % " ".join(b.words))


def _verb_lemma(word):
    head, _, last = word.rpartition("_")
    lemma = morph.verb_lemma_from_3sg(last.lower())
    return (head.lower() + "_" if head else "") + lemma
