"""CoNLL-U ingestion: turn each parsed sentence into a program of facts.

Every sentence becomes a set of dependency facts ``rel(head, dependent)``,
which the rule engine reads, and its fact program also lists one
``pos_tag(index, tag)`` fact per token.  The root edge is dropped;
multiword-token ranges ("3-4") and empty nodes ("3.1") are skipped.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import engine, morph

# Penn tags are preferred (the copula and the encoder test them); when only
# UPOS is available we map the tags they care about and lowercase the rest.
UPOS_FALLBACK = {
    "NOUN": "nn",
    "PROPN": "nnp",
    "ADJ": "jj",
    "NUM": "cd",
    "VERB": "vbp",
    "PUNCT": "punct",
}

# UD v2 renamed a few labels; normalize to the v1 names the rules use.
DEPREL_ALIASES = {
    "obj": "dobj",
    "nsubj:pass": "nsubjpass",
    "aux:pass": "auxpass",
}


class ConlluError(ValueError):
    """Malformed CoNLL-U input."""


class StructureError(ValueError):
    """A sentence whose dependency facts do not form a forest."""


class _TokenFields(NamedTuple):
    index: int
    surface: str
    lemma: str
    pos: str  # lowercased Penn tag ("vbp", "nn", "punct", ...)


class Token(_TokenFields):
    __slots__ = ()

    def __new__(cls, index, surface, lemma, pos):
        if index < 1:
            raise ValueError("token index must be >= 1")
        if pos.split() != [pos]:  # empty, or holds whitespace
            raise ValueError("pos must be a non-empty tag without whitespace")
        return tuple.__new__(cls, (index, surface, lemma, pos))


class DependencyFact(NamedTuple):
    relation: str
    head: int
    dependent: int


@dataclass(frozen=True)
class SentenceFacts:
    sentence_id: str
    tokens: tuple
    deps: frozenset
    source_text: str = ""
    _by_index: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    # the most dependency edges on a path from a token up to its root
    height: int = field(init=False, repr=False, compare=False, hash=False, default=0)

    def __post_init__(self):
        indices = [t.index for t in self.tokens]
        if indices != list(range(1, len(indices) + 1)):
            raise StructureError(
                "sentence %r: token indices must be consecutive from 1" % self.sentence_id
            )
        object.__setattr__(self, "_by_index", {t.index: t for t in self.tokens})
        object.__setattr__(self, "height", self._forest_height())

    def _forest_height(self):
        """The height of the dependency forest; a StructureError unless it is one."""
        parent, dependents = {}, {}
        for dep in self.deps:
            if dep.head not in self._by_index or dep.dependent not in self._by_index:
                raise StructureError(
                    "sentence %r: dependency %s points outside the sentence"
                    % (self.sentence_id, dep)
                )
            if parent.setdefault(dep.dependent, dep.head) != dep.head:
                raise StructureError(
                    "sentence %r: token %d has two heads" % (self.sentence_id, dep.dependent)
                )
            dependents.setdefault(dep.head, []).append(dep.dependent)
        # the tokens one edge below the roots, then two edges, ...: in a forest each
        # token with a head is on one level, and one on no level is on a cycle
        level = [d for head in dependents if head not in parent for d in dependents[head]]
        height = reached = 0
        while level:
            height += 1
            reached += len(level)
            level = [d for head in level for d in dependents.get(head, ())]
        if reached != len(parent):
            raise StructureError("sentence %r: cyclic dependency heads" % self.sentence_id)
        return height

    @cached_property
    def model(self):
        """The atoms ``engine.SENTENCE_RULES`` derives from the sentence's facts:
        its structure readings, their roles and its complements, grouped by
        predicate, without the facts themselves.

        Each dependency is a ``relation(head, dependent)`` fact.  Token tags
        are not facts of the program: no rule reads them, so an edge labelled
        ``pos_tag`` is an ordinary unknown relation.
        """
        groups = {}
        for dep in self.deps:
            groups.setdefault(dep.relation, []).append((dep.head, dep.dependent))
        return engine.derive(engine.FactIndex(groups), engine.SENTENCE_RULES)

    def token(self, index):
        return self._by_index[index]

    def pos(self, index):
        return self._by_index[index].pos

    def deps_with_head(self, head):
        """Dependency facts headed at the given token, in dependent order."""
        return sorted(
            (d for d in self.deps if d.head == head), key=lambda d: d.dependent
        )

    @property
    def root_indices(self):
        """Tokens that head something but depend on nothing (forest roots)."""
        dependents = {d.dependent for d in self.deps}
        heads = {d.head for d in self.deps}
        return sorted(heads - dependents)


def _normalize_pos(xpos, upos):
    if upos == "PUNCT":
        return "punct"
    if xpos and xpos != "_":
        tag = xpos.lower()
        if not tag[0].isalnum():
            return "punct"
        return tag
    if upos in UPOS_FALLBACK:
        return UPOS_FALLBACK[upos]
    if upos and upos != "_":
        return upos.lower()
    raise ConlluError("token with neither XPOS nor UPOS")


def _fallback_lemma(surface, pos):
    if pos == "nns":
        return morph.noun_lemma_from_plural(surface)
    if pos == "vbz":
        return morph.verb_lemma_from_3sg(surface)
    return surface


def parse_conllu(text):
    """Parse CoNLL-U text into a list of SentenceFacts.

    Sentences are blank-line separated blocks of 10-column rows.  ``# sent_id``
    and ``# text`` comments are honored when present; a block without a
    ``sent_id`` is named by its ordinal: s1, s2, ...
    """
    sentences = []
    block_lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() == "":
            if block_lines:
                sentences.append(_parse_block(block_lines, len(sentences)))
                block_lines = []
        else:
            block_lines.append((lineno, line))
    if block_lines:
        sentences.append(_parse_block(block_lines, len(sentences)))
    return sentences


def parse_conllu_file(path):
    """Parse a UTF-8 CoNLL-U file; an error in its text names the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_conllu(fh.read())
        except UnicodeDecodeError as exc:
            raise ConlluError("%s: %s" % (path, exc)) from None
        except (ConlluError, StructureError) as exc:
            raise type(exc)("%s: %s" % (path, exc)) from None


def _parse_block(lines, ordinal):
    sent_id = None
    source_text = ""
    tokens = []
    deps = []
    heads = {}
    for lineno, line in lines:
        if line.startswith("#"):
            comment = line[1:].strip()
            if "=" in comment:
                key, value = comment.split("=", 1)
                key = key.strip()
                if key == "sent_id":
                    sent_id = value.strip()
                elif key == "text":
                    source_text = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(
                "line %d: expected 10 tab-separated columns, got %d" % (lineno, len(cols))
            )
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue  # multiword range / empty node
        try:
            index = int(tok_id)
        except ValueError:
            raise ConlluError("line %d: non-integer token index %r" % (lineno, tok_id))
        try:
            pos = _normalize_pos(cols[4], cols[3])
            lemma = cols[2] if cols[2] not in ("", "_") else _fallback_lemma(cols[1], pos)
            tokens.append(Token(index, cols[1], lemma, pos))
        except ValueError as exc:  # no tag, or a tag or index that Token rejects
            raise ConlluError("line %d: %s" % (lineno, exc)) from None
        if cols[6] in ("", "_"):
            continue
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluError("line %d: non-integer head %r" % (lineno, cols[6]))
        deprel = cols[7]
        deprel = DEPREL_ALIASES.get(deprel, deprel)
        if head == 0 or deprel.lower() == "root":
            continue  # the root edge carries no fact
        heads[index] = (deprel, head)
    for index, (deprel, head) in heads.items():
        deps.append(DependencyFact(deprel, head, index))
    if sent_id is None:
        sent_id = "s%d" % (ordinal + 1)
    return SentenceFacts(
        sentence_id=sent_id,
        tokens=tuple(tokens),
        deps=frozenset(deps),
        source_text=source_text,
    )


def _fact_predicate(relation):
    # subtype separators are not valid in fact syntax
    return relation.replace(":", "_")


def facts_to_text(facts):
    """Render a sentence's facts as a deterministic one-fact-per-line program.

    Dependency facts come first in dependent order, then pos_tag facts in
    token order; every fact ends with "." and a newline.
    """
    out = []
    for dep in sorted(facts.deps, key=lambda d: (d.dependent, d.relation, d.head)):
        out.append("%s(%d,%d)." % (_fact_predicate(dep.relation), dep.head, dep.dependent))
    for tok in facts.tokens:
        out.append("pos_tag(%d,%s)." % (tok.index, tok.pos))
    return "".join(line + "\n" for line in out)
