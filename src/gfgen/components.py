"""Main-component role assignment and nested complement chunking.

The selected structure's clause shape maps a few words onto roles (sub, verb,
obj, ...), read from the same sentence model as the structure readings;
everything else hangs off those words as complements, read from that model at
each new position, which yields the maximal chunk of words supporting each
main component.
"""

from operator import attrgetter
from typing import NamedTuple

from .engine import COMPLEMENT_KINDS

# Determiners, possessives, auxiliaries, copulas and punctuation are never
# chunk members: the complement rules only consume compound/amod/conj/
# nmod+case/advmod, and subtype labels such as nmod:poss match nothing.
ROLE_ORDER = ("sub", "verb", "verb_1", "verb_2", "obj", "adj")

COPULAR_OBJ_TAGS = {"nn", "nns", "cd"}

class UnsupportedCopularComplement(ValueError):
    """Copular head tagged outside the supported jj/nn/nns/cd set."""

    def __init__(self, pos_tag):
        self.pos_tag = pos_tag
        super().__init__("unsupported copular complement with tag %r" % pos_tag)


class _RoleFields(NamedTuple):
    sub: int
    verb: int = None
    obj: int = None
    verb_1: int = None
    verb_2: int = None
    adj: int = None


class ComponentMap(_RoleFields):
    __slots__ = ()

    def __new__(cls, *args, **roles):
        self = super().__new__(cls, *args, **roles)
        filled = [v for v in self if v is not None]
        if len(filled) != len(set(filled)):
            raise ValueError("component roles must map distinct tokens")
        return self

    def as_dict(self):
        return {
            role: getattr(self, role)
            for role in ROLE_ORDER
            if getattr(self, role) is not None
        }


class ComplementAttachment(NamedTuple):
    kind: str  # one of COMPLEMENT_KINDS
    host: int
    dependent: int
    case_marker: int = None


class Attachment(NamedTuple):
    """A complement attachment carrying the sub-chunk built below it."""

    kind: str
    chunk: "Chunk"
    case_marker: int = None


class Chunk(NamedTuple):
    head: int
    lemma: str
    attachments: tuple = ()

    def token_set(self):
        out = {self.head}
        for att in self.attachments:
            out |= att.chunk.token_set()
        return out

    def to_dict(self):
        return {
            "head": self.head,
            "lemma": self.lemma,
            "attachments": [
                {
                    "kind": att.kind,
                    "case_marker": att.case_marker,
                    "chunk": att.chunk.to_dict(),
                }
                for att in self.attachments
            ],
        }


def _prefer_root(facts, candidates, anchor_role):
    """With coordinated clauses the one anchored at a parse root wins."""
    if not candidates:
        return None
    roots = set(facts.root_indices)
    candidates = sorted(candidates, key=lambda c: sorted(c.items()))
    for cand in candidates:
        if cand[anchor_role] in roots:
            return cand
    return candidates[0]


def main_components(facts, selected):
    """Role assignment for the selected reading, a row of ``engine.CLAUSE_SHAPES``.

    The sentence model holds the roles of every body that matched; those of
    the first matching body of the clause shape are kept.  The copular
    structure resolves its trailing component by tag: jj becomes an
    adjectival predicate, nn/nns/cd a nominal one; anything else is rejected.
    """
    rows = facts.model.by_first("roles").get(selected.kind, ())  # sorted by body position
    names = sorted(selected.roles)
    cands = [dict(zip(names, row[2:])) for row in rows if row[1] == rows[0][1]]
    chosen = _prefer_root(facts, cands, selected.anchor)
    if selected.kind == 4:
        head_tag = facts.pos(chosen["obj"])
        if head_tag == "jj":
            return ComponentMap(sub=chosen["sub"], adj=chosen["obj"])
        if head_tag not in COPULAR_OBJ_TAGS:
            raise UnsupportedCopularComplement(head_tag)
    return ComponentMap(**chosen)


def complements(facts, pos):
    """All complement attachments anchored at one token, in dependent order."""
    found = [
        ComplementAttachment(kind, *args)
        for kind in COMPLEMENT_KINDS  # in name order, each kind's facts sorted
        for args in facts.model.by_first(kind).get(pos, ())
    ]
    found.sort(key=attrgetter("dependent"))  # stable: (dependent, kind, args) order
    return found


def build_chunk(facts, head, _visited=None):
    """Recursive closure of complement discovery below one head token.

    Determiners, possessive pronouns, auxiliaries, copulas and punctuation are
    never chunk members; the visited set guards against malformed input.
    """
    visited = set() if _visited is None else _visited
    visited.add(head)
    attachments = []
    for att in complements(facts, head):
        if att.dependent in visited:
            continue
        sub = build_chunk(facts, att.dependent, visited)
        attachments.append(Attachment(att.kind, sub, att.case_marker))
    return Chunk(head, facts.token(head).lemma, tuple(attachments))


def conjunction_word(facts, host, dependent):
    """The coordinator for a conjunction attachment ("and" unless cc says else)."""
    for cc_host in (dependent, host):
        for dep in facts.deps_with_head(cc_host):
            if dep.relation == "cc":
                return facts.token(dep.dependent).lemma.lower()
    return "and"
