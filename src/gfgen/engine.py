"""Forward-chaining evaluation of the sentence program.

One table, CLAUSE_SHAPES, states the five clause shapes; the shape rules are
generated from it.  Each sentence is analysed by one program, SENTENCE_RULES:
the shape rules plus the complement rules, evaluated once.  A matching shape
body yields its structure reading and its role tokens together.  The rules
are positive and choice-free in effect, and no head predicate occurs in a
body, so a single pass over the ground facts derives the whole model and
replaces a full ASP solver.  Heads with cardinality bounds are definite:
every head atom is derived once the body matches.

Terms are plain ints or lowercase symbol strings; identifiers starting with
an uppercase letter are variables.  A rule body is a path of binary
relations down the dependency tree: each atom holds two distinct variables,
and each atom after the first starts at a variable an earlier one bound and
binds a new one.  A Program rejects any other body and compiles each path
once into a walk, so matching a fact is one lookup by a bound value.  Facts
are indexed as argument tuples grouped by predicate, and a model is indexed
the same way: the derived atoms alone, apart from the facts they came from.
"""

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple


class Atom(NamedTuple):
    predicate: str
    args: tuple

    def __str__(self):
        return "%s(%s)" % (self.predicate, ",".join(str(a) for a in self.args))


def atom(predicate, *args):
    return Atom(predicate, tuple(args))


@dataclass(frozen=True)
class Rule:
    heads: tuple  # every head atom is derived when the body matches
    body: tuple


def rule(heads, body):
    return Rule(tuple(heads), tuple(body))


def is_variable(term):
    return isinstance(term, str) and term[:1].isupper()


class FactIndex:
    """Ground facts as argument tuples grouped by predicate, each group sorted once.

    Built from {predicate: [argument tuple, ...]} without repeats; the lists
    are sorted in place.  ``by_predicate`` maps a predicate to its facts'
    argument tuples in order; ``by_first`` gives a predicate's {first
    argument: the subsequence of that list starting with it}, so a lookup
    through either sees the facts in the same order.
    """

    __slots__ = ("by_predicate", "_by_first")

    def __init__(self, groups):
        for group in groups.values():
            group.sort()
        self.by_predicate = groups
        self._by_first = {}

    def by_first(self, predicate):
        """{first argument: facts} of one predicate, built on first use."""
        firsts = self._by_first.get(predicate)
        if firsts is None:
            firsts = self._by_first[predicate] = {}
            for args in self.by_predicate.get(predicate, ()):
                firsts.setdefault(args[0], []).append(args)
        return firsts


def _picker(slots):
    """The function from a row to the tuple of its items at ``slots``."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda row: tuple(row[s] for s in slots)


class Plan:
    """A path body compiled once into a walk in body order.

    A row holds every constant of ``heads``, then both arguments of the first
    body atom, then the second argument of each later one.  The facts of
    ``first`` start the rows; each later step, (predicate, slot), extends a
    row by the facts whose first argument is the row's value at ``slot``.
    ``heads`` become (predicate, picker of the argument tuple) pairs.  A
    body that is not a path raises ValueError naming the atom.
    """

    __slots__ = ("first", "row", "steps", "heads")

    def __init__(self, body, heads):
        if not body:
            raise ValueError("empty rule body for %s" % ", ".join(map(str, heads)))
        self.first = body[0].predicate
        self.row = tuple(t for h in heads for t in h.args if not is_variable(t))
        slots = {}
        self.steps = []
        for pattern in body:
            args = pattern.args
            if len(args) != 2 or not all(map(is_variable, args)) or args[0] == args[1]:
                raise ValueError("body atom %s is not over two distinct variables" % (pattern,))
            if slots and (args[0] not in slots or args[1] in slots):
                raise ValueError("body atom %s does not extend the path" % (pattern,))
            if slots:
                self.steps.append((pattern.predicate, slots[args[0]]))
            else:
                slots[args[0]] = len(self.row)
            slots[args[1]] = len(self.row) + len(slots)
        self.heads = []
        constants = iter(range(len(self.row)))
        for head in heads:
            if any(is_variable(t) and t not in slots for t in head.args):
                raise ValueError("unsafe rule head: %s not fully bound" % (head,))
            picked = [slots[t] if is_variable(t) else next(constants) for t in head.args]
            self.heads.append((head.predicate, _picker(picked)))


class Program(tuple):
    """A rule list with each rule compiled into a Plan once.

    No rule may feed another: a list where some head predicate occurs in a
    body raises ValueError, so one pass over the facts derives every atom.
    So does a rule whose body is not a path (see Plan).
    """

    def __new__(cls, rules):
        self = super().__new__(cls, rules)
        heads = {h.predicate for r in self for h in r.heads}
        fed = sorted(heads.intersection(b.predicate for r in self for b in r.body))
        if fed:
            raise ValueError("head predicate %s occurs in a rule body" % ", ".join(fed))
        self.plans = tuple(Plan(r.body, r.heads) for r in self)
        return self


def derive(index, program):
    """The atoms a Program derives from the ground facts of a FactIndex, as a
    FactIndex of their own.

    Every rule is matched once against the facts, walking its plan; no head
    predicate occurs in a body, so no derived atom can match another rule.
    A rule whose first body predicate has no fact is skipped, and a walk
    stops at the first step that keeps no row.  Every atom a head produces
    is kept, whether or not an input fact equals it, so an input relation
    named like a head predicate is never read as a derived atom.
    """
    derived = {}
    for plan in program.plans:
        facts = index.by_predicate.get(plan.first)
        if not facts:
            continue
        rows = [plan.row + args for args in facts]
        for predicate, slot in plan.steps:
            firsts = index.by_first(predicate)
            rows = [row + (args[1],) for row in rows for args in firsts.get(row[slot], ())]
            if not rows:
                break
        else:  # every step kept a row
            for predicate, pick in plan.heads:
                derived.setdefault(predicate, set()).update(map(pick, rows))
    return FactIndex({p: list(group) for p, group in derived.items()})


def model_to_text(model, predicate):
    """Debug rendering of a model's atoms of one predicate, one fact per line."""
    group = model.by_predicate.get(predicate, ())
    lines = sorted(str(Atom(predicate, args)) + "." for args in group)
    return "".join(line + "\n" for line in lines)


# --- the sentence program ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClauseShape:
    """One clause shape: how it is recognized, which tokens fill its roles and
    the GF clause it builds.

    ``bodies`` are the dependency patterns that recognize it; the first one
    that matches binds the roles, and its i-value is the number of relations
    a body consumes.  ``roles`` maps each role to a body variable, and
    ``anchor`` is the role that must sit at a parse root when clauses
    coordinate.
    ``verbs`` gives each verb role its GF category, and ``skeleton`` is the
    clause as a constructor tree whose leaves are roles.
    """

    kind: int
    bodies: tuple
    roles: dict
    anchor: str
    verbs: dict
    skeleton: tuple

    @property
    def i_value(self):
        return len(self.bodies[0])


# The five clause shapes, most specific first: a tie on i-value goes to the
# earlier row.  A nominal subject, active or passive, always yields kind 1.
# The copula's complement O fills the obj role; components.main_components
# reads its tag to make it an adjectival predicate instead.
CLAUSE_SHAPES = (
    ClauseShape(  # verb complement
        3, ((atom("nsubj", "V1", "S"), atom("xcomp", "V1", "V2"), atom("dobj", "V2", "O")),),
        {"sub": "S", "verb_1": "V1", "verb_2": "V2", "obj": "O"}, "verb_1",
        {"verb_1": "VV", "verb_2": "V2"},
        ("mkCl", "sub", ("mkVP", "verb_1", ("mkVP", "verb_2", "obj"))),
    ),
    ClauseShape(  # transitive
        2, ((atom("nsubj", "V", "S"), atom("dobj", "V", "O")),),
        {"sub": "S", "verb": "V", "obj": "O"}, "verb",
        {"verb": "V2"},
        ("mkCl", "sub", ("mkVP", "verb", "obj")),
    ),
    ClauseShape(  # passive
        5, ((atom("nsubjpass", "V", "S"), atom("auxpass", "V", "TOBE")),),
        {"sub": "S", "verb": "V"}, "verb",
        {"verb": "V2"},
        ("mkCl", "sub", ("passiveVP", "verb")),
    ),
    ClauseShape(  # copular
        4, ((atom("nsubj", "O", "S"), atom("cop", "O", "TOBE")),),
        {"sub": "S", "obj": "O"}, "obj",
        {},
        ("mkCl", "sub", "obj"),
    ),
    ClauseShape(  # intransitive
        1, ((atom("nsubj", "V", "S"),), (atom("nsubjpass", "V", "S"),)),
        {"sub": "S", "verb": "V"}, "verb",
        {"verb": "V"},
        ("mkCl", "sub", ("mkVP", "verb")),
    ),
)


# Complement discovery.  Each head carries the host word it attaches to; the
# preposition rule pairs an nmod (or its UD-v2 spelling, obl) with the
# dependent's case marker.
COMPLEMENT_RULES = (
    rule([atom("noun_compound", "H", "N")], [atom("compound", "H", "N")]),
    rule([atom("adj_mod", "H", "JJ")], [atom("amod", "H", "JJ")]),
    rule([atom("noun_conjunction", "H", "N")], [atom("conj", "H", "N")]),
    rule(
        [atom("preposition", "H", "COMP", "IN")],
        [atom("nmod", "H", "COMP"), atom("case", "COMP", "IN")],
    ),
    rule(
        [atom("preposition", "H", "COMP", "IN")],
        [atom("obl", "H", "COMP"), atom("case", "COMP", "IN")],
    ),
    rule([atom("adverbial_modifier", "H", "ADV")], [atom("advmod", "H", "ADV")]),
)
COMPLEMENT_KINDS = tuple(sorted({h.predicate for r in COMPLEMENT_RULES for h in r.heads}))

# The program each sentence is analysed with: every body of every clause shape
# derives its reading, ``structure(kind, i-value)``, and its roles,
# ``roles(kind, body position, token per role)`` with the roles sorted by name,
# beside the complements.
SENTENCE_RULES = Program((
    *(
        rule(
            [
                atom("structure", s.kind, s.i_value),
                atom("roles", s.kind, i, *(s.roles[r] for r in sorted(s.roles))),
            ],
            body,
        )
        for s in CLAUSE_SHAPES
        for i, body in enumerate(s.bodies)
    ),
    *COMPLEMENT_RULES,
))
