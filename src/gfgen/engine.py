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
an uppercase letter are variables.  A rule list is compiled once into a
Program: each body becomes a join plan over fixed row slots, so matching a
fact is tuple indexing.  Facts are indexed as argument tuples grouped by
predicate, and a model is indexed the same way: the derived atoms alone,
apart from the facts they came from.
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

    ``by_predicate`` maps a predicate to its facts' argument tuples in order;
    ``by_first`` gives a predicate's {first argument: the subsequence of that
    list starting with it}, so a lookup through either sees the facts in the
    same order.
    """

    __slots__ = ("by_predicate", "_by_first")

    def __init__(self, atoms=()):
        groups = {}
        for a in frozenset(atoms):
            groups.setdefault(a.predicate, []).append(a.args)
        self._fill(groups)

    @classmethod
    def of_groups(cls, groups):
        """The index of {predicate: [argument tuple, ...]} without repeats; sorts the lists."""
        index = cls.__new__(cls)
        index._fill(groups)
        return index

    def _fill(self, groups):
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
                if args:
                    firsts.setdefault(args[0], []).append(args)
        return firsts


def _index(facts):
    return facts if isinstance(facts, FactIndex) else FactIndex(facts)


def _picker(slots):
    """The function from a tuple to the tuple of its items at ``slots``."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda row: (row[slot],)
    return itemgetter(*slots) if slots else lambda row: ()


class Plan:
    """A conjunctive body compiled once into a join in body order.

    A row holds one value per slot: first every constant of the body and of
    ``heads``, then each variable in order of first occurrence.  A step reads
    its predicate's facts, or only those whose first argument equals an
    already filled slot, appends the values of the variables it binds and
    keeps the row when every other position equals its slot.  ``heads``
    become (predicate, picker of the argument tuple) pairs.
    """

    __slots__ = ("first", "row", "steps", "heads")

    def __init__(self, body, heads=()):
        terms = [t for a in (*body, *heads) for t in a.args]
        self.row = tuple(t for t in terms if not is_variable(t))
        constants = iter(range(len(self.row)))
        variables = {}

        def slots(pattern):
            return [
                variables.setdefault(t, len(self.row) + len(variables))
                if is_variable(t)
                else next(constants)
                for t in pattern.args
            ]

        self.steps = []
        for pattern in body:
            filled = len(self.row) + len(variables)
            args = slots(pattern)
            first = args[0] if args and args[0] < filled else None
            new = [i for i, s in enumerate(args) if s >= filled and s not in args[:i]]
            # the first position is new or was looked up; it needs no test
            tests = tuple((i, s) for i, s in enumerate(args) if i and i not in new)
            self.steps.append((pattern.predicate, len(args), first, tests, _picker(new)))
        self.first = body[0].predicate if body else None
        self.heads = []
        for head in heads:
            if any(is_variable(t) and t not in variables for t in head.args):
                raise ValueError("unsafe rule head: %s not fully bound" % (head,))
            self.heads.append((head.predicate, _picker(slots(head))))

    def rows(self, index):
        """Every row that satisfies the body over a FactIndex, in fact order."""
        rows = [self.row]
        for predicate, arity, first, tests, take in self.steps:
            if first is None:
                facts = index.by_predicate.get(predicate, ())
            else:
                facts = index.by_first(predicate)
            extended = []
            for row in rows:
                for args in facts if first is None else facts.get(row[first], ()):
                    if len(args) != arity:
                        continue
                    new = row + take(args)
                    for i, s in tests:
                        if args[i] != new[s]:
                            break
                    else:
                        extended.append(new)
            rows = extended
            if not rows:
                break
        return rows


class Program(tuple):
    """A rule list with each rule compiled into a Plan once.

    No rule may feed another: a list where some head predicate occurs in a
    body raises ValueError, so one pass over the facts derives every atom.
    """

    def __new__(cls, rules):
        self = super().__new__(cls, rules)
        heads = {h.predicate for r in self for h in r.heads}
        fed = sorted(heads.intersection(b.predicate for r in self for b in r.body))
        if fed:
            raise ValueError("head predicate %s occurs in a rule body" % ", ".join(fed))
        self.plans = tuple(Plan(r.body, r.heads) for r in self)
        return self


def derive(facts, rules):
    """The atoms a rule list (or Program) derives from ground facts (a set or a
    FactIndex), as a FactIndex of their own.

    Every rule is matched once against the facts; no head predicate occurs in
    a body, so no derived atom can match another rule.  A rule whose first
    body predicate has no fact is skipped.  Every atom a head produces is
    kept, whether or not an input fact equals it, so an input relation named
    like a head predicate is never read as a derived atom.
    """
    index = _index(facts)
    program = rules if isinstance(rules, Program) else Program(rules)
    derived = {}
    for plan in program.plans:
        if plan.first is None or plan.first in index.by_predicate:
            rows = plan.rows(index)
            if rows:
                for predicate, pick in plan.heads:
                    derived.setdefault(predicate, set()).update(map(pick, rows))
    return FactIndex.of_groups({p: list(group) for p, group in derived.items()})


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
COMPLEMENT_RULES = Program((
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
))
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
