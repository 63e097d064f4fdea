"""Forward-chaining evaluation of the stratified rule families.

Each sentence is analysed by one program, the structure rules plus the
complement rules, evaluated once; the main-components family is kept beside
it.  The rules are positive and choice-free in effect, so a least fixpoint
over ground facts replaces a full ASP solver.  Heads with cardinality bounds
are definite: every head atom is derived once the body matches.

Terms are plain ints or lowercase symbol strings; identifiers starting with
an uppercase letter are variables.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Atom:
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


@dataclass(frozen=True)
class Model:
    """Least fixpoint of a rule family: input facts plus derived atoms.

    ``derived`` holds the atoms rule heads produced, whether or not an input
    fact equals one, so an input relation named like a head predicate is
    never read as a derived atom.
    """

    atoms: frozenset
    derived: frozenset

    def derived_with(self, predicate):
        return {a for a in self.derived if a.predicate == predicate}


def is_variable(term):
    return isinstance(term, str) and term[:1].isupper()


def _match_atom(pattern, fact, subst):
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    out = dict(subst)
    for pat, val in zip(pattern.args, fact.args):
        if is_variable(pat):
            if pat in out:
                if out[pat] != val:
                    return None
            else:
                out[pat] = val
        elif pat != val:
            return None
    return out


class FactIndex:
    """Ground facts grouped for rule evaluation, each group sorted once.

    ``by_predicate`` holds each predicate's facts in argument order and
    ``by_first`` each (predicate, first argument) subsequence of those lists,
    so a lookup through either sees the facts in the same order.
    """

    def __init__(self, facts):
        self.facts = frozenset(facts)
        self.by_predicate = {}
        for f in self.facts:
            self.by_predicate.setdefault(f.predicate, []).append(f)
        self.by_first = {}
        for group in self.by_predicate.values():
            group.sort(key=lambda a: a.args)
            for f in group:
                if f.args:
                    self.by_first.setdefault((f.predicate, f.args[0]), []).append(f)


def _index(facts):
    return facts if isinstance(facts, FactIndex) else FactIndex(facts)


def bindings(facts, body):
    """All substitutions satisfying a conjunctive body, deterministically ordered.

    ``facts`` is a FactIndex or any collection of ground atoms.  A pattern
    whose first argument is a constant or already bound is matched against
    that argument's facts only.
    """
    index = _index(facts)
    results = [dict()]
    for pattern in body:
        first = pattern.args[0] if pattern.args else None
        first_is_var = not pattern.args or is_variable(first)
        next_results = []
        for subst in results:
            if first_is_var and first not in subst:
                candidates = index.by_predicate.get(pattern.predicate, ())
            else:
                key = subst[first] if first_is_var else first
                candidates = index.by_first.get((pattern.predicate, key), ())
            for fact in candidates:
                extended = _match_atom(pattern, fact, subst)
                if extended is not None:
                    next_results.append(extended)
        results = next_results
        if not results:
            break
    return results


def _substitute(head, subst):
    args = tuple(subst.get(a, a) if is_variable(a) else a for a in head.args)
    if any(is_variable(a) for a in args):
        raise ValueError("unsafe rule head: %s not fully bound" % head)
    return Atom(head.predicate, args)


def derive(facts, rules):
    """Least fixpoint of a rule list over ground facts (a set or a FactIndex).

    When no head predicate occurs in a body, no rule can feed another, so one
    pass reaches the fixpoint; otherwise passes repeat over a fresh index
    until one derives nothing new.
    """
    index = _index(facts)
    heads = {h.predicate for r in rules for h in r.heads}
    recursive = any(b.predicate in heads for r in rules for b in r.body)
    while True:
        derived = frozenset(
            _substitute(head, subst)
            for r in rules
            for subst in bindings(index, r.body)
            for head in r.heads
        )
        atoms = index.facts | derived
        if not (recursive and len(atoms) > len(index.facts)):
            return Model(atoms=atoms, derived=derived)
        index = FactIndex(atoms)


def model_to_text(model):
    """Debug rendering of derived atoms, one fact per line."""
    lines = sorted(str(a) + "." for a in model.derived)
    return "".join(line + "\n" for line in lines)


# --- rule families ----------------------------------------------------------

# Structure recognition.  A nominal subject (active or passive) always yields
# the simplest reading, kind 1; the other kinds consume more relations.
STRUCTURE_RULES = (
    rule([atom("structure", 1, 1)], [atom("nsubj", "V", "S")]),
    rule([atom("structure", 1, 1)], [atom("nsubjpass", "V", "S")]),
    rule(
        [atom("structure", 2, 2)],
        [atom("nsubj", "V", "S"), atom("dobj", "V", "O")],
    ),
    rule(
        [atom("structure", 3, 3)],
        [atom("nsubj", "V1", "S"), atom("xcomp", "V1", "V2"), atom("dobj", "V2", "O")],
    ),
    rule(
        [atom("structure", 4, 2)],
        [atom("nsubj", "O", "S"), atom("cop", "O", "TOBE")],
    ),
    rule(
        [atom("structure", 5, 2)],
        [atom("nsubjpass", "V", "S"), atom("auxpass", "V", "TOBE")],
    ),
)

# Main components per structure.  The copular structure needs the trailing
# component's tag to decide between an adjectival and a nominal predicate.
COMPONENT_RULES = (
    rule([atom("sub", "S"), atom("verb", "V")], [atom("nsubj", "V", "S")]),
    rule(
        [atom("sub", "S"), atom("obj", "O"), atom("verb", "V")],
        [atom("nsubj", "V", "S"), atom("dobj", "V", "O")],
    ),
    rule(
        [atom("sub", "S"), atom("verb", "V")],
        [atom("nsubjpass", "V", "S"), atom("auxpass", "V", "TOBE")],
    ),
    rule(
        [atom("sub", "S"), atom("obj", "O"), atom("verb_1", "V1"), atom("verb_2", "V2")],
        [atom("nsubj", "V1", "S"), atom("xcomp", "V1", "V2"), atom("dobj", "V2", "O")],
    ),
    rule(
        [atom("sub", "S"), atom("adj", "O")],
        [atom("nsubj", "O", "S"), atom("pos_tag", "O", "jj")],
    ),
    rule(
        [atom("sub", "S"), atom("obj", "O")],
        [atom("nsubj", "O", "S"), atom("pos_tag", "O", "nn")],
    ),
    rule(
        [atom("sub", "S"), atom("obj", "O")],
        [atom("nsubj", "O", "S"), atom("pos_tag", "O", "nns")],
    ),
    rule(
        [atom("sub", "S"), atom("obj", "O")],
        [atom("nsubj", "O", "S"), atom("pos_tag", "O", "cd")],
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

# The program each sentence is analysed with; no head feeds a body, so one
# pass reaches its fixpoint.
SENTENCE_RULES = STRUCTURE_RULES + COMPLEMENT_RULES

FAMILIES = {
    "structure": STRUCTURE_RULES,
    "components": COMPONENT_RULES,
    "complements": COMPLEMENT_RULES,
    "sentence": SENTENCE_RULES,
}


def derive_family(facts, family):
    """Evaluate a named rule family (a key of FAMILIES)."""
    if family not in FAMILIES:
        raise KeyError("unknown rule family %r" % family)
    return derive(facts, FAMILIES[family])


def sentence_atoms(facts):
    """The fact atoms of a sentence: dependencies plus pos_tag atoms."""
    out = set()
    for dep in facts.deps:
        out.add(Atom(dep.relation, (dep.head, dep.dependent)))
    for tok in facts.tokens:
        out.add(Atom("pos_tag", (tok.index, tok.pos)))
    return frozenset(out)
