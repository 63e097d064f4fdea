import itertools
import random
import re

import pytest

from gfgen import engine
from gfgen.components import (
    ComponentMap,
    UnsupportedCopularComplement,
    _prefer_root,
    main_components,
)
from gfgen.engine import SENTENCE_RULES, Atom, atom, derive, is_variable
from gfgen.ingest import parse_conllu, parse_conllu_file
from gfgen.structure import SHAPES, recognize

# every Program the engine module defines, so the oracles cover a program added later
PROGRAMS = {name: v for name, v in vars(engine).items() if isinstance(v, engine.Program)}


def index(facts):
    """The FactIndex of a set of atoms."""
    groups = {}
    for a in set(facts):
        groups.setdefault(a.predicate, []).append(a.args)
    return engine.FactIndex(groups)


def atoms(model):
    """The atoms of a model (a FactIndex), as a set."""
    return {Atom(p, args) for p, group in model.by_predicate.items() for args in group}


def structures(model):
    return set(model.by_predicate.get("structure", ()))


BILL_FACTS = frozenset(
    [
        atom("nsubj", 2, 1),
        atom("det", 4, 3),
        atom("dobj", 2, 4),
        atom("punct", 2, 5),
        atom("pos_tag", 1, "prp"),
        atom("pos_tag", 2, "vbp"),
        atom("pos_tag", 3, "dt"),
        atom("pos_tag", 4, "nn"),
        atom("pos_tag", 5, "punct"),
    ]
)


def test_bill_game_structures():
    model = derive(index(BILL_FACTS), SENTENCE_RULES)
    assert structures(model) == {(1, 1), (2, 2)}


def test_empty_fact_set():
    assert set(PROGRAMS) == {"SENTENCE_RULES"}
    for program in PROGRAMS.values():
        assert derive(index(()), program).by_predicate == {}


def test_copular_structures():
    facts = frozenset([atom("nsubj", 3, 1), atom("cop", 3, 2), atom("pos_tag", 3, "jj")])
    model = derive(index(facts), SENTENCE_RULES)
    assert structures(model) == {(1, 1), (4, 2)}


def test_component_heads_are_conjunctive():
    # roles(kind, body position, token per role in name order): one head binds
    # every role of a matching body, beside its reading; transitive is (obj, sub, verb)
    model = derive(index(BILL_FACTS), SENTENCE_RULES)
    assert model.by_predicate == {
        "structure": [(1, 1), (2, 2)],
        "roles": [(1, 0, 1, 2), (2, 0, 4, 1, 2)],
    }


def test_complements_anchor_position():
    facts = frozenset(
        [
            atom("amod", 6, 4),
            atom("compound", 6, 5),
            atom("nmod", 6, 10),
            atom("case", 10, 7),
            atom("amod", 10, 9),
        ]
    )
    model = derive(index(facts), SENTENCE_RULES)
    derived = {(a.predicate, a.args) for a in atoms(model)}
    assert {(p, args[1:]) for p, args in derived if args[0] == 6} == {
        ("adj_mod", (4,)),
        ("noun_compound", (5,)),
        ("preposition", (10, 7)),
    }
    assert {(p, args[1:]) for p, args in derived if args[0] == 10} == {("adj_mod", (9,))}
    assert {args[0] for _, args in derived} == {6, 10}


def test_monotonicity():
    extra = frozenset([atom("nsubjpass", 7, 6), atom("auxpass", 7, 8)])
    small = derive(index(BILL_FACTS), SENTENCE_RULES)
    big = derive(index(BILL_FACTS | extra), SENTENCE_RULES)
    assert atoms(small) < atoms(big)


def test_fixpoint_is_stable():
    model = derive(index(BILL_FACTS), SENTENCE_RULES)
    again = derive(index(atoms(model) | BILL_FACTS), SENTENCE_RULES)
    assert again.by_predicate == model.by_predicate


def _brute_force(facts, rules):
    """Ground every rule over the constant universe and iterate to fixpoint; the
    ground heads of every rule instance whose body holds."""
    atoms = set(facts)
    derived = set()
    constants = sorted(
        {arg for a in atoms for arg in a.args}, key=lambda x: (str(type(x)), str(x))
    )
    changed = True
    while changed:
        changed = False
        for r in rules:
            variables = sorted({t for b in r.body for t in b.args if is_variable(t)})
            for combo in itertools.product(constants, repeat=len(variables)):
                subst = dict(zip(variables, combo))
                grounded = [
                    Atom(b.predicate, tuple(subst.get(t, t) for t in b.args)) for b in r.body
                ]
                if all(g in atoms for g in grounded):
                    for h in r.heads:
                        ground_head = Atom(h.predicate, tuple(subst.get(t, t) for t in h.args))
                        derived.add(ground_head)
                        if ground_head not in atoms:
                            atoms.add(ground_head)
                            changed = True
    return derived


def _check_against_brute_force(facts):
    for name, program in PROGRAMS.items():
        model = derive(index(facts), program)
        assert atoms(model) == _brute_force(facts, program), (name, sorted(map(str, facts)))
        for group in model.by_predicate.values():
            assert group == sorted(set(group)), name


def test_brute_force_grounder_equivalence():
    rng = random.Random(20240901)
    relations = ["nsubj", "dobj", "xcomp", "cop", "nsubjpass", "auxpass", "compound", "amod"]
    tags = ["jj", "nn", "nns", "cd", "vbz"]
    for _ in range(25):
        n_tokens = rng.randint(2, 12)
        facts = set()
        for _ in range(rng.randint(1, 10)):
            rel = rng.choice(relations)
            facts.add(atom(rel, rng.randint(1, n_tokens), rng.randint(1, n_tokens)))
        for i in range(1, n_tokens + 1):
            facts.add(atom("pos_tag", i, rng.choice(tags)))
        _check_against_brute_force(frozenset(facts))


def test_complements_brute_force_equivalence():
    rng = random.Random(20261018)
    relations = ["compound", "amod", "conj", "nmod", "obl", "case", "advmod"]
    for _ in range(25):
        n_tokens = rng.randint(2, 10)
        facts = frozenset(
            atom(rng.choice(relations), rng.randint(1, n_tokens), rng.randint(1, n_tokens))
            for _ in range(rng.randint(1, 14))
        )
        _check_against_brute_force(facts)


def test_recursive_rules_are_rejected():
    closure = (
        engine.rule([atom("path", "X", "Y")], [atom("edge", "X", "Y")]),
        engine.rule([atom("path", "X", "Z")], [atom("path", "X", "Y"), atom("edge", "Y", "Z")]),
    )
    with pytest.raises(ValueError, match="path"):
        engine.Program(closure)
    with pytest.raises(ValueError, match="path"):
        derive(index(atom("edge", i, i + 1) for i in range(1, 6)), engine.Program(closure))


def _naive_bindings(facts, body):
    """Nested loops over every fact, sorted by predicate and arguments."""
    ordered = sorted(facts, key=lambda a: (a.predicate, a.args))
    results = [{}]
    for pattern in body:
        extended = []
        for subst in results:
            for fact in ordered:
                if fact.predicate != pattern.predicate or len(fact.args) != len(pattern.args):
                    continue
                out = dict(subst)
                for term, value in zip(pattern.args, fact.args):
                    bound = out.setdefault(term, value) if is_variable(term) else term
                    if bound != value:
                        break
                else:
                    extended.append(out)
        results = extended
    return results


def _variables(body):
    return tuple(dict.fromkeys(t for b in body for t in b.args if is_variable(t)))


def _matches(facts, body):
    """What one rule over ``body`` derives, its head listing every body variable."""
    program = engine.Program([engine.rule([Atom("match", _variables(body))], body)])
    return atoms(derive(index(facts), program))


def _naive_matches(facts, body):
    variables = _variables(body)
    return {Atom("match", tuple(s[v] for v in variables)) for s in _naive_bindings(facts, body)}


def test_bindings_are_deterministic():
    facts = frozenset([atom("nsubj", 2, 1), atom("nsubj", 5, 4)])
    body = [atom("nsubj", "V", "S")]
    assert _matches(facts, body) == {atom("match", 2, 1), atom("match", 5, 4)}
    assert _matches(sorted(facts, reverse=True), body) == _matches(facts, body)

    # later patterns have their first argument bound by an earlier one
    facts = frozenset(
        [
            atom("nmod", 6, 10),
            atom("nmod", 2, 6),
            atom("nmod", 6, 8),
            atom("case", 10, 7),
            atom("case", 8, 7),
            atom("case", 10, 9),
            atom("case", 6, 3),
            atom("amod", 10, 11),
            atom("amod", 8, 12),
            atom("amod", 6, 5),
            atom("pos_tag", 6, "nn"),
            atom("pos_tag", 10, "nns"),
        ]
    )
    body = [atom("nmod", "H", "C"), atom("case", "C", "M"), atom("amod", "C", "A")]
    expected = _naive_matches(facts, body)
    assert len(expected) == 4
    assert _matches(facts, body) == expected


def test_bindings_equal_naive_bindings_on_random_bodies():
    rng = random.Random(20261019)
    predicates = ["p", "q", "r"]
    seen = set()
    for _ in range(600):
        facts = frozenset(
            atom(rng.choice(predicates), rng.randint(1, 4), rng.randint(1, 4))
            for _ in range(rng.randint(0, 14))
        )
        # each later atom starts at a variable an earlier atom bound and binds a new one
        variables = ["V0", "V1"]
        body = [atom(rng.choice(predicates), "V0", "V1")]
        for _ in range(rng.randint(0, 2)):
            start = rng.choice(variables)
            seen.add("chain" if start == variables[-1] else "fork")
            variables.append("V%d" % len(variables))
            body.append(atom(rng.choice(predicates), start, variables[-1]))
        expected = _naive_matches(facts, body)
        assert _matches(facts, body) == expected, (sorted(map(str, facts)), body)
        seen.add("match" if expected else "no match")
    assert seen == {"chain", "fork", "match", "no match"}


# one body per shape a Program rejects, with the atom the error names
NON_PATH_BODIES = {
    "empty": ([], "empty rule body"),
    "constant first": (
        [atom("nmod", 6, "C"), atom("case", "C", "M")],
        "nmod(6,C)",
    ),
    "constant later": (
        [atom("nmod", "H", "C"), atom("case", "C", "M"), atom("pos_tag", "C", "nns")],
        "pos_tag(C,nns)",
    ),
    "unary": ([atom("nsubj", "V", "S"), atom("root", "V")], "root(V)"),
    "ternary": ([atom("preposition", "H", "C", "M")], "preposition(H,C,M)"),
    "repeated variable": ([atom("nsubj", "V", "S"), atom("conj", "S", "S")], "conj(S,S)"),
    "first argument unbound": (
        [atom("nsubj", "V", "S"), atom("dobj", "W", "O")],
        "dobj(W,O)",
    ),
    "second argument bound": (
        [atom("nsubj", "V", "S"), atom("xcomp", "S", "V")],
        "xcomp(S,V)",
    ),
}


@pytest.mark.parametrize("shape", sorted(NON_PATH_BODIES))
def test_program_rejects_non_path_bodies(shape):
    body, named = NON_PATH_BODIES[shape]
    head = Atom("match", _variables(body))
    with pytest.raises(ValueError, match=re.escape(named)):
        engine.Program([engine.rule([head], body)])


def _reference_roles(facts, reading):
    """Roles from the naive grounder over the first matching body of the
    reading's shape, then the root preference and the copular tag rule."""
    atoms = [atom(d.relation, d.head, d.dependent) for d in facts.deps]
    for body in reading.bodies:
        cands = [
            {role: subst[var] for role, var in reading.roles.items()}
            for subst in _naive_bindings(atoms, body)
        ]
        if cands:
            break
    chosen = _prefer_root(facts, cands, reading.anchor)
    if reading.kind == 4:
        tag = facts.pos(chosen["obj"])
        if tag == "jj":
            return ComponentMap(sub=chosen["sub"], adj=chosen["obj"])
        if tag not in {"nn", "nns", "cd"}:
            raise UnsupportedCopularComplement(tag)
    return ComponentMap(**chosen)


# "Games are played and Bill sleeps.": both intransitive bodies match, and only
# the second one's verb is a parse root
BOTH_INTRANSITIVE_BODIES = "".join(
    "%d\t%s\t%s\t_\t%s\t_\t%d\t%s\t_\t_\n" % row
    for row in [
        (1, "Games", "game", "NNS", 3, "nsubjpass"),
        (2, "are", "be", "VBP", 3, "auxpass"),
        (3, "played", "play", "VBN", 0, "root"),
        (4, "and", "and", "CC", 6, "cc"),
        (5, "Bill", "Bill", "NNP", 6, "nsubj"),
        (6, "sleeps", "sleep", "VBZ", 3, "conj"),
    ]
)


def test_roles_of_every_corpus_reading_equal_naive_bindings(fixtures_dir):
    sentences = [
        facts
        for path in sorted((fixtures_dir / "corpus").glob("*/sentences.conllu"))
        for facts in parse_conllu_file(path)
    ]
    (coordinated,) = parse_conllu(BOTH_INTRANSITIVE_BODIES)
    kinds = set()
    for facts in sentences + [coordinated]:
        for reading in sorted(recognize(facts), key=lambda s: s.kind):
            kinds.add(reading.kind)
            try:
                expected = _reference_roles(facts, reading)
            except UnsupportedCopularComplement as exc:
                with pytest.raises(UnsupportedCopularComplement) as raised:
                    main_components(facts, reading)
                assert raised.value.pos_tag == exc.pos_tag
                continue
            assert main_components(facts, reading) == expected, (facts.sentence_id, reading)
    assert kinds == {1, 2, 3, 4, 5}
    assert main_components(coordinated, SHAPES[1]).as_dict() == {"sub": 5, "verb": 6}


def test_model_to_text():
    model = derive(index([atom("nsubj", 2, 1)]), SENTENCE_RULES)
    assert engine.model_to_text(model, "structure") == "structure(1,1).\n"
