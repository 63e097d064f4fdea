import copy
import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from gfgen import encoder, exporter
from gfgen.encoder import (
    App,
    GfFunction,
    GfOper,
    Lit,
    Ref,
    app,
    fragment_from_dict,
    fragment_to_dict,
    fun_ref,
    oper_ref,
    synthesize_sentence,
)
from gfgen.exporter import (
    GfGrammar,
    LookupError_,
    MergeConflict,
    merge,
    render,
)
from gfgen.ingest import parse_conllu, parse_conllu_file
from gfgen.linearizer import linearize

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def corpus_fragments(fixtures_dir, suffix=""):
    """The encoder's fragment of every corpus sentence, under the id <id><suffix>."""
    fragments = []
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            if suffix:
                facts = dataclasses.replace(facts, sentence_id=facts.sentence_id + suffix)
            fragment = synthesize_sentence(facts)
            if fragment is not None:
                fragments.append(fragment)
    return fragments


def _simple_fragment(sid, noun, definition_text):
    g = GfGrammar(sentence_id=sid)
    oper = GfOper(noun + "_N", "N", app("mkN", Lit(definition_text)))
    g.add_oper(oper)
    fun = GfFunction(noun.capitalize(), (), (), "NP", app("mkNP", oper_ref(noun + "_N")))
    g.add_function(fun)
    sent = GfFunction("sent_" + sid, (), (), "Message", app("mkCl", fun_ref(fun.name), fun_ref(fun.name)))
    g.add_function(sent)
    return g


def test_merge_collapses_identical_opers(fixtures_dir):
    a = _simple_fragment("a", "friend", "friend")
    b = _simple_fragment("b", "friend", "friend")
    merged = merge([a, b])
    assert list(merged.opers) == ["friend_N"]


def test_merge_empty():
    merged = merge([])
    assert merged.categories == {"Message"}
    assert merged.functions == []
    assert merged.opers == {}
    abstract, concrete = render(merged, "Empty")
    assert "abstract Empty = {" in abstract
    assert "flags startcat = Message ;" in abstract
    assert "Message ;" in abstract
    assert "concrete EmptyEng of Empty" in concrete
    assert "Message = Cl ;" in concrete


def test_merge_singleton_preserves_content(bill_game_facts, fixtures_dir):
    for fragment in [synthesize_sentence(bill_game_facts)] + corpus_fragments(fixtures_dir):
        merged = merge([fragment])
        assert merged.opers == fragment.opers
        assert merged.functions == fragment.functions


def decoded(fragments):
    """The fragments as ``gfgen export`` reads them: through their JSON text."""
    return [fragment_from_dict(json.loads(json.dumps(fragment_to_dict(f)))) for f in fragments]


def test_conflicting_opers_get_suffixes():
    _check_conflicting_opers(
        _simple_fragment("a", "bank", "river bank"), _simple_fragment("b", "bank", "money bank")
    )


def test_conflicting_decoded_opers_get_suffixes():
    _check_conflicting_opers(
        *decoded(
            [_simple_fragment("a", "bank", "river bank"), _simple_fragment("b", "bank", "money bank")]
        )
    )


def _check_conflicting_opers(a, b):
    merged = merge([a, b])
    assert sorted(merged.opers) == ["bank_2_N", "bank_N"]
    # references follow the rename
    sent_lins = {f.name: f.lin for f in merged.functions}
    assert len(sent_lins) == 4  # Bank, Bank_2, sent_a, sent_b
    assert linearize(merged, "sent_a") == "river bank is river bank"
    assert linearize(merged, "sent_b") == "money bank is money bank"
    assert sent_lins["sent_b"] == app("mkCl", fun_ref("Bank_2"), fun_ref("Bank_2"))


def _bank_sleeps(modifier):
    """"The <modifier> bank sleeps." without a sent_id, so its id is s1."""
    rows = [
        ("1", "The", "the", "DET", "DT", "_", "3", "det", "_", "_"),
        ("2", modifier, modifier, "NOUN", "NN", "_", "3", "compound", "_", "_"),
        ("3", "bank", "bank", "NOUN", "NN", "_", "4", "nsubj", "_", "_"),
        ("4", "sleeps", "sleep", "VERB", "VBZ", "_", "0", "root", "_", "_"),
        ("5", ".", ".", "PUNCT", ".", "_", "4", "punct", "_", "_"),
    ]
    (facts,) = parse_conllu("\n".join("\t".join(row) for row in rows) + "\n")
    return synthesize_sentence(facts)


def test_shared_sentence_id_gets_unique_names():
    river, money = _bank_sleeps("river"), _bank_sleeps("money")
    assert river.sentence_id == money.sentence_id == "s1"
    merged = merge([river, money])
    names = merged.function_names()
    assert len(names) == len(set(names))
    assert sorted(name for name in names if name.startswith("sent_")) == ["sent_s1", "sent_s1_2"]
    assert {linearize(merged, "sent_s1"), linearize(merged, "sent_s1_2")} == {
        "river bank sleeps",
        "money bank sleeps",
    }
    assert render(merge([money, river]), "G") == render(merged, "G")


def test_merge_idempotent(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir)
    once = merge(fragments)
    twice = merge([once])
    assert render(once, "G") == render(twice, "G")


def test_merge_permutation_invariant(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir)
    base = render(merge(fragments), "G")
    rng = random.Random(7)
    for _ in range(5):
        shuffled = fragments[:]
        rng.shuffle(shuffled)
        assert render(merge(shuffled), "G") == base


def test_merge_of_an_iterator_equals_merge_of_a_list(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir)
    assert render(merge(iter(fragments)), "G") == render(merge(fragments), "G")


def test_merge_duplicate_fragment_list(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir)
    assert render(merge(fragments), "G") == render(merge(fragments + fragments), "G")


def test_merged_corpus_golden(fixtures_dir):
    abstract, concrete = render(merge(corpus_fragments(fixtures_dir)), "Wiki")
    assert len(abstract + concrete) == 24469
    assert (
        hashlib.sha256((abstract + concrete).encode()).hexdigest()
        == "d7a103b089411bec3a823020cc67c039896cb7e195dee1cc41d0f59b5149bbb6"
    )


def _nodes(expr):
    if isinstance(expr, App):
        return [expr] + [node for a in expr.args for node in _nodes(a)]
    return [expr]


def test_decoded_replicas_share_opers_and_leaves(fixtures_dir):
    first = decoded(corpus_fragments(fixtures_dir, "_ra"))
    second = decoded(corpus_fragments(fixtures_dir, "_rb"))
    for a, b in zip(first, second, strict=True):
        assert a.sentence_id != b.sentence_id
        assert a.opers.keys() == b.opers.keys()
        for name, oper in a.opers.items():
            assert b.opers[name] is oper
    # equal nodes, leaves or not, are one object, within a fragment and across fragments
    nodes = {}
    for fragment in first + second:
        exprs = [f.lin for f in fragment.functions] + [o.definition for o in fragment.opers.values()]
        for node in (node for expr in exprs for node in _nodes(expr)):
            assert nodes.setdefault(node, node) is node
    assert {type(node) for node in nodes} == {App, Lit, Ref}


def test_equal_subtrees_decode_to_one_object():
    # two functions of one fragment whose bodies hold equal, separately built subtrees
    g = GfGrammar(sentence_id="s")
    game = app("mkNP", oper_ref("game_N"), num="pl")
    g.add_function(GfFunction("Game", (), (), "NP", game))
    again = app("mkNP", oper_ref("game_N"), num="pl")
    g.add_function(GfFunction("sent_s", (), (), "Message", app("mkCl", again, game)))
    (fragment,) = decoded([g])
    game_lin, sent_lin = (f.lin for f in fragment.functions)
    assert sent_lin.args[0] is sent_lin.args[1] is game_lin
    (again,) = decoded([g])
    assert again.functions[1].lin is sent_lin


BASE_NODE = app("mkNP", oper_ref("game_N"), num="sg", forms=(("part", "gamed"),))


@pytest.mark.parametrize(
    "other",
    [
        app("mkCN", oper_ref("game_N"), num="sg", forms=(("part", "gamed"),)),
        app("mkNP", oper_ref("game_N"), num="pl", forms=(("part", "gamed"),)),
        app("mkNP", oper_ref("game_N"), num="sg"),
        app("mkNP", oper_ref("game_N"), num="sg", forms=(("third", "gamed"),)),
        app("mkNP", fun_ref("game_N"), num="sg", forms=(("part", "gamed"),)),
        app("mkNP", Lit("game_N"), num="sg", forms=(("part", "gamed"),)),
    ],
    ids=["fn", "num", "no_forms", "forms", "ref_kind", "leaf_kind"],
)
def test_nodes_that_differ_in_one_field_decode_apart(other):
    base, decoded_other = (
        encoder.expr_from_dict(json.loads(json.dumps(encoder.expr_to_dict(expr))))
        for expr in (BASE_NODE, other)
    )
    assert base == BASE_NODE and decoded_other == other
    assert base is not decoded_other


def test_shared_tables_grow_with_vocabulary_not_fragments(fixtures_dir):
    decoded(corpus_fragments(fixtures_dir, "_r00"))
    sizes = len(encoder._LEAVES), len(encoder._OPERS)
    nodes = len(encoder._NODES)
    for r in range(1, 5):
        decoded(corpus_fragments(fixtures_dir, "_r%02d" % r))
    assert (len(encoder._LEAVES), len(encoder._OPERS)) == sizes
    assert len(encoder._NODES) == nodes


def test_merge_of_decoded_fragments_matches_encoder_built(fixtures_dir):
    built = corpus_fragments(fixtures_dir, "_r00") + corpus_fragments(fixtures_dir, "_r01")
    assert render(merge(decoded(built)), "Wiki") == render(merge(built), "Wiki")


def test_merge_of_decoded_corpus_matches_golden(fixtures_dir):
    abstract, concrete = render(merge(decoded(corpus_fragments(fixtures_dir))), "Wiki")
    # the digest test_merged_corpus_golden pins for the encoder-built fragments
    assert (
        hashlib.sha256((abstract + concrete).encode()).hexdigest()
        == "d7a103b089411bec3a823020cc67c039896cb7e195dee1cc41d0f59b5149bbb6"
    )


def test_merge_of_decoded_corpus_in_either_order_matches_golden_and_hypotheses(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir)
    forward = merge(decoded(fragments))
    backward = merge(decoded(fragments[::-1]))
    for grammar in (forward, backward):
        abstract, concrete = render(grammar, "Wiki")
        # the digest test_merged_corpus_golden pins for the encoder-built fragments
        assert (
            hashlib.sha256((abstract + concrete).encode()).hexdigest()
            == "d7a103b089411bec3a823020cc67c039896cb7e195dee1cc41d0f59b5149bbb6"
        )
    hypotheses = json.loads((REFERENCE / "hypotheses.json").read_text(encoding="utf-8"))
    divergent = json.loads((REFERENCE / "known_divergences.json").read_text(encoding="utf-8"))
    names = [name for name in forward.function_names() if name.startswith("sent_")]
    compared = [name for name in names if name[len("sent_"):] not in divergent]
    assert len(compared) == len(names) - len(divergent)
    for name in compared:
        assert linearize(forward, name) == hypotheses[name[len("sent_"):]]


# --- each distinct body's work done once ------------------------------------------


def _corpus_x4(fixtures_dir):
    """The corpus four times under distinct ids, decoded, so replicas share their bodies."""
    return decoded([f for n in range(4) for f in corpus_fragments(fixtures_dir, "_r%d" % n)])


def _reached_bodies(grammar, names):
    """Identities of the bodies of ``names`` and of every function they reach."""
    seen, todo = set(), list(names)
    while todo:
        fun = grammar.function(todo.pop())
        if id(fun.lin) not in seen:
            seen.add(id(fun.lin))
            todo.extend(encoder.expr_refs(fun.lin, "fun"))
    return seen


def test_merged_replicas_linearize_by_body_identity(fixtures_dir):
    grammar = merge(_corpus_x4(fixtures_dir))
    names = [name for name in grammar.function_names() if name.startswith("sent_")]
    assert len(names) == 240
    texts = {name: linearize(grammar, name) for name in names}
    # each on a fresh copy of the grammar, with nothing stored yet
    for name in names:
        fresh = GfGrammar(
            categories=grammar.categories,
            lincats=grammar.lincats,
            functions=grammar.functions,
            opers=grammar.opers,
        )
        assert fresh._values is None
        assert linearize(fresh, name) == texts[name]
    # every function of the merged corpus is argument-free
    assert not any(fun.arg_names for fun in grammar.functions)
    functions = [key for key in grammar._values if not (isinstance(key, tuple) and key[0] == "oper")]
    assert len(functions) <= len(_reached_bodies(grammar, names))
    assert len({id(grammar.function(name).lin) for name in names}) <= 60 < len(names)

    hypotheses = json.loads((REFERENCE / "hypotheses.json").read_text(encoding="utf-8"))
    divergent = json.loads((REFERENCE / "known_divergences.json").read_text(encoding="utf-8"))
    for name in names:
        sid = name[len("sent_") :].rsplit("_r", 1)[0]
        assert texts[name] in (hypotheses[sid], divergent.get(sid))


def test_merge_of_replicas_alike_in_any_order_and_without_shared_bodies(fixtures_dir):
    fragments = _corpus_x4(fixtures_dir)
    shuffled = fragments[:]
    random.Random(14).shuffle(shuffled)
    unshared = [copy.deepcopy(f) for f in fragments]  # no body object is shared between fragments
    merged = [merge(order) for order in (fragments, fragments[::-1], shuffled, unshared)]
    for other in merged[1:]:
        assert other.functions == merged[0].functions
        assert render(other, "W") == render(merged[0], "W")


def _fragment(sid, functions):
    g = GfGrammar(sentence_id=sid)
    for name, cats, result, lin in functions:
        arg_names = tuple("x%d" % i for i in range(len(cats)))
        g.add_function(GfFunction(name, arg_names, cats, result, lin))
    return g


NOUN = app("mkNP", app("mkN", Lit("cow")))
HORSE = app("mkNP", app("mkN", Lit("horse")))
SAYS_X = app("mkCl", fun_ref("X"), fun_ref("X"))
NP_X = app("mkNP", fun_ref("X"), fun_ref("X"))


@pytest.mark.parametrize(
    "fragments",
    [
        # C collides and reads X; only the first fragment defines X, so the two
        # Cs reach different functions although every body is shared
        [
            [("X", (), "NP", NOUN), ("C", (), "Message", SAYS_X)],
            [("Z", (), "NP", NOUN), ("C", (), "Message", SAYS_X)],
        ],
        # a name defined twice in one fragment keeps its first definition
        [
            [("X", (), "NP", NOUN), ("X", (), "NP", HORSE), ("S", (), "Message", SAYS_X)],
            [("X", (), "NP", NOUN), ("Y", (), "NP", HORSE), ("T", (), "Message", SAYS_X)],
            [("Y", (), "NP", NOUN), ("Y", (), "NP", HORSE), ("U", (), "Message", SAYS_X)],
        ],
        # alike bodies under other categories
        [
            [("X", (), "NP", NOUN), ("S", (), "Message", SAYS_X)],
            [("X", ("NP",), "NP", NOUN), ("T", (), "Message", SAYS_X)],
            [("X", (), "CN", NOUN), ("U", (), "Message", SAYS_X)],
        ],
        # a cycle through a colliding function
        [
            [("X", (), "NP", NP_X), ("S", (), "Message", SAYS_X)],
            [("X", (), "NP", NOUN), ("T", (), "Message", SAYS_X)],
        ],
    ],
)
def test_merge_reads_every_name_its_work_depends_on(fragments):
    shared = [_fragment("f%d" % i, funs) for i, funs in enumerate(fragments)]
    unshared = [copy.deepcopy(f) for f in shared]
    for order in (shared, shared[::-1]):
        assert merge(order).functions == merge(unshared).functions
        assert render(merge(order), "G") == render(merge(unshared), "G")


def test_merge_twice_on_one_decoded_list_renders_alike(fixtures_dir):
    fragments = decoded(corpus_fragments(fixtures_dir, "_r00") + corpus_fragments(fixtures_dir, "_r01"))
    assert render(merge(fragments), "Wiki") == render(merge(fragments), "Wiki")


def _readout(grammar):
    """The grammar's rendered sources and the linearization of each sentence function."""
    texts = {
        name: linearize(grammar, name)
        for name in grammar.function_names()
        if grammar.function(name).result == "Message"
    }
    assert texts
    return render(grammar, "G"), texts


def test_one_fragment_union_equals_the_collision_path(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir)
    assert len(fragments) == 60
    for fragment in fragments:
        # [fragment] takes the direct union, [fragment, fragment] the collision path
        assert exporter._union([fragment]) is not None
        assert exporter._union([fragment, fragment]) is None
        assert _readout(merge([fragment])) == _readout(merge([fragment, fragment]))


def test_disjoint_fragments_union_equals_the_collision_path(fixtures_dir):
    fragments = decoded(corpus_fragments(fixtures_dir))
    pairs = [
        (a, b)
        for a, b in zip(fragments, fragments[1:])
        if exporter._union([a, b]) is not None
    ]
    assert len(pairs) >= 10
    for a, b in pairs:
        assert exporter._union([a, b, a]) is None
        assert _readout(merge([a, b])) == _readout(merge([a, b, a]))


def test_render_deterministic(fixtures_dir):
    merged = merge(corpus_fragments(fixtures_dir))
    assert render(merged, "Wiki") == render(merged, "Wiki")


def test_merged_names_unique(fixtures_dir):
    merged = merge(corpus_fragments(fixtures_dir))
    names = merged.function_names()
    assert len(names) == len(set(names))
    assert len(merged.opers) == len(set(merged.opers))


def test_render_people_listing_lines(people_grammar):
    abstract, concrete = render(people_grammar, "People")
    assert "simple_sent : People -> Action -> Entity -> Message ;" in abstract
    assert "simple_sent People Action Entity = mkCl People (mkVP Action Entity) ;" in concrete
    assert 'Bill_N = mkN "Bill" "Bill" ;' in concrete
    assert 'play_V2 = mkV2 "play" ;' in concrete
    assert 'soccer_N = mkN "soccer" ;' in concrete


def test_render_layout(bill_game_facts):
    grammar = merge([synthesize_sentence(bill_game_facts)])
    abstract, concrete = render(grammar, "Bill")
    assert abstract.splitlines()[0] == "abstract Bill = {"
    assert abstract.splitlines()[1] == "  flags startcat = Message ;"
    assert (
        concrete.splitlines()[0]
        == "concrete BillEng of Bill = open SyntaxEng, ParadigmsEng, ConstructorsEng in {"
    )
    # categories alphabetical, opers alphabetical
    cats = [l.strip() for l in abstract.splitlines() if l.startswith("    ") and ":" not in l]
    assert cats == sorted(cats)
    oper_lines = concrete.split("  oper\n", 1)[1].splitlines()[:-1]
    names = [l.strip().split(" = ")[0] for l in oper_lines if l.strip()]
    assert names == sorted(names)


def test_function_index_matches_function_list(fixtures_dir, people_grammar):
    merged = merge(corpus_fragments(fixtures_dir))
    for grammar in (merged, people_grammar):
        for fun in grammar.functions:
            assert grammar.function(fun.name) is fun
        with pytest.raises(LookupError_):
            grammar.function("no_such_fun")


def test_rendered_sources_pass_syntax_validator(fixtures_dir, people_grammar):
    from gf_syntax import validate_abstract, validate_concrete

    for grammar in (merge(corpus_fragments(fixtures_dir)), people_grammar, merge([])):
        abstract, concrete = render(grammar, "Wiki")
        validate_abstract(abstract)
        validate_concrete(concrete)


def test_lincat_conflict_raises():
    a = GfGrammar(sentence_id="a")
    a.categories.add("NP")
    a.lincats["NP"] = "NP"
    b = GfGrammar(sentence_id="b")
    b.categories.add("NP")
    b.lincats["NP"] = "V2"
    with pytest.raises(MergeConflict, match="^conflicting lincat for NP$"):
        merge([a, b])
