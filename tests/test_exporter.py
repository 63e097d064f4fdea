import copy
import dataclasses
import hashlib
import json
import operator
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
    function_to_dict,
    oper_ref,
    oper_to_dict,
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


def _fragment_dict(lin, functions=(), opers=()):
    """Fragment x: ``functions``, then sent_x with the body ``lin``, and ``opers``."""
    sent = {"name": "sent_x", "args": [], "result": "Message", "lin": lin}
    return {
        "sentence_id": "x",
        "categories": ["Message", "NP"],
        "lincats": {"Message": "Cl", "NP": "NP"},
        "functions": [*functions, sent],
        "opers": list(opers),
    }


GAME = {"app": "mkN", "args": [{"str": "game"}]}


@pytest.mark.parametrize(
    "fragment, field",
    [
        (_fragment_dict({"str": ["a"]}), "literal"),
        (_fragment_dict({"ref": ["a"], "kind": "oper"}), "reference name"),
        (_fragment_dict({"ref": "a", "kind": ["oper"]}), "reference kind"),
        (_fragment_dict({"app": ["mkNP"], "args": [{"str": "a"}]}), "constructor"),
        (_fragment_dict({"app": "mkNP", "args": [{"str": "a"}], "num": ["pl"]}), "number"),
        (_fragment_dict({"str": "a"}, opers=[{"name": ["x"], "category": "N", "definition": GAME}]), "oper name"),
        (_fragment_dict({"str": "a"}, opers=[{"name": "game_N", "category": ["N"], "definition": GAME}]), "category"),
        (
            _fragment_dict({"str": "a"}, [{"name": ["Game"], "args": [], "result": "NP", "lin": GAME}]),
            "function name",
        ),
    ],
    ids=["literal", "ref_name", "ref_kind", "constructor", "num", "oper_name", "oper_category", "function_name"],
)
def test_a_list_where_a_string_belongs_is_a_value_error_naming_the_field(fragment, field):
    for _ in range(3):  # and so it stays once the tables hold the names around it
        with pytest.raises(ValueError, match="^%s: expected " % field):
            fragment_from_dict(json.loads(json.dumps(fragment)))


@pytest.mark.parametrize(
    "fragment, field",
    [
        (_fragment_dict({"app": "mkNP", "args": 3}), "arguments"),
        (_fragment_dict({"app": "mkNP", "args": "ab"}), "arguments"),
        (
            _fragment_dict({"str": "a"}, [{"name": "Game", "args": 3, "result": "NP", "lin": GAME}]),
            "function arguments",
        ),
        (_fragment_dict({"app": "mkV", "args": [{"str": "a"}], "forms": ["a"]}), "forms"),
        (_fragment_dict({"app": "mkV", "args": [{"str": "a"}], "forms": "a"}), "forms"),
    ],
    ids=["args_int", "args_str", "function_args_int", "forms_list", "forms_str"],
)
def test_a_wrong_container_is_a_value_error_naming_the_field(fragment, field):
    for _ in range(3):
        with pytest.raises(ValueError, match="^%s: expected " % field):
            fragment_from_dict(json.loads(json.dumps(fragment)))


def test_shared_tables_grow_with_vocabulary_not_fragments(fixtures_dir):
    decoded(corpus_fragments(fixtures_dir, "_r00"))
    sizes = len(encoder._LEAVES), len(encoder._OPERS)
    nodes = len(encoder._NODES)
    definitions = _definition_table_sizes()
    for r in range(1, 5):
        decoded(corpus_fragments(fixtures_dir, "_r%02d" % r))
    assert (len(encoder._LEAVES), len(encoder._OPERS)) == sizes
    assert len(encoder._NODES) == nodes
    assert _definition_table_sizes() == definitions


def _definition_table_sizes():
    """The keys and the objects of the oper and function tables.

    Each key holds a list of [canonical dict, object] entries.
    """
    return [
        (len(table), sum(map(len, table.values())))
        for table in (encoder._OPERS, encoder._FUNCTIONS)
    ]


def test_each_definition_table_key_holds_entries_whose_filled_dicts_are_canonical(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir, "_entries")
    decoded(fragments), decoded(fragments)  # the second decode fills the canonical dicts
    decoded([_simple_fragment("entries", "quagga", "quagga")])  # a name seen once
    tables = ((encoder._OPERS, oper_to_dict), (encoder._FUNCTIONS, function_to_dict))
    for table, to_dict in tables:
        for entries in table.values():
            assert type(entries) is list and entries
            for entry in entries:
                assert type(entry) is list and len(entry) == 2
                canonical, obj = entry
                assert type(obj) is (GfOper if table is encoder._OPERS else GfFunction)
                assert canonical is None or canonical == to_dict(obj)
    assert encoder._OPERS[("quagga_N", "N")][0][0] is None  # never compared, so not filled
    for fragment in fragments:
        for oper in fragment.opers.values():
            entries = encoder._OPERS[(oper.name, oper.category)]
            assert any(canonical == oper_to_dict(oper) for canonical, _ in entries), oper.name
        for fun in fragment.functions[:-1]:  # the component functions
            entries = encoder._FUNCTIONS[fun.name]
            assert any(canonical == function_to_dict(fun) for canonical, _ in entries), fun.name


def _dict_nodes(d):
    """Every node dict of an expression dict, root first."""
    return [d] + [node for a in d.get("args", ()) for node in _dict_nodes(a)]


def test_replicas_walk_only_their_message_bodies(fixtures_dir, monkeypatch):
    decoded(corpus_fragments(fixtures_dir, "_r00"))
    dicts = [
        json.loads(json.dumps(fragment_to_dict(f)))
        for r in range(1, 5)
        for f in corpus_fragments(fixtures_dir, "_r%02d" % r)
    ]
    walked = []
    expr_from_dict = encoder.expr_from_dict

    def counting(d):
        walked.append(d)
        return expr_from_dict(d)

    monkeypatch.setattr(encoder, "expr_from_dict", counting)
    for d in dicts:
        fragment_from_dict(d)
    bodies = [f["lin"] for d in dicts for f in d["functions"] if f["result"] == "Message"]
    # each node of a Message body once; no oper and no component-function body
    assert sorted(map(id, walked)) == sorted(id(node) for lin in bodies for node in _dict_nodes(lin))


def test_definitions_under_one_name_that_differ_in_one_leaf_decode_apart(fixtures_dir):
    built = [f for f in corpus_fragments(fixtures_dir, "_apart") if "student_N" in f.opers]
    students = {}
    for _ in range(3):  # first sighting, canonical dicts built, hits
        for fragment, again in zip(built, decoded(built), strict=True):
            oper = again.opers["student_N"]
            assert oper == fragment.opers["student_N"]
            assert students.setdefault(oper.definition.args[1].text, oper) is oper
            for fun, fun_again in zip(fragment.functions, again.functions, strict=True):
                assert fun_again == fun
    assert sorted(students) == ["Students", "students"]


def _zebra_dict():
    """A fragment's dict with the oper zebra_N and the component function Zebra."""
    return fragment_to_dict(_simple_fragment("zebra", "zebra", "zebra"))


def test_mutating_an_input_after_decoding_changes_no_later_decode():
    d = _zebra_dict()
    first = fragment_from_dict(d)
    assert fragment_from_dict(d).opers["zebra_N"] is first.opers["zebra_N"]  # canonical dicts built
    d["opers"][0]["definition"]["args"][0]["str"] = "okapi"
    d["functions"][0]["lin"]["app"] = "mkCN"
    again = fragment_from_dict(_zebra_dict())
    assert again.opers["zebra_N"] is first.opers["zebra_N"]
    assert again.functions[0] is first.functions[0]
    assert again.opers["zebra_N"].definition == app("mkN", Lit("zebra"))
    changed = fragment_from_dict(d)
    assert changed.opers["zebra_N"].definition == app("mkN", Lit("okapi"))
    assert changed.functions[0].lin == app("mkCN", oper_ref("zebra_N"))


def test_an_extra_key_or_null_number_decodes_to_the_same_object_without_growth():
    plain = fragment_from_dict(_zebra_dict())
    fragment_from_dict(_zebra_dict())  # canonical dicts built
    tables = (encoder._LEAVES, encoder._NODES, encoder._OPERS, encoder._FUNCTIONS)
    sizes = [len(table) for table in tables], _definition_table_sizes()
    for _ in range(100):
        d = _zebra_dict()
        d["opers"][0]["note"] = "extra"
        d["opers"][0]["definition"]["note"] = "extra"
        d["functions"][0]["lin"]["num"] = None
        d["functions"][0]["note"] = "extra"
        again = fragment_from_dict(d)
        assert again.opers["zebra_N"] is plain.opers["zebra_N"]
        assert again.functions[0] is plain.functions[0]
    assert ([len(table) for table in tables], _definition_table_sizes()) == sizes


def test_an_empty_number_and_no_number_decode_apart():
    gnu = {"name": "gnu_N", "category": "N", "definition": {"app": "mkN", "args": [{"str": "gnu"}], "num": ""}}
    for _ in range(2):  # canonical dict built
        assert fragment_from_dict(_fragment_dict({"str": "a"}, opers=[gnu])).opers["gnu_N"].definition.num == ""
    del gnu["definition"]["num"]
    assert fragment_from_dict(_fragment_dict({"str": "a"}, opers=[gnu])).opers["gnu_N"].definition.num is None


def test_component_functions_are_shared_and_message_functions_are_not(fixtures_dir):
    fragments = corpus_fragments(fixtures_dir, "_own")
    first, second = decoded(fragments), decoded(fragments)
    for a, b in zip(first, second, strict=True):
        *components, message = a.functions
        *components_again, message_again = b.functions
        assert message.result == message_again.result == "Message"
        assert message_again == message and message_again is not message
        assert all(map(operator.is_, components_again, components))


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
CLAUSE = app("mkCl", NOUN, HORSE)


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
        # X is defined twice, and no body reads X, Y or Z, none of which collides: Z must
        # keep its own body, horse
        [
            [("X", (), "NP", NOUN), ("X", (), "NP", HORSE), ("K", (), "Message", CLAUSE)],
            [("Y", (), "NP", NOUN), ("Z", (), "NP", HORSE), ("K", (), "Message", CLAUSE)],
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


def test_alike_definitions_at_one_place_come_from_the_first_source():
    # an argument name that the body does not read is no part of a function's key, so the
    # two Ns collapse; both sit at ("s", 0), and of the two sources whose id is "s" the
    # first in the list gives the kept one
    def fragment(sid, arg):
        g = GfGrammar(sentence_id=sid)
        g.add_function(GfFunction("N", (arg,), ("NP",), "NP", NOUN))
        g.add_function(GfFunction("S_" + arg, (), (), "Message", SAYS_X))
        return g

    first, second, third = fragment("t", "a"), fragment("s", "b"), fragment("s", "a")
    third.functions = first.functions  # a replica of the first under another id
    for order, arg in (([first, second, third], "b"), ([first, third, second], "a")):
        assert merge(order).function("N").arg_names == (arg,)


def test_merge_work_does_not_grow_with_replicas(fixtures_dir, monkeypatch):
    # each distinct body is rendered and walked for references once per merge, however
    # many replicas of a sentence share it
    calls = {}
    for name in ("render_expr", "expr_refs"):
        monkeypatch.setattr(exporter, name, _counted(calls, name, getattr(exporter, name)))
    replicas = [corpus_fragments(fixtures_dir, "_r%d" % n) for n in range(8)]
    counts = []
    for scale in (2, 4, 8):
        fragments = decoded([f for replica in replicas[:scale] for f in replica])
        calls.clear()
        merge(fragments)
        counts.append(dict(calls))
    assert counts[0]["render_expr"] and counts[0]["expr_refs"]
    assert counts[0] == counts[1] == counts[2]


def _counted(calls, name, fn):
    """``fn``, counting in ``calls[name]`` each call made through the attribute it replaces.

    ``render_expr`` recurses through that attribute, so its count includes its recursive
    calls; ``expr_refs`` recurses inside the encoder, so its count does not.
    """

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


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
