import json
import random
from pathlib import Path

import pytest

from gfgen.encoder import (
    SIGNATURES,
    STR,
    GfFunction,
    GfOper,
    Lit,
    app,
    arg_ref,
    fragment_from_dict,
    fragment_to_dict,
    fun_ref,
    oper_ref,
    sanitize_ident,
    synthesize_sentence,
)
from gfgen.exporter import GfGrammar, merge
from gfgen.ingest import parse_conllu, parse_conllu_file
from gfgen.linearizer import (
    _RULES,
    AdAv,
    Advv,
    APv,
    Av,
    CNv,
    Conjv,
    ListNPv,
    LookupError_,
    NPv,
    Nv,
    Prepv,
    RealizeTypeError,
    V2v,
    VerbLex,
    VPv,
    Vv,
    VVv,
    _realize,
    inflect_verb_3sg,
    linearize,
    linearize_expr,
    pluralize_noun,
)
from gfgen.verbalizer import load_annotations


def test_people_grammar_simple_sent(people_grammar):
    text = linearize(people_grammar, "simple_sent", args=["Bill", "Play", "Soccer"])
    assert text == "Bill plays soccer"


def test_bill_game_roundtrip(bill_game_facts):
    grammar = merge([synthesize_sentence(bill_game_facts)])
    assert linearize(grammar, "sent_bill_game") == "Bill plays game"


def test_board_game_roundtrip(board_game_facts):
    grammar = merge([synthesize_sentence(board_game_facts)])
    assert (
        linearize(grammar, "sent_board_game")
        == "Bill plays popular board game with close friends"
    )


def test_period_flag(bill_game_facts):
    grammar = merge([synthesize_sentence(bill_game_facts)])
    assert linearize(grammar, "sent_bill_game", period=True) == "Bill plays game."


def test_unknown_function_raises(people_grammar):
    with pytest.raises(LookupError_):
        linearize(people_grammar, "no_such_fun")


@pytest.mark.parametrize("ref", [fun_ref, oper_ref])
def test_dangling_reference_raises(people_grammar, ref):
    with pytest.raises(LookupError_):
        linearize_expr(app("mkCl", ref("Gone"), ref("Gone")), people_grammar)


def test_wrong_arity_raises(people_grammar):
    with pytest.raises(RealizeTypeError):
        linearize(people_grammar, "simple_sent", args=["Bill"])


def test_ill_typed_expression_raises(people_grammar):
    bad = app("mkCl", oper_ref("Bill_N"), oper_ref("play_V2"))
    with pytest.raises(RealizeTypeError):
        linearize_expr(bad, people_grammar)


def test_symbol_arguments_render_spaces(people_grammar):
    text = linearize(people_grammar, "simple_sent", args=["Bill", "Play", "table_tennis"])
    assert text == "Bill plays table tennis"


def test_subject_number_agreement():
    text = (
        "1\tfriends\tfriend\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
        "2\tplay\tplay\tVERB\tVBP\t_\t0\troot\t_\t_\n"
        "3\tgames\tgame\tNOUN\tNNS\t_\t2\tdobj\t_\t_\n"
    )
    (facts,) = parse_conllu(text)
    grammar = merge([synthesize_sentence(facts)])
    assert linearize(grammar, "sent_s1") == "friends play games"


def test_passive_agreement(fixtures_dir):
    sentences = {
        f.sentence_id: f
        for f in parse_conllu_file(fixtures_dir / "corpus/mathematics/sentences.conllu")
    }
    grammar = merge([synthesize_sentence(sentences["m07"])])
    assert linearize(grammar, "sent_m07") == "Numbers are written in decimal notation"


def test_copular_plural_is_are(fixtures_dir):
    sentences = {
        f.sentence_id: f
        for f in parse_conllu_file(fixtures_dir / "corpus/mathematics/sentences.conllu")
    }
    grammar = merge([synthesize_sentence(sentences["m20"])])
    assert linearize(grammar, "sent_m20") == "Decimals are numbers with fractional parts"


def test_conjunction_list_realization(fixtures_dir):
    sentences = {
        f.sentence_id: f
        for f in parse_conllu_file(fixtures_dir / "corpus/people/sentences.conllu")
    }
    grammar = merge([synthesize_sentence(sentences["p01"])])
    assert (
        linearize(grammar, "sent_p01")
        == "Cham Joof is author, activist, historian and politician"
    )


def test_observed_participle_wins():
    (facts,) = parse_conllu(
        "1\tCheese\tcheese\tNOUN\tNN\t_\t3\tnsubjpass\t_\t_\n"
        "2\tis\tbe\tAUX\tVBZ\t_\t3\tauxpass\t_\t_\n"
        "3\tmade\tmake\tVERB\tVBN\t_\t0\troot\t_\t_\n"
    )
    grammar = merge([synthesize_sentence(facts)])
    assert linearize(grammar, "sent_s1") == "cheese is made"


def test_whitespace_normalized(people_grammar):
    text = linearize(people_grammar, "simple_sent", args=["Bill", "Play", "Soccer"])
    assert text == text.strip()
    assert "  " not in text


def test_linearize_is_pure(bill_game_facts):
    grammar = merge([synthesize_sentence(bill_game_facts)])
    assert linearize(grammar, "sent_bill_game") == linearize(grammar, "sent_bill_game")


def test_single_arg_mkN_pluralizes():
    grammar = merge([])
    value = linearize_expr(app("mkN", Lit("friend")), grammar)
    assert value.plural == "friends"


def test_ambient_preposition_and_conjunction():
    grammar = merge([])
    value = linearize_expr(
        app("ConstructorsEng.mkAdv", oper_ref("with_Prep"), app("mkNP", app("mkN", Lit("friend")))),
        grammar,
    )
    assert value.text == "with friend"


def test_reexported_morphology():
    assert inflect_verb_3sg("play") == "plays"
    assert inflect_verb_3sg("be") == "is"
    assert inflect_verb_3sg("watch") == "watches"
    assert pluralize_noun("board game") == "board games"
    assert pluralize_noun("Bill") == "Bill"
    assert pluralize_noun("person") == "people"


# --- values and plans kept per grammar ------------------------------------------------

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def _corpus_fragments(fixtures_dir):
    return [
        fragment
        for path in sorted((fixtures_dir / "corpus").glob("*/sentences.conllu"))
        for fragment in map(synthesize_sentence, parse_conllu_file(path))
        if fragment is not None
    ]


def test_merged_corpus_linearizes_alike_in_any_order_and_on_a_fresh_merge(fixtures_dir):
    fragments = _corpus_fragments(fixtures_dir)
    grammar = merge(fragments)
    names = sorted(n for n in grammar.function_names() if n.startswith("sent_"))
    forward = {name: linearize(grammar, name) for name in names}
    backward = {name: linearize(grammar, name) for name in reversed(names)}
    fresh = merge(fragments)
    assert forward == backward == {name: linearize(fresh, name) for name in names}

    hypotheses = json.loads((REFERENCE / "hypotheses.json").read_text(encoding="utf-8"))
    divergent = json.loads((REFERENCE / "known_divergences.json").read_text(encoding="utf-8"))
    compared = {
        "sent_" + sid: text
        for sid, text in hypotheses.items()
        if text is not None and sid not in divergent
    }
    assert len(compared) == len(names) - len(divergent)
    assert {name: forward[name] for name in compared} == compared


def _outcome(call):
    try:
        return call()
    except (LookupError_, RealizeTypeError) as exc:
        return type(exc), exc.args[0]


@pytest.mark.parametrize("tsv", ["phylotastic_annotations.tsv", "people_annotations.tsv"])
def test_annotation_sentences_alike_on_first_and_later_calls_and_a_fresh_grammar(fixtures_dir, tsv):
    text = (fixtures_dir / tsv).read_text(encoding="utf-8")
    rng = random.Random(7)
    for annotation, fresh in zip(load_annotations(text), load_annotations(text)):
        grammar, name = annotation.grammar, annotation.function_name
        # some symbols spell the grammar's own functions, which fill arguments
        # with their values and may not realize
        pool = grammar.function_names() + ["web_link", "Kevin", "Daily_Mirror", "cow"]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
        first = [_outcome(lambda: linearize(grammar, name, args=pair)) for pair in pairs]
        again = [_outcome(lambda: linearize(grammar, name, args=pair)) for pair in pairs]
        other = [_outcome(lambda: linearize(fresh.grammar, name, args=pair)) for pair in pairs]
        assert first == again == other
        assert any(isinstance(out, str) for out in first)


def _faulty_grammar():
    return GfGrammar(
        functions=[
            GfFunction("Gone", (), (), "NP", app("mkNP", oper_ref("gone_N"))),
            GfFunction("GoneFun", (), (), "NP", app("mkNP", fun_ref("Nothing"))),
            GfFunction("Ill", (), (), "Message", app("mkCl", oper_ref("bill_N"), oper_ref("play_V2"))),
            GfFunction("BadVerb", (), (), "V2", app("mkV2", oper_ref("bill_N"))),
            GfFunction("Loose", (), (), "Message", app("mkCl", arg_ref("x"), arg_ref("x"))),
            GfFunction(
                "IllWithArgs",
                ("a",),
                ("NP",),
                "Message",
                app("mkCl", arg_ref("a"), app("mkVP", oper_ref("play_V2"), oper_ref("bill_N"))),
            ),
            GfFunction("Bill", (), (), "NP", app("mkNP", oper_ref("bill_N"))),
        ],
        opers={
            "bill_N": GfOper("bill_N", "N", app("mkN", Lit("Bill"), Lit("Bill"))),
            "play_V2": GfOper("play_V2", "V2", app("mkV2", Lit("play"))),
        },
    )


@pytest.mark.parametrize(
    "name, args, error, message",
    [
        ("Gone", [], LookupError_, "unknown oper gone_N"),
        ("GoneFun", [], LookupError_, "no function 'Nothing' in grammar"),
        ("Ill", [], RealizeTypeError, "no realization of mkCl over (%s, %s)" % (Nv, V2v)),
        ("BadVerb", [], RealizeTypeError, "mkV2 expects one string argument"),
        ("Loose", [], LookupError_, "unbound argument x"),
        ("IllWithArgs", ["Bill"], RealizeTypeError, "no realization of mkVP over (%s, %s)" % (V2v, Nv)),
        ("IllWithArgs", ["Gone"], LookupError_, "unknown oper gone_N"),
    ],
)
def test_faults_raise_alike_on_every_call(name, args, error, message):
    grammar = _faulty_grammar()
    assert linearize_expr(fun_ref("Bill"), grammar).text == "Bill"  # a stored neighbour
    for _ in range(2):
        with pytest.raises(error) as exc:
            linearize(grammar, name, args=args)
        assert exc.value.args[0] == message
    if not args:
        for _ in range(2):
            with pytest.raises(error) as exc:
                linearize_expr(fun_ref(name), grammar)
            assert exc.value.args[0] == message


def _cyclic_grammar():
    a_twice = app("mkNP", fun_ref("A"), fun_ref("A"))
    return GfGrammar(
        functions=[
            GfFunction("A", (), (), "NP", a_twice),
            GfFunction("B", (), (), "NP", app("mkNP", fun_ref("C"), fun_ref("C"))),
            GfFunction("C", (), (), "NP", app("mkNP", fun_ref("B"), fun_ref("B"))),
            # the body of A under another name reaches A again
            GfFunction("A2", (), (), "NP", a_twice),
            GfFunction("Loop", ("a",), ("NP",), "Message", app("mkCl", arg_ref("a"), fun_ref("A"))),
            GfFunction("sent_c", (), (), "Message", app("mkCl", fun_ref("B"), fun_ref("B"))),
            GfFunction("Selfish", (), (), "N", oper_ref("self_N")),
        ],
        opers={"self_N": GfOper("self_N", "N", app("mkN", oper_ref("self_N")))},
    )


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("A", [], "cyclic reference to function A"),
        ("A2", [], "cyclic reference to function A"),
        ("B", [], "cyclic reference to function B"),
        ("C", [], "cyclic reference to function C"),
        ("sent_c", [], "cyclic reference to function B"),
        ("Loop", ["Kevin"], "cyclic reference to function A"),
        ("Selfish", [], "cyclic reference to oper self_N"),
    ],
)
def test_cyclic_reference_raises_alike_on_every_call(name, args, message):
    grammar = _cyclic_grammar()
    for _ in range(2):
        with pytest.raises(RealizeTypeError) as exc:
            linearize(grammar, name, args=args)
        assert exc.value.args[0] == message
    assert grammar._values == {}  # nothing stored, not even an in-progress marker


CATEGORY_VALUES = {
    STR: str,
    "N": Nv,
    "CN": CNv,
    "NP": NPv,
    "ListNP": ListNPv,
    "A": Av,
    "AP": APv,
    "AdA": AdAv,
    "Adv": Advv,
    "Prep": Prepv,
    "Conj": Conjv,
    "V": Vv,
    "V2": V2v,
    "VV": VVv,
    "VP": VPv,
}


def test_every_constructor_signature_has_a_realization_rule():
    missing = [
        (fn, inputs)
        for fn, rows in SIGNATURES.items()
        for inputs, _ in rows
        if (fn, *(CATEGORY_VALUES[cat] for cat in inputs)) not in _RULES
    ]
    assert missing == []


READ = VerbLex("read")
SAMPLE_VALUES = {
    str: "x",
    Nv: Nv("x", "xs"),
    CNv: CNv("x", "xs"),
    NPv: NPv(text="x", number="sg"),
    ListNPv: ListNPv((NPv("x", "sg"), NPv("y", "sg"))),
    Av: Av("x"),
    APv: APv("x"),
    AdAv: AdAv("x"),
    Advv: Advv("x"),
    Prepv: Prepv("x"),
    Conjv: Conjv("x"),
    V2v: V2v(READ),
    Vv: Vv(READ),
    VVv: VVv(READ),
    VPv: VPv(kind="v", verb=READ),
    VerbLex: READ,
}


@pytest.mark.parametrize("value", [v for v in SAMPLE_VALUES.values() if not isinstance(v, str)])
def test_values_reject_attribute_assignment(value):
    before = tuple(value)
    for name in value._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, "y")
    assert tuple(value) == before


def test_rules_never_accept_a_value_of_another_type_with_equal_fields():
    value = linearize_expr(app("mkAP", arg_ref("a")), merge([]), {"a": Av("x")})
    assert type(value) is APv and value.text == "x"
    with pytest.raises(RealizeTypeError):
        linearize_expr(app("mkAP", arg_ref("a")), merge([]), {"a": APv("x")})
    value_types = [t for t in SAMPLE_VALUES if t is not str]
    swapped = 0
    for fn, *types in _RULES:
        node = app(fn)
        values = [SAMPLE_VALUES[t] for t in types]
        _realize(node, values)  # the rule's own types realize
        for i, t in enumerate(types):
            for other in value_types:
                if t is str or other is t or other._fields != t._fields:
                    continue
                twin = values[:i] + [other(*values[i])] + values[i + 1 :]
                assert twin == values  # equal as tuples, yet not the same values
                if (fn, *types[:i], other, *types[i + 1 :]) in _RULES:
                    continue
                swapped += 1
                with pytest.raises(RealizeTypeError):
                    _realize(node, twin)
    assert swapped > 20


# --- a bare fragment linearizes like its one-fragment merge --------------------------


@pytest.mark.parametrize("through_json", [False, True], ids=["built", "decoded"])
def test_corpus_fragment_linearizes_like_its_merge(fixtures_dir, through_json):
    fragments = _corpus_fragments(fixtures_dir)
    if through_json:
        fragments = [fragment_from_dict(json.loads(json.dumps(fragment_to_dict(f)))) for f in fragments]
    assert len(fragments) == 60
    for fragment in fragments:
        names = fragment.function_names()
        bare = [_outcome(lambda: linearize(fragment, name)) for name in names]
        merged = merge([fragment])
        assert bare == [_outcome(lambda: linearize(merged, name)) for name in names]
        assert bare[-1] == linearize(fragment, "sent_" + sanitize_ident(fragment.sentence_id))


@pytest.mark.parametrize("tsv", ["phylotastic_annotations.tsv", "people_annotations.tsv"])
def test_annotation_fragment_linearizes_like_its_merge(fixtures_dir, tsv):
    rng = random.Random(17)
    symbols = ["web_link", "Kevin", "Daily_Mirror", "cow", NPv("scientific names", "pl")]
    for annotation in load_annotations((fixtures_dir / tsv).read_text(encoding="utf-8")):
        fragment, name = annotation.grammar, annotation.function_name
        merged = merge([fragment])
        pool = symbols + fragment.function_names()
        for _ in range(50):
            args = [rng.choice(pool) for _ in range(annotation.arity)]
            bare = _outcome(lambda: linearize(fragment, name, args=args))
            assert bare == _outcome(lambda: linearize(merged, name, args=args))
        assert isinstance(linearize(fragment, name, args=symbols[: annotation.arity]), str)
