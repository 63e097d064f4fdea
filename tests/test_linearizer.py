import copy
import json
import random
from pathlib import Path

import pytest

from gfgen.encoder import (
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
from gfgen import linearizer
from gfgen.exporter import GfGrammar, merge
from gfgen.ingest import parse_conllu, parse_conllu_file
from gfgen.linearizer import (
    _RULES,
    GfTypeError,
    SIGNATURES,
    STR,
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
    _MARK,
    _realize,
    infer_category,
    inflect_verb_3sg,
    linearize,
    linearize_expr,
    pluralize_noun,
)
from gfgen.verbalizer import GroundAtom, _rdf_type_annotation, load_annotations, verbalize_atoms


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
            GfFunction("Phrase", ("a",), ("NP",), "NP", app("mkNP", arg_ref("a"), app("mkAdv", Lit("here")))),
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
        ("IllWithArgs", [NPv("Kevin", "sg")], RealizeTypeError, "no realization of mkVP over (%s, %s)" % (V2v, Nv)),
        ("Phrase", [NPv("Kevin", "sg")], RealizeTypeError, "function Phrase does not linearize to a sentence"),
        ("Phrase", ["Kevin"], RealizeTypeError, "function Phrase does not linearize to a sentence"),
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
        ("Loop", [NPv("Kevin", "sg")], "cyclic reference to function A"),
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


def test_every_realization_rule_has_a_constructor_signature():
    categories = {value_type: cat for cat, value_type in CATEGORY_VALUES.items()}
    unsigned = [
        (fn, *types)
        for fn, *types in _RULES
        if tuple(categories[t] for t in types) not in [inputs for inputs, _ in SIGNATURES.get(fn, ())]
    ]
    assert unsigned == []
    assert linearizer.VALUE_TYPES == CATEGORY_VALUES


def test_qualified_mkAdv_over_a_string_is_ill_typed_and_unrealizable():
    today = app("ConstructorsEng.mkAdv", Lit("today"))
    with pytest.raises(GfTypeError):
        infer_category(today)
    with pytest.raises(RealizeTypeError):
        linearize_expr(today, merge([]))


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


def test_every_constructor_realizes_a_value_of_its_output_category():
    for fn, inputs, output, rule in linearizer.CONSTRUCTORS:
        value = rule(app(fn), *(SAMPLE_VALUES[CATEGORY_VALUES[cat]] for cat in inputs))
        assert type(value) is CATEGORY_VALUES.get(output, str), (fn, inputs)


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


# --- a function with arguments linearizes through its sequence --------------------------

# the verbalization benchmark's three annotation shapes
SHAPES = ["The {w} of $1 is $2", "$1 is the {w} of $2", "$1 {w} $2"]
PLACEHOLDER = _MARK + "0" + _MARK
TEXTS = ["Kevin", "", "  two   spaces ", "Daily_Mirror", "a" + _MARK + "b", PLACEHOLDER, "{1} }"]


def _shape_annotations(fixtures_dir, per_shape=6):
    nouns, verbs = set(), set()
    for path in sorted((fixtures_dir / "corpus").glob("*/sentences.conllu")):
        for facts in parse_conllu_file(path):
            for tok in facts.tokens:
                if tok.lemma.isalpha() and tok.lemma.islower():
                    if tok.pos == "nn":
                        nouns.add(tok.lemma)
                    elif tok.pos == "vbz" and tok.lemma != "be":
                        verbs.add(tok.surface)
    rng = random.Random(11)
    nouns = rng.sample(sorted(nouns), 2 * per_shape)
    words = [nouns[:per_shape], nouns[per_shape:], sorted(verbs)[:per_shape]]
    lines = [
        "shape%d_%d/2\t%s" % (k, i, SHAPES[k].format(w=w))
        for k, ws in enumerate(words)
        for i, w in enumerate(ws)
    ]
    return load_annotations("\n".join(lines))


def _cl(subject, predicate):
    return app("mkCl", subject, predicate)


def _hand_grammar():
    a, b = arg_ref("a"), arg_ref("b")
    both = app("mkNP", oper_ref("and_Conj"), app("mkListNP", a, b))  # always plural
    beside = app("mkNP", a, app("mkAdv", oper_ref("with_Prep"), a))
    return GfGrammar(
        functions=[
            # named like the tag of an oper entry, and reading an oper named like a number
            GfFunction("oper", ("a",), ("NP",), "Message", _cl(a, app("mkNP", oper_ref("sg")))),
            # one argument placed twice
            GfFunction(
                "twice", ("a", "b"), ("NP", "NP"), "Message", _cl(a, app("mkVP", oper_ref("see_V2"), both))
            ),
            GfFunction("beside", ("a",), ("NP",), "Message", _cl(beside, oper_ref("braces_AP"))),
        ],
        opers={
            "sg": GfOper("sg", "N", app("mkN", Lit("thing"))),
            "see_V2": GfOper("see_V2", "V2", app("mkV2", Lit("see"))),
            "braces_AP": GfOper("braces_AP", "AP", app("mkAP", app("mkA", Lit("{0} }{")))),
        },
    )


def _marked_grammar():
    """Lexemes that hold the sequence delimiter: such functions evaluate directly."""
    a = arg_ref("a")
    marked_verb = app("mkV2", Lit("re" + _MARK + "ad"))
    return GfGrammar(
        functions=[
            GfFunction("stray", ("a",), ("NP",), "Message", _cl(a, app("mkVP", marked_verb, a))),
            # a lexeme that spells a whole placeholder stays a lexeme
            GfFunction("spelled", ("a",), ("NP",), "Message", _cl(a, app("mkNP", oper_ref("mark_N")))),
        ],
        opers={"mark_N": GfOper("mark_N", "N", app("mkN", Lit(PLACEHOLDER)))},
    )


def _sequences(grammar, name):
    """{argument numbers: sequence} of the function ``name`` in ``grammar``."""
    return {
        key[2]: sequence
        for key, sequence in grammar._values.items()
        if isinstance(key, tuple) and key[:2] == ("seq", name)
    }


def _direct(grammar, name, args):
    fun = grammar.function(name)
    return " ".join(linearize_expr(fun.lin, grammar, dict(zip(fun.arg_names, args))).split())


def test_sequence_equals_direct_evaluation(fixtures_dir):
    calls = [
        (a.grammar, a.function_name)
        for tsv in ("phylotastic_annotations.tsv", "people_annotations.tsv")
        for a in load_annotations((fixtures_dir / tsv).read_text(encoding="utf-8"))
    ]
    calls += [(a.grammar, a.function_name) for a in _shape_annotations(fixtures_dir)]
    calls.append((_rdf_type_annotation().grammar, _rdf_type_annotation().function_name))
    hand, marked = _hand_grammar(), _marked_grammar()
    calls += [(hand, name) for name in hand.function_names()]
    calls += [(marked, name) for name in marked.function_names()]
    assert len(calls) == 29
    rng = random.Random(3)
    for grammar, name in calls:
        arity = len(grammar.function(name).arg_names)
        argss = [
            [NPv(rng.choice(TEXTS), rng.choice(["sg", "pl"])) for _ in range(arity)] for _ in range(40)
        ]
        expected = [_direct(grammar, name, args) for args in argss]
        assert [linearize(grammar, name, args=args) for args in argss] == expected
        assert [linearize(grammar, name, args=args) for args in argss] == expected
        sequences = _sequences(grammar, name)
        assert sequences.keys() == {tuple(a.number for a in args) for args in argss}
        if grammar is marked:
            assert set(sequences.values()) == {False}  # made once, then not retried
        else:
            assert all(isinstance(sequence, str) for sequence in sequences.values())
    assert linearize(hand, "oper", args=[NPv("Kevin", "sg")]) == "Kevin is thing"
    assert type(hand._values[("oper", "sg")]) is Nv
    assert linearize(hand, "twice", args=[NPv("x", "sg"), NPv("y", "pl")]) == "x sees x and y"
    assert linearize(hand, "beside", args=[NPv("x", "pl")]) == "x with x are {0} }{"
    assert linearize(marked, "spelled", args=[NPv("Kevin", "sg")]) == "Kevin is " + PLACEHOLDER


def test_repeated_argument_name_reads_its_first_value():
    dup = GfFunction("dup", ("a", "a"), ("NP", "NP"), "Message", _cl(arg_ref("a"), arg_ref("a")))
    grammar = GfGrammar(functions=[dup])
    # NPv arguments take the sequence, symbol texts the direct evaluation
    for args in ([NPv("first", "sg"), NPv("second", "pl")], ["first", "second"]):
        assert linearize(grammar, "dup", args=args) == "first is first"


def _count_work(monkeypatch):
    """Lists that collect each rule node realized and each function name looked up."""
    realized, looked_up = [], []
    realize, function = linearizer._realize, GfGrammar.function

    def counted(node, values):
        realized.append(node)
        return realize(node, values)

    def counted_lookup(grammar, name, *default):
        looked_up.append(name)
        return function(grammar, name, *default)

    monkeypatch.setattr(linearizer, "_realize", counted)
    monkeypatch.setattr(GfGrammar, "function", counted_lookup)
    return realized, looked_up


def test_rule_nodes_are_evaluated_once_per_annotation_and_argument_numbers(fixtures_dir, monkeypatch):
    text = "".join(
        (fixtures_dir / tsv).read_text(encoding="utf-8")
        for tsv in ("phylotastic_annotations.tsv", "people_annotations.tsv")
    )
    realized, looked_up = _count_work(monkeypatch)

    def nodes(call):
        realized.clear()
        looked_up.clear()
        call()
        return len(realized)

    # loading builds each annotation's sequence over singular symbols: the rule
    # nodes of one first call per annotation, and one lookup of its function
    annotations = []
    at_load = nodes(lambda: annotations.extend(load_annotations(text)))
    called = {a.function_name for a in annotations}
    assert sorted(name for name in looked_up if name in called) == sorted(called)
    cost = {}
    for a in annotations:
        blank = copy.copy(a.grammar)
        blank._values = None  # the annotation grammar before its first call
        cost[a.predicate] = nodes(lambda: linearize(blank, a.function_name, args=[NPv("x", "sg")] * a.arity))
    assert all(cost.values())
    assert at_load == sum(cost.values())

    rng = random.Random(5)
    symbols = ["Kevin", "Flossie", "web_link", "url", "Daily_Mirror"]
    atoms = [
        GroundAtom(rng.choice(sorted(cost)), (rng.choice(symbols), rng.choice(symbols)))
        for _ in range(200)
    ]
    assert {a.predicate for a in atoms} == set(cost)
    # each fact is one fill of its annotation's sequence: no node, no lookup
    for _ in range(2):
        assert nodes(lambda: verbalize_atoms(atoms, annotations)) == 0
        assert looked_up == []
    for annotation in annotations:
        assert list(_sequences(annotation.grammar, annotation.function_name)) == [("sg", "sg")]

    # one more sequence per numbers tuple that a grammar is called with, and one only
    grammar, name = annotations[0].grammar, annotations[0].function_name
    numbers = [("pl", "sg"), ("sg", "pl"), ("pl", "pl"), ("pl", "sg")]
    for first, second in numbers:
        linearize(grammar, name, args=[NPv("a", first), NPv("b", second)])
    assert _sequences(grammar, name).keys() == {("sg", "sg")} | set(numbers)


def test_stored_sequence_leaves_every_other_call_as_before(monkeypatch):
    hand = _hand_grammar()
    kevin = [NPv("Kevin", "sg")]
    assert linearize(hand, "oper", args=kevin) == "Kevin is thing"
    assert _sequences(hand, "oper") == {("sg",): "{0} is thing"}
    realized, looked_up = _count_work(monkeypatch)
    for args in ([], kevin * 2, ["Kevin", NPv("Mick", "sg")]):
        with pytest.raises(RealizeTypeError) as exc:
            linearize(hand, "oper", args=args)
        assert exc.value.args[0] == "function oper takes 1 arguments, got %d" % len(args)
    with pytest.raises(LookupError_):
        linearize(hand, "seq", args=kevin)
    assert looked_up == ["oper"] * 3 + ["seq"]
    assert realized == []
    assert _sequences(hand, "oper") == {("sg",): "{0} is thing"}  # no error is stored
    # a text argument evaluates the body on every call
    for _ in range(2):
        realized.clear()
        assert linearize(hand, "oper", args=["Kevin"], period=True) == "Kevin is thing."
        assert realized
    # the function named like the tag of an oper entry reads its own sequence
    looked_up.clear()
    realized.clear()
    assert linearize(hand, "oper", args=[NPv(" Mick  Jr ", "pl")]) == "Mick Jr are thing"
    assert linearize(hand, "oper", args=[NPv("Mick", "pl")], period=True) == "Mick are thing."
    assert type(hand._values[("oper", "sg")]) is Nv
    assert _sequences(hand, "oper").keys() == {("sg",), ("pl",)}
    assert looked_up == ["oper"]  # only the call that built the plural sequence
    # an empty sequence is filled like any other
    quiet = app("mkCl", app("mkNP", app("mkN", Lit(""), Lit("")), num="pl"), app("mkVP", app("mkV", Lit(""))))
    grammar = GfGrammar(functions=[GfFunction("quiet", ("a",), ("NP",), "Message", quiet)])
    assert [linearize(grammar, "quiet", args=kevin, period=True) for _ in range(3)] == ["."] * 3
    assert _sequences(grammar, "quiet") == {("sg",): ""}
