import pytest

from gfgen.encoder import GfOper, Lit, app, fun_ref, oper_ref, synthesize_sentence
from gfgen.exporter import merge
from gfgen.ingest import parse_conllu, parse_conllu_file
from gfgen.linearizer import (
    LookupError_,
    RealizeTypeError,
    inflect_verb_3sg,
    linearize,
    linearize_expr,
    pluralize_noun,
)


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
