from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def bill_game_facts():
    from gfgen.ingest import parse_conllu_file

    return parse_conllu_file(FIXTURES / "bill_game.conllu")[0]


@pytest.fixture
def board_game_facts():
    from gfgen.ingest import parse_conllu_file

    return parse_conllu_file(FIXTURES / "board_game.conllu")[0]


def round_trip(facts):
    """A sentence synthesized and linearized back, as ``gfgen eval`` does; None
    when it is unrecognized.  A sentence the encoder rejects raises."""
    from gfgen.encoder import sentence_function, synthesize_sentence
    from gfgen.linearizer import linearize

    fragment = synthesize_sentence(facts)
    return None if fragment is None else linearize(fragment, sentence_function(facts.sentence_id))


def build_people_grammar():
    """The two-listing People grammar, constructed as a grammar value.

    Message/People/Action/Entity categories, a three-argument sentence
    function and the Bill/Play/Soccer lexical functions.
    """
    from gfgen.encoder import GfFunction, GfGrammar, GfOper, Lit, app, arg_ref, oper_ref

    return GfGrammar(
        categories={"Message", "People", "Action", "Entity"},
        lincats={"Message": "Cl", "People": "NP", "Action": "V2", "Entity": "NP"},
        functions=[
            GfFunction(
                name="simple_sent",
                arg_names=("People", "Action", "Entity"),
                arg_cats=("People", "Action", "Entity"),
                result="Message",
                lin=app(
                    "mkCl",
                    arg_ref("People"),
                    app("mkVP", arg_ref("Action"), arg_ref("Entity")),
                ),
            ),
            GfFunction("Bill", (), (), "People", app("mkNP", oper_ref("Bill_N"))),
            GfFunction("Play", (), (), "Action", oper_ref("play_V2")),
            GfFunction("Soccer", (), (), "Entity", app("mkNP", oper_ref("soccer_N"))),
        ],
        opers={
            "Bill_N": GfOper("Bill_N", "N", app("mkN", Lit("Bill"), Lit("Bill"))),
            "play_V2": GfOper("play_V2", "V2", app("mkV2", Lit("play"))),
            "soccer_N": GfOper("soccer_N", "N", app("mkN", Lit("soccer"))),
        },
    )


@pytest.fixture
def people_grammar():
    return build_people_grammar()
