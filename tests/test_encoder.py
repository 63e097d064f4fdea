import hashlib
import json
import re

import pytest

from gfgen.components import (
    Attachment,
    Chunk,
    ComplementAttachment,
    ComponentMap,
    build_chunk,
    main_components,
)
from gfgen.engine import CLAUSE_SHAPES, Atom
from gfgen.encoder import (
    App,
    CategoryError,
    GfTypeError,
    GfGrammar,
    LookupError_,
    Lit,
    Ref,
    app,
    arg_ref,
    encode_np,
    encode_sentence,
    encode_skeleton,
    expr_from_dict,
    expr_refs,
    expr_to_dict,
    fragment_from_dict,
    fragment_to_dict,
    fun_ref,
    infer_category,
    oper_ref,
    sanitize_ident,
    sentence_slots,
    synthesize_sentence,
)
from gfgen.exporter import merge, render, render_expr
from gfgen.ingest import DependencyFact, Token, parse_conllu, parse_conllu_file
from gfgen.linearizer import linearize
from gfgen.structure import SHAPES, StructureAtom, recognize, select

GAME_LINE = (
    "Game = mkNP (mkNP popular_board_game_CN ) "
    "(ConstructorsEng.mkAdv with_Prep (mkNP close_friend_CN )) ;"
)

GAME_OPERS = [
    'popular_A = mkA "popular" ;',
    "popular_AP = mkAP popular_A ;",
    "popular_board_game_CN = mkCN popular_AP board_game_N ;",
    'board_game_N = mkN "board game" "board games" ;',
    'close_A = mkA "close" ;',
    "close_AP = mkAP close_A ;",
    "close_friend_CN = mkCN close_AP friend_N ;",
    'friend_N = mkN "friend" "friends" ;',
]


def skeleton_categories(shape, copular_role="obj"):
    """A clause shape's skeleton with each role leaf replaced by its category."""
    leaves = {"sub": "NP", "obj": "AP" if copular_role == "adj" else "NP", **shape.verbs}

    def walk(node):
        return leaves[node] if isinstance(node, str) else (node[0], *map(walk, node[1:]))

    return walk(shape.skeleton)


def test_clause_shape_skeletons():
    assert [shape.kind for shape in CLAUSE_SHAPES] == [3, 2, 5, 4, 1]
    assert skeleton_categories(SHAPES[2]) == ("mkCl", "NP", ("mkVP", "V2", "NP"))
    assert skeleton_categories(SHAPES[4], copular_role="adj") == ("mkCl", "NP", "AP")
    assert skeleton_categories(SHAPES[1]) == ("mkCl", "NP", ("mkVP", "V"))
    assert skeleton_categories(SHAPES[3]) == (
        "mkCl",
        "NP",
        ("mkVP", "VV", ("mkVP", "V2", "NP")),
    )
    assert skeleton_categories(SHAPES[5]) == ("mkCl", "NP", ("passiveVP", "V2"))


def test_sentence_clauses_follow_their_skeleton(fixtures_dir):
    """Each sent_* clause is its shape's skeleton, VP wraps aside, with the row's leaf categories."""
    paths = [fixtures_dir / "structures.conllu", *sorted(fixtures_dir.glob("corpus/*/*.conllu"))]
    seen = set()
    for facts in (f for path in paths for f in parse_conllu_file(path)):
        selected = select(recognize(facts))
        if selected is None:
            continue
        roles = main_components(facts, selected)
        fragment = encode_sentence(facts, selected, roles, slots=sentence_slots(facts))
        funs = funs_to_cl({f.name: f.result for f in fragment.functions})
        sent = fragment.functions[-1]
        args = dict(zip(sent.arg_names, sent.arg_cats))

        def category(expr):
            return infer_category(expr, fragment.opers, funs, args)

        def check(expr, node, expected):
            if isinstance(node, str):
                assert category(expr) == expected, facts.sentence_id
                return
            while expr.fn == "mkVP" and category(expr.args[-1]) == "Adv":
                expr = expr.args[0]  # an adverbial complement of the verb
            assert (expr.fn, len(expr.args)) == (node[0], len(node) - 1), facts.sentence_id
            for arg, sub, cat in zip(expr.args, node[1:], expected[1:]):
                check(arg, sub, cat)

        copular_role = "adj" if roles.adj is not None else "obj"
        shape = selected.shape
        check(sent.lin, shape.skeleton, skeleton_categories(shape, copular_role))
        seen.add((shape.kind, copular_role if shape.kind == 4 else None))
    assert seen == {(1, None), (2, None), (3, None), (5, None), (4, "adj"), (4, "obj")}


def test_encode_np_worked_example(board_game_facts):
    grammar = GfGrammar(sentence_id="t")
    chunk = build_chunk(board_game_facts, 6)
    expr = encode_np(board_game_facts, chunk, grammar)
    assert render_expr(expr) == (
        "mkNP (mkNP popular_board_game_CN ) "
        "(ConstructorsEng.mkAdv with_Prep (mkNP close_friend_CN ))"
    )
    assert set(grammar.opers) == {
        "popular_A",
        "popular_AP",
        "popular_board_game_CN",
        "board_game_N",
        "close_A",
        "close_AP",
        "close_friend_CN",
        "friend_N",
    }


def test_encode_np_proper_noun():
    (facts,) = parse_conllu("1\tBill\tBill\tPROPN\tNNP\t_\t0\troot\t_\t_\n")
    grammar = GfGrammar(sentence_id="t")
    expr = encode_np(facts, build_chunk(facts, 1), grammar)
    assert render_expr(expr) == "mkNP bill_N"
    assert render_expr(grammar.opers["bill_N"].definition) == 'mkN "Bill" "Bill"'


def test_encode_np_bare_common_noun(bill_game_facts):
    grammar = GfGrammar(sentence_id="t")
    expr = encode_np(bill_game_facts, build_chunk(bill_game_facts, 4), grammar)
    assert render_expr(expr) == "mkNP game_N"
    assert set(grammar.opers) == {"game_N"}


def test_encode_np_rejects_non_nominal(bill_game_facts):
    grammar = GfGrammar(sentence_id="t")
    with pytest.raises(CategoryError):
        encode_np(bill_game_facts, build_chunk(bill_game_facts, 2), grammar)


def test_encode_vp_transitive(bill_game_facts):
    grammar = GfGrammar(sentence_id="t")
    roles = main_components(bill_game_facts, StructureAtom(2, 2))
    refs = {
        "verb": oper_ref("play_V2"),
        "obj": encode_np(bill_game_facts, build_chunk(bill_game_facts, 4), grammar),
    }
    expr = encode_skeleton(bill_game_facts, ("mkVP", "verb", "obj"), roles, refs, grammar)
    assert render_expr(expr) == "mkVP play_V2 (mkNP game_N )"


def test_encode_vp_adverb():
    (facts,) = parse_conllu(
        "1\tBill\tBill\tPROPN\tNNP\t_\t2\tnsubj\t_\t_\n"
        "2\truns\trun\tVERB\tVBZ\t_\t0\troot\t_\t_\n"
        "3\tquickly\tquickly\tADV\tRB\t_\t2\tadvmod\t_\t_\n"
    )
    grammar = GfGrammar(sentence_id="t")
    roles = main_components(facts, StructureAtom(1, 1))
    expr = encode_skeleton(facts, ("mkVP", "verb"), roles, {"verb": oper_ref("run_V")}, grammar)
    assert render_expr(expr) == "mkVP (mkVP run_V ) quickly_Adv"
    assert render_expr(grammar.opers["quickly_Adv"].definition) == 'mkAdv "quickly"'


def test_encoder_golden_lines(board_game_facts):
    fragment = synthesize_sentence(board_game_facts)
    _, concrete = render(merge([fragment]), "Games")
    assert GAME_LINE in concrete
    for oper_line in GAME_OPERS:
        assert oper_line in concrete


def test_sentence_grammar_shape(bill_game_facts):
    fragment = synthesize_sentence(bill_game_facts)
    assert [f.name for f in fragment.functions] == ["Bill", "Game", "Play", "sent_bill_game"]
    sent = fragment.functions[-1]
    assert sent.result == "Message"
    assert sent.arg_names == ()
    assert render_expr(sent.lin) == "mkCl Bill (mkVP Play Game)"


def test_fragment_finds_every_function_added_to_it(fixtures_dir):
    # the encoder builds each fragment empty and adds its functions one by one
    fragments = [
        fragment
        for path in sorted(fixtures_dir.rglob("*.conllu"))
        for fragment in map(synthesize_sentence, parse_conllu_file(path))
        if fragment is not None
    ]
    assert len(fragments) == 67
    for fragment in fragments:
        assert fragment.function_names() == [f.name for f in fragment.functions]
        for fun in fragment.functions:
            assert fragment.function(fun.name) is fun
        with pytest.raises(LookupError_):
            fragment.function("no_such_fun")
        assert fragment.function("no_such_fun", None) is None


def test_copular_sentence_encoding(fixtures_dir):
    sentences = {
        f.sentence_id: f for f in parse_conllu_file(fixtures_dir / "structures.conllu")
    }
    fragment = synthesize_sentence(sentences["s4_cathy"])
    grammar = merge([fragment])
    assert linearize(grammar, "sent_s4_cathy") == "Cathy is gorgeous"
    gorgeous = fragment.functions[1]
    assert gorgeous.name == "Gorgeous"
    assert render_expr(gorgeous.lin) == "mkAP gorgeous_A"


def test_unrecognized_returns_none():
    (facts,) = parse_conllu("1\tGo\tgo\tVERB\tVB\t_\t0\troot\t_\t_\n")
    assert synthesize_sentence(facts) is None


def test_expr_typecheck_corpus(fixtures_dir):
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            fragment = synthesize_sentence(facts)
            if fragment is None:
                continue
            opers = fragment.opers
            funs = {f.name: f.result for f in fragment.functions}
            for oper in opers.values():
                assert infer_category(oper.definition, opers) == oper.category
            for fun in fragment.functions:
                args = dict(zip(fun.arg_names, fun.arg_cats))
                expected = "Cl" if fun.result == "Message" else fun.result
                assert infer_category(fun.lin, opers, funs_to_cl(funs), args) == expected


def funs_to_cl(funs):
    return {name: ("Cl" if cat == "Message" else cat) for name, cat in funs.items()}


def test_typecheck_rejects_bad_arity():
    with pytest.raises(GfTypeError):
        infer_category(app("mkCl", oper_ref("x_N")), {"x_N": _oper("x_N", "N")})


def _oper(name, cat):
    from gfgen.encoder import GfOper

    return GfOper(name, cat, app("mkN", Lit("x")))


def test_expr_refs_lists_one_kind_in_reading_order():
    expr = app("mkCl", fun_ref("B"), app("mkVP", oper_ref("x_V2"), arg_ref("a1"), fun_ref("A"), fun_ref("B")))
    assert expr_refs(expr, "fun") == ("B", "A", "B")
    assert expr_refs(expr, "oper") == ("x_V2",)
    assert expr_refs(expr, "arg") == ("a1",)
    assert expr_refs(Lit("B"), "fun") == ()


def test_oper_closure_on_corpus(fixtures_dir):
    from gfgen.encoder import ambient_category

    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            fragment = synthesize_sentence(facts)
            if fragment is None:
                continue
            referenced = set()
            for fun in fragment.functions:
                referenced.update(expr_refs(fun.lin, "oper"))
            for oper in fragment.opers.values():
                referenced.update(expr_refs(oper.definition, "oper"))
            emitted = set(fragment.opers)
            dangling = {
                name for name in referenced - emitted if ambient_category(name) is None
            }
            assert not dangling, facts.sentence_id
            orphans = emitted - referenced
            assert not orphans, facts.sentence_id


def test_fragment_determinism(board_game_facts):
    one = json.dumps(fragment_to_dict(synthesize_sentence(board_game_facts)), sort_keys=True)
    two = json.dumps(fragment_to_dict(synthesize_sentence(board_game_facts)), sort_keys=True)
    assert one == two


def test_fragment_roundtrip(board_game_facts):
    fragment = synthesize_sentence(board_game_facts)
    restored = fragment_from_dict(fragment_to_dict(fragment))
    assert render(merge([restored]), "G") == render(merge([fragment]), "G")


def test_every_fixture_fragment_decodes_to_itself(fixtures_dir):
    fragments = [
        fragment
        for path in sorted(fixtures_dir.rglob("*.conllu"))
        for fragment in map(synthesize_sentence, parse_conllu_file(path))
        if fragment is not None
    ]
    assert len(fragments) == 67
    for fragment in fragments:
        assert fragment_from_dict(fragment_to_dict(fragment)) == fragment


@pytest.mark.parametrize(
    "expr",
    [
        Lit(""),
        arg_ref("a1"),
        app("mkNP", oper_ref("game_N"), num="pl"),
        app("mkV2", Lit("make"), forms=(("part", "made"), ("third", "makes"))),
    ],
    ids=["empty_lit", "arg_ref", "app_num", "app_forms"],
)
def test_edge_expression_round_trip(expr):
    assert expr_from_dict(json.loads(json.dumps(expr_to_dict(expr)))) == expr


def test_empty_string_decodes_to_lit():
    assert expr_from_dict({"str": ""}) == Lit("")


def test_sanitize_ident():
    assert sanitize_ident("Hindu-Arabic") == "hindu_arabic"
    assert sanitize_ident("non-integer") == "non_integer"
    assert sanitize_ident("741.5") == "n741_5"


@pytest.mark.parametrize(
    "text", ["game", "Game", "p01_r03", "", "_", "3d", "x²", "café", "İstanbul", "ǅemal", "a b", "ⅰv"]
)
def test_sanitize_ident_agrees_with_the_substitution_on_every_text(text):
    ident = re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_") or "x"
    assert sanitize_ident(text) == ("n" + ident if ident[0].isdigit() else ident)


def test_number_metadata_on_plural_nps(board_game_facts):
    fragment = synthesize_sentence(board_game_facts)
    game_fun = next(f for f in fragment.functions if f.name == "Game")
    prep_adv = game_fun.lin.args[1]
    friends_np = prep_adv.args[1]
    assert friends_np.num == "pl"
    assert game_fun.lin.args[0].num == "sg"


def test_rule_selection_unambiguous(board_game_facts):
    # at every noun-encoding step exactly one extended rule accepts the
    # category at hand, scanning the table top to bottom
    from gfgen.encoder import SIGNATURES

    fragment = synthesize_sentence(board_game_facts)

    def check(expr, opers):
        if not isinstance(expr, App):
            return
        got = []
        for a in expr.args:
            check(a, opers)
            got.append(infer_category(a, opers, funs={"Bill": "NP", "Game": "NP", "Play": "V2"}))
        matches = [sig for sig in SIGNATURES[expr.fn] if sig[0] == tuple(got)]
        assert len(matches) == 1, (expr.fn, got)

    for fun in fragment.functions:
        check(fun.lin, fragment.opers)


def test_corpus_fragments_golden(fixtures_dir):
    text = ""
    for path in sorted((fixtures_dir / "corpus").glob("*/*.conllu")):
        for facts in parse_conllu_file(path):
            fragment = synthesize_sentence(facts)
            if fragment is not None:
                text += json.dumps(fragment_to_dict(fragment), indent=2, sort_keys=True) + "\n"
    assert len(text) == 180393
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "820841370f97974b81f06b4ec522e5287c989e4d25b921bab8aaa388ae2851aa"
    )


# one of each immutable record that ingest, recognition, components and encoding
# build for every sentence
PER_SENTENCE_RECORDS = [
    Token(1, "a", "a", "nn"),
    DependencyFact("nsubj", 2, 1),
    Atom("nsubj", (2, 1)),
    StructureAtom(2, 2),
    ComplementAttachment("preposition", 1, 3, case_marker=2),
    Attachment("adj_mod", Chunk(2, "b")),
    Chunk(1, "a", attachments=(Attachment("adj_mod", Chunk(2, "b")),)),
    ComponentMap(sub=1, verb=2, obj=3),
    app("mkNP", Ref("a_N", "oper"), num="pl"),
]


@pytest.mark.parametrize("record", PER_SENTENCE_RECORDS, ids=lambda r: type(r).__name__)
def test_per_sentence_records_reject_attribute_assignment(record):
    fields = type(record).__match_args__
    assert type(record)(**{name: getattr(record, name) for name in fields}) == record
    before = repr(record)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, "y")
    assert repr(record) == before
