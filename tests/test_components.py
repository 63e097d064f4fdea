import pytest

from gfgen.components import (
    Chunk,
    ComponentMap,
    UnsupportedCopularComplement,
    build_chunk,
    complements,
    main_components,
)
from gfgen.ingest import parse_conllu, parse_conllu_file
from gfgen.structure import SHAPES, recognize, select


def token_index(facts, surface):
    for tok in facts.tokens:
        if tok.surface == surface:
            return tok.index
    raise AssertionError(surface)


def test_bill_game_roles(bill_game_facts):
    roles = main_components(bill_game_facts, SHAPES[2])
    assert roles.as_dict() == {"sub": 1, "verb": 2, "obj": 4}


def test_structure_one_roles():
    (facts,) = parse_conllu(
        "1\tBill\tBill\tPROPN\tNNP\t_\t2\tnsubj\t_\t_\n"
        "2\tsleeps\tsleep\tVERB\tVBZ\t_\t0\troot\t_\t_\n"
    )
    roles = main_components(facts, SHAPES[1])
    assert roles.as_dict() == {"sub": 1, "verb": 2}


def test_copular_adjective_roles(fixtures_dir):
    sentences = {
        f.sentence_id: f for f in parse_conllu_file(fixtures_dir / "structures.conllu")
    }
    cathy = sentences["s4_cathy"]
    roles = main_components(cathy, SHAPES[4])
    assert roles.as_dict() == {"sub": 1, "adj": 3}


def test_unsupported_copular_complement():
    (facts,) = parse_conllu(
        "1\tCathy\tCathy\tPROPN\tNNP\t_\t3\tnsubj\t_\t_\n"
        "2\tis\tbe\tAUX\tVBZ\t_\t3\tcop\t_\t_\n"
        "3\there\there\tADV\tRB\t_\t0\troot\t_\t_\n"
    )
    assert (4, 2) in {(s.kind, s.i_value) for s in recognize(facts)}
    with pytest.raises(UnsupportedCopularComplement) as exc:
        main_components(facts, SHAPES[4])
    assert exc.value.pos_tag == "rb"


def test_role_injectivity_is_enforced():
    with pytest.raises(ValueError):
        ComponentMap(sub=1, verb=1)


def test_injectivity_on_corpus(fixtures_dir):
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            selected = select(recognize(facts))
            if selected is None:
                continue
            roles = main_components(facts, selected).as_dict()
            assert len(set(roles.values())) == len(roles), facts.sentence_id


def test_game_complements(board_game_facts):
    game = token_index(board_game_facts, "game")
    found = {
        (att.kind, att.dependent, att.case_marker)
        for att in complements(board_game_facts, game)
    }
    popular = token_index(board_game_facts, "popular")
    board = token_index(board_game_facts, "board")
    friends = token_index(board_game_facts, "friends")
    with_ = token_index(board_game_facts, "with")
    assert found == {
        ("adj_mod", popular, None),
        ("noun_compound", board, None),
        ("preposition", friends, with_),
    }


def test_leaf_has_no_complements(board_game_facts):
    popular = token_index(board_game_facts, "popular")
    assert complements(board_game_facts, popular) == []


def test_friends_complements_exclude_possessive(board_game_facts):
    friends = token_index(board_game_facts, "friends")
    found = {(att.kind, att.dependent) for att in complements(board_game_facts, friends)}
    close = token_index(board_game_facts, "close")
    assert found == {("adj_mod", close)}


def test_build_chunk_game(board_game_facts):
    chunk = build_chunk(board_game_facts, token_index(board_game_facts, "game"))
    assert chunk.lemma == "game"
    kinds = [att.kind for att in chunk.attachments]
    assert kinds == ["adj_mod", "noun_compound", "preposition"]
    prep = chunk.attachments[-1]
    assert prep.chunk.lemma == "friend"
    assert [a.kind for a in prep.chunk.attachments] == ["adj_mod"]
    # determiners and possessives never join the chunk
    a = token_index(board_game_facts, "a")
    his = token_index(board_game_facts, "his")
    assert a not in chunk.token_set()
    assert his not in chunk.token_set()


def test_build_chunk_leaf(board_game_facts):
    close = token_index(board_game_facts, "close")
    assert build_chunk(board_game_facts, close) == Chunk(head=close, lemma="close")


def test_chunks_disjoint_across_roles(fixtures_dir):
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            selected = select(recognize(facts))
            if selected is None:
                continue
            roles = main_components(facts, selected).as_dict()
            seen = set()
            for index in roles.values():
                tokens = build_chunk(facts, index).token_set()
                assert not (tokens & seen), facts.sentence_id
                seen |= tokens


CHUNK_RELATIONS = {"compound", "amod", "conj", "advmod"}


def _subtree_oracle(facts, head):
    """Chunk membership by plain subtree traversal over the complement relations."""
    members = {head}
    frontier = [head]
    while frontier:
        node = frontier.pop()
        for dep in facts.deps_with_head(node):
            if dep.relation in CHUNK_RELATIONS:
                members.add(dep.dependent)
                frontier.append(dep.dependent)
            elif dep.relation in ("nmod", "obl") and any(
                d.relation == "case" for d in facts.deps_with_head(dep.dependent)
            ):
                members.add(dep.dependent)
                frontier.append(dep.dependent)
    return members


def test_chunk_tokens_match_subtree_oracle(fixtures_dir):
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            if len(facts.tokens) > 12:
                continue
            selected = select(recognize(facts))
            if selected is None:
                continue
            for index in main_components(facts, selected).as_dict().values():
                chunk = build_chunk(facts, index)
                assert chunk.token_set() == _subtree_oracle(facts, index), facts.sentence_id


def test_build_chunk_terminates_on_every_head(fixtures_dir):
    for facts in parse_conllu_file(fixtures_dir / "corpus/people/sentences.conllu"):
        for tok in facts.tokens:
            chunk = build_chunk(facts, tok.index)
            assert len(chunk.token_set()) <= len(facts.tokens)
