import itertools

from gfgen.ingest import parse_conllu_file
from gfgen.structure import SHAPES, recognize, select


def pairs(structures):
    return {(s.kind, s.i_value) for s in structures}


def test_bill_game_recognition(bill_game_facts):
    assert pairs(recognize(bill_game_facts)) == {(1, 1), (2, 2)}


def test_unrecognized_sentence(fixtures_dir):
    sentences = {
        f.sentence_id: f
        for f in parse_conllu_file(fixtures_dir / "corpus/mathematics/sentences.conllu")
    }
    assert recognize(sentences["m23"]) == set()
    assert recognize(sentences["m24"]) == set()


def test_copular_recognition(fixtures_dir):
    sentences = {
        f.sentence_id: f for f in parse_conllu_file(fixtures_dir / "structures.conllu")
    }
    assert pairs(recognize(sentences["s4_cathy"])) == {(1, 1), (4, 2)}


def test_structure_suite(fixtures_dir):
    expected = {
        "s1_birds": (1, 1),
        "s2_game": (2, 2),
        "s3_wants": (3, 3),
        "s4_cathy": (4, 2),
        "s5_played": (5, 2),
    }
    for facts in parse_conllu_file(fixtures_dir / "structures.conllu"):
        found = recognize(facts)
        assert found, facts.sentence_id
        assert (1, 1) in pairs(found), facts.sentence_id
        chosen = select(found)
        assert (chosen.kind, chosen.i_value) == expected[facts.sentence_id]


def test_select_prefers_higher_i_value():
    s = {SHAPES[1], SHAPES[2]}
    assert select(s) == SHAPES[2]


def test_select_singleton():
    assert select({SHAPES[1]}) == SHAPES[1]


def test_select_empty_is_none():
    assert select(set()) is None


def test_select_tie_break():
    assert select({SHAPES[2], SHAPES[5]}) == SHAPES[2]
    assert select({SHAPES[4], SHAPES[5]}) == SHAPES[5]


def test_select_permutation_invariant():
    atoms = [SHAPES[1], SHAPES[4], SHAPES[5]]
    results = {select(set(p)) for p in itertools.permutations(atoms)}
    assert results == {SHAPES[5]}


def test_simplest_structure_always_present(fixtures_dir):
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            found = recognize(facts)
            if found:
                assert (1, 1) in pairs(found), facts.sentence_id


def test_corpus_recognition_counts(fixtures_dir):
    counts = {}
    for portal in ("people", "mathematics", "food_drink"):
        sentences = parse_conllu_file(fixtures_dir / "corpus" / portal / "sentences.conllu")
        counts[portal] = (len(sentences), sum(1 for f in sentences if recognize(f)))
    assert counts["people"] == (15, 15)
    assert counts["mathematics"] == (24, 22)
    assert counts["food_drink"] == (23, 23)


# Relations named like derived predicates (structure, adj_mod, preposition)
# or like the token-tag facts of the fact program (pos_tag) must read as any
# other unknown relation does.
NAMED_LIKE_DERIVED = """# sent_id = clash
# text = Bill plays popular board games with friends.
1\tBill\tBill\tPROPN\tNNP\t_\t2\tnsubj\t_\t_
2\tplays\tplay\tVERB\tVBZ\t_\t0\troot\t_\t_
3\tpopular\tpopular\tADJ\tJJ\t_\t5\tamod\t_\t_
4\tboard\tboard\tNOUN\tNN\t_\t5\tcompound\t_\t_
5\tgames\tgame\tNOUN\tNNS\t_\t2\tdobj\t_\t_
6\twith\twith\tADP\tIN\t_\t7\tcase\t_\t_
7\tfriends\tfriend\tNOUN\tNNS\t_\t5\tnmod\t_\t_
8\ttoday\ttoday\tNOUN\tNN\t_\t2\tstructure\t_\t_
9\treally\treally\tADV\tRB\t_\t3\tadj_mod\t_\t_
10\tthere\tthere\tADV\tRB\t_\t7\tpreposition\t_\t_
11\tagain\tagain\tADV\tRB\t_\t2\tpos_tag\t_\t_
12\t.\t.\tPUNCT\t.\t_\t2\tpunct\t_\t_
"""


def test_relations_named_like_derived_predicates(tmp_path, capsys):
    from gfgen.cli import main
    from gfgen.components import build_chunk, main_components
    from gfgen.encoder import fragment_to_dict, synthesize_sentence
    from gfgen.ingest import parse_conllu

    neutral = NAMED_LIKE_DERIVED
    for relation in ("structure", "adj_mod", "preposition", "pos_tag"):
        neutral = neutral.replace("\t%s\t" % relation, "\tdep\t")
    (clash,) = parse_conllu(NAMED_LIKE_DERIVED)
    (plain,) = parse_conllu(neutral)
    assert pairs(recognize(clash)) == pairs(recognize(plain)) == {(1, 1), (2, 2)}
    selected = select(recognize(clash))
    roles = main_components(clash, selected)
    assert roles == main_components(plain, selected)
    for head in roles.as_dict().values():
        assert build_chunk(clash, head) == build_chunk(plain, head)
    assert build_chunk(clash, 3).attachments == ()
    assert fragment_to_dict(synthesize_sentence(clash)) == fragment_to_dict(
        synthesize_sentence(plain)
    )
    path = tmp_path / "clash.conllu"
    path.write_text(NAMED_LIKE_DERIVED, encoding="utf-8")
    assert main(["synthesize", str(path), "--dump-structures"]) == 0
    assert capsys.readouterr().out == "clash\t2\t2\n"
    assert main(["synthesize", str(path), "--dump-models"]) == 0
    assert capsys.readouterr().out == "% sentence clash\nstructure(1,1).\nstructure(2,2).\n"
    assert main(["synthesize", str(path), "-o", str(tmp_path / "out")]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["frag_clash.json"]
