import re

import pytest

from gfgen.ingest import (
    ConlluError,
    DependencyFact,
    SentenceFacts,
    StructureError,
    Token,
    facts_to_text,
    parse_conllu,
    parse_conllu_file,
)

TABLE_FACTS = (
    "nsubj(2,1).\n"
    "det(4,3).\n"
    "dobj(2,4).\n"
    "punct(2,5).\n"
    "pos_tag(1,prp).\n"
    "pos_tag(2,vbp).\n"
    "pos_tag(3,dt).\n"
    "pos_tag(4,nn).\n"
    "pos_tag(5,punct).\n"
)


def test_bill_game_fact_set(bill_game_facts):
    deps = {(d.relation, d.head, d.dependent) for d in bill_game_facts.deps}
    assert deps == {("nsubj", 2, 1), ("det", 4, 3), ("dobj", 2, 4), ("punct", 2, 5)}
    tags = {t.index: t.pos for t in bill_game_facts.tokens}
    assert tags == {1: "prp", 2: "vbp", 3: "dt", 4: "nn", 5: "punct"}


def test_facts_to_text_matches_table(bill_game_facts):
    assert facts_to_text(bill_game_facts) == TABLE_FACTS


def test_facts_to_text_golden_file(bill_game_facts, fixtures_dir):
    golden = (fixtures_dir / "bill_game_facts.golden").read_text(encoding="utf-8")
    assert facts_to_text(bill_game_facts) == golden


def test_empty_input():
    assert parse_conllu("") == []
    assert parse_conllu("\n\n") == []


def test_single_token_root_only():
    text = "1\tGo\tgo\tVERB\tVB\t_\t0\troot\t_\t_\n"
    (facts,) = parse_conllu(text)
    assert len(facts.tokens) == 1
    assert facts.deps == frozenset()


def test_minimal_fact_program():
    facts = SentenceFacts(
        sentence_id="t",
        tokens=(Token(1, "rice", "rice", "nn"),),
        deps=frozenset(),
    )
    assert facts_to_text(facts) == "pos_tag(1,nn).\n"


def test_parse_is_deterministic(fixtures_dir):
    path = fixtures_dir / "bill_game.conllu"
    first = facts_to_text(parse_conllu_file(path)[0])
    second = facts_to_text(parse_conllu_file(path)[0])
    assert first == second


def test_multiword_ranges_and_empty_nodes_skipped():
    text = (
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\tIN\t_\t2\tcase\t_\t_\n"
        "2\tle\tle\tNOUN\tNN\t_\t0\troot\t_\t_\n"
        "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    (facts,) = parse_conllu(text)
    assert [t.surface for t in facts.tokens] == ["de", "le"]


def test_wrong_column_count_reports_line():
    with pytest.raises(ConlluError, match="line 1"):
        parse_conllu("1\tBill\tBill\n")


def test_non_integer_index_reports_line():
    with pytest.raises(ConlluError, match="non-integer token index"):
        parse_conllu("x\tBill\tBill\tPROPN\tNNP\t_\t0\troot\t_\t_\n")


def test_cyclic_heads_name_sentence():
    text = (
        "# sent_id = loop\n"
        "1\ta\ta\tNOUN\tNN\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tNOUN\tNN\t_\t1\tdep\t_\t_\n"
    )
    with pytest.raises(StructureError, match="loop"):
        parse_conllu(text)


def chain_facts(heads):
    """A sentence whose token i (from 1) hangs from ``heads[i - 1]``; head 0 is the root."""
    tokens = tuple(Token(i, "w", "w", "nn") for i in range(1, len(heads) + 1))
    deps = frozenset(
        DependencyFact("dep", head, dependent)
        for dependent, head in enumerate(heads, start=1)
        if head
    )
    return SentenceFacts("chain", tokens, deps)


def test_long_head_chain_is_a_forest():
    # token i hangs from token i - 1: one chain 2,000 tokens deep
    facts = chain_facts(range(2000))
    assert len(facts.deps) == 1999


def test_height_is_the_most_edges_from_a_token_up_to_its_root():
    assert chain_facts([0]).height == 0
    assert chain_facts([0, 1, 2, 1, 0, 5]).height == 2  # two trees, 1-2-3 the higher
    assert chain_facts([2, 3, 0, 3]).height == 2
    assert chain_facts(range(2000)).height == 1999
    assert chain_facts(list(range(2, 2001)) + [0]).height == 1999  # the root last


def test_cycle_at_the_far_end_of_a_long_chain():
    # token i hangs from token i + 1 up to the last, which hangs from the one before it
    heads = list(range(2, 2001)) + [1999]
    with pytest.raises(StructureError, match="chain.*cyclic dependency heads"):
        chain_facts(heads)


def test_head_outside_the_sentence_is_reported_before_a_cycle():
    with pytest.raises(StructureError, match="points outside the sentence"):
        chain_facts([2, 1, 9])


@pytest.mark.parametrize("relation", ["dep", "amod", "nmod", "case", "det", "x"])
def test_a_token_with_two_heads_is_rejected_whatever_its_labels(relation):
    # token 3 hangs from token 1 and from token 2, which hangs from token 3; which
    # edge a set of dependencies yields first follows the labels' hashes
    tokens = tuple(Token(i, "w", "w", "nn") for i in (1, 2, 3))
    deps = frozenset(
        [DependencyFact(relation, 1, 3), DependencyFact("dep", 2, 3), DependencyFact("dep", 3, 2)]
    )
    with pytest.raises(StructureError) as exc:
        SentenceFacts("twice", tokens, deps)
    assert str(exc.value) == "sentence 'twice': token 3 has two heads"


def test_upos_fallback_mapping():
    text = (
        "1\tdogs\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\trun\trun\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\t!\t!\tPUNCT\t_\t_\t2\tpunct\t_\t_\n"
    )
    (facts,) = parse_conllu(text)
    assert [t.pos for t in facts.tokens] == ["nn", "vbp", "punct"]


def test_punct_tag_overrides_xpos():
    text = "1\t.\t.\tPUNCT\t.\t_\t0\troot\t_\t_\n"
    (facts,) = parse_conllu(text)
    assert facts.tokens[0].pos == "punct"


def test_udv2_labels_normalized():
    text = (
        "1\tgame\tgame\tNOUN\tNN\t_\t3\tnsubj:pass\t_\t_\n"
        "2\tis\tbe\tAUX\tVBZ\t_\t3\taux:pass\t_\t_\n"
        "3\tplayed\tplay\tVERB\tVBN\t_\t0\troot\t_\t_\n"
    )
    (facts,) = parse_conllu(text)
    relations = {d.relation for d in facts.deps}
    assert relations == {"nsubjpass", "auxpass"}


def test_subtype_relation_rendered_without_colon():
    text = (
        "1\this\this\tPRON\tPRP$\t_\t2\tnmod:poss\t_\t_\n"
        "2\tdog\tdog\tNOUN\tNN\t_\t0\troot\t_\t_\n"
    )
    (facts,) = parse_conllu(text)
    assert "nmod_poss(2,1)." in facts_to_text(facts)


def test_dep_count_invariant_on_corpus(fixtures_dir):
    # every well-formed tree yields token count - 1 dependency facts
    for portal in ("people", "mathematics", "food_drink"):
        for facts in parse_conllu_file(
            fixtures_dir / "corpus" / portal / "sentences.conllu"
        ):
            assert len(facts.deps) == len(facts.tokens) - 1, facts.sentence_id


def test_missing_lemma_falls_back():
    text = (
        "1\tfriends\tfriends\tNOUN\tNNS\t_\t2\tnsubj\t_\t_\n"
        "2\treads\t_\tVERB\tVBZ\t_\t0\troot\t_\t_\n"
    )
    (facts,) = parse_conllu(text)
    assert facts.tokens[1].lemma == "read"


def test_duplicate_dep_triples_collapse():
    facts = SentenceFacts(
        sentence_id="t",
        tokens=(Token(1, "a", "a", "nn"), Token(2, "b", "b", "nn")),
        deps=frozenset([DependencyFact("dep", 2, 1), DependencyFact("dep", 2, 1)]),
    )
    assert len(facts.deps) == 1


@pytest.mark.parametrize("index", [0, -1])
def test_token_index_below_1_is_rejected(index):
    with pytest.raises(ValueError, match="token index must be >= 1"):
        Token(index, "a", "a", "nn")


@pytest.mark.parametrize("pos", ["", "n n", "nn ", "\tnn", "n\u00a0n"])
def test_token_tag_with_whitespace_is_rejected(pos):
    with pytest.raises(ValueError, match="pos must be a non-empty tag without whitespace"):
        Token(index=1, surface="a", lemma="a", pos=pos)


@pytest.mark.parametrize(
    "row, reason",
    [
        ("0\tBill\tBill\tPROPN\tNNP\t_\t0\troot\t_\t_", "line 2: token index must be >= 1"),
        ("1\tBill\tBill\tPROPN\tN NP\t_\t0\troot\t_\t_", "line 2: pos must be a non-empty tag"),
        ("1\tBill\tBill\t_\t_\t_\t0\troot\t_\t_", "line 2: token with neither XPOS nor UPOS"),
    ],
)
def test_rejected_token_is_a_conllu_error_naming_its_line(tmp_path, row, reason):
    text = "# sent_id = x\n" + row + "\n"
    with pytest.raises(ConlluError, match="^" + reason):
        parse_conllu(text)
    path = tmp_path / "x.conllu"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConlluError, match="^%s: %s" % (re.escape(str(path)), reason)):
        parse_conllu_file(path)
