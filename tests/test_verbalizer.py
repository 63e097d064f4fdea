import copy
import itertools
import pickle
import random

import pytest

from gfgen import linearizer, verbalizer
from gfgen.ingest import parse_conllu_file
from gfgen.linearizer import _MARK, NPv, RealizeTypeError, linearize, linearize_expr
from gfgen.verbalizer import (
    AnnotationError,
    GroundAtom,
    MissingAnnotations,
    Triple,
    _rdf_type_annotation,
    load_annotations,
    parse_atoms,
    parse_triples,
    verbalize_atoms,
    verbalize_triples,
)

PHYLO_DESCRIPTION = (
    "Input of phylotastic FindScientificNamesFromWeb GET is web link. "
    "Type of web link is url. "
    "Output of phylotastic FindScientificNamesFromWeb GET is scientific names. "
    "Output of phylotastic FindScientificNamesFromWeb GET is species names. "
    "Type of scientific names is names. "
    "Type of species names is names."
)


@pytest.fixture
def phylo_annotations(fixtures_dir):
    text = (fixtures_dir / "phylotastic_annotations.tsv").read_text(encoding="utf-8")
    return load_annotations(text)


@pytest.fixture
def phylo_atoms(fixtures_dir):
    return parse_atoms((fixtures_dir / "phylotastic_atoms.lp").read_text(encoding="utf-8"))


@pytest.fixture
def people_annotations(fixtures_dir):
    text = (fixtures_dir / "people_annotations.tsv").read_text(encoding="utf-8")
    return load_annotations(text)


def test_load_annotations(phylo_annotations):
    assert [(a.predicate, a.arity) for a in phylo_annotations] == [
        ("input", 2),
        ("output", 2),
        ("typeof", 2),
    ]


def test_load_annotations_empty():
    assert load_annotations("") == []


def test_annotation_slot_mismatch():
    annotations = load_annotations("input/2\tThe input of $1 is $3")
    with pytest.raises(AnnotationError, match="slots"):
        verbalize_atoms([GroundAtom("input", ("a", "b"))], annotations)


def test_annotation_unrecognizable():
    annotations = load_annotations("odd/1\t$1")
    with pytest.raises(AnnotationError):
        verbalize_atoms([GroundAtom("odd", ("a",))], annotations)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("zz/2\tquickly and or $1 $2", "is not analyzable: could not locate a verb"),
        ("zz/2\tThe input of $1 is $3", "must use slots $1..$2 exactly"),
        ("zz/2\tThe board_game of $1 is the board game of $2", "is not encodable: conflicting definitions for oper"),
    ],
    ids=["template grammar", "slot check", "encoder"],
)
def test_a_failed_annotation_fails_only_the_facts_that_need_it(fixtures_dir, phylo_atoms, line, reason):
    text = (fixtures_dir / "phylotastic_annotations.tsv").read_text(encoding="utf-8") + line + "\n"
    annotations = load_annotations(text)
    assert [a.predicate for a in annotations] == ["input", "output", "typeof"]
    assert verbalize_atoms(phylo_atoms, annotations) == PHYLO_DESCRIPTION
    message = "line 4: annotation for zz/2 "
    for kept in (annotations, copy.deepcopy(annotations), pickle.loads(pickle.dumps(annotations))):
        assert str(kept.failed[("zz", 2)]).startswith(message)
        for _ in range(2):
            with pytest.raises(AnnotationError) as exc:
                verbalize_atoms(phylo_atoms + [GroundAtom("zz", ("a", "b"))], kept)
            assert str(exc.value).startswith(message) and reason in str(exc.value)
        with pytest.raises(AnnotationError, match="^line 4: "):
            verbalize_triples([Triple("a", "zz", "b")], kept)


def test_the_last_record_of_a_predicate_wins_failed_or_not():
    good, bad = "p/1\t$1 reads books", "p/1\t$1"
    atoms = [GroundAtom("p", ("Kevin",))]
    assert verbalize_atoms(atoms, load_annotations(bad + "\n" + good)) == "Kevin reads books."
    with pytest.raises(AnnotationError, match="^line 2: "):
        verbalize_atoms(atoms, load_annotations(good + "\n" + bad))


@pytest.mark.parametrize(
    "text, message",
    [
        ("input\tThe input of $1 is $2", "line 1: missing /arity in 'input'"),
        ("input/2 The input of $1 is $2", "line 1: expected predicate/arity<TAB>sentence"),
        ("odd/1\t$1\ninput/two\tThe input of $1 is $2", "line 2: non-integer arity 'two'"),
    ],
)
def test_a_malformed_annotation_line_stays_fatal(text, message):
    with pytest.raises(AnnotationError) as exc:
        load_annotations(text)
    assert str(exc.value) == message


def test_single_atom(phylo_annotations):
    text = verbalize_atoms(
        [GroundAtom("typeof", ("web_link", "url"))], phylo_annotations
    )
    assert text == "Type of web link is url."


def test_full_description(phylo_annotations, phylo_atoms):
    assert verbalize_atoms(phylo_atoms, phylo_annotations) == PHYLO_DESCRIPTION


def test_empty_atom_list(phylo_annotations):
    assert verbalize_atoms([], phylo_annotations) == ""


def test_missing_annotation_lists_predicates(phylo_annotations):
    with pytest.raises(MissingAnnotations) as exc:
        verbalize_atoms(
            [GroundAtom("typeof", ("a", "b")), GroundAtom("cost", ("a", "b"))],
            phylo_annotations,
        )
    assert exc.value.predicates == ["cost/2"]


def test_sentence_count_matches_atom_count(phylo_annotations, phylo_atoms):
    text = verbalize_atoms(phylo_atoms, phylo_annotations)
    assert text.count(".") == len(phylo_atoms)


def test_people_triples(people_annotations, fixtures_dir):
    triples = parse_triples(
        (fixtures_dir / "people_triples.tsv").read_text(encoding="utf-8")
    )
    assert verbalize_triples(triples, people_annotations) == [
        "Kevin has_pets Flossie.",
        "Flossie is cow.",
        "Mick reads Daily Mirror.",
    ]


def test_rdf_type_builtin(people_annotations):
    out = verbalize_triples([Triple("Flossie", "rdf:type", "cow")], people_annotations)
    assert out == ["Flossie is cow."]


def test_triple_missing_relation(people_annotations):
    with pytest.raises(MissingAnnotations):
        verbalize_triples([Triple("a", "unknown_rel", "b")], people_annotations)


def test_slot_substitution_is_literal(phylo_annotations):
    # the substituted symbol is never re-inflected
    text = verbalize_atoms(
        [GroundAtom("typeof", ("species_names", "names"))], phylo_annotations
    )
    assert text == "Type of species names is names."


def test_symbol_spelled_like_an_annotation_function_stays_text(people_annotations):
    # "Read" names the annotation grammar's V2 function; a symbol is still an NP
    atoms = parse_atoms("reads(Read, x).\nhas_pet(Has_pet, sent_reads_2).\n")
    assert verbalize_atoms(atoms, people_annotations) == (
        "Read reads x. Has pet has_pets sent reads 2."
    )


def test_parse_atoms_fact_text():
    atoms = parse_atoms("input(service, web_link).\ntypeof(web_link, url).\n")
    assert atoms == [
        GroundAtom("input", ("service", "web_link")),
        GroundAtom("typeof", ("web_link", "url")),
    ]


def test_parse_atoms_json():
    atoms = parse_atoms('[{"predicate": "input", "args": ["a", "b"]}]')
    assert atoms == [GroundAtom("input", ("a", "b"))]


def test_parse_atoms_bad_line():
    with pytest.raises(ValueError, match="line 1"):
        parse_atoms("nonsense\n")


@pytest.mark.parametrize(
    "text, where",
    [
        ("has_pet(kevin,).\n", "line 1"),
        ("has_pet(,flossie).\n", "line 1"),
        ("reads(mick, paper).\n\nhas_pet(kevin, ,flossie).\n", "line 3"),
        ('[{"predicate": "has_pet", "args": ["kevin", ""]}]', "record 1"),
        ('[{"predicate": "p", "args": []}, {"predicate": "", "args": ["a"]}]', "record 2"),
        ('[{"predicate": "has_pet", "args": ["kevin", "  "]}]', "record 1"),
        ('[{"predicate": " ", "args": ["a"]}]', "record 1"),
        ('has_pet("", flossie).\n', "line 1"),
        ('reads(mick, paper).\nhas_pet(kevin, " ").\n', "line 2"),
    ],
    ids=[
        "trailing comma",
        "leading comma",
        "inner comma",
        "empty record arg",
        "empty record predicate",
        "blank record arg",
        "blank record predicate",
        "empty quoted arg",
        "blank quoted arg",
    ],
)
def test_parse_atoms_rejects_an_empty_argument_or_predicate(text, where):
    with pytest.raises(ValueError) as exc:
        parse_atoms(text)
    assert str(exc.value) == where + ": atom predicate and arguments must be nonempty"


def test_ground_atom_rejects_empty_fields_yet_takes_no_arguments():
    for predicate, args in [("has_pet", ("kevin", "")), ("has_pet", ("", "")), ("", ("kevin",)), ("", ())]:
        with pytest.raises(ValueError, match="nonempty"):
            GroundAtom(predicate, args)
    assert parse_atoms("p().\nq( ).\n") == [GroundAtom("p", ()), GroundAtom("q", ())]
    assert parse_atoms('[{"predicate": "p", "args": []}]') == [GroundAtom("p", ())]


def test_parse_atoms_reads_a_quoted_argument_as_one_symbol(people_annotations):
    atoms = parse_atoms(
        'has_pet("Kevin, Jr.", flossie).\n'
        'has_pet("Kevin", flossie).\n'
        'reads( "say \\"hi\\" \\\\ (x)" , "a)b" ).\n'
    )
    assert atoms == [
        GroundAtom("has_pet", ("Kevin, Jr.", "flossie")),
        GroundAtom("has_pet", ("Kevin", "flossie")),
        GroundAtom("reads", ('say "hi" \\ (x)', "a)b")),
    ]
    assert verbalize_atoms(atoms[:2], people_annotations) == (
        "Kevin, Jr. has_pets flossie. Kevin has_pets flossie."
    )
    # \n is clingo's newline escape; an escaped backslash before an n stays a backslash
    atoms = parse_atoms('has_pet("Kevin\\nJr", flossie).\np("a\\\\nb").\n')
    assert atoms == [GroundAtom("has_pet", ("Kevin\nJr", "flossie")), GroundAtom("p", ("a\\nb",))]
    assert verbalize_atoms(atoms[:1], people_annotations) == "Kevin Jr has_pets flossie."
    for text in ['p(a).\nhas_pet("Kevin, flossie).\n', 'p(a).\nhas_pet("Kevin" "Jr", flossie).\n']:
        with pytest.raises(ValueError, match="^line 2: not a fact"):
            parse_atoms(text)


def test_parse_triples_tsv_and_json():
    tsv = parse_triples("Kevin\thas_pet\tFlossie\n")
    assert tsv == [Triple("Kevin", "has_pet", "Flossie")]
    js = parse_triples('[{"subject": "a", "relation": "r", "object": "b"}, ["x", "y", "z"]]')
    assert js == [Triple("a", "r", "b"), Triple("x", "y", "z")]
    # an empty field names its line or record
    for text, where in [
        ("Kevin\t\tFlossie\n", "line 1"),
        ("Kevin\thas_pet\tFlossie\n\n \tis\tcow\n", "line 3"),
        ('[["a", "r", "b"], ["a", "", "b"]]', "record 2"),
        ('[{"subject": "", "relation": "r", "object": "b"}]', "record 1"),
        ('[["Kevin", "has_pet", " "]]', "record 1"),
        ('[["a", "r", "b"], {"subject": "a", "relation": "\\t", "object": "b"}]', "record 2"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_triples(text)
        assert str(exc.value) == where + ": triple fields must be nonempty"


def test_annotation_lin_references_each_arg_once(phylo_annotations):
    from gfgen.encoder import App, Ref

    def arg_counts(expr, counts):
        if isinstance(expr, Ref) and expr.kind == "arg":
            counts[expr.name] = counts.get(expr.name, 0) + 1
        elif isinstance(expr, App):
            for a in expr.args:
                arg_counts(a, counts)
        return counts

    for annotation in phylo_annotations:
        fun = annotation.grammar.function(annotation.function_name)
        counts = arg_counts(fun.lin, {})
        assert counts == {name: 1 for name in fun.arg_names}


def test_output_order_is_input_order(phylo_annotations):
    atoms = [
        GroundAtom("typeof", ("web_link", "url")),
        GroundAtom("input", ("service", "web_link")),
    ]
    text = verbalize_atoms(atoms, phylo_annotations)
    assert text.startswith("Type of web link is url. Input of service is web link.")


# (annotation sentence, expected sentence) per shape, over $1/$2 and {0}/{1}: the
# realizer drops the article, keeps the observed verb form and capitalizes the
# first letter
TEMPLATE_SHAPES = [
    ("{w}_of", "The {w} of $1 is $2", "{w} of {0} is {1}", ["capital", "owner", "input"]),
    ("is_{w}_of", "$1 is the {w} of $2", "{0} is {w} of {1}", ["author", "type", "output"]),
    ("{w}", "$1 {w} $2", "{0} {w} {1}", ["reads", "owns", "watches", "studies"]),
]


def test_verbalization_equals_the_template_oracle():
    templates, lines = {}, []
    for predicate, annotation, expected, words in TEMPLATE_SHAPES:
        for w in words:
            lines.append("%s/2\t%s" % (predicate.format(w=w), annotation.format(w=w)))
            templates[predicate.format(w=w)] = expected.replace("{w}", w)
    annotations = load_annotations("\n".join(lines))
    assert [a.predicate for a in annotations] == list(templates)

    def sentence(template, subject, obj):
        text = template.format(subject.replace("_", " "), obj.replace("_", " "))
        return text[:1].upper() + text[1:] + "."

    rng = random.Random(13)
    # symbols spelling the annotation grammars' own functions stay plain text
    functions = sorted({n for a in annotations for n in a.grammar.function_names()})
    assert {"Read", "Own", "sent_reads_2", "sent_capital_of_2"} <= set(functions)
    words = ["Kevin", "web", "link", "Daily", "Mirror", "cow", "x1", "names"]
    symbols = functions + ["_".join(rng.sample(words, rng.randint(1, 3))) for _ in range(40)]
    predicates = sorted(templates)
    for _ in range(150):
        facts = [
            (rng.choice(predicates + ["rdf:type"]), rng.choice(symbols), rng.choice(symbols))
            for _ in range(rng.randint(1, 6))
        ]
        expected = [
            sentence(templates.get(p, "{0} is {1}"), subject, obj) for p, subject, obj in facts
        ]
        atoms = [GroundAtom(p, (s, o)) for p, s, o in facts if p != "rdf:type"]
        assert verbalize_atoms(atoms, annotations) == " ".join(
            e for e, (p, _, _) in zip(expected, facts) if p != "rdf:type"
        )
        triples = [Triple(s, p, o) for p, s, o in facts]
        assert verbalize_triples(triples, annotations) == expected


def test_loaded_annotations_are_read_only_and_stay_indexed(phylo_annotations):
    before = list(phylo_annotations)
    for mutate in [
        lambda a: a.append(before[0]),
        lambda a: a.extend(before),
        lambda a: a.insert(0, before[0]),
        lambda a: a.pop(),
        lambda a: a.remove(before[0]),
        lambda a: a.clear(),
        lambda a: a.sort(key=id),
        lambda a: a.reverse(),
        lambda a: a.__setitem__(0, before[1]),
        lambda a: a.__delitem__(0),
        lambda a: a.__iadd__(before),
        lambda a: a.__imul__(2),
    ]:
        with pytest.raises(TypeError):
            mutate(phylo_annotations)
    assert phylo_annotations == before
    copied = copy.deepcopy(phylo_annotations)
    assert [a.predicate for a in copied] == [a.predicate for a in before]
    assert copied.by_key.keys() == phylo_annotations.by_key.keys()
    # a plain list of annotations verbalizes alike
    atoms = [GroundAtom("typeof", ("web_link", "url"))]
    assert verbalize_atoms(atoms, before) == verbalize_atoms(atoms, phylo_annotations)


# symbols that a format string or the whitespace rule could misread
ODD_SYMBOLS = ["{0}", "{1} }", "  two   spaces ", "a\nb", "Daily_Mirror", "a\x00b"]


def _linearized(annotation, args):
    """The sentence of one fact as one ``linearize`` call gives it, capitalized, with its period."""
    symbols = [NPv(a.replace("_", " "), "sg") for a in args]
    text = linearize(annotation.grammar, annotation.function_name, args=symbols)
    return text[:1].upper() + text[1:] + "."


def _evaluated(annotation, args):
    """The same sentence from a direct evaluation of the function's body."""
    fun = annotation.grammar.function(annotation.function_name)
    env = dict(zip(fun.arg_names, [NPv(a.replace("_", " "), "sg") for a in args]))
    text = " ".join(linearize_expr(fun.lin, annotation.grammar, env).split())
    return text[:1].upper() + text[1:] + "."


def _corpus_annotation_lines(fixtures_dir):
    """The benchmark's annotation shapes over every plain corpus noun and 3sg verb."""
    nouns, verbs = set(), set()
    for path in sorted((fixtures_dir / "corpus").glob("*/sentences.conllu")):
        for facts in parse_conllu_file(path):
            for tok in facts.tokens:
                if tok.lemma.isalpha() and tok.lemma.islower():
                    if tok.pos == "nn":
                        nouns.add(tok.lemma)
                    elif tok.pos == "vbz" and tok.lemma != "be":
                        verbs.add(tok.surface)
    lines = ["%s_of/2\tThe %s of $1 is $2" % (w, w) for w in sorted(nouns)]
    lines += ["is_%s_of/2\t$1 is the %s of $2" % (w, w) for w in sorted(nouns)]
    lines += ["%s/2\t$1 %s $2" % (w, w) for w in sorted(verbs)]
    return lines


def test_a_compiled_annotation_verbalizes_as_one_linearize_call_does(fixtures_dir):
    text = "".join(
        (fixtures_dir / tsv).read_text(encoding="utf-8")
        for tsv in ("phylotastic_annotations.tsv", "people_annotations.tsv")
    )
    annotations = load_annotations(text + "\n".join(_corpus_annotation_lines(fixtures_dir)))
    assert not annotations.failed and len(annotations.by_key) > 100
    assert all(isinstance(a.sentence_format, str) for a in annotations)
    for a in annotations.by_key.values():  # the corpus verb "reads" repeats a fixture record
        for args in itertools.product(ODD_SYMBOLS, repeat=a.arity):
            expected = _linearized(a, args)
            assert verbalize_atoms([GroundAtom(a.predicate, args)], annotations) == expected
            assert expected == _evaluated(a, args)
    rdf_type = _rdf_type_annotation()
    assert isinstance(rdf_type.sentence_format, str)
    for subject, obj in itertools.product(ODD_SYMBOLS, repeat=2):
        expected = [_linearized(rdf_type, (subject, obj))]
        assert verbalize_triples([Triple(subject, "rdf:type", obj)], annotations) == expected
        assert expected == [_evaluated(rdf_type, (subject, obj))]


def test_an_annotation_without_a_format_linearizes_each_fact(monkeypatch):
    # a lexeme that holds the sequence delimiter leaves the annotation without a format
    annotations = load_annotations("reads/2\t$1 re%sads $2\ntype/1\tThe ty%spe of $1 is url" % (_MARK, _MARK))
    assert [a.sentence_format for a in annotations] == [None, None]
    for a in annotations:
        for args in itertools.product(ODD_SYMBOLS, repeat=a.arity):
            expected = _linearized(a, args)
            assert verbalize_atoms([GroundAtom(a.predicate, args)], annotations) == expected
            assert expected == _evaluated(a, args)
    # so does a realizer error while the format is made; each fact raises it anew
    made = linearizer._sequence

    def failing(*args):
        raise RealizeTypeError("no realization")

    monkeypatch.setattr(linearizer, "_sequence", failing)
    annotations = load_annotations("reads/2\t$1 reads $2")
    assert annotations[0].sentence_format is None
    atoms = [GroundAtom("reads", ("Mick", "Daily_Mirror"))]
    for _ in range(2):
        with pytest.raises(RealizeTypeError, match="^no realization$"):
            verbalize_atoms(atoms, annotations)
    monkeypatch.setattr(linearizer, "_sequence", made)
    assert verbalize_atoms(atoms, annotations) == "Mick reads Daily Mirror."


def test_loading_builds_one_format_per_annotation_and_facts_call_no_linearize(fixtures_dir, monkeypatch):
    text = "".join(
        (fixtures_dir / tsv).read_text(encoding="utf-8")
        for tsv in ("phylotastic_annotations.tsv", "people_annotations.tsv")
    )
    built, called = [], []
    made, linearized = linearizer._sequence, verbalizer.linearize

    def counted_sequence(grammar, fun, numbers):
        built.append((fun.name, numbers))
        return made(grammar, fun, numbers)

    def counted_linearize(grammar, name, **kwargs):
        called.append(name)
        return linearized(grammar, name, **kwargs)

    monkeypatch.setattr(linearizer, "_sequence", counted_sequence)
    monkeypatch.setattr(verbalizer, "linearize", counted_linearize)
    annotations = load_annotations(text)
    assert sorted(built) == sorted((a.function_name, ("sg",) * a.arity) for a in annotations)
    rdf_type = _rdf_type_annotation()  # built once per process, on first use
    built.clear()

    rng = random.Random(17)
    symbols = ["Kevin", "Flossie", "web_link", "url", "Daily_Mirror", "{0}"]
    keys = sorted(annotations.by_key)
    atoms = [GroundAtom(p, tuple(rng.choice(symbols) for _ in range(n))) for p, n in rng.choices(keys, k=300)]
    relations = ["rdf:type", "has_pet", "reads"]
    triples = [Triple(rng.choice(symbols), rng.choice(relations), rng.choice(symbols)) for _ in range(300)]
    paragraph = verbalize_atoms(atoms, annotations)
    sentences = verbalize_triples(triples, annotations)
    assert (built, called) == ([], [])
    assert paragraph == " ".join(_linearized(annotations.by_key[(a.predicate, len(a.args))], a.args) for a in atoms)

    def annotation(relation):
        return rdf_type if relation == "rdf:type" else annotations.by_key[(relation, 2)]

    assert sentences == [_linearized(annotation(t.relation), (t.subject, t.object)) for t in triples]
    # an annotation without a format makes one linearize call per fact
    marked = load_annotations("reads/2\t$1 re%sads $2" % _MARK)
    verbalize_atoms([GroundAtom("reads", ("a", "b"))] * 3, marked)
    assert called == [marked[0].function_name] * 3


def test_a_missing_annotation_wins_over_a_failed_one_at_an_earlier_fact(fixtures_dir):
    text = (fixtures_dir / "people_annotations.tsv").read_text(encoding="utf-8")
    annotations = load_annotations(text + "zz/2\tquickly and or $1 $2\n")
    assert ("zz", 2) in annotations.failed
    atoms = [GroundAtom("zz", ("a", "b")), GroundAtom("reads", ("a", "b")), GroundAtom("likes", ("a", "b"))]
    with pytest.raises(MissingAnnotations) as exc:
        verbalize_atoms(atoms + [GroundAtom("p", ("a",))], annotations)
    assert exc.value.args[0] == "no annotation for: likes/2, p/1"
    triples = [Triple("a", "zz", "b"), Triple("a", "rdf:type", "b"), Triple("a", "likes", "b")]
    with pytest.raises(MissingAnnotations) as exc:
        verbalize_triples(triples, annotations)
    assert exc.value.args[0] == "no annotation for: likes/2"
    # without the missing ones, the failed annotation's own error is raised
    with pytest.raises(AnnotationError, match="^line 3: annotation for zz/2 "):
        verbalize_atoms(atoms[:2], annotations)
