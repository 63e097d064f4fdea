import hashlib
import json

import pytest

from gfgen.cli import main


def test_ingest_matches_golden(capsys, fixtures_dir):
    assert main(["ingest", str(fixtures_dir / "bill_game.conllu")]) == 0
    out = capsys.readouterr().out
    golden = (fixtures_dir / "bill_game_facts.golden").read_text(encoding="utf-8")
    assert out == golden


def test_dump_structures(capsys, fixtures_dir):
    main(["synthesize", str(fixtures_dir / "structures.conllu"), "--dump-structures"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "s1_birds\t1\t1",
        "s2_game\t2\t2",
        "s3_wants\t3\t3",
        "s4_cathy\t4\t2",
        "s5_played\t5\t2",
    ]


def test_dump_structures_unrecognized(capsys, fixtures_dir):
    main(
        [
            "synthesize",
            str(fixtures_dir / "corpus/mathematics/sentences.conllu"),
            "--dump-structures",
        ]
    )
    lines = capsys.readouterr().out.splitlines()
    assert "m23\tUNRECOGNIZED" in lines
    assert "m24\tUNRECOGNIZED" in lines


def test_dump_models(capsys, fixtures_dir):
    main(["synthesize", str(fixtures_dir / "bill_game.conllu"), "--dump-models"])
    out = capsys.readouterr().out
    assert "% sentence bill_game" in out
    assert "structure(2,2)." in out


def test_dump_components(capsys, fixtures_dir):
    main(["synthesize", str(fixtures_dir / "bill_game.conllu"), "--dump-components"])
    report = json.loads(capsys.readouterr().out)
    assert report[0]["sentence_id"] == "bill_game"
    assert report[0]["roles"] == {"sub": 1, "verb": 2, "obj": 4}
    assert report[0]["chunks"]["obj"]["lemma"] == "game"


def test_synthesize_export_linearize_pipeline(tmp_path, capsys, fixtures_dir):
    outdir = tmp_path / "frags"
    main(["synthesize", str(fixtures_dir / "board_game.conllu"), "-o", str(outdir)])
    fragment_files = sorted(outdir.glob("*.json"))
    assert len(fragment_files) == 1

    name = tmp_path / "Games"
    main(["export", str(outdir), "-o", str(name)])
    abstract = (tmp_path / "Games.gf").read_text(encoding="utf-8")
    concrete = (tmp_path / "GamesEng.gf").read_text(encoding="utf-8")
    assert abstract.startswith("abstract Games = {")
    assert "Game = mkNP (mkNP popular_board_game_CN )" in concrete

    capsys.readouterr()
    main(["linearize", "--grammar", str(outdir), "--fun", "sent_board_game", "--period"])
    assert capsys.readouterr().out.strip() == "Bill plays popular board game with close friends."


def test_synthesize_skips_unrecognized(tmp_path, capsys, fixtures_dir):
    outdir = tmp_path / "frags"
    main(
        [
            "synthesize",
            str(fixtures_dir / "corpus/mathematics/sentences.conllu"),
            "-o",
            str(outdir),
        ]
    )
    err = capsys.readouterr().err
    assert "skip m23" in err
    assert "skip m24" in err
    assert len(list(outdir.glob("*.json"))) == 22


# "persons" (nns) keeps its surface plural while "person" (nn) pluralizes to
# "people", so the encoder meets two definitions of person_N
PERSON_BLOCK = "\n".join(
    [
        "# sent_id = person",
        "# text = The person likes persons.",
        "1\tThe\tthe\tDET\tDT\t_\t2\tdet\t_\t_",
        "2\tperson\tperson\tNOUN\tNN\t_\t3\tnsubj\t_\t_",
        "3\tlikes\tlike\tVERB\tVBZ\t_\t0\troot\t_\t_",
        "4\tpersons\tperson\tNOUN\tNNS\t_\t3\tobj\t_\t_",
        "5\t.\t.\tPUNCT\t.\t_\t3\tpunct\t_\t_",
    ]
)


def _person_between_bills(fixtures_dir, path):
    """The person sentence between two copies of bill_game (ids bill_game, bill_game_2)."""
    bill = (fixtures_dir / "bill_game.conllu").read_text(encoding="utf-8").strip()
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = [bill, PERSON_BLOCK, bill.replace("bill_game", "bill_game_2")]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return path


def test_synthesize_skips_a_sentence_with_conflicting_opers(tmp_path, capsys, fixtures_dir):
    conllu = _person_between_bills(fixtures_dir, tmp_path / "person.conllu")
    outdir = tmp_path / "frags"
    assert main(["synthesize", str(conllu), "-o", str(outdir)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "skip person: not encodable: conflicting definitions for oper person_N",
        "wrote 2 fragment(s) to %s" % outdir,
    ]
    assert sorted(p.name for p in outdir.glob("*.json")) == [
        "frag_bill_game.json",
        "frag_bill_game_2.json",
    ]


def test_eval_counts_a_sentence_with_conflicting_opers_as_not_encodable(
    tmp_path, capsys, fixtures_dir
):
    _person_between_bills(fixtures_dir, tmp_path / "corpus" / "people" / "sentences.conllu")
    report = tmp_path / "report.csv"
    assert main(["eval", "--corpus", str(tmp_path / "corpus"), "--report", str(report)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "sentence person not encodable: conflicting definitions for oper person_N\n"
    )
    assert captured.out.startswith("people: 3 sentences, 3 recognized, ")
    assert report.exists()


def test_verbalize_atoms_cli(capsys, fixtures_dir):
    main(
        [
            "verbalize",
            "--annotations",
            str(fixtures_dir / "phylotastic_annotations.tsv"),
            "--atoms",
            str(fixtures_dir / "phylotastic_atoms.lp"),
        ]
    )
    out = capsys.readouterr().out
    assert out.startswith("Input of phylotastic FindScientificNamesFromWeb GET is web link.")


def test_verbalize_triples_cli(capsys, fixtures_dir):
    main(
        [
            "verbalize",
            "--annotations",
            str(fixtures_dir / "people_annotations.tsv"),
            "--triples",
            str(fixtures_dir / "people_triples.tsv"),
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert out == ["Kevin has_pets Flossie.", "Flossie is cow.", "Mick reads Daily Mirror."]


def test_eval_cli_writes_report(tmp_path, capsys, fixtures_dir):
    report = tmp_path / "report.csv"
    main(["eval", "--corpus", str(fixtures_dir / "corpus"), "--report", str(report)])
    out = capsys.readouterr().out
    assert "mathematics: 24 sentences, 22 recognized" in out
    assert report.exists()


def test_linearize_people_style_args(tmp_path, capsys, fixtures_dir):
    outdir = tmp_path / "frags"
    main(["synthesize", str(fixtures_dir / "bill_game.conllu"), "-o", str(outdir)])
    capsys.readouterr()
    main(["linearize", "--grammar", str(outdir), "--fun", "sent_bill_game"])
    assert capsys.readouterr().out.strip() == "Bill plays game"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fun", "nope"], "gfgen: no function 'nope' in grammar"),
        (
            ["--fun", "sent_bill_game", "--args", "Bill"],
            "gfgen: function sent_bill_game takes 0 arguments, got 1",
        ),
    ],
)
def test_linearize_error_is_one_line_and_status_1(tmp_path, capsys, fixtures_dir, argv, message):
    outdir = tmp_path / "frags"
    main(["synthesize", str(fixtures_dir / "bill_game.conllu"), "-o", str(outdir)])
    capsys.readouterr()
    assert main(["linearize", "--grammar", str(outdir)] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def _fragment_text(lin, function=None, **fields):
    """The JSON of fragment x whose one function sent_x has the body ``lin``.

    ``function`` and ``fields`` replace keys of that function and of the fragment.
    """
    fun = {"name": "sent_x", "args": [], "result": "Message", "lin": lin, **(function or {})}
    fragment = {
        "sentence_id": "x",
        "categories": ["Message"],
        "lincats": {"Message": "Cl"},
        "functions": [fun],
        "opers": [],
        **fields,
    }
    return json.dumps(fragment)


X_LIN = {"str": "x"}


BAD_FRAGMENTS = {
    "list_num.json": (
        _fragment_text({"app": "mkNP", "args": [{"ref": "game_N", "kind": "oper"}], "num": ["pl"]}),
        "not a fragment (TypeError: unhashable type: 'list')",
    ),
    "list_forms.json": (
        _fragment_text({"app": "mkV2", "args": [{"str": "make"}], "forms": {"part": ["made"]}}),
        "not a fragment (TypeError: unhashable type: 'list')",
    ),
    "not_json.json": ("not json\n", "not JSON: Expecting value: line 1 column 1 (char 0)"),
    "not_fragment.json": ('{"sentence_id": "x"}\n', "not a fragment (KeyError: 'categories')"),
    "missing.json": (None, "No such file or directory"),
    # a value of the wrong type, which the program used to crash on or read silently
    "number_name.json": (
        _fragment_text(X_LIN, {"name": 3}),
        "not a fragment (ValueError: function name: expected str, got 3)",
    ),
    "null_name.json": (
        _fragment_text(X_LIN, {"name": None}),
        "not a fragment (ValueError: function name: expected str, got None)",
    ),
    "number_result.json": (
        _fragment_text(X_LIN, {"result": 3}),
        "not a fragment (ValueError: function result: expected str, got 3)",
    ),
    "null_result.json": (
        _fragment_text(X_LIN, {"result": None}),
        "not a fragment (ValueError: function result: expected str, got None)",
    ),
    "number_app.json": (
        _fragment_text({"app": 3, "args": [X_LIN]}),
        "not a fragment (ValueError: constructor: expected str, got 3)",
    ),
    "string_categories.json": (
        _fragment_text(X_LIN, categories="NP"),
        "not a fragment (ValueError: categories: expected list, got 'NP')",
    ),
    "pair_lincats.json": (
        _fragment_text(X_LIN, lincats=[["Message", "Cl"]]),
        "not a fragment (ValueError: lincats: expected dict, got [['Message', 'Cl']])",
    ),
    "unknown_ref_kind.json": (
        _fragment_text({"ref": "A", "kind": "zzz"}),
        "not a fragment (ValueError: reference kind: expected one of oper, fun, arg, got 'zzz')",
    ),
    "number_str.json": (
        _fragment_text({"str": 3}),
        "not a fragment (ValueError: literal: expected str, got 3)",
    ),
    "literal_oper.json": (
        _fragment_text(X_LIN, opers=[{"name": "x_N", "category": "N", "definition": X_LIN}]),
        "not a fragment (ValueError: oper definition: expected App, got Lit(text='x'))",
    ),
}


@pytest.mark.parametrize("command", ["export", "linearize"])
@pytest.mark.parametrize("filename", sorted(BAD_FRAGMENTS))
def test_bad_fragment_is_one_line_and_status_1(tmp_path, capsys, command, filename):
    text, reason = BAD_FRAGMENTS[filename]
    path = tmp_path / filename
    if text is not None:
        path.write_text(text, encoding="utf-8")
    if command == "export":
        argv = ["export", str(path), "-o", str(tmp_path / "W")]
    else:
        argv = ["linearize", "--grammar", str(path), "--fun", "sent_x"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gfgen: %s: %s\n" % (path, reason)
    assert not (tmp_path / "W.gf").exists()


A_REF = {"ref": "A", "kind": "fun"}
CYCLIC_FRAGMENT = {
    "sentence_id": "x",
    "categories": ["Message", "NP"],
    "lincats": {"Message": "Cl", "NP": "NP"},
    "functions": [
        {
            "name": "A",
            "args": [],
            "result": "NP",
            "lin": {"app": "mkNP", "args": [A_REF, A_REF]},
        },
        {
            "name": "sent_x",
            "args": [],
            "result": "Message",
            "lin": {"app": "mkCl", "args": [A_REF, A_REF]},
        },
    ],
    "opers": [],
}


def test_cyclic_fragment_exports_and_linearizes_to_one_line_and_status_1(tmp_path, capsys):
    path = tmp_path / "frag_x.json"
    path.write_text(json.dumps(CYCLIC_FRAGMENT), encoding="utf-8")
    assert main(["export", str(path), "-o", str(tmp_path / "W")]) == 0
    assert "    A = mkNP A A ;" in (tmp_path / "WEng.gf").read_text(encoding="utf-8")
    capsys.readouterr()
    for _ in range(2):
        assert main(["linearize", "--grammar", str(path), "--fun", "sent_x"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gfgen: cyclic reference to function A\n"


def test_export_into_missing_directory_is_one_line_and_status_1(tmp_path, capsys, fixtures_dir):
    outdir = tmp_path / "frags"
    main(["synthesize", str(fixtures_dir / "bill_game.conllu"), "-o", str(outdir)])
    capsys.readouterr()
    target = tmp_path / "no_such_dir" / "W"
    assert main(["export", str(outdir), "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gfgen: %s.gf: No such file or directory\n" % target


@pytest.mark.parametrize("command", ["export", "linearize"])
def test_conflicting_lincats_are_one_line_and_status_1(tmp_path, capsys, fixtures_dir, command):
    outdir = tmp_path / "frags"
    main(["synthesize", str(fixtures_dir / "bill_game.conllu"), "-o", str(outdir)])
    capsys.readouterr()
    fragment = outdir / "frag_bill_game.json"
    data = json.loads(fragment.read_text(encoding="utf-8"))
    data["lincats"]["NP"] = "V2"
    conflicting = tmp_path / "frag_bill_game_v2.json"
    conflicting.write_text(json.dumps(data), encoding="utf-8")
    if command == "export":
        argv = ["export", str(fragment), str(conflicting), "-o", str(tmp_path / "W")]
    else:
        argv = ["linearize", "--grammar", str(fragment), str(conflicting), "--fun", "sent_bill_game"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gfgen: conflicting lincat for NP\n"
    assert not (tmp_path / "W.gf").exists()


ANNOTATION = "input/2\tThe input of $1 is $2\n"

ATOM_RECORD = "expected an object with a string predicate and a list of string args"
TRIPLE_RECORD = "expected an object with string subject, relation and object, or 3 strings"

# case: (annotation file text, data flag, data file text, reason); None is a missing file
VERBALIZE_ERRORS = {
    "annotations missing": (None, "--atoms", "input(a, b).\n", "{annotations}: No such file or directory"),
    "atoms missing": (ANNOTATION, "--atoms", None, "{data}: No such file or directory"),
    "annotation without arity": (
        "input\tThe input of $1 is $2\n",
        "--atoms",
        "input(a, b).\n",
        "{annotations}: line 1: missing /arity in 'input'",
    ),
    "atom without annotation": (ANNOTATION, "--atoms", "likes(a, b).\n", "no annotation for: likes/2"),
    "two-column triple": (
        ANNOTATION,
        "--triples",
        "Kevin\tinput\n",
        "{data}: line 1: expected 3 tab-separated columns",
    ),
    "atom record without predicate": (
        ANNOTATION,
        "--atoms",
        '[{"pred": "input", "args": ["a", "b"]}]',
        "{data}: record 1: " + ATOM_RECORD,
    ),
    "atom record with number args": (
        ANNOTATION,
        "--atoms",
        '[{"predicate": "input", "args": ["a", "b"]}, {"predicate": "input", "args": 5}]',
        "{data}: record 2: " + ATOM_RECORD,
    ),
    "atom record with string args": (
        ANNOTATION,
        "--atoms",
        '[{"predicate": "input", "args": "ab"}]',
        "{data}: record 1: " + ATOM_RECORD,
    ),
    "triple record without relation": (
        ANNOTATION,
        "--triples",
        '[{"subject": "a", "object": "b"}]',
        "{data}: record 1: " + TRIPLE_RECORD,
    ),
    "two-item triple record": (ANNOTATION, "--triples", '[["a", "b"]]', "{data}: record 1: " + TRIPLE_RECORD),
}


@pytest.mark.parametrize("case", sorted(VERBALIZE_ERRORS))
def test_verbalize_error_is_one_line_and_status_1(tmp_path, capsys, case):
    annotation_text, flag, data_text, reason = VERBALIZE_ERRORS[case]
    annotations, data = tmp_path / "annotations.tsv", tmp_path / "data.txt"
    for path, text in ((annotations, annotation_text), (data, data_text)):
        if text is not None:
            path.write_text(text, encoding="utf-8")
    assert main(["verbalize", "--annotations", str(annotations), flag, str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gfgen: %s\n" % reason.format(annotations=annotations, data=data)


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# SHA-256 of each debug dump of each fixture file, frozen before the
# structure and complement rules became one sentence program
DUMP_SHA256 = {
    ("bill_game.conllu", "components"): "0e4245fd7ed4fb3c539a9f0a3426877ae2102eaa40060884b7d02fe19e255ea9",
    ("bill_game.conllu", "models"): "6a8edf184664d5c681cd7865406f4eb2ce8c3c6a01bf89302025b40a76673777",
    ("bill_game.conllu", "structures"): "2d080a09a50b3e31c19695a2833d0872b90a1530bbac85c38aca4f6c18a9f9e7",
    ("board_game.conllu", "components"): "a43a6823c5700a348398c86e14e2eecea5a3ccc4b4231ce17d4d07f2fdbce1ca",
    ("board_game.conllu", "models"): "81935280a600b1ff0ca8bcc0b31dc8160a21dcbba13ae4a261928db95e3c9cf5",
    ("board_game.conllu", "structures"): "bb2bc2e0106508e4a75c54af3156fe3287b709f9fe35f542a16be88c1dbaf4fc",
    ("corpus/food_drink/sentences.conllu", "components"): "9475af0cef85fe047aa58a5558c56e195e83be52ebc4ab65e3636c700e56fd6e",
    ("corpus/food_drink/sentences.conllu", "models"): "9035c3d863565ffc002b96e3b7da9509b2f102d92f80ac8af76c41c03ded42d8",
    ("corpus/food_drink/sentences.conllu", "structures"): "5385d97e432258fed3760780fd37c1acdc80b1079b6d8a2394b1309964830696",
    ("corpus/mathematics/sentences.conllu", "components"): "81bc0e8e4333238b0d070f3971b5cb526d0230d45bda34bc010a386e1405eb61",
    ("corpus/mathematics/sentences.conllu", "models"): "7bcb305844af52ed79b5a3c1c8618711b865e6b3029d44b778ce537ebf415ee1",
    ("corpus/mathematics/sentences.conllu", "structures"): "c3b242c56461f349ac570ee0d9c5bc44df28596ad066d4aa5f99b574d2758bd4",
    ("corpus/people/sentences.conllu", "components"): "d8235f7faf474659ca0769bcd5338913c540bbfcd56d15cbafc1fe5f2b3f110e",
    ("corpus/people/sentences.conllu", "models"): "c6645bf7ec22b5c1dc290f51f4106ffc37a180a8af8628de3acede8150b406f4",
    ("corpus/people/sentences.conllu", "structures"): "e7743856864a5d5a83e0088459693a0a2bfb611311fbcc1d17a946ba03e2f5a8",
    ("structures.conllu", "components"): "1131e152d663f909f078ca7934651b1aeb611a8d9d7541190f4924e455b75eaa",
    ("structures.conllu", "models"): "60f164bcf9055f40e295d50cee9c839750c074cba60a35e9ba6a6c6f7d32d9fa",
    ("structures.conllu", "structures"): "114b5677204e6d2f020a3a92d3028543e2d13bf8c43f93ac87a2533e05a2e2ad",
}


@pytest.mark.parametrize("path,kind", sorted(DUMP_SHA256))
def test_dump_golden(capsys, fixtures_dir, path, kind):
    assert main(["synthesize", str(fixtures_dir / path), "--dump-" + kind]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[(path, kind)]



def _row(*cols):
    return "\t".join(map(str, cols)) + "\n"


BILL = ("Bill", "Bill", "PROPN")
# case: (CoNLL-U rows of sentence x, or None for a missing path; reason after "<path>: ")
BAD_CONLLU = {
    "nine columns": (
        _row(1, *BILL, "NNP", "_", 0, "root", "_"),
        "line 2: expected 10 tab-separated columns, got 9",
    ),
    "token id 0": (
        _row(0, *BILL, "NNP", "_", 0, "root", "_", "_"),
        "line 2: token index must be >= 1",
    ),
    "tag with a space": (
        _row(1, *BILL, "N NP", "_", 0, "root", "_", "_"),
        "line 2: pos must be a non-empty tag without whitespace",
    ),
    "cyclic heads": (
        _row(1, "a", "a", "NOUN", "NN", "_", 2, "dep", "_", "_")
        + _row(2, "b", "b", "NOUN", "NN", "_", 1, "dep", "_", "_"),
        "sentence 'x': cyclic dependency heads",
    ),
    "missing": (None, "No such file or directory"),
}


@pytest.mark.parametrize("command", ["ingest", "synthesize", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_CONLLU))
def test_bad_conllu_is_one_line_and_status_1(tmp_path, capsys, command, case):
    rows, reason = BAD_CONLLU[case]
    corpus = tmp_path / "corpus"
    if command == "eval":
        # a missing corpus directory is named itself, a bad file by its path
        path = corpus if rows is None else corpus / "people" / "sentences.conllu"
        argv = ["eval", "--corpus", str(corpus)]
    else:
        path = tmp_path / "sentences.conllu"
        argv = [command, str(path)]
        if command == "synthesize":
            argv += ["-o", str(tmp_path / "out")]
    if rows is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("# sent_id = x\n" + rows + "\n", encoding="utf-8")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gfgen: %s: %s\n" % (path, reason)
    assert not (tmp_path / "out").exists()


def test_conllu_that_is_not_utf8_is_one_line_and_status_1(tmp_path, capsys):
    path = tmp_path / "sentences.conllu"
    path.write_bytes(b"# text = \xff\n" + _row(1, *BILL, "NNP", "_", 0, "root", "_", "_").encode())
    assert main(["ingest", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gfgen: %s: 'utf-8' codec can't decode byte 0xff" % path)
    assert captured.err.count("\n") == 1
