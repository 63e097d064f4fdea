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


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
