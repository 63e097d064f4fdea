"""Command-line surface: ingest, synthesize, export, linearize, verbalize, eval."""

import argparse
import json
import sys
from pathlib import Path

from . import corpus_eval, engine, verbalizer
from .components import build_chunk
from .encoder import analyze, fragment_from_dict, fragment_to_dict
from .exporter import MergeConflict, merge, render
from .ingest import ConlluError, StructureError, facts_to_text, parse_conllu_file
from .linearizer import LookupError_, RealizeTypeError, linearize


def _read_conllu(read, path):
    """``read(path)`` of a CoNLL-U file or corpus directory; a path it cannot read or
    a malformed sentence, which names its file, is a CommandError."""
    try:
        return read(path)
    except OSError as exc:
        raise CommandError("%s: %s" % (exc.filename, exc.strerror))
    except (ConlluError, StructureError) as exc:
        raise CommandError(exc)


def _cmd_ingest(args):
    sentences = _read_conllu(parse_conllu_file, args.conllu)
    programs = [facts_to_text(f) for f in sentences]
    sys.stdout.write("\n".join(programs) if len(programs) > 1 else "".join(programs))
    return 0


def _dump_structures(records, out):
    for record in records:
        s = record.selected
        reading = "UNRECOGNIZED" if s is None else "%d\t%d" % (s.kind, s.i_value)
        out.write("%s\t%s\n" % (record.facts.sentence_id, reading))


def _dump_components(records, out):
    report = []
    for record in records:
        selected, roles = record.selected, record.roles
        entry = {"sentence_id": record.facts.sentence_id, "structure": None}
        if selected is not None:
            entry["structure"] = {"kind": selected.kind, "i_value": selected.i_value}
        if roles is not None:
            entry["roles"] = roles.as_dict()
            entry["chunks"] = {
                role: build_chunk(record.facts, index).to_dict()
                for role, index in roles.as_dict().items()
            }
        if record.error is not None:
            entry["error"] = str(record.error)
        report.append(entry)
    json.dump(report, out, indent=2, sort_keys=True)
    out.write("\n")


def _dump_models(sentences, out):
    for facts in sentences:
        out.write("%% sentence %s\n" % facts.sentence_id)
        out.write(engine.model_to_text(facts.model, "structure"))


def _cmd_synthesize(args):
    sentences = _read_conllu(parse_conllu_file, args.conllu)
    records = map(analyze, sentences)  # lazy: --dump-models reads no record
    if args.dump_structures:
        _dump_structures(records, sys.stdout)
        return 0
    if args.dump_components:
        _dump_components(records, sys.stdout)
        return 0
    if args.dump_models:
        _dump_models(sentences, sys.stdout)
        return 0
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    written = 0
    for record in records:
        sentence_id = record.facts.sentence_id
        if record.fragment is None:
            why = "not encodable: %s" % record.error if record.error else "structure unrecognized"
            print("skip %s: %s" % (sentence_id, why), file=sys.stderr)
            continue
        path = outdir / ("frag_%s.json" % sentence_id)
        path.write_text(
            json.dumps(fragment_to_dict(record.fragment), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written += 1
    print("wrote %d fragment(s) to %s" % (written, outdir), file=sys.stderr)
    return 0


class CommandError(Exception):
    """A failure the command reports as one ``gfgen: ...`` line and exit status 1."""


def _read_fragment(path):
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CommandError("%s: %s" % (path, exc.strerror))
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or nested too deep
        raise CommandError("%s: not JSON: %s" % (path, exc))
    try:
        return fragment_from_dict(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CommandError("%s: not a fragment (%s: %s)" % (path, type(exc).__name__, exc))


def _merged_fragments(paths):
    files = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    try:
        return merge([_read_fragment(path) for path in files])
    except MergeConflict as exc:
        raise CommandError(exc)


def _cmd_export(args):
    grammar = _merged_fragments(args.fragments)
    name = Path(args.output)
    abstract, concrete = render(grammar, name.name)
    abstract_path = name.with_name(name.name + ".gf")
    concrete_path = name.with_name(name.name + "Eng.gf")
    try:
        abstract_path.write_text(abstract, encoding="utf-8")
        concrete_path.write_text(concrete, encoding="utf-8")
    except OSError as exc:
        raise CommandError("%s: %s" % (exc.filename, exc.strerror))
    print("wrote %s and %s" % (abstract_path, concrete_path), file=sys.stderr)
    return 0


def _cmd_linearize(args):
    grammar = _merged_fragments(args.grammar)
    try:
        text = linearize(grammar, args.fun, args=args.args or [], period=args.period)
    except (LookupError_, RealizeTypeError) as exc:
        raise CommandError(exc.args[0])
    except RecursionError:  # the evaluator recurses once per level of a body
        raise CommandError("function %s nests too deep to linearize" % args.fun)
    print(text)
    return 0


def _parse_file(parse, path):
    """``parse`` of a UTF-8 file's text; a file it cannot read or parse is a CommandError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CommandError("%s: %s" % (path, exc.strerror))
    except ValueError as exc:  # bad UTF-8 or a malformed record
        raise CommandError("%s: %s" % (path, exc))


def _cmd_verbalize(args):
    annotations = _parse_file(verbalizer.load_annotations, args.annotations)
    try:
        if args.atoms:
            atoms = _parse_file(verbalizer.parse_atoms, args.atoms)
            print(verbalizer.verbalize_atoms(atoms, annotations))
        if args.triples:
            triples = _parse_file(verbalizer.parse_triples, args.triples)
            for sentence in verbalizer.verbalize_triples(triples, annotations):
                print(sentence)
    except verbalizer.MissingAnnotations as exc:
        raise CommandError(exc.args[0])
    except verbalizer.AnnotationError as exc:  # a fact needs an annotation that failed
        raise CommandError("%s: %s" % (args.annotations, exc))
    return 0


def _cmd_eval(args):
    scores = _read_conllu(corpus_eval.run_corpus, args.corpus)
    if args.report:
        corpus_eval.write_report(scores, args.report)
    for portal in sorted(scores):
        s = scores[portal]
        print(
            "%s: %d sentences, %d recognized, %d BLEU-assessable, "
            "BLEU %.1f, ROUGE-1 %.1f, ROUGE-2 %.1f, ROUGE-L %.1f"
            % (
                portal,
                s.n_sentences,
                s.n_recognized,
                s.n_bleu_assessable,
                s.bleu3,
                s.rouge1_f,
                s.rouge2_f,
                s.rougeL_f,
            )
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gfgen",
        description="Synthesize GF grammars from dependency parses and evaluate round trips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="print the fact program of each sentence")
    p.add_argument("conllu")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synthesize", help="write per-sentence grammar fragments")
    p.add_argument("conllu")
    p.add_argument("-o", "--output", default="fragments")
    p.add_argument("--dump-structures", action="store_true")
    p.add_argument("--dump-components", action="store_true")
    p.add_argument("--dump-models", action="store_true", help="debug: each model's structure atoms")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("export", help="merge fragments and write Name.gf/NameEng.gf")
    p.add_argument("fragments", nargs="+", help="fragment JSON files or directories")
    p.add_argument("-o", "--output", required=True, help="grammar name/path prefix")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("linearize", help="realize a grammar function as English")
    p.add_argument("--grammar", nargs="+", required=True, help="fragment JSON files")
    p.add_argument("--fun", required=True)
    p.add_argument("--args", nargs="*", default=[])
    p.add_argument("--period", action="store_true")
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("verbalize", help="verbalize atoms or triples via annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--atoms")
    p.add_argument("--triples")
    p.set_defaults(func=_cmd_verbalize)

    p = sub.add_parser("eval", help="round-trip a fixture corpus and score it")
    p.add_argument("--corpus", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print("gfgen: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
