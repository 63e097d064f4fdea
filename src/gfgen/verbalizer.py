"""Verbalize ground atoms and RDF triples through annotation grammars.

Each predicate carries one annotation sentence with positional slots
("input/2<TAB>The input of $1 is $2").  The sentence is pushed through the
synthesis pipeline at load time, yielding a grammar function whose arguments
are the slots, and is compiled there once: ``linearizer.sentence_format``
gives the function's sentence over singular symbols as a format string.
Verbalizing a fact fills that string with the fact's symbols; it makes no
``linearize`` call.  A symbol is opaque text, a singular noun phrase whose
underscores become spaces, even where it spells a grammar function.  An
annotation that has no format (a lexeme holds the sequence delimiter, or
the realizer rejects the sentence) linearizes each fact instead, with the
same text or error.  ``rdf:type`` is built in as the copular annotation
"$1 is $2".
"""

import json
import re
from dataclasses import dataclass

from .encoder import analyze, sanitize_ident, sentence_function, sentence_slots
from .exporter import merge  # noqa: F401  uncalled here; bench/run.py swaps it for a traced one
from .linearizer import LookupError_, NPv, RealizeTypeError, linearize, sentence_format, single_spaced
from .template import TemplateError, parse_template

# an argument is a double-quoted string, in which commas and ")" do not split
# and \", \\ and \n stand for ", \ and a newline, as clingo prints string
# constants; or any other text without a comma, quote or ")"
_ARG = r'\s*"((?:[^"\\]|\\.)*)"\s*|([^,")]*)'
ATOM_LINE = re.compile(
    r"^\s*([A-Za-z0-9_:]+)\s*\(((?:(?:%s),)*(?:%s))\)\s*\.\s*$" % (_ARG, _ARG)
)
_ARGUMENT = re.compile(r"(?:^|,)(?:%s)(?=,|$)" % _ARG)
_ESCAPE = re.compile(r'\\(["\\n])')

RDF_TYPE_RELATIONS = {"rdf:type", "a"}


class AnnotationError(ValueError):
    """Malformed annotation record, or the reason a well-formed one failed."""


class MissingAnnotations(KeyError):
    """Atoms whose predicates carry no annotation."""

    def __init__(self, predicates):
        self.predicates = sorted(predicates)
        super().__init__("no annotation for: " + ", ".join(self.predicates))


@dataclass(frozen=True)
class GroundAtom:
    predicate: str
    args: tuple

    def __post_init__(self):
        if not (self.predicate and all(self.args)):
            raise ValueError("atom predicate and arguments must be nonempty")


@dataclass(frozen=True)
class Triple:
    subject: str
    relation: str
    object: str

    def __post_init__(self):
        if not (self.subject and self.relation and self.object):
            raise ValueError("triple fields must be nonempty")


@dataclass(frozen=True)
class AtomAnnotation:
    predicate: str
    arity: int
    template_sentence: str
    grammar: object
    function_name: str
    sentence_format: str  # over singular symbols; None where each fact is linearized


def _build_annotation(predicate, arity, sentence):
    sentence_id = "%s_%d" % (sanitize_ident(predicate), arity)
    try:
        facts = parse_template(sentence, sentence_id)
    except TemplateError as exc:
        raise AnnotationError(
            "annotation for %s/%d is not analyzable: %s" % (predicate, arity, exc)
        )
    slots = sentence_slots(facts)
    if slots != tuple(range(1, arity + 1)):
        raise AnnotationError(
            "annotation for %s/%d must use slots $1..$%d exactly, found %s"
            % (predicate, arity, arity, list(slots) or "none")
        )
    record = analyze(facts)
    if record.selected is None:
        raise AnnotationError(
            "annotation sentence for %s/%d has no recognizable structure: %r"
            % (predicate, arity, sentence)
        )
    if record.error is not None:
        raise AnnotationError(
            "annotation for %s/%d is not encodable: %s" % (predicate, arity, record.error)
        )
    function_name = sentence_function(sentence_id)
    try:
        compiled = sentence_format(record.fragment, function_name, ("sg",) * arity)
    except (RealizeTypeError, LookupError_):  # raised again by each fact that needs it
        compiled = None
    return AtomAnnotation(
        predicate=predicate,
        arity=arity,
        template_sentence=sentence,
        grammar=record.fragment,
        function_name=function_name,
        sentence_format=compiled,
    )


class Annotations(list):
    """Loaded annotations in file order, read-only, indexed by (predicate, arity).

    ``failed`` maps the (predicate, arity) of each well-formed record that
    failed to its reason, an ``AnnotationError`` naming the line; ``by_key``
    holds it in place of an annotation, and a fact that needs it raises a copy.
    The last record of a (predicate, arity) wins.  Every mutator raises, so
    the index built here cannot go stale.
    """

    def __init__(self, annotations=(), failed=()):
        super().__init__(annotations)
        self.failed = dict(failed)
        self.by_key = {(a.predicate, a.arity): a for a in self}
        self.by_key.update(self.failed)

    def _read_only(self, *args, **kwargs):
        raise TypeError("loaded annotations are read-only")

    def __reduce__(self):  # copy and pickle without the mutators
        return Annotations, (list(self), self.failed)

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


def load_annotations(text):
    """Parse annotation records (``predicate/arity<TAB>sentence`` per line) into ``Annotations``.

    A malformed line raises ``AnnotationError``; a well-formed one whose
    sentence fails to build is kept as failed and loading goes on.
    """
    annotations, failed = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise AnnotationError("line %d: expected predicate/arity<TAB>sentence" % lineno)
        spec, sentence = line.split("\t", 1)
        if "/" not in spec:
            raise AnnotationError("line %d: missing /arity in %r" % (lineno, spec))
        predicate, arity_text = spec.rsplit("/", 1)
        try:
            arity = int(arity_text)
        except ValueError:
            raise AnnotationError("line %d: non-integer arity %r" % (lineno, arity_text))
        key = (predicate.strip(), arity)
        try:
            annotations.append(_build_annotation(*key, sentence.strip()))
        except AnnotationError as exc:
            failed[key] = AnnotationError("line %d: %s" % (lineno, exc))
        else:
            failed.pop(key, None)
    return Annotations(annotations, failed)


def _annotation_index(annotations):
    if not isinstance(annotations, Annotations):
        annotations = Annotations(annotations)
    return annotations.by_key


def _sentence(annotation, args):
    """The sentence of one fact: capitalized, with its period."""
    if type(annotation) is AnnotationError:  # a fresh copy, so no traceback piles up on it
        raise AnnotationError(*annotation.args)
    symbols = [a.replace("_", " ") for a in args]
    if annotation.sentence_format is None:
        text = linearize(annotation.grammar, annotation.function_name, args=[NPv(s, "sg") for s in symbols])
    else:
        text = single_spaced(annotation.sentence_format.format(*symbols))
    return text[:1].upper() + text[1:] + "."


def _require(found, facts, spec):
    """Raise MissingAnnotations naming ``spec(fact)`` for each fact whose ``found`` annotation is None."""
    missing = {spec(fact) for fact, annotation in zip(facts, found) if annotation is None}
    if missing:
        raise MissingAnnotations(missing)


def verbalize_atoms(atoms, annotations):
    """One sentence per atom, in input order, joined into a paragraph."""
    index = _annotation_index(annotations)
    found = [index.get((a.predicate, len(a.args))) for a in atoms]
    _require(found, atoms, lambda a: "%s/%d" % (a.predicate, len(a.args)))
    return " ".join([_sentence(annotation, a.args) for annotation, a in zip(found, atoms)])


_RDF_TYPE_ANNOTATION = None


def _rdf_type_annotation():
    global _RDF_TYPE_ANNOTATION
    if _RDF_TYPE_ANNOTATION is None:
        _RDF_TYPE_ANNOTATION = _build_annotation("rdf:type", 2, "$1 is $2")
    return _RDF_TYPE_ANNOTATION


def verbalize_triples(triples, annotations):
    """One sentence per triple; rdf:type uses the built-in copular annotation."""
    index = _annotation_index(annotations)
    found = [
        _rdf_type_annotation() if t.relation in RDF_TYPE_RELATIONS else index.get((t.relation, 2))
        for t in triples
    ]
    _require(found, triples, lambda t: "%s/2" % t.relation)
    return [_sentence(annotation, (t.subject, t.object)) for annotation, t in zip(found, triples)]


# --- input formats ------------------------------------------------------------


ATOM_RECORD = "expected an object with a string predicate and a list of string args"
TRIPLE_RECORD = "expected an object with string subject, relation and object, or 3 strings"


def _strings(values):
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _numbered(where, make, *fields):
    """``make(*fields)``, whose ValueError is prefixed with ``where``: a line or record."""
    try:
        return make(*fields)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None


def _unescape(match):
    return "\n" if match[1] == "n" else match[1]


def _symbol(argument):
    """The symbol of an ``_ARGUMENT`` match, stripped like every field."""
    quoted, text = argument.groups()
    return (text if quoted is None else _ESCAPE.sub(_unescape, quoted)).strip()


def parse_atoms(text):
    """Atoms from fact-program text (one ``pred(a,b).`` per line) or JSON."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        atoms = []
        for n, d in enumerate(json.loads(text), start=1):
            if not (
                isinstance(d, dict) and _strings([d.get("predicate")]) and _strings(d.get("args"))
            ):
                raise ValueError("record %d: %s" % (n, ATOM_RECORD))
            args = tuple(a.strip() for a in d["args"])
            atoms.append(_numbered("record %d" % n, GroundAtom, d["predicate"].strip(), args))
        return atoms
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        m = ATOM_LINE.match(line)
        if not m:
            raise ValueError("line %d: not a fact: %r" % (lineno, line))
        args = tuple(_symbol(a) for a in _ARGUMENT.finditer(m.group(2))) if m.group(2).strip() else ()
        atoms.append(_numbered("line %d" % lineno, GroundAtom, m.group(1), args))
    return atoms


def parse_triples(text):
    """Triples from 3-column TSV or JSON."""
    stripped = text.lstrip()
    if stripped.startswith("["):
        triples = []
        for n, d in enumerate(json.loads(text), start=1):
            if isinstance(d, dict):
                d = [d.get(key) for key in ("subject", "relation", "object")]
            if not (_strings(d) and len(d) == 3):
                raise ValueError("record %d: %s" % (n, TRIPLE_RECORD))
            triples.append(_numbered("record %d" % n, Triple, *(f.strip() for f in d)))
        return triples
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ValueError("line %d: expected 3 tab-separated columns" % lineno)
        triples.append(_numbered("line %d" % lineno, Triple, *(c.strip() for c in cols)))
    return triples
