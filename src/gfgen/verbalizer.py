"""Verbalize ground atoms and RDF triples through annotation grammars.

Each predicate carries one annotation sentence with positional slots
("input/2<TAB>The input of $1 is $2").  The sentence is pushed through the
synthesis pipeline at load time, yielding a grammar function whose arguments
are the slots; verbalization fills the arguments with the atom's symbols
and realizes the sentence.  A symbol is opaque text, a singular noun phrase
whose underscores become spaces, even where it spells a grammar function.  ``rdf:type`` is
built in as the copular annotation "$1 is $2".
"""

import json
import re
from dataclasses import dataclass

from .encoder import sanitize_ident, sentence_slots, synthesize_sentence
from .exporter import merge  # noqa: F401  uncalled here; bench/run.py swaps it for a traced one
from .linearizer import NPv, linearize
from .template import TemplateError, parse_template

ATOM_LINE = re.compile(r"^\s*([A-Za-z0-9_:]+)\s*\(([^)]*)\)\s*\.\s*$")

RDF_TYPE_RELATIONS = {"rdf:type", "a"}


class AnnotationError(ValueError):
    """Malformed or unrecognizable annotation record."""


class MissingAnnotations(KeyError):
    """Atoms whose predicates carry no annotation."""

    def __init__(self, predicates):
        self.predicates = sorted(predicates)
        super().__init__("no annotation for: " + ", ".join(self.predicates))


@dataclass(frozen=True)
class GroundAtom:
    predicate: str
    args: tuple


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
    fragment = synthesize_sentence(facts)
    if fragment is None:
        raise AnnotationError(
            "annotation sentence for %s/%d has no recognizable structure: %r"
            % (predicate, arity, sentence)
        )
    return AtomAnnotation(
        predicate=predicate,
        arity=arity,
        template_sentence=sentence,
        grammar=fragment,
        function_name="sent_" + sanitize_ident(sentence_id),
    )


class Annotations(list):
    """Loaded annotations in file order, read-only, indexed by (predicate, arity).

    The last record of a (predicate, arity) wins.  Every mutator raises, so
    the index built here cannot go stale.
    """

    def __init__(self, annotations=()):
        super().__init__(annotations)
        self.by_key = {(a.predicate, a.arity): a for a in self}

    def _read_only(self, *args, **kwargs):
        raise TypeError("loaded annotations are read-only")

    def __reduce__(self):  # copy and pickle without the mutators
        return Annotations, (list(self),)

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


def load_annotations(text):
    """Parse annotation records (``predicate/arity<TAB>sentence`` per line) into ``Annotations``."""
    annotations = []
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
        annotations.append(_build_annotation(predicate.strip(), arity, sentence.strip()))
    return Annotations(annotations)


def _annotation_index(annotations):
    if not isinstance(annotations, Annotations):
        annotations = Annotations(annotations)
    return annotations.by_key


def _sentence(annotation, args):
    symbols = [NPv(a.replace("_", " "), "sg") for a in args]
    text = linearize(annotation.grammar, annotation.function_name, args=symbols)
    return text[:1].upper() + text[1:]


def verbalize_atoms(atoms, annotations):
    """One sentence per atom, in input order, joined into a paragraph."""
    index = _annotation_index(annotations)
    missing = {
        "%s/%d" % (a.predicate, len(a.args))
        for a in atoms
        if (a.predicate, len(a.args)) not in index
    }
    if missing:
        raise MissingAnnotations(missing)
    sentences = [
        _sentence(index[(a.predicate, len(a.args))], a.args) + "." for a in atoms
    ]
    return " ".join(sentences)


_RDF_TYPE_ANNOTATION = None


def _rdf_type_annotation():
    global _RDF_TYPE_ANNOTATION
    if _RDF_TYPE_ANNOTATION is None:
        _RDF_TYPE_ANNOTATION = _build_annotation("rdf:type", 2, "$1 is $2")
    return _RDF_TYPE_ANNOTATION


def verbalize_triples(triples, annotations):
    """One sentence per triple; rdf:type uses the built-in copular annotation."""
    index = _annotation_index(annotations)
    missing = set()
    for t in triples:
        if t.relation not in RDF_TYPE_RELATIONS and (t.relation, 2) not in index:
            missing.add("%s/2" % t.relation)
    if missing:
        raise MissingAnnotations(missing)
    out = []
    for t in triples:
        if t.relation in RDF_TYPE_RELATIONS:
            annotation = _rdf_type_annotation()
        else:
            annotation = index[(t.relation, 2)]
        out.append(_sentence(annotation, (t.subject, t.object)) + ".")
    return out


# --- input formats ------------------------------------------------------------


ATOM_RECORD = "expected an object with a string predicate and a list of string args"
TRIPLE_RECORD = "expected an object with string subject, relation and object, or 3 strings"


def _strings(values):
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


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
            atoms.append(GroundAtom(predicate=d["predicate"], args=tuple(d["args"])))
        return atoms
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        m = ATOM_LINE.match(line)
        if not m:
            raise ValueError("line %d: not a fact: %r" % (lineno, line))
        args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ()
        atoms.append(GroundAtom(predicate=m.group(1), args=args))
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
            triples.append(Triple(*d))
        return triples
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ValueError("line %d: expected 3 tab-separated columns" % lineno)
        triples.append(Triple(cols[0].strip(), cols[1].strip(), cols[2].strip()))
    return triples
