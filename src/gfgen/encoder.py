"""GF grammar encoding: one grammar fragment per recognized sentence.

A fragment is a ``GfGrammar``, the one grammar type: a merge of fragments is
another, and one sentence linearizes from its fragment without a merge.

``analyze`` alone runs a sentence through recognition, role assignment and
encoding, in that order; every caller reads its ``SentenceRecord``.

Each main component becomes a zero-argument abstract function (named by its
capitalized head lemma) over a category mirroring its concrete type, and the
sentence itself becomes a zero-argument Message function whose linearization
applies the structure's clause skeleton to the component functions.  Chunks
are folded into constructor expressions with the extended rule set: compounds
into multiword nouns, adjective modifiers into common-noun layers, preposition
attachments into NP-modifying adverbs, conjunctions into NP lists.

Number (for bare mkNP nodes) and observed verb forms ride along as metadata
on the expression nodes; they guide the built-in realizer and are invisible
in rendered grammar text.

A fragment is written as JSON.  Decoding shares what repeats from sentence to
sentence: every expression node (string, reference or constructor
application), every oper and every component function decodes to one object
per distinct value, from process-wide tables.  Opers are found by name and
category, component functions by name (their head lemma, which recurs across
sentences), and each key holds one list of [canonical dict, object] entries,
one per distinct definition decoded under it: a definition whose dict equals,
in one comparison, an entry's canonical dict is that entry's shared object,
with no walk and no check.  An entry's canonical dict is built from its object
when the entry is first compared, so a definition seen once costs one failed
lookup.  A Message function is named by its sentence id, so it never recurs
and stays per fragment.  The tables grow with the distinct definitions read: a
replica of a sentence under a new id adds nothing, and each new sentence
structure adds a few nodes.  A value of the wrong type is a ValueError; only
what the tables miss is checked.  Encoding builds each sentence's own objects.
"""

import re
from dataclasses import FrozenInstanceError, dataclass, field
from typing import NamedTuple

from . import morph
from .components import build_chunk, main_components, conjunction_word
from .engine import CLAUSE_SHAPES
from .structure import recognize, select

NOMINAL_TAGS = {"nn", "nns", "nnp", "nnps", "cd", "prp", "wp"}
PLURAL_TAGS = {"nns", "nnps"}
PROPER_TAGS = {"nnp", "nnps", "prp", "wp"}

SLOT_PATTERN = re.compile(r"^\$(\d+)$")
NON_IDENT_RUN = re.compile(r"[^a-z0-9]+")


class CategoryError(ValueError):
    """A chunk head whose tag does not fit the required category."""


# --- constructor expressions -------------------------------------------------


def _record(cls):
    """``cls`` as a frozen, slotted dataclass: every assignment and deletion raises.

    On Python 3.11 the generated methods raise TypeError, not
    FrozenInstanceError, for a name that is no field.
    """
    cls = dataclass(frozen=True, slots=True)(cls)

    def refuse(self, name, *value):
        raise FrozenInstanceError("cannot %s field %r" % ("assign to" if value else "delete", name))

    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


# App is a named tuple, which is quicker to build for every node of every
# sentence.  Ref, Lit and GfOper stay slotted classes, which are smaller in a
# decoded corpus, and GfFunction is no tuple: bench/run.py still reads any
# tuple in a grammar's functions as a (sentence id, position, function) entry.
class App(NamedTuple):
    fn: str
    args: tuple
    num: str = None  # "sg" | "pl" on NP-building nodes
    forms: tuple = ()  # observed inflections, e.g. (("part", "made"),)


@_record
class Ref:
    name: str
    kind: str  # "oper" | "fun" | "arg"


@_record
class Lit:
    text: str


def app(fn, *args, num=None, forms=()):
    return App(fn, args, num, tuple(forms))


def oper_ref(name):
    return Ref(name, "oper")


def fun_ref(name):
    return Ref(name, "fun")


def arg_ref(name):
    return Ref(name, "arg")


@_record
class GfOper:
    name: str
    category: str
    definition: App


@_record
class GfFunction:
    name: str
    arg_names: tuple
    arg_cats: tuple
    result: str
    lin: object


class LookupError_(KeyError):
    """Unknown function or oper name in a grammar."""


_REQUIRED = object()


@dataclass
class GfGrammar:
    """A GF grammar: one sentence's fragment (with its id and text), or a merge of many.

    ``function`` finds the first function of a name, by an index made on the
    first lookup.  The linearizer makes ``_values`` on its first call and keeps
    each value and sequence there, some under the identity of a body that
    ``functions`` keeps alive.  From a first lookup on, neither ``functions``
    nor ``opers`` may change: ``add_oper`` and ``add_function`` build a grammar.
    """

    sentence_id: str = ""
    source_text: str = ""
    categories: set = field(default_factory=lambda: {"Message"})
    lincats: dict = field(default_factory=lambda: {"Message": "Cl"})
    functions: list = field(default_factory=list)
    opers: dict = field(default_factory=dict)
    # class attributes, not fields: a grammar that is never read stores neither
    _by_name = None
    _values = None

    def add_oper(self, oper):
        existing = self.opers.get(oper.name)
        if existing is not None and existing != oper:
            raise ValueError("conflicting definitions for oper %s" % oper.name)
        self.opers[oper.name] = oper

    def add_function(self, fun):
        self.functions.append(fun)
        self.categories.add(fun.result)
        for cat in fun.arg_cats:
            self.categories.add(cat)
            self.lincats.setdefault(cat, cat)
        self.lincats.setdefault(fun.result, "Cl" if fun.result == "Message" else fun.result)

    def function(self, name, default=_REQUIRED):
        """The function called ``name``; else ``default``, or LookupError_ without one."""
        if self._by_name is None:  # the first function of a name is the one stored last
            self._by_name = {fun.name: fun for fun in reversed(self.functions)}
        fun = self._by_name.get(name, default)
        if fun is _REQUIRED:
            raise LookupError_("no function %r in grammar" % name)
        return fun

    def function_names(self):
        return [fun.name for fun in self.functions]


def expr_refs(expr, kind):
    """Names of the references of ``kind`` ("oper", "fun" or "arg") in ``expr``, in order."""
    if isinstance(expr, Ref):
        return (expr.name,) if expr.kind == kind else ()
    if isinstance(expr, App):
        return tuple(name for a in expr.args for name in expr_refs(a, kind))
    return ()


# --- identifier and lexeme helpers -------------------------------------------


def sanitize_ident(text):
    ident = text.lower()
    if not (ident.isascii() and ident.isalnum()):  # most lemmas are identifiers as they are
        ident = NON_IDENT_RUN.sub("_", ident).strip("_")
    if not ident:
        ident = "x"
    if ident[0].isdigit():
        ident = "n" + ident
    return ident


def slot_number(token):
    m = SLOT_PATTERN.match(token.surface)
    return int(m.group(1)) if m else None


def _noun_words(facts, chunk):
    """Lemma sequence of a noun chunk's compound run, head last."""
    words = []
    for att in chunk.attachments:
        if att.kind == "noun_compound":
            words.extend(_noun_words(facts, att.chunk))
    tok = facts.token(chunk.head)
    words.append(tok.surface if tok.pos in PROPER_TAGS else tok.lemma)
    return words


def _oper(grammar, ident, cat, definition):
    """Add the oper ``<ident>_<cat>``, defined by ``definition``; return its reference."""
    name = ident + "_" + cat
    grammar.add_oper(GfOper(name, cat, definition))
    return oper_ref(name)


def _noun_oper(facts, chunk, grammar):
    tok = facts.token(chunk.head)
    words = _noun_words(facts, chunk)
    singular = " ".join(words)
    if tok.pos in PROPER_TAGS:
        plural = singular
    elif tok.pos in PLURAL_TAGS:
        plural = " ".join(words[:-1] + [tok.surface])
    else:
        plural = morph.pluralize_noun(singular)
    definition = app("mkN", Lit(singular), Lit(plural))
    return _oper(grammar, sanitize_ident("_".join(words)), "N", definition), words


def _verb_forms(token, lemma):
    forms = []
    if token.pos == "vbz" and token.surface.lower() != morph.inflect_verb_3sg(lemma):
        forms.append(("third", token.surface.lower()))
    if token.pos == "vbn" and token.surface.lower() != morph.past_participle(lemma):
        forms.append(("part", token.surface.lower()))
    return tuple(forms)


def _verb_oper(facts, index, cat, grammar):
    tok = facts.token(index)
    lemma = tok.lemma.lower()
    definition = app("mk" + cat, Lit(lemma), forms=_verb_forms(tok, lemma))
    return _oper(grammar, sanitize_ident(lemma), cat, definition)


# --- chunk encoding -----------------------------------------------------------


def encode_ap(facts, chunk, grammar, materialize=True):
    """AP expression for an adjective chunk.

    Inside a common noun the layers are materialized as opers (the paper's
    popular_AP style); as a bare copular predicate the mkAP stays inline.
    """
    tok = facts.token(chunk.head)
    if tok.pos not in ("jj", "jjr", "jjs", "vbn", "vbg"):
        raise CategoryError("token %d (%s) is not adjectival" % (chunk.head, tok.surface))
    # participial adjectives keep their surface form ("consumed", not "consume")
    word = tok.surface.lower() if tok.pos in ("vbn", "vbg") else tok.lemma
    name_parts = [sanitize_ident(word)]
    expr = app("mkAP", _oper(grammar, name_parts[0], "A", app("mkA", Lit(word))))
    if materialize:
        expr = _oper(grammar, name_parts[0], "AP", expr)
    for att in chunk.attachments:
        if att.kind != "adverbial_modifier":
            continue  # no extended rule consumes other adjective complements
        lemma = facts.token(att.chunk.head).lemma
        name_parts.insert(0, sanitize_ident(lemma))
        expr = app("mkAP", _oper(grammar, name_parts[0], "AdA", app("mkAdA", Lit(lemma))), expr)
        if materialize:
            expr = _oper(grammar, "_".join(name_parts), "AP", expr)
    return expr, "_".join(name_parts)


def encode_np(facts, chunk, grammar):
    """NP expression for a nominal chunk, emitting the opers it needs.

    Build order: compounds fold into a multiword noun, adjectives stack into
    common-noun layers, the result lifts to NP, preposition attachments wrap
    as NP-modifying adverbs, and conjunction attachments close the list.
    """
    tok = facts.token(chunk.head)
    slot = slot_number(tok)
    if slot is not None:
        return arg_ref("a%d" % slot)
    if tok.pos not in NOMINAL_TAGS:
        raise CategoryError(
            "token %d (%s/%s) cannot head a noun phrase" % (chunk.head, tok.surface, tok.pos)
        )
    number = "pl" if tok.pos in PLURAL_TAGS else "sg"
    inner, words = _noun_oper(facts, chunk, grammar)
    cn_ident = "_".join(map(sanitize_ident, words))
    for att in reversed([a for a in chunk.attachments if a.kind == "adj_mod"]):
        ap_expr, ap_ident = encode_ap(facts, att.chunk, grammar)
        cn_ident = ap_ident + "_" + cn_ident
        inner = _oper(grammar, cn_ident, "CN", app("mkCN", ap_expr, inner))
    np = app("mkNP", inner, num=number)
    for att in chunk.attachments:
        if att.kind == "preposition":
            np = app("mkNP", np, _prepositional(facts, att, grammar))
    conjuncts = [a for a in chunk.attachments if a.kind == "noun_conjunction"]
    if conjuncts:
        lst = np
        for item in reversed([encode_np(facts, att.chunk, grammar) for att in conjuncts]):
            lst = app("mkListNP", item, lst)
        word = conjunction_word(facts, chunk.head, conjuncts[0].chunk.head)
        np = app("mkNP", oper_ref(sanitize_ident(word) + "_Conj"), lst, num="pl")
    return np


def _prepositional(facts, att, grammar):
    """The NP- or VP-modifying adverb of a preposition attachment."""
    prep = oper_ref(sanitize_ident(facts.token(att.case_marker).lemma.lower()) + "_Prep")
    return app("ConstructorsEng.mkAdv", prep, encode_np(facts, att.chunk, grammar))


def _vp_wraps(facts, chunk, vp, grammar):
    """Adverbial complements of a verb wrap the VP, in dependent order."""
    for att in chunk.attachments:
        if att.kind == "adverbial_modifier":
            lemma = facts.token(att.chunk.head).lemma
            adv = _oper(grammar, sanitize_ident(lemma), "Adv", app("mkAdv", Lit(lemma)))
            vp = app("mkVP", vp, adv)
        elif att.kind == "preposition":
            vp = app("mkVP", vp, _prepositional(facts, att, grammar))
    return vp


VERB_ROLES = frozenset(role for shape in CLAUSE_SHAPES for role in shape.verbs)


def encode_skeleton(facts, node, roles, refs, grammar):
    """The expression of a clause skeleton node over the component references.

    A leaf is a role and becomes ``refs[role]``; a node applies its
    constructor, and a VP node headed by a verb role is wrapped in the
    adverbs and prepositional complements of that verb's chunk.
    """
    if isinstance(node, str):
        return refs[node]
    fn, *args = node
    expr = app(fn, *(encode_skeleton(facts, a, roles, refs, grammar) for a in args))
    if args[0] in VERB_ROLES:
        expr = _vp_wraps(facts, build_chunk(facts, getattr(roles, args[0])), expr, grammar)
    return expr


# --- sentence encoding ---------------------------------------------------------


def _component_fun(facts, index, result, expr, grammar, used):
    """Add a zero-argument function named by the token's lemma; return its reference.

    The name is the capitalized lemma, suffixed _2, _3, ... when already used.
    """
    base = sanitize_ident(facts.token(index).lemma)
    base = base[:1].upper() + base[1:]
    name, n = base, 2
    while name in used:
        name, n = "%s_%d" % (base, n), n + 1
    used.add(name)
    grammar.add_function(GfFunction(name, (), (), result, expr))
    return fun_ref(name)


def _nominal_fun(facts, index, grammar, used):
    expr = encode_np(facts, build_chunk(facts, index), grammar)
    if expr_refs(expr, "arg"):
        return expr  # slot-bearing components inline into the sentence function
    return _component_fun(facts, index, "NP", expr, grammar, used)


def encode_sentence(facts, selected, roles, slots=()):
    """Grammar fragment for one sentence given its structure and roles.

    The component functions come first (subject, object or adjectival
    predicate, then the verbs), and the sentence function applies the
    structure's clause skeleton to them.  ``slots`` declares argument
    positions (template synthesis); plain corpus sentences leave it empty and
    get a closed zero-argument Message function.
    """
    grammar = GfGrammar(sentence_id=facts.sentence_id, source_text=facts.source_text)
    used = set()
    refs = {"sub": _nominal_fun(facts, roles.sub, grammar, used)}
    if roles.obj is not None:
        refs["obj"] = _nominal_fun(facts, roles.obj, grammar, used)
    if roles.adj is not None:  # the copula's adjectival complement fills the obj leaf
        expr, _ = encode_ap(facts, build_chunk(facts, roles.adj), grammar, materialize=False)
        refs["obj"] = _component_fun(facts, roles.adj, "AP", expr, grammar, used)
    for role, cat in selected.verbs.items():
        index = getattr(roles, role)
        verb = _verb_oper(facts, index, cat, grammar)
        refs[role] = _component_fun(facts, index, cat, verb, grammar, used)
    lin = encode_skeleton(facts, selected.skeleton, roles, refs, grammar)
    arg_names = tuple("a%d" % n for n in slots)
    name = sentence_function(facts.sentence_id)
    grammar.add_function(GfFunction(name, arg_names, ("NP",) * len(slots), "Message", lin))
    return grammar


def sentence_function(sentence_id):
    """The name of a sentence's Message function."""
    return "sent_" + sanitize_ident(sentence_id)


def sentence_slots(facts):
    """Argument slot numbers ($1..$n) appearing in a sentence, numerically ordered."""
    return tuple(sorted({n for n in map(slot_number, facts.tokens) if n is not None}))


class SentenceRecord(NamedTuple):
    """One sentence's analysis: its reading, roles and fragment, or why they stop.

    ``selected`` is the ``engine.CLAUSE_SHAPES`` row chosen, None when the
    sentence is unrecognized.  Otherwise ``error`` holds the ValueError that
    rejected the sentence: ``roles`` is None when the height bound or role
    assignment rejected it, ``fragment`` is None when encoding did.
    """

    facts: object
    selected: object = None
    roles: object = None
    fragment: GfGrammar = None
    error: ValueError = None


# The highest dependency tree a sentence may have; chunking, encoding and every
# reader of an expression recurse once or more per level.
MAX_HEIGHT = 100


def analyze(facts):
    """The record of one sentence: recognition, role assignment and encoding, in order.

    A recognized sentence whose dependency tree is higher than MAX_HEIGHT is
    rejected before role assignment.
    """
    selected = select(recognize(facts))
    if selected is None:
        return SentenceRecord(facts)
    roles = None
    try:
        if facts.height > MAX_HEIGHT:
            raise ValueError(
                "sentence %r: dependency tree of height %d, more than %d"
                % (facts.sentence_id, facts.height, MAX_HEIGHT)
            )
        roles = main_components(facts, selected)
        fragment = encode_sentence(facts, selected, roles, slots=sentence_slots(facts))
    except ValueError as exc:
        return SentenceRecord(facts, selected, roles, error=exc)
    return SentenceRecord(facts, selected, roles, fragment)


def synthesize_sentence(facts):
    """The fragment of one sentence, or None when it is unrecognized; a sentence
    that ``analyze`` rejects raises the rejecting ValueError."""
    record = analyze(facts)
    if record.error is not None:
        raise record.error
    return record.fragment


# --- fragment (de)serialization -------------------------------------------------


def expr_to_dict(expr):
    if isinstance(expr, Lit):
        return {"str": expr.text}
    if isinstance(expr, Ref):
        return {"ref": expr.name, "kind": expr.kind}
    d = {"app": expr.fn, "args": list(map(expr_to_dict, expr.args))}
    if expr.num is not None:
        d["num"] = expr.num
    if expr.forms:
        d["forms"] = dict(expr.forms)
    return d


def function_to_dict(fun):
    return {
        "name": fun.name,
        "args": [{"name": n, "cat": c} for n, c in zip(fun.arg_names, fun.arg_cats)],
        "result": fun.result,
        "lin": expr_to_dict(fun.lin),
    }


def oper_to_dict(oper):
    return {"name": oper.name, "category": oper.category, "definition": expr_to_dict(oper.definition)}


# Decoded expression nodes, opers and component functions, shared by every
# decoded fragment: a leaf is looked up by its text or (name, kind), a
# constructor node by its constructor, number, forms and the identities of its
# already shared arguments; the table keeps every object whose identity it
# keys alive.  An oper is looked up by (name, category) and a component
# function by its name, and each key holds a list of [canonical dict, object]
# entries.  An input dict equal to an entry's canonical dict is that entry's
# object.  Equality with a dict built from checked values implies the same
# types, so a hit needs no check.  An entry's canonical dict is built from its
# object when the entry is first compared, so a caller that later mutates its
# input cannot change it.  An unhashable key (a list or dict) misses, and the
# checks on the miss path reject it.
_LEAVES = {}
_NODES = {}
_OPERS = {}
_FUNCTIONS = {}


def _checked(value, kind, what):
    """``value`` if its type is ``kind``; else a ValueError that names ``what``."""
    if type(value) is not kind:
        raise ValueError("%s: expected %s, got %r" % (what, kind.__name__, value))
    return value


def _ref(name, kind):
    if kind not in ("oper", "fun", "arg"):
        raise ValueError("reference kind: expected one of oper, fun, arg, got %r" % (kind,))
    return Ref(_checked(name, str, "reference name"), kind)


def _app(fn, args, num, forms):
    for _, form in forms:
        _checked(form, str, "form")
    num = num if num is None else _checked(num, str, "number")
    return App(_checked(fn, str, "constructor"), args, num, forms)


def expr_from_dict(d):
    if "str" in d:
        key = d["str"]
        try:
            leaf = _LEAVES.get(key)
        except TypeError:  # unhashable, so no str: the check below rejects it
            leaf = None
        return leaf or _LEAVES.setdefault(key, Lit(_checked(key, str, "literal")))
    if "ref" in d:
        key = (d["ref"], d["kind"])
        try:
            leaf = _LEAVES.get(key)
        except TypeError:
            leaf = None
        return leaf or _LEAVES.setdefault(key, _ref(*key))
    args = tuple(map(expr_from_dict, _checked(d["args"], list, "arguments")))
    forms = d.get("forms")
    forms = tuple(sorted(_checked(forms, dict, "forms").items())) if forms else ()
    key = (d["app"], d.get("num"), forms, *map(id, args))
    try:
        node = _NODES.get(key)
    except TypeError:
        node = None
    return node or _NODES.setdefault(key, _app(d["app"], args, d.get("num"), forms))


def _held(table, key, d, to_dict):
    """The object held under ``key`` whose canonical dict equals ``d``, else None.

    An entry's canonical dict, ``to_dict`` of its object, is filled when the
    entry is first compared.
    """
    try:
        entries = table.get(key, ())
    except TypeError:  # unhashable: the checks on the miss path reject it
        return None
    for entry in entries:
        if entry[0] is None:
            entry[0] = to_dict(entry[1])
        if entry[0] == d:
            return entry[1]
    return None


def _kept(table, key, obj, body):
    """The object held under ``key`` equal to ``obj``, else ``obj`` added under ``key``.

    Equal objects have one body, a shared node, so its field ``body`` is compared first.
    """
    entries = table.setdefault(key, [])
    for _, seen in entries:
        if getattr(seen, body) is getattr(obj, body) and seen == obj:
            return seen
    entries.append([None, obj])
    return obj


def function_from_dict(f):
    fun = _held(_FUNCTIONS, f["name"], f, function_to_dict)
    if fun is not None:
        return fun
    args = f["args"]
    names = cats = ()
    if args != []:  # most functions take no argument
        _checked(args, list, "function arguments")
        names = tuple(_checked(a["name"], str, "argument name") for a in args)
        cats = tuple(_checked(a["cat"], str, "argument category") for a in args)
    name = _checked(f["name"], str, "function name")
    result = _checked(f["result"], str, "function result")
    fun = GfFunction(name, names, cats, result, expr_from_dict(f["lin"]))
    if result == "Message":  # named by its sentence id, so it never recurs
        return fun
    return _kept(_FUNCTIONS, name, fun, "lin")


def oper_from_dict(o):
    key = (o["name"], o["category"])
    oper = _held(_OPERS, key, o, oper_to_dict)
    if oper is not None:
        return oper
    definition = expr_from_dict(o["definition"])
    name, category = _checked(key[0], str, "oper name"), _checked(key[1], str, "category")
    definition = _checked(definition, App, "oper definition")  # merge reads its forms
    return _kept(_OPERS, key, GfOper(name, category, definition), "definition")


def fragment_to_dict(grammar):
    return {
        "sentence_id": grammar.sentence_id,
        "source_text": grammar.source_text,
        "categories": sorted(grammar.categories),
        "lincats": dict(sorted(grammar.lincats.items())),
        "functions": [function_to_dict(f) for f in grammar.functions],
        "opers": [oper_to_dict(o) for o in sorted(grammar.opers.values(), key=lambda o: o.name)],
    }


def fragment_from_dict(d):
    """The fragment that ``d`` describes; a value of the wrong type is a ValueError."""
    categories = _checked(d["categories"], list, "categories")
    lincats = _checked(d["lincats"], dict, "lincats")
    for cat in (*categories, *lincats.values()):
        _checked(cat, str, "category")
    return GfGrammar(
        sentence_id=_checked(d["sentence_id"], str, "sentence id"),
        source_text=_checked(d.get("source_text", ""), str, "source text"),
        categories=set(categories),
        lincats=dict(lincats),
        functions=list(map(function_from_dict, d["functions"])),
        opers={o["name"]: oper_from_dict(o) for o in d["opers"]},
    )
