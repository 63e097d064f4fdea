"""GF grammar encoding: one grammar fragment per recognized sentence.

A fragment is a ``GfGrammar``, the one grammar type: a merge of fragments is
another, and one sentence linearizes from its fragment without a merge.

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
application) and every oper decodes to one object per distinct value, from
process-wide tables.  The tables grow with the distinct expressions read: a
replica of a sentence under a new id adds nothing, and each new sentence
structure adds a few nodes.  Functions stay per fragment, since their names
carry sentence ids.  A value of the wrong type is a ValueError; only what the
tables miss is checked.  Encoding builds each sentence's own objects.
"""

import re
from dataclasses import dataclass, field
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


# App is a named tuple, which is quicker to build for every node of every
# sentence.  Ref, Lit and GfOper stay slotted classes, which are smaller in a
# decoded corpus, and GfFunction is no tuple: bench/run.py still reads any
# tuple in a grammar's functions as a (sentence id, position, function) entry.
class App(NamedTuple):
    fn: str
    args: tuple
    num: str = None  # "sg" | "pl" on NP-building nodes
    forms: tuple = ()  # observed inflections, e.g. (("part", "made"),)


@dataclass(frozen=True, slots=True)
class Ref:
    name: str
    kind: str  # "oper" | "fun" | "arg"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class GfOper:
    name: str
    category: str
    definition: App


@dataclass(frozen=True, slots=True)
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
    each value and plan there, some under the identity of a body that
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


# --- constructor signature table ---------------------------------------------

STR = "Str"

SIGNATURES = {
    "mkCl": [(("NP", "VP"), "Cl"), (("NP", "AP"), "Cl"), (("NP", "NP"), "Cl")],
    "mkVP": [
        (("V2", "NP"), "VP"),
        (("V",), "VP"),
        (("VV", "VP"), "VP"),
        (("VP", "Adv"), "VP"),
    ],
    "passiveVP": [(("V2",), "VP")],
    "mkNP": [
        (("N",), "NP"),
        (("CN",), "NP"),
        (("NP", "Adv"), "NP"),
        (("Conj", "ListNP"), "NP"),
    ],
    "mkCN": [(("N",), "CN"), (("AP", "N"), "CN"), (("AP", "CN"), "CN")],
    "mkAP": [(("A",), "AP"), (("AdA", "AP"), "AP")],
    "mkAdv": [((STR,), "Adv"), (("Prep", "NP"), "Adv")],
    "ConstructorsEng.mkAdv": [(("Prep", "NP"), "Adv")],
    "mkListNP": [(("NP", "NP"), "ListNP"), (("NP", "ListNP"), "ListNP")],
    "mkN": [((STR,), "N"), ((STR, STR), "N")],
    "mkA": [((STR,), "A")],
    "mkV": [((STR,), "V")],
    "mkV2": [((STR,), "V2")],
    "mkVV": [((STR,), "VV")],
    "mkAdA": [((STR,), "AdA")],
    "mkPrep": [((STR,), "Prep")],
    "mkConj": [((STR,), "Conj")],
}

AMBIENT_SUFFIX_CATS = {"Prep": "Prep", "Conj": "Conj"}


def ambient_category(name):
    """Library-provided opers we reference but never define (with_Prep, and_Conj)."""
    for suffix, cat in AMBIENT_SUFFIX_CATS.items():
        if name.endswith("_" + suffix):
            return cat
    return None


class GfTypeError(TypeError):
    pass


def infer_category(expr, opers=None, funs=None, args=None):
    """Category of a constructor expression; raises GfTypeError on mismatch."""
    opers = opers or {}
    funs = funs or {}
    args = args or {}
    if isinstance(expr, Lit):
        return STR
    if isinstance(expr, Ref):
        if expr.kind == "arg":
            if expr.name not in args:
                raise GfTypeError("unbound argument %s" % expr.name)
            return args[expr.name]
        if expr.kind == "oper":
            if expr.name in opers:
                return opers[expr.name].category
            cat = ambient_category(expr.name)
            if cat is None:
                raise GfTypeError("dangling oper reference %s" % expr.name)
            return cat
        if expr.name not in funs:
            raise GfTypeError("dangling function reference %s" % expr.name)
        return funs[expr.name]
    if isinstance(expr, App):
        if expr.fn not in SIGNATURES:
            raise GfTypeError("unknown constructor %s" % expr.fn)
        got = tuple(infer_category(a, opers, funs, args) for a in expr.args)
        for inputs, output in SIGNATURES[expr.fn]:
            if inputs == got:
                return output
        raise GfTypeError("no signature of %s accepts %s" % (expr.fn, got))
    raise GfTypeError("not an expression: %r" % (expr,))


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
    name = sanitize_ident("_".join(words)) + "_N"
    grammar.add_oper(GfOper(name, "N", app("mkN", Lit(singular), Lit(plural))))
    return name, words


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
    name = sanitize_ident(lemma) + "_" + cat
    definition = app("mk" + cat, Lit(lemma), forms=_verb_forms(tok, lemma))
    grammar.add_oper(GfOper(name, cat, definition))
    return name


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
    a_name = sanitize_ident(word) + "_A"
    grammar.add_oper(GfOper(a_name, "A", app("mkA", Lit(word))))
    name_parts = [sanitize_ident(word)]
    if materialize:
        ap_name = name_parts[0] + "_AP"
        grammar.add_oper(GfOper(ap_name, "AP", app("mkAP", oper_ref(a_name))))
        expr = oper_ref(ap_name)
    else:
        expr = app("mkAP", oper_ref(a_name))
    for att in chunk.attachments:
        if att.kind != "adverbial_modifier":
            continue  # no extended rule consumes other adjective complements
        ada_tok = facts.token(att.chunk.head)
        ada_name = sanitize_ident(ada_tok.lemma) + "_AdA"
        grammar.add_oper(GfOper(ada_name, "AdA", app("mkAdA", Lit(ada_tok.lemma))))
        name_parts.insert(0, sanitize_ident(ada_tok.lemma))
        if materialize:
            wrapped = "_".join(name_parts) + "_AP"
            grammar.add_oper(GfOper(wrapped, "AP", app("mkAP", oper_ref(ada_name), expr)))
            expr = oper_ref(wrapped)
        else:
            expr = app("mkAP", oper_ref(ada_name), expr)
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
    n_name, words = _noun_oper(facts, chunk, grammar)
    adjectives = [a for a in chunk.attachments if a.kind == "adj_mod"]
    if adjectives:
        cn_names = [sanitize_ident(w) for w in words]
        inner = oper_ref(n_name)
        inner_cat = "N"
        for att in reversed(adjectives):
            ap_expr, ap_ident = encode_ap(facts, att.chunk, grammar, materialize=True)
            cn_names = ap_ident.split("_") + cn_names
            cn_name = "_".join(cn_names) + "_CN"
            grammar.add_oper(GfOper(cn_name, "CN", app("mkCN", ap_expr, inner)))
            inner = oper_ref(cn_name)
            inner_cat = "CN"
        np = app("mkNP", inner, num=number)
    else:
        np = app("mkNP", oper_ref(n_name), num=number)
    for att in chunk.attachments:
        if att.kind != "preposition":
            continue
        prep_word = facts.token(att.case_marker).lemma.lower()
        prep = oper_ref(sanitize_ident(prep_word) + "_Prep")
        np = app("mkNP", np, app("ConstructorsEng.mkAdv", prep, encode_np(facts, att.chunk, grammar)))
    conjuncts = [a for a in chunk.attachments if a.kind == "noun_conjunction"]
    if conjuncts:
        items = [encode_np(facts, att.chunk, grammar) for att in conjuncts] + [np]
        lst = app("mkListNP", items[-2], items[-1])
        for item in reversed(items[:-2]):
            lst = app("mkListNP", item, lst)
        word = conjunction_word(facts, chunk.head, conjuncts[0].chunk.head)
        np = app("mkNP", oper_ref(sanitize_ident(word) + "_Conj"), lst, num="pl")
    return np


def _vp_wraps(facts, chunk, vp, grammar):
    """Adverbial complements of a verb wrap the VP, in dependent order."""
    for att in chunk.attachments:
        if att.kind == "adverbial_modifier":
            adv_tok = facts.token(att.chunk.head)
            adv_name = sanitize_ident(adv_tok.lemma) + "_Adv"
            grammar.add_oper(GfOper(adv_name, "Adv", app("mkAdv", Lit(adv_tok.lemma))))
            vp = app("mkVP", vp, oper_ref(adv_name))
        elif att.kind == "preposition":
            prep_word = facts.token(att.case_marker).lemma.lower()
            prep = oper_ref(sanitize_ident(prep_word) + "_Prep")
            vp = app(
                "mkVP", vp, app("ConstructorsEng.mkAdv", prep, encode_np(facts, att.chunk, grammar))
            )
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
    shape = selected.shape
    grammar = GfGrammar(sentence_id=facts.sentence_id, source_text=facts.source_text)
    used = set()
    refs = {"sub": _nominal_fun(facts, roles.sub, grammar, used)}
    if roles.obj is not None:
        refs["obj"] = _nominal_fun(facts, roles.obj, grammar, used)
    if roles.adj is not None:  # the copula's adjectival complement fills the obj leaf
        expr, _ = encode_ap(facts, build_chunk(facts, roles.adj), grammar, materialize=False)
        refs["obj"] = _component_fun(facts, roles.adj, "AP", expr, grammar, used)
    for role, cat in shape.verbs.items():
        index = getattr(roles, role)
        verb = oper_ref(_verb_oper(facts, index, cat, grammar))
        refs[role] = _component_fun(facts, index, cat, verb, grammar, used)

    arg_names = tuple("a%d" % n for n in slots)
    sent_fun = GfFunction(
        name="sent_" + sanitize_ident(facts.sentence_id),
        arg_names=arg_names,
        arg_cats=tuple("NP" for _ in slots),
        result="Message",
        lin=encode_skeleton(facts, shape.skeleton, roles, refs, grammar),
    )
    grammar.add_function(sent_fun)
    return grammar


def sentence_slots(facts):
    """Argument slot numbers ($1..$n) appearing in a sentence, numerically ordered."""
    slots = set()
    for tok in facts.tokens:
        n = slot_number(tok)
        if n is not None:
            slots.add(n)
    return tuple(sorted(slots))


def synthesize_sentence(facts):
    """Full pipeline for one sentence; None when the structure is unrecognized."""
    selected = select(recognize(facts))
    if selected is None:
        return None
    roles = main_components(facts, selected)
    return encode_sentence(facts, selected, roles, slots=sentence_slots(facts))


# --- fragment (de)serialization -------------------------------------------------


def expr_to_dict(expr):
    if isinstance(expr, Lit):
        return {"str": expr.text}
    if isinstance(expr, Ref):
        return {"ref": expr.name, "kind": expr.kind}
    d = {"app": expr.fn, "args": [expr_to_dict(a) for a in expr.args]}
    if expr.num:
        d["num"] = expr.num
    if expr.forms:
        d["forms"] = {k: v for k, v in expr.forms}
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


# Decoded expression nodes and opers, shared by every decoded fragment: a leaf
# is looked up by its text or (name, kind), a constructor node by its
# constructor, number, forms and the identities of its already shared
# arguments, and an oper by its name, category and the identity of its
# definition.  The tables keep every object whose identity they key alive.
_LEAVES = {}
_NODES = {}
_OPERS = {}


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
        return _LEAVES.get(key) or _LEAVES.setdefault(key, Lit(_checked(key, str, "literal")))
    if "ref" in d:
        key = (d["ref"], d["kind"])
        return _LEAVES.get(key) or _LEAVES.setdefault(key, _ref(*key))
    args = tuple(map(expr_from_dict, d["args"]))
    forms = d.get("forms")
    forms = tuple(sorted(forms.items())) if forms else ()
    key = (d["app"], d.get("num"), forms, *map(id, args))
    return _NODES.get(key) or _NODES.setdefault(key, _app(d["app"], args, d.get("num"), forms))


def function_from_dict(f):
    args = f["args"]
    names = cats = ()
    if args != []:  # most functions take no argument
        names = tuple(_checked(a["name"], str, "argument name") for a in args)
        cats = tuple(_checked(a["cat"], str, "argument category") for a in args)
    name = _checked(f["name"], str, "function name")
    result = _checked(f["result"], str, "function result")
    return GfFunction(name, names, cats, result, expr_from_dict(f["lin"]))


def oper_from_dict(o):
    definition = expr_from_dict(o["definition"])
    key = (o["name"], o["category"], id(definition))
    oper = _OPERS.get(key)
    if oper is None:
        name, category = _checked(key[0], str, "oper name"), _checked(key[1], str, "category")
        definition = _checked(definition, App, "oper definition")  # merge reads its forms
        oper = _OPERS.setdefault(key, GfOper(name, category, definition))
    return oper


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
