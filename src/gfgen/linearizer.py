"""Built-in English realizer for the constructor subset the encoder emits.

Linearization evaluates a function's constructor expression bottom-up into
typed phrase values and joins their strings.  Verb agreement follows the
subject noun phrase; number for bare mkNP nodes comes from the encoder's
node metadata (default singular); copulas, "to" and list commas are the only
inserted material.  Output is verbatim lexeme text: no capitalization, no
articles, single spaces.

Phrase values are immutable named tuples, one type per category
(``VALUE_TYPES``).  One table, ``CONSTRUCTORS``, states each constructor
signature of the subset once, with its realization.  From it come
``_RULES``, keyed by constructor and the exact types of the argument values,
which realizes every node by one lookup, so two value types with equal
fields never stand in for each other; and ``SIGNATURES``, against which
``infer_category`` type-checks an expression.
One evaluator, ``_value``, reads any grammar, a fragment or a merge, and
looks argument references up in an environment.  A grammar keeps what is
computed on first use in a table made on its first call: an oper's value
(ambient ones too) under ("oper", name); an argument-free function's value
under the identity of its body, which alone fixes it within one grammar, so
merged replicas evaluate each distinct body once; and, per function called
with ``NPv`` arguments and tuple of their numbers, its sequence under ("seq",
name, numbers): its sentence as a format string of literal text and
argument positions, which a call fills with the arguments' texts.  That
holds because every rule reads an NP's text only to place it and branches
only on its number.  ``sentence_format`` reads and makes that entry; a
``linearize`` call whose arguments are all ``NPv`` and the verbalizer, once
per annotation at load, both go through it.  A stored entry is only filled:
no lookup and no arity check.  That is sound because a sequence is stored
only after a lookup of this name and an arity check with this many arguments
passed, and a grammar's functions do not change after its first lookup.
Other arguments, a body that is no sentence and a lexeme that holds the
sequence delimiter take direct evaluation on every call.  No error is
stored, so a dangling reference, an ill-typed node or a cycle raises on
every use.  A cycle is found from the definitions that
one call is still evaluating, never from a marker in the grammar, and each
entry is computed from immutable definitions alone, so a race only recomputes it.
"""

from typing import NamedTuple

from . import morph
from .encoder import App, Lit, LookupError_, Ref
from .morph import inflect_verb_3sg, pluralize_noun  # re-exported realizer surface

__all__ = [
    "linearize",
    "sentence_format",
    "single_spaced",
    "linearize_expr",
    "infer_category",
    "GfTypeError",
    "inflect_verb_3sg",
    "pluralize_noun",
    "LookupError_",
    "RealizeTypeError",
]


class RealizeTypeError(TypeError):
    """Ill-typed expression reached the realizer."""


class NPv(NamedTuple):
    text: str
    number: str  # "sg" | "pl"


# Categories whose values have equal fields still get a type each, so that a
# value of one never stands in for a value of another.
Nv, CNv = (NamedTuple(name, [("singular", str), ("plural", str)]) for name in ("Nv", "CNv"))
Av, APv, AdAv, Advv, Prepv, Conjv = (
    NamedTuple(name, [("text", str)]) for name in ("Av", "APv", "AdAv", "Advv", "Prepv", "Conjv")
)


class ListNPv(NamedTuple):
    items: tuple


class VerbLex(NamedTuple):
    lemma: str
    third: str = None
    participle: str = None

    def present(self, number):
        if number == "pl":
            return self.lemma
        if self.third:
            return self.third
        head, _, last = self.lemma.rpartition("_")
        inflected = morph.inflect_verb_3sg(last)
        return (head + "_" if head else "") + inflected

    def past_part(self):
        if self.participle:
            return self.participle
        head, _, last = self.lemma.rpartition("_")
        return (head + "_" if head else "") + morph.past_participle(last)


V2v, Vv, VVv = (NamedTuple(name, [("verb", VerbLex)]) for name in ("V2v", "Vv", "VVv"))


class VPv(NamedTuple):
    kind: str  # "v" | "v2" | "vv" | "passive"
    verb: VerbLex = None
    obj: NPv = None
    inner: "VPv" = None
    advs: tuple = ()

    def realize(self, number, finite=True):
        if self.kind == "v":
            core = self.verb.present(number) if finite else self.verb.lemma
            parts = [core]
        elif self.kind == "v2":
            core = self.verb.present(number) if finite else self.verb.lemma
            parts = [core, self.obj.text]
        elif self.kind == "vv":
            core = self.verb.present(number) if finite else self.verb.lemma
            parts = [core, "to", self.inner.realize(number, finite=False)]
        elif self.kind == "passive":
            be = _be(number) if finite else "be"
            parts = [be, self.verb.past_part()]
        else:
            raise RealizeTypeError("unknown VP kind %r" % self.kind)
        parts.extend(self.advs)
        return _join(parts)


def _be(number):
    return "are" if number == "pl" else "is"


def _join(parts):
    return " ".join(filter(None, parts))


def _verb_lex(lemma, forms):
    forms = dict(forms)
    return VerbLex(lemma=lemma, third=forms.get("third"), participle=forms.get("part"))


def _conj_join(items, word):
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " " + word + " " + items[-1]


class GfTypeError(TypeError):
    """An ill-typed constructor expression: a dangling reference, or categories no signature fits."""


STR = "Str"

# category -> the type of its values; a literal's value is its str.  A clause
# (mkCl) realizes as its sentence, a str, and no constructor reads one.
VALUE_TYPES = {
    STR: str,
    "N": Nv,
    "CN": CNv,
    "NP": NPv,
    "ListNP": ListNPv,
    "A": Av,
    "AP": APv,
    "AdA": AdAv,
    "Adv": Advv,
    "Prep": Prepv,
    "Conj": Conjv,
    "V": Vv,
    "V2": V2v,
    "VV": VVv,
    "VP": VPv,
}


def _copula(node, subj, pred):
    return _join([subj.text, _be(subj.number), pred.text])


def _noun_phrase(node, noun):
    return NPv(noun.plural if node.num == "pl" else noun.singular, node.num or "sg")


def _modified_noun(node, ap, noun):
    return CNv(_join([ap.text, noun.singular]), _join([ap.text, noun.plural]))


def _adverbial(node, prep, np):
    return Advv(_join([prep.text, np.text]))


# The constructor subset the encoder emits: (constructor, input categories,
# output category, realization(node, *input values)).
CONSTRUCTORS = (
    ("mkCl", ("NP", "VP"), "Cl", lambda node, subj, pred: _join([subj.text, pred.realize(subj.number)])),
    ("mkCl", ("NP", "AP"), "Cl", _copula),
    ("mkCl", ("NP", "NP"), "Cl", _copula),
    ("mkVP", ("V2", "NP"), "VP", lambda node, v, obj: VPv("v2", v.verb, obj)),
    ("mkVP", ("V",), "VP", lambda node, v: VPv("v", v.verb)),
    ("mkVP", ("VV", "VP"), "VP", lambda node, v, inner: VPv("vv", v.verb, inner=inner)),
    ("mkVP", ("VP", "Adv"), "VP", lambda node, vp, adv: vp._replace(advs=vp.advs + (adv.text,))),
    ("passiveVP", ("V2",), "VP", lambda node, v: VPv("passive", v.verb)),
    ("mkNP", ("N",), "NP", _noun_phrase),
    ("mkNP", ("CN",), "NP", _noun_phrase),
    ("mkNP", ("NP", "Adv"), "NP", lambda node, np, adv: NPv(_join([np.text, adv.text]), np.number)),
    (
        "mkNP",
        ("Conj", "ListNP"),
        "NP",
        lambda node, conj, nps: NPv(_conj_join([np.text for np in nps.items], conj.text), "pl"),
    ),
    ("mkCN", ("N",), "CN", lambda node, noun: CNv(noun.singular, noun.plural)),
    ("mkCN", ("AP", "N"), "CN", _modified_noun),
    ("mkCN", ("AP", "CN"), "CN", _modified_noun),
    ("mkAP", ("A",), "AP", lambda node, a: APv(a.text)),
    ("mkAP", ("AdA", "AP"), "AP", lambda node, ada, ap: APv(_join([ada.text, ap.text]))),
    ("mkAdv", (STR,), "Adv", lambda node, word: Advv(word)),
    ("mkAdv", ("Prep", "NP"), "Adv", _adverbial),
    ("ConstructorsEng.mkAdv", ("Prep", "NP"), "Adv", _adverbial),
    ("mkListNP", ("NP", "NP"), "ListNP", lambda node, first, second: ListNPv((first, second))),
    ("mkListNP", ("NP", "ListNP"), "ListNP", lambda node, first, rest: ListNPv((first,) + rest.items)),
    ("mkN", (STR,), "N", lambda node, sg: Nv(sg, morph.pluralize_noun(sg))),
    ("mkN", (STR, STR), "N", lambda node, sg, pl: Nv(sg, pl)),
    ("mkA", (STR,), "A", lambda node, word: Av(word)),
    ("mkAdA", (STR,), "AdA", lambda node, word: AdAv(word)),
    ("mkPrep", (STR,), "Prep", lambda node, word: Prepv(word)),
    ("mkConj", (STR,), "Conj", lambda node, word: Conjv(word)),
    ("mkV", (STR,), "V", lambda node, lemma: Vv(_verb_lex(lemma, node.forms))),
    ("mkV2", (STR,), "V2", lambda node, lemma: V2v(_verb_lex(lemma, node.forms))),
    ("mkVV", (STR,), "VV", lambda node, lemma: VVv(_verb_lex(lemma, node.forms))),
)

# (constructor, *input value types) -> realization, so a node realizes by one
# lookup and two value types with equal fields never stand in for each other
_RULES = {
    (fn, *(VALUE_TYPES[cat] for cat in inputs)): rule for fn, inputs, _, rule in CONSTRUCTORS
}

# constructor -> [(input categories, output category)]
SIGNATURES = {
    fn: [(inputs, output) for other, inputs, output, _ in CONSTRUCTORS if other == fn]
    for fn, *_ in CONSTRUCTORS
}


def _realize(node, values):
    rule = _RULES.get((node.fn, *map(type, values)))
    if rule is None:
        if node.fn in ("mkV", "mkV2", "mkVV"):
            raise RealizeTypeError("%s expects one string argument" % node.fn)
        types = tuple(map(type, values))
        raise RealizeTypeError("no realization of %s over %s" % (node.fn, types))
    return rule(node, *values)


def ambient_category(name):
    """Category of a library oper we reference but never define (with_Prep, and_Conj); else None."""
    _, underscore, suffix = name.rpartition("_")
    return suffix if underscore and suffix in ("Prep", "Conj") else None


def _ambient_value(name):
    cat = ambient_category(name)
    if cat is None:
        raise LookupError_("unknown oper %s" % name)
    return VALUE_TYPES[cat](name.rsplit("_", 1)[0].replace("_", " "))


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
        got = tuple(infer_category(a, opers, funs, args) for a in expr.args)
        for inputs, output in SIGNATURES.get(expr.fn, ()):
            if inputs == got:
                return output
        raise GfTypeError("no signature of %s accepts %s" % (expr.fn, got))
    raise GfTypeError("not an expression: %r" % (expr,))


def _value(expr, grammar, env, active=()):
    """The value of ``expr``, whose ``arg`` references read ``env`` (name -> value).

    ``active`` holds the ``_values`` key of each definition that this call
    is still evaluating, so a reference back to one of them is a cycle.
    """
    if isinstance(expr, App):
        return _realize(expr, [_value(a, grammar, env, active) for a in expr.args])
    if isinstance(expr, Lit):
        return expr.text
    if isinstance(expr, Ref):
        if expr.kind == "arg":
            if expr.name not in env:
                raise LookupError_("unbound argument %s" % expr.name)
            return env[expr.name]
        if expr.kind == "oper":
            return _oper(grammar, expr.name, active)
        fun = grammar.function(expr.name)
        if fun.arg_names:
            raise RealizeTypeError("function %s used without arguments" % expr.name)
        return _function(grammar, fun, active)
    raise RealizeTypeError("not an expression: %r" % (expr,))


def _function(grammar, fun, active=()):
    """The value of the argument-free function ``fun``, stored under the identity of its body."""
    key = id(fun.lin)
    value = grammar._values.get(key)
    if value is None:
        if key in active:
            raise RealizeTypeError("cyclic reference to function %s" % fun.name)
        active = active or []  # the first definition a call evaluates starts its stack
        active.append(key)
        value = grammar._values[key] = _value(fun.lin, grammar, {}, active)
        active.pop()
    return value


def _oper(grammar, name, active):
    """The value of the oper ``name``, stored in the grammar under ("oper", name) on first use."""
    key = ("oper", name)
    value = grammar._values.get(key)
    if value is None:
        oper = grammar.opers.get(name)
        if oper is None:
            value = _ambient_value(name)
        elif key in active:
            raise RealizeTypeError("cyclic reference to oper %s" % name)
        else:
            active = active or []
            active.append(key)
            value = _value(oper.definition, grammar, {}, active)
            active.pop()
        grammar._values[key] = value
    return value


def _env(fun, values):  # a repeated argument name reads its first value
    return dict(reversed(list(zip(fun.arg_names, values))))


_MARK = "\x00"  # delimits an argument's place in a sentence that a sequence is made from


def _sequence(grammar, fun, numbers):
    """``fun``'s sentence over NPs of ``numbers``, as a format string over their texts.

    False where the direct evaluation must serve: the body is not a sentence,
    which that evaluation reports, or a lexeme holds ``_MARK``.
    """
    blank = _value(fun.lin, grammar, _env(fun, [NPv("", n) for n in numbers]))
    if not isinstance(blank, str) or _MARK in blank:
        return False
    marks = [NPv("%s%d%s" % (_MARK, i, _MARK), n) for i, n in enumerate(numbers)]
    pieces = _value(fun.lin, grammar, _env(fun, marks)).split(_MARK)
    pieces[::2] = [p.replace("{", "{{").replace("}", "}}") for p in pieces[::2]]
    pieces[1::2] = ["{%s}" % i for i in pieces[1::2]]
    return "".join(pieces)


def linearize_expr(expr, grammar, env=None):
    """The typed phrase value of ``expr``; ``env`` maps the argument names it reads to values."""
    if grammar._values is None:
        grammar._values = {}
    return _value(expr, grammar, env or {})


def _argument_value(grammar, text):
    """CLI/test argument: a function name, else an opaque NP symbol."""
    fun = grammar.function(text, None)
    if fun is None:
        return NPv(text.replace("_", " "), "sg")
    if fun.arg_names:
        raise RealizeTypeError("argument function %s needs arguments itself" % text)
    return _function(grammar, fun)


def single_spaced(text):
    """``text`` with each run of whitespace one space and none at either end."""
    return " ".join(text.split())


def sentence_format(grammar, function_name, numbers):
    """The sequence of ``function_name`` over NPs of ``numbers``, as stored under ("seq", name, numbers).

    A format string that ``str.format`` fills with the NPs' texts, in order;
    ``single_spaced`` of the result is the sentence.  None where the direct
    evaluation must serve (``_sequence`` gives False).  A stored entry is read
    with no lookup and no arity check; making one looks the function up and
    checks its arity first, and raises what they and ``_sequence`` raise.
    """
    values = grammar._values
    if values is None:
        values = grammar._values = {}
    key = ("seq", function_name, numbers)
    sequence = values.get(key)
    if sequence is None:
        fun = grammar.function(function_name)
        if len(numbers) != len(fun.arg_names):
            raise _arity_error(fun, len(numbers))
        sequence = values[key] = _sequence(grammar, fun, numbers)
    return None if sequence is False else sequence


def _arity_error(fun, given):
    return RealizeTypeError("function %s takes %d arguments, got %d" % (fun.name, len(fun.arg_names), given))


def linearize(grammar, function_name, args=(), period=False):
    """Realize one grammar function as an English string.

    ``args`` fill the function's arguments: each is an ``NPv``, or a text
    that names a function of the grammar or else is an opaque symbol
    (underscores become spaces, singular number).
    """
    if grammar._values is None:
        grammar._values = {}
    if args and all(type(arg) is NPv for arg in args):
        sequence = sentence_format(grammar, function_name, tuple(arg.number for arg in args))
        if sequence is not None:
            return single_spaced(sequence.format(*[arg.text for arg in args])) + ("." if period else "")
    fun = grammar.function(function_name)
    if len(args) != len(fun.arg_names):
        raise _arity_error(fun, len(args))
    if args:
        argv = [arg if isinstance(arg, NPv) else _argument_value(grammar, str(arg)) for arg in args]
        text = _value(fun.lin, grammar, _env(fun, argv))
    else:
        text = _function(grammar, fun)
    if not isinstance(text, str):
        raise RealizeTypeError("function %s does not linearize to a sentence" % function_name)
    return single_spaced(text) + ("." if period else "")
