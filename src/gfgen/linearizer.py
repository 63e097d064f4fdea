"""Built-in English realizer for the constructor subset the encoder emits.

Linearization evaluates a function's constructor expression bottom-up into
typed phrase values and joins their strings.  Verb agreement follows the
subject noun phrase; number for bare mkNP nodes comes from the encoder's
node metadata (default singular); copulas, "to" and list commas are the only
inserted material.  Output is verbatim lexeme text: no capitalization, no
articles, single spaces.

Phrase values are immutable named tuples.  One rule table, ``_RULES``, keyed
by constructor and the exact types of the argument values, realizes every
node, so two value types with equal fields never stand in for each other.
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
only on its number.  A call whose arguments are all ``NPv`` reads that key
first and, on a hit, only fills the sequence: no lookup and no arity check.
That is sound because a sequence is stored only after a call of this name
with this many arguments passed both, and a grammar's functions do not
change after its first lookup.  Other arguments, a body that is no sentence
and a lexeme that holds the sequence delimiter take direct evaluation on
every call.  No error is stored, so a dangling reference, an ill-typed node
or a cycle raises on every use.  A cycle is found from the definitions that
one call is still evaluating, never from a marker in the grammar, and each
entry is computed from immutable definitions alone, so a race only recomputes it.
"""

from typing import NamedTuple

from . import morph
from .encoder import App, Lit, LookupError_, Ref, ambient_category
from .morph import inflect_verb_3sg, pluralize_noun  # re-exported realizer surface

__all__ = [
    "linearize",
    "linearize_expr",
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


class Nv(NamedTuple):
    singular: str
    plural: str


class CNv(NamedTuple):
    singular: str
    plural: str


class Av(NamedTuple):
    text: str


class APv(NamedTuple):
    text: str


class AdAv(NamedTuple):
    text: str


class Advv(NamedTuple):
    text: str


class Prepv(NamedTuple):
    text: str


class Conjv(NamedTuple):
    text: str


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


class V2v(NamedTuple):
    verb: VerbLex


class Vv(NamedTuple):
    verb: VerbLex


class VVv(NamedTuple):
    verb: VerbLex


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


_VERBS = {"mkV2": V2v, "mkV": Vv, "mkVV": VVv}

# (constructor, *argument value types) -> realization(node, *values); a
# literal's value is its str
_RULES = {
    ("mkCl", NPv, VPv): lambda node, subj, pred: _join([subj.text, pred.realize(subj.number)]),
    **dict.fromkeys(
        [("mkCl", NPv, APv), ("mkCl", NPv, NPv)],
        lambda node, subj, pred: _join([subj.text, _be(subj.number), pred.text]),
    ),
    ("mkVP", V2v, NPv): lambda node, v, obj: VPv("v2", v.verb, obj),
    ("mkVP", Vv): lambda node, v: VPv("v", v.verb),
    ("mkVP", VVv, VPv): lambda node, v, inner: VPv("vv", v.verb, inner=inner),
    ("mkVP", VPv, Advv): lambda node, vp, adv: vp._replace(advs=vp.advs + (adv.text,)),
    ("passiveVP", V2v): lambda node, v: VPv("passive", v.verb),
    **dict.fromkeys(
        [("mkNP", Nv), ("mkNP", CNv)],
        lambda node, noun: NPv(
            noun.plural if node.num == "pl" else noun.singular, node.num or "sg"
        ),
    ),
    ("mkNP", NPv, Advv): lambda node, np, adv: NPv(_join([np.text, adv.text]), np.number),
    ("mkNP", Conjv, ListNPv): lambda node, conj, nps: NPv(
        _conj_join([np.text for np in nps.items], conj.text), "pl"
    ),
    ("mkCN", Nv): lambda node, noun: CNv(noun.singular, noun.plural),
    **dict.fromkeys(
        [("mkCN", APv, Nv), ("mkCN", APv, CNv)],
        lambda node, ap, noun: CNv(_join([ap.text, noun.singular]), _join([ap.text, noun.plural])),
    ),
    ("mkAP", Av): lambda node, a: APv(a.text),
    ("mkAP", AdAv, APv): lambda node, ada, ap: APv(_join([ada.text, ap.text])),
    ("mkAdv", str): lambda node, word: Advv(word),
    ("mkAdv", Prepv, NPv): lambda node, prep, np: Advv(_join([prep.text, np.text])),
    ("mkListNP", NPv, NPv): lambda node, first, second: ListNPv((first, second)),
    ("mkListNP", NPv, ListNPv): lambda node, first, rest: ListNPv((first,) + rest.items),
    ("mkN", str): lambda node, sg: Nv(sg, morph.pluralize_noun(sg)),
    ("mkN", str, str): lambda node, sg, pl: Nv(sg, pl),
    ("mkA", str): lambda node, word: Av(word),
    ("mkAdA", str): lambda node, word: AdAv(word),
    ("mkPrep", str): lambda node, word: Prepv(word),
    ("mkConj", str): lambda node, word: Conjv(word),
    **{
        (fn, str): lambda node, lemma, cls=cls: cls(_verb_lex(lemma, node.forms))
        for fn, cls in _VERBS.items()
    },
}
# the qualified name realizes as the plain one
_RULES.update(
    {("ConstructorsEng.mkAdv", *key[1:]): rule for key, rule in _RULES.items() if key[0] == "mkAdv"}
)


def _realize(node, values):
    rule = _RULES.get((node.fn, *map(type, values)))
    if rule is None:
        if node.fn in _VERBS:
            raise RealizeTypeError("%s expects one string argument" % node.fn)
        types = tuple(map(type, values))
        raise RealizeTypeError("no realization of %s over %s" % (node.fn, types))
    return rule(node, *values)


def _ambient_value(name):
    cat = ambient_category(name)
    if cat is None:
        raise LookupError_("unknown oper %s" % name)
    word = name.rsplit("_", 1)[0].replace("_", " ")
    return Prepv(word) if cat == "Prep" else Conjv(word)


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


def linearize(grammar, function_name, args=(), period=False):
    """Realize one grammar function as an English string.

    ``args`` fill the function's arguments: each is an ``NPv``, or a text
    that names a function of the grammar or else is an opaque symbol
    (underscores become spaces, singular number).
    """
    values = grammar._values
    if values is None:
        values = grammar._values = {}
    sequence = False
    if args:
        texts, numbers = [], []
        for arg in args:
            if type(arg) is not NPv:
                break
            texts.append(arg.text)
            numbers.append(arg.number)
        else:  # a stored sequence is filled at once; an empty one takes the path below
            key = ("seq", function_name, tuple(numbers))
            sequence = values.get(key)
            if sequence:
                return " ".join(sequence.format(*texts).split()) + ("." if period else "")
    fun = grammar.function(function_name)
    if len(args) != len(fun.arg_names):
        raise RealizeTypeError(
            "function %s takes %d arguments, got %d" % (function_name, len(fun.arg_names), len(args))
        )
    if sequence is None:
        sequence = values[key] = _sequence(grammar, fun, key[2])
    if sequence is not False:
        text = sequence.format(*texts)
    elif args:
        argv = [arg if isinstance(arg, NPv) else _argument_value(grammar, str(arg)) for arg in args]
        text = _value(fun.lin, grammar, _env(fun, argv))
    else:
        text = _function(grammar, fun)
    if not isinstance(text, str):
        raise RealizeTypeError("function %s does not linearize to a sentence" % function_name)
    return " ".join(text.split()) + ("." if period else "")
