"""Built-in English realizer for the constructor subset the encoder emits.

Linearization evaluates a function's constructor expression bottom-up into
typed phrase values and joins their strings.  Verb agreement follows the
subject noun phrase; number for bare mkNP nodes comes from the encoder's
node metadata (default singular); copulas, "to" and list commas are the only
inserted material.  Output is verbatim lexeme text: no capitalization, no
articles, single spaces.

One rule table, ``_RULES``, keyed by constructor and argument value types,
realizes every node.  Values are kept per grammar: an oper (ambient ones
included) or a function without arguments is evaluated on first use only.  A
function with arguments is compiled once per grammar into a plan that folds
its argument-free subexpressions to values and closes over the arguments for
the rest; ``linearize_expr`` uses the same compile step.  No error is stored,
so a dangling reference or an ill-typed node raises on every use.  Each entry
is computed from immutable definitions alone, so a race only recomputes it.
"""

from dataclasses import dataclass
from operator import itemgetter

from . import morph
from .encoder import App, Lit, Ref, ambient_category
from .exporter import LookupError_
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


@dataclass(frozen=True)
class NPv:
    text: str
    number: str  # "sg" | "pl"


@dataclass(frozen=True)
class Nv:
    singular: str
    plural: str


@dataclass(frozen=True)
class CNv:
    singular: str
    plural: str


@dataclass(frozen=True)
class Av:
    text: str


@dataclass(frozen=True)
class APv:
    text: str


@dataclass(frozen=True)
class AdAv:
    text: str


@dataclass(frozen=True)
class Advv:
    text: str


@dataclass(frozen=True)
class Prepv:
    text: str


@dataclass(frozen=True)
class Conjv:
    text: str


@dataclass(frozen=True)
class ListNPv:
    items: tuple


@dataclass(frozen=True)
class VerbLex:
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


@dataclass(frozen=True)
class V2v:
    verb: VerbLex


@dataclass(frozen=True)
class Vv:
    verb: VerbLex


@dataclass(frozen=True)
class VVv:
    verb: VerbLex


@dataclass(frozen=True)
class VPv:
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
    ("mkVP", V2v, NPv): lambda node, v, obj: VPv(kind="v2", verb=v.verb, obj=obj),
    ("mkVP", Vv): lambda node, v: VPv(kind="v", verb=v.verb),
    ("mkVP", VVv, VPv): lambda node, v, inner: VPv(kind="vv", verb=v.verb, inner=inner),
    ("mkVP", VPv, Advv): lambda node, vp, adv: VPv(
        kind=vp.kind, verb=vp.verb, obj=vp.obj, inner=vp.inner, advs=vp.advs + (adv.text,)
    ),
    ("passiveVP", V2v): lambda node, v: VPv(kind="passive", verb=v.verb),
    **dict.fromkeys(
        [("mkNP", Nv), ("mkNP", CNv)],
        lambda node, noun: NPv(
            text=noun.plural if node.num == "pl" else noun.singular, number=node.num or "sg"
        ),
    ),
    ("mkNP", NPv, Advv): lambda node, np, adv: NPv(_join([np.text, adv.text]), np.number),
    ("mkNP", Conjv, ListNPv): lambda node, conj, nps: NPv(
        text=_conj_join([np.text for np in nps.items], conj.text), number="pl"
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
        return None
    word = name.rsplit("_", 1)[0].replace("_", " ")
    return Prepv(word) if cat == "Prep" else Conjv(word)


def _compile(expr, grammar, scope):
    """``expr``'s value, or its plan if it reads an argument named in ``scope``.

    A plan is a function of the argument environment; no value is callable.
    Argument-free subexpressions are folded to their values here.
    """
    if isinstance(expr, App):
        parts = [_compile(a, grammar, scope) for a in expr.args]
        if not (scope and any(map(callable, parts))):
            return _realize(expr, parts)
        return lambda env: _realize(expr, [p(env) if callable(p) else p for p in parts])
    if isinstance(expr, Lit):
        return expr.text
    if isinstance(expr, Ref):
        if expr.kind == "arg":
            if expr.name not in scope:
                raise LookupError_("unbound argument %s" % expr.name)
            return itemgetter(expr.name)
        if expr.kind != "oper" and grammar.function(expr.name).arg_names:
            raise RealizeTypeError("function %s used without arguments" % expr.name)
        return _definition(grammar, expr.kind, expr.name)
    raise RealizeTypeError("not an expression: %r" % (expr,))


def _definition(grammar, kind, name):
    """The compiled oper or function ``name``, stored in the grammar on first use.

    That is its value, or its plan for a function with arguments.  Only a
    compiled definition is stored, never an error.
    """
    key = (kind, name)
    compiled = grammar._values.get(key)
    if compiled is None:
        if kind != "oper":
            fun = grammar.function(name)
            compiled = _compile(fun.lin, grammar, fun.arg_names)
        elif name in grammar.opers:
            compiled = _compile(grammar.opers[name].definition, grammar, ())
        else:
            compiled = _ambient_value(name)
            if compiled is None:
                raise LookupError_("unknown oper %s" % name)
        grammar._values[key] = compiled
    return compiled


def linearize_expr(expr, grammar, env=None):
    """Evaluate a constructor expression to a typed phrase value."""
    env = env or {}
    value = _compile(expr, grammar, env)
    return value(env) if callable(value) else value


def _argument_value(grammar, text):
    """CLI/test argument: a function name, else an opaque NP symbol."""
    fun = grammar.function(text, None)
    if fun is None:
        return NPv(text=text.replace("_", " "), number="sg")
    if fun.arg_names:
        raise RealizeTypeError("argument function %s needs arguments itself" % text)
    return _definition(grammar, "fun", text)


def linearize(grammar, function_name, args=(), period=False):
    """Realize one grammar function as an English string.

    ``args`` fill the function's arguments: each is an ``NPv``, or a text
    that names a function of the grammar or else is an opaque symbol
    (underscores become spaces, singular number).
    """
    fun = grammar.function(function_name)
    if len(args) != len(fun.arg_names):
        raise RealizeTypeError(
            "function %s takes %d arguments, got %d"
            % (function_name, len(fun.arg_names), len(args))
        )
    env = {}
    for name, arg in zip(fun.arg_names, args):
        env[name] = arg if isinstance(arg, NPv) else _argument_value(grammar, str(arg))
    value = _definition(grammar, "fun", function_name)
    if callable(value):
        value = value(env)
    if not isinstance(value, str):
        raise RealizeTypeError(
            "function %s does not linearize to a sentence" % function_name
        )
    text = " ".join(value.split())
    return text + "." if period else text
