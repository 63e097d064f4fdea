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
Linearization reads any grammar, a sentence's fragment as well as a merged
grammar, so one sentence needs no merge.  Values are kept per grammar, in a
table made on the first call that reads it, and computed on first use only:
an oper (ambient ones included) under ("oper", name), and a function without
arguments under the identity of its body, since within one grammar that
body alone fixes its value; the replicas of a merged corpus share their
bodies, so each distinct body is evaluated once.  A function with arguments
is compiled once per grammar into a plan, kept under ("fun", name), that
folds its argument-free subexpressions to values and reads each argument by
its position in the function's ``arg_names``; ``linearize`` evaluates the
arguments before it compiles or runs the plan, and ``linearize_expr`` uses
the same compile step.  No error is stored, so a dangling reference, an
ill-typed node or a reference cycle raises on every use.  A cycle is found
from the definitions that one call is still compiling, never from a marker
in the grammar, and each entry is computed from immutable definitions alone,
so a race only recomputes it.
"""

from operator import itemgetter
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
        return None
    word = name.rsplit("_", 1)[0].replace("_", " ")
    return Prepv(word) if cat == "Prep" else Conjv(word)


def _compile(expr, grammar, scope, active=()):
    """``expr``'s value, or its plan if it reads an argument named in ``scope``.

    A plan is a function of the argument values, in ``scope``'s order; no
    value is callable.  Argument-free subexpressions are folded to their
    values here, and each plan node evaluates only its parts that are plans.
    ``active`` holds the ``_values`` key of each definition that this call
    is still compiling, so a reference back to one of them is a cycle.
    """
    if isinstance(expr, App):
        parts = [_compile(a, grammar, scope, active) for a in expr.args]
        # with no argument in scope no part is a plan
        plans = scope and [(i, p) for i, p in enumerate(parts) if callable(p)]
        if not plans:
            return _realize(expr, parts)

        def plan(args):
            values = parts.copy()
            for i, part in plans:
                values[i] = part(args)
            return _realize(expr, values)

        return plan
    if isinstance(expr, Lit):
        return expr.text
    if isinstance(expr, Ref):
        if expr.kind == "arg":
            if expr.name not in scope:
                raise LookupError_("unbound argument %s" % expr.name)
            return itemgetter(scope.index(expr.name))
        if expr.kind == "oper":
            return _oper(grammar, expr.name, active)
        fun = grammar.function(expr.name)
        if fun.arg_names:
            raise RealizeTypeError("function %s used without arguments" % expr.name)
        return _function(grammar, fun, active)
    raise RealizeTypeError("not an expression: %r" % (expr,))


def _function(grammar, fun, active=()):
    """The compiled function ``fun``, stored in the grammar on first use.

    That is its value, kept under the identity of its body, or for a
    function with arguments its plan, kept under ("fun", name).  Only a
    compiled definition is stored, never an error.
    """
    key = ("fun", fun.name) if fun.arg_names else id(fun.lin)
    compiled = grammar._values.get(key)
    if compiled is None:
        if key in active:
            raise RealizeTypeError("cyclic reference to function %s" % fun.name)
        active = active or []  # the first definition a call compiles starts its stack
        active.append(key)
        compiled = grammar._values[key] = _compile(fun.lin, grammar, fun.arg_names, active)
        active.pop()
    return compiled


def _oper(grammar, name, active):
    """The value of the oper ``name``, stored in the grammar under ("oper", name) on first use."""
    key = ("oper", name)
    compiled = grammar._values.get(key)
    if compiled is None:
        oper = grammar.opers.get(name)
        if oper is None:
            compiled = _ambient_value(name)
            if compiled is None:
                raise LookupError_("unknown oper %s" % name)
        elif key in active:
            raise RealizeTypeError("cyclic reference to oper %s" % name)
        else:
            active = active or []
            active.append(key)
            compiled = _compile(oper.definition, grammar, (), active)
            active.pop()
        grammar._values[key] = compiled
    return compiled


def linearize_expr(expr, grammar, env=None):
    """Evaluate a constructor expression to a typed phrase value.

    ``env`` maps the argument names the expression reads to their values.
    """
    env = env or {}
    if grammar._values is None:
        grammar._values = {}
    value = _compile(expr, grammar, tuple(env))
    return value(tuple(env.values())) if callable(value) else value


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
    fun = grammar.function(function_name)
    if grammar._values is None:
        grammar._values = {}
    if len(args) != len(fun.arg_names):
        raise RealizeTypeError(
            "function %s takes %d arguments, got %d"
            % (function_name, len(fun.arg_names), len(args))
        )
    values = [arg if isinstance(arg, NPv) else _argument_value(grammar, str(arg)) for arg in args]
    value = _function(grammar, fun)
    if callable(value):
        value = value(values)
    if not isinstance(value, str):
        raise RealizeTypeError(
            "function %s does not linearize to a sentence" % function_name
        )
    text = " ".join(value.split())
    return text + "." if period else text
