"""Built-in English realizer for the constructor subset the encoder emits.

Linearization evaluates a function's constructor expression bottom-up into
typed phrase values and joins their strings.  Verb agreement follows the
subject noun phrase; number for bare mkNP nodes comes from the encoder's
node metadata (default singular); copulas, "to" and list commas are the only
inserted material.  Output is verbatim lexeme text: no capitalization, no
articles, single spaces.
"""

from dataclasses import dataclass

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
    return " ".join(p for p in parts if p)


def _verb_lex(lemma, forms):
    forms = dict(forms)
    return VerbLex(lemma=lemma, third=forms.get("third"), participle=forms.get("part"))


def _conj_join(items, word):
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " " + word + " " + items[-1]


def _apply(fn, values, num):
    types = tuple(type(v) for v in values)
    if fn == "mkCl":
        subj, pred = values
        if types == (NPv, VPv):
            return _join([subj.text, pred.realize(subj.number)])
        if types == (NPv, APv):
            return _join([subj.text, _be(subj.number), pred.text])
        if types == (NPv, NPv):
            return _join([subj.text, _be(subj.number), pred.text])
    elif fn == "mkVP":
        if types == (V2v, NPv):
            return VPv(kind="v2", verb=values[0].verb, obj=values[1])
        if types == (Vv,):
            return VPv(kind="v", verb=values[0].verb)
        if types == (VVv, VPv):
            return VPv(kind="vv", verb=values[0].verb, inner=values[1])
        if types == (VPv, Advv):
            vp = values[0]
            return VPv(
                kind=vp.kind,
                verb=vp.verb,
                obj=vp.obj,
                inner=vp.inner,
                advs=vp.advs + (values[1].text,),
            )
    elif fn == "passiveVP":
        if types == (V2v,):
            return VPv(kind="passive", verb=values[0].verb)
    elif fn == "mkNP":
        if types in ((Nv,), (CNv,)):
            form = values[0].plural if num == "pl" else values[0].singular
            return NPv(text=form, number=num or "sg")
        if types == (NPv, Advv):
            return NPv(text=_join([values[0].text, values[1].text]), number=values[0].number)
        if types == (Conjv, ListNPv):
            texts = [np.text for np in values[1].items]
            return NPv(text=_conj_join(texts, values[0].text), number="pl")
    elif fn == "mkCN":
        if types == (Nv,):
            return CNv(values[0].singular, values[0].plural)
        if types in ((APv, Nv), (APv, CNv)):
            ap, noun = values
            return CNv(_join([ap.text, noun.singular]), _join([ap.text, noun.plural]))
    elif fn == "mkAP":
        if types == (Av,):
            return APv(values[0].text)
        if types == (AdAv, APv):
            return APv(_join([values[0].text, values[1].text]))
    elif fn in ("mkAdv", "ConstructorsEng.mkAdv"):
        if types == (str,):
            return Advv(values[0])
        if types == (Prepv, NPv):
            return Advv(_join([values[0].text, values[1].text]))
    elif fn == "mkListNP":
        if types == (NPv, NPv):
            return ListNPv((values[0], values[1]))
        if types == (NPv, ListNPv):
            return ListNPv((values[0],) + values[1].items)
    elif fn == "mkN":
        if types == (str,):
            return Nv(values[0], morph.pluralize_noun(values[0]))
        if types == (str, str):
            return Nv(values[0], values[1])
    elif fn == "mkA":
        if types == (str,):
            return Av(values[0])
    elif fn == "mkAdA":
        if types == (str,):
            return AdAv(values[0])
    elif fn == "mkPrep":
        if types == (str,):
            return Prepv(values[0])
    elif fn == "mkConj":
        if types == (str,):
            return Conjv(values[0])
    raise RealizeTypeError("no realization of %s over %s" % (fn, types))


def _ambient_value(name):
    cat = ambient_category(name)
    if cat is None:
        return None
    word = name.rsplit("_", 1)[0].replace("_", " ")
    return Prepv(word) if cat == "Prep" else Conjv(word)


def linearize_expr(expr, grammar, env=None):
    """Evaluate a constructor expression to a typed phrase value."""
    env = env or {}
    if isinstance(expr, Lit):
        return expr.text
    if isinstance(expr, Ref):
        if expr.kind == "arg":
            if expr.name not in env:
                raise LookupError_("unbound argument %s" % expr.name)
            return env[expr.name]
        if expr.kind == "oper":
            oper = grammar.opers.get(expr.name)
            if oper is not None:
                return linearize_expr(oper.definition, grammar, env)
            ambient = _ambient_value(expr.name)
            if ambient is None:
                raise LookupError_("unknown oper %s" % expr.name)
            return ambient
        fun = grammar.function(expr.name)
        if fun.arg_names:
            raise RealizeTypeError("function %s used without arguments" % expr.name)
        return linearize_expr(fun.lin, grammar, {})
    if isinstance(expr, App):
        values = [linearize_expr(a, grammar, env) for a in expr.args]
        if expr.fn in ("mkV2", "mkV", "mkVV"):
            if len(values) == 1 and isinstance(values[0], str):
                return _verb_value(expr.fn, values[0], expr.forms)
            raise RealizeTypeError("%s expects one string argument" % expr.fn)
        return _apply(expr.fn, values, expr.num)
    raise RealizeTypeError("not an expression: %r" % (expr,))


def _verb_value(fn, lemma, forms):
    lex = _verb_lex(lemma, forms)
    return {"mkV2": V2v, "mkV": Vv, "mkVV": VVv}[fn](lex)


def _argument_value(grammar, text):
    """CLI/test argument: a function name, else an opaque NP symbol."""
    fun = grammar.function(text, None)
    if fun is None:
        return NPv(text=text.replace("_", " "), number="sg")
    if fun.arg_names:
        raise RealizeTypeError("argument function %s needs arguments itself" % text)
    return linearize_expr(fun.lin, grammar, {})


def linearize(grammar, function_name, args=(), period=False):
    """Realize one grammar function as an English string.

    ``args`` fill the function's arguments: each is a function name of the
    grammar or an opaque symbol (underscores become spaces, singular number).
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
    value = linearize_expr(fun.lin, grammar, env)
    if not isinstance(value, str):
        raise RealizeTypeError(
            "function %s does not linearize to a sentence" % function_name
        )
    text = " ".join(value.split())
    return text + "." if period else text
