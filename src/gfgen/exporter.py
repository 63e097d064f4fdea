"""Merge per-sentence grammar fragments and render GF source files.

Merging is a set union of categories, lincats, functions and opers.  Name
collisions with identical definitions collapse to one entry; collisions with
different definitions are renamed with a numeric suffix chosen from the
canonical ordering of the definitions themselves, so the result does not
depend on fragment order.  Only names that more than one source defines are
rendered and compared.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter

from .encoder import App, GfFunction, GfOper, Lit, Ref, SentenceGrammar


_NAME, _LIN, _SIG = attrgetter("name"), attrgetter("lin"), attrgetter("arg_cats", "result")


class LookupError_(KeyError):
    """Unknown function or oper name in a grammar."""


class MergeConflict(ValueError):
    """Two merge sources give one category different lincats."""


_REQUIRED = object()


@dataclass
class GfGrammar:
    """A complete grammar.

    The name index behind ``function`` is built once, at construction, and
    the linearizer keeps each oper's and function's value or plan in
    ``_values`` from its first use on, so neither ``functions`` nor ``opers``
    may change afterwards.  An oper's entry is keyed ("oper", name), that of
    a function with arguments ("fun", name), and that of a function without
    arguments the identity of its body: ``functions`` keeps every body alive,
    so no identity is reused while the grammar and its ``_values`` live.  An
    entry is computed from those definitions alone, so threads that race on
    it can only store the same value twice.
    """

    start_category: str = "Message"
    categories: set = field(default_factory=lambda: {"Message"})
    lincats: dict = field(default_factory=lambda: {"Message": "Cl"})
    functions: list = field(default_factory=list)  # (sentence_id, intra_index, GfFunction)
    opers: dict = field(default_factory=dict)
    _by_name: dict = field(init=False, repr=False, compare=False)
    _values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_name = {}
        self._values = {}
        for _, _, fun in self.functions:
            self._by_name.setdefault(fun.name, fun)

    def function(self, name, default=_REQUIRED):
        """The function called ``name``; else ``default``, or LookupError_ without one."""
        fun = self._by_name.get(name, default)
        if fun is _REQUIRED:
            raise LookupError_("no function %r in grammar" % name)
        return fun

    def function_names(self):
        return [fun.name for _, _, fun in self.functions]


def render_expr(expr, parenthesized=False):
    """Render a constructor expression the way the emitted listings spell it.

    Inside parentheses a final bare oper reference keeps a trailing space;
    argument and function references do not.
    """
    if isinstance(expr, Lit):
        return '"%s"' % expr.text
    if isinstance(expr, Ref):
        return expr.name
    parts = [expr.fn]
    for a in expr.args:
        if isinstance(a, App):
            parts.append("(" + render_expr(a, parenthesized=True) + ")")
        else:
            parts.append(render_expr(a))
    text = " ".join(parts)
    if parenthesized and expr.args:
        last = expr.args[-1]
        if isinstance(last, Ref) and last.kind == "oper":
            text += " "
    return text


def _rename_expr(expr, renames):
    """``expr`` with the references that ``renames``, as ((name, kind), new name) pairs, rename."""
    finals = dict(renames)

    def renamed(expr):
        if isinstance(expr, Ref):
            final = finals.get((expr.name, expr.kind))
            return expr if final is None else Ref(final, expr.kind)
        if isinstance(expr, App):
            return App(expr.fn, tuple(map(renamed, expr.args)), expr.num, expr.forms)
        return expr

    return renamed(expr)


def _fun_refs(expr):
    """Names of the functions an expression references, in reading order."""
    if isinstance(expr, Ref):
        return (expr.name,) if expr.kind == "fun" else ()
    if isinstance(expr, App):
        return tuple(name for a in expr.args for name in _fun_refs(a))
    return ()


def _once(memo, fn, expr, *rest):
    """``fn(expr, *rest)``, kept in one merge call's ``memo`` under (fn, id(expr), *rest).

    The sources keep every expression alive for the call, and ``memo`` every result, so
    no identity it keys is reused.
    """
    key = (fn, id(expr), *rest)
    out = memo.get(key)
    if out is None:
        out = memo[key] = fn(expr, *rest)
    return out


def _function_key(name, bodies, keys, text, refs):
    """Merge key of a fragment function: its own key plus those of the functions it reaches.

    ``bodies`` maps each of the fragment's function names to (function, body
    after oper renames); the own key is (argument categories, result,
    rendered body), and ``keys`` memoizes the result.  ``text`` and ``refs``
    render a body and list the functions it references.  Bodies that read
    alike but reach different functions get different keys, so they get
    different names.
    """
    if name not in keys:
        keys[name] = None  # a cyclic reference contributes no key
        fun, lin = bodies[name]
        reached = tuple(
            _function_key(ref, bodies, keys, text, refs) for ref in refs(lin) if ref in bodies
        )
        keys[name] = (fun.arg_cats, fun.result, text(lin), reached)
    return keys[name]


def _renamed_funs(lin, finals, refs, rename):
    """``lin`` with each function reference renamed to its final name in ``finals``."""
    renames = frozenset(
        ((ref, "fun"), finals[ref]) for ref in refs(lin) if finals.get(ref, ref) != ref
    )
    return rename(lin, renames) if renames else lin


def _built(fun, name, lin):
    """``fun`` under ``name`` with body ``lin``: ``fun`` itself where neither changes."""
    if name == fun.name and lin is fun.lin:
        return fun
    return GfFunction(name, fun.arg_names, fun.arg_cats, fun.result, lin)


def _suffixed_oper_name(name, n):
    # keep the category suffix last: popular_A -> popular_2_A
    base, _, cat = name.rpartition("_")
    if base:
        return "%s_%d_%s" % (base, n, cat)
    return "%s_%d" % (name, n)


def _suffixed_fun_name(name, n):
    return "%s_%d" % (name, n)


def _placed(src):
    """A merge input as (sentence id, places, functions); see ``_place``.

    A fragment's places are None; a grammar's entries each carry their own
    (sentence id, position), and its sentence id is "".
    """
    if isinstance(src, SentenceGrammar):
        return str(src.sentence_id), None, src.functions
    if isinstance(src, GfGrammar):
        places = tuple((str(sid), intra) for sid, intra, _ in src.functions)
        return "", places, [fun for _, _, fun in src.functions]
    raise TypeError("cannot merge %r" % (src,))


def _place(places, sid, i):
    """(sentence id, position) of a source's i-th entry: a fragment's are its own id and i."""
    return (sid, i) if places is None else places[i]


class _Shape:
    """The merge work of the sources of one shape, done once: see ``merge``.

    ``colliding`` lists each colliding entry's (position, merge key) and
    ``kept`` the positions of the other entries that stay; ``lins`` holds
    each entry's body after the oper renames and, once ``merge`` has fixed
    the names, after the function renames; ``keys`` holds the function keys
    of ``_function_key``.  ``best`` is the least (sentence id, source index,
    functions) among the shape's sources.
    """

    __slots__ = ("colliding", "kept", "lins", "keys", "best")


def _name_variants(variants_by_name, taken, suffixed, order):
    """Final names for colliding definitions, independent of source order.

    ``variants_by_name`` maps each name to {variant key: None}; the variant
    first in ``order`` keeps the name, each other one gets the next suffix
    that no name in ``taken`` uses.  The placeholders become final names.
    """
    for name in sorted(variants_by_name):
        variants = variants_by_name[name]
        for i, key in enumerate(order(variants)):
            final = name
            if i:
                n = 2
                while suffixed(name, n) in taken:
                    n += 1
                final = suffixed(name, n)
                taken.add(final)
            variants[key] = final


def _merge_forms(defs):
    """Union the observed-form metadata of render-identical definitions."""
    merged = {}
    for d in defs:
        for key, value in d.forms:
            merged.setdefault(key, []).append(value)
    return tuple(sorted((k, sorted(vs)[0]) for k, vs in merged.items()))


def _union(sources):
    """(functions, opers) of a merge in which no name collides, else None.

    Nothing collides when each function name has one entry and each oper
    name one object that carries that name, as in the merge of a single
    fragment; the merge then renders, keys and renames nothing.
    """
    functions, opers = [], {}
    names = set()
    for src in sources:
        sid, places, funs = _placed(src)
        for i, fun in enumerate(funs):
            if fun.name in names:
                return None
            names.add(fun.name)
            functions.append((*_place(places, sid, i), fun))
        for name, oper in src.opers.items():
            if opers.setdefault(name, oper) is not oper or oper.name != name:
                return None
    functions.sort(key=lambda item: (item[0], item[1], item[2].name))
    return functions, opers


def merge(sources):
    """Union of grammar fragments into one well-formed grammar.

    When no name collides the result is the plain union.  Otherwise only a
    name that more than one source defines can collide, so only those
    definitions are rendered and keyed; every other keeps its name.  Each
    piece of work is done once per distinct input it reads, in memos that
    live for this call only.  Decoded fragments share their expression nodes
    and opers, so each distinct body object is rendered, renamed and walked
    for references once, and an oper name that every source gives one object
    is not rendered at all.  A source's own work (its oper renames, function
    keys and renamed bodies) is done once per shape: the places of its
    entries, the identities of its bodies and opers, its argument categories
    and results, and the names that collide or that some body references.
    The replicas of one sentence differ only in their sentence function's
    name, so they share a shape, and each adds no more than its entries.
    """
    sources = list(sources)  # read more than once
    categories = {"Message"}
    lincats = {"Message": "Cl"}
    for src in sources:
        categories |= src.categories
        for cat, lin in src.lincats.items():
            if lincats.setdefault(cat, lin) != lin:
                raise MergeConflict("conflicting lincat for %s" % cat)
    union = _union(sources)
    if union is not None:
        functions, opers = union
        return GfGrammar(categories=categories, lincats=lincats, functions=functions, opers=opers)

    # one pass: each source's function names, and the sources grouped by all
    # else that their merge work reads: their places, the identities of their
    # bodies, their argument categories and results, and their opers
    defined = []  # each source's function names, once per source
    # group -> (its opers, its sources as (sentence id, index, names, twice, functions))
    groups = {}
    for index, src in enumerate(sources):
        sid, places, funs = _placed(src)
        names = tuple(map(_NAME, funs))
        distinct = set(names)
        defined.extend(distinct)
        group = (
            places,
            tuple(map(id, map(_LIN, funs))),
            tuple(map(_SIG, funs)),
            tuple(src.opers),
            tuple(map(id, src.opers.values())),
        )
        members = groups.get(group)
        if members is None:
            members = groups[group] = (src.opers, [])
        members[1].append((sid, index, names, len(distinct) < len(names), funs))
    fun_variants = {name: {} for name, n in Counter(defined).items() if n > 1}
    oper_objects = defaultdict(dict)  # name -> {id: oper}, one entry per distinct object
    for opers, _ in groups.values():
        for name, oper in opers.items():
            oper_objects[name][id(oper)] = oper

    memo = {}  # see _once
    text, refs = partial(_once, memo, render_expr), partial(_once, memo, _fun_refs)
    rename = partial(_once, memo, _rename_expr)

    # global, order-independent rename plan for colliding oper definitions
    oper_variants = {
        name: dict.fromkeys(text(oper.definition) for oper in objects.values())
        for name, objects in oper_objects.items()
        if len(objects) > 1
    }
    _name_variants(oper_variants, set(oper_objects), _suffixed_oper_name, sorted)
    # the names that some source's oper is renamed from
    split = {name for name, variants in oper_variants.items() if len(variants) > 1}

    # a source's work reads a function name only where it collides or some
    # body references it; within a group, its shape masks out every other name
    referenced = (
        ref for _, members in groups.values() for fun in members[0][4] for ref in refs(fun.lin)
    )
    named = {name: name for name in chain(fun_variants, referenced)}

    def shape_of(places, names, funs, renames):
        shape = _Shape()
        bodies = {}  # a name defined twice keeps its first definition, as lookup does
        for fun in funs:
            if fun.name not in bodies:
                bodies[fun.name] = (fun, rename(fun.lin, renames) if renames else fun.lin)
        shape.keys, shape.colliding, stays = {}, [], {}
        for i, name in enumerate(names):
            if name in fun_variants:
                key = _function_key(name, bodies, shape.keys, text, refs)
                fun_variants[name][key] = None
                shape.colliding.append((i, (name, key)))
            elif name not in stays or _place(places, "", i) < stays[name][0]:
                stays[name] = (_place(places, "", i), i)  # a name stays at its least place
        shape.kept = sorted(i for _, i in stays.values())
        shape.lins = [bodies[name][1] for name in names]
        shape.best = None
        return shape

    # identical functions collapse to the entry with the least (sentence id,
    # position), then source index, so fragment order cannot leak into the
    # result; only that entry is renamed and built
    shapes = []
    collapsed = {}  # merge key -> least ((place, source index), function, shape, position)
    kept = []  # (place, function, shape, position) of each other entry that stays
    for (places, *_), (opers, members) in groups.items():
        renames = frozenset(
            ((name, "oper"), final)
            for name in split.intersection(opers)
            if (final := oper_variants[name][text(opers[name].definition)]) != name
        )
        by_names = {}
        for sid, index, names, twice, funs in members:
            # a source that defines a name twice is keyed by all its names
            masked = names if twice else tuple(map(named.get, names))
            shape = by_names.get(masked)
            if shape is None:
                shape = by_names[masked] = shape_of(places, names, funs, renames)
                shapes.append(shape)
            if shape.best is None or (sid, index) < shape.best[:2]:
                shape.best = (sid, index, funs)
            for i in shape.kept:
                kept.append((_place(places, sid, i), funs[i], shape, i))
        for shape in by_names.values():
            sid, index, funs = shape.best
            for i, key in shape.colliding:
                rank = (_place(places, sid, i), index)
                best = collapsed.get(key)
                if best is None or rank < best[0]:
                    collapsed[key] = (rank, funs[i], shape, i)
    _name_variants(
        fun_variants, set(defined), _suffixed_fun_name, lambda keys: sorted(keys, key=repr)
    )

    for shape in shapes:
        if shape.keys:  # else its sources have no colliding function to rename
            finals = {
                name: fun_variants[name][key]
                for name, key in shape.keys.items()
                if name in fun_variants
            }
            shape.lins = [_renamed_funs(lin, finals, refs, rename) for lin in shape.lins]
    functions = [
        (*place, _built(fun, fun_variants[name][key], shape.lins[i]))
        for (name, key), ((place, _), fun, shape, i) in collapsed.items()
    ]
    functions += [(*place, _built(fun, fun.name, shape.lins[i])) for place, fun, shape, i in kept]
    functions.sort(key=lambda item: (item[0], item[1], item[2].name))

    final_opers = {}
    for name, objects in oper_objects.items():
        variants = oper_variants.get(name)
        for oper in objects.values():
            final = variants[text(oper.definition)] if variants else name
            final_opers.setdefault(final, []).append(oper)
    opers = {}
    for final, variants in final_opers.items():
        first = variants[0]
        if len(variants) == 1 and first.name == final:
            opers[final] = first
            continue
        opers[final] = GfOper(
            name=final,
            category=first.category,
            definition=App(
                fn=first.definition.fn,
                args=first.definition.args,
                num=first.definition.num,
                forms=_merge_forms([v.definition for v in variants]),
            ),
        )

    return GfGrammar(categories=categories, lincats=lincats, functions=functions, opers=opers)


def _fun_signature(fun):
    cats = list(fun.arg_cats) + [fun.result]
    return " -> ".join(cats)


def render(grammar, name):
    """Render (abstract, concrete-English) GF sources with canonical ordering."""
    abstract = []
    abstract.append("abstract %s = {" % name)
    abstract.append("  flags startcat = %s ;" % grammar.start_category)
    abstract.append("  cat")
    for cat in sorted(grammar.categories):
        abstract.append("    %s ;" % cat)
    if grammar.functions:
        abstract.append("  fun")
        for _, _, fun in grammar.functions:
            abstract.append("    %s : %s ;" % (fun.name, _fun_signature(fun)))
    abstract.append("}")

    concrete = []
    concrete.append(
        "concrete %sEng of %s = open SyntaxEng, ParadigmsEng, ConstructorsEng in {"
        % (name, name)
    )
    concrete.append("  lincat")
    for cat in sorted(grammar.categories):
        concrete.append("    %s = %s ;" % (cat, grammar.lincats.get(cat, cat)))
    if grammar.functions:
        concrete.append("  lin")
        texts = {}  # id of a body -> its text; the grammar keeps every body alive
        for _, _, fun in grammar.functions:
            head = fun.name if not fun.arg_names else fun.name + " " + " ".join(fun.arg_names)
            text = texts.get(id(fun.lin))
            if text is None:
                text = texts[id(fun.lin)] = render_expr(fun.lin)
            concrete.append("    %s = %s ;" % (head, text))
    if grammar.opers:
        concrete.append("  oper")
        for oper_name in sorted(grammar.opers):
            concrete.append(
                "    %s = %s ;" % (oper_name, render_expr(grammar.opers[oper_name].definition))
            )
    concrete.append("}")

    return "\n".join(abstract) + "\n", "\n".join(concrete) + "\n"
