"""Merge per-sentence grammar fragments and render GF source files.

A fragment and a merged grammar are one type, ``GfGrammar`` (defined with
the encoder and re-exported here), so a merged grammar can be merged again,
rendered or linearized like a fragment.  Merging is a set union of
categories, lincats, functions and opers.  Name collisions with identical
definitions collapse to one entry; collisions with different definitions are
renamed with a numeric suffix chosen from the canonical ordering of the
definitions themselves, so the result does not depend on fragment order.
The exception: of alike functions from two sources with one sentence id
that differ only in an argument name or NP number, the first listed wins.
Only names that more than one source defines are rendered and compared.

``merge`` groups the sources once, by one shape key, and does each group's
work once; after naming, every function goes into one table keyed by its
final name, which keeps the function's least place.
"""

from collections import Counter, defaultdict
from itertools import chain
from operator import attrgetter

from .encoder import App, GfFunction, GfGrammar, GfOper, Lit, LookupError_, Ref, expr_refs

__all__ = ["GfGrammar", "LookupError_", "MergeConflict", "merge", "render", "render_expr"]

_NAME, _LIN, _SIG = attrgetter("name"), attrgetter("lin"), attrgetter("arg_cats", "result")


class MergeConflict(ValueError):
    """Two merge sources give one category different lincats."""


def render_expr(expr, parenthesized=False):
    """Render a constructor expression the way the emitted listings spell it.

    Inside parentheses a final bare oper reference keeps a trailing space;
    argument and function references do not.  A literal escapes ``\\`` and
    ``"`` as GF string literals do.
    """
    if isinstance(expr, Lit):
        return '"%s"' % expr.text.replace("\\", "\\\\").replace('"', '\\"')
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


def _suffixed_oper_name(name, n):
    # keep the category suffix last: popular_A -> popular_2_A
    base, _, cat = name.rpartition("_")
    return "%s_%d_%s" % (base, n, cat) if base else _suffixed_fun_name(name, n)


def _suffixed_fun_name(name, n):
    return "%s_%d" % (name, n)


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
        sid = src.sentence_id
        for i, fun in enumerate(src.functions):
            if fun.name in names:
                return None
            names.add(fun.name)
            functions.append((sid, i, fun))
        for name, oper in src.opers.items():
            if opers.setdefault(name, oper) is not oper or oper.name != name:
                return None
    return _in_place_order(functions), opers


def _in_place_order(entries):
    """The functions of (sentence id, position, function) entries, in that order, then by name."""
    return [fun for _, _, fun in sorted(entries, key=lambda e: (e[0], e[1], e[2].name))]


def merge(sources):
    """Union of grammar fragments into one well-formed grammar.

    When no name collides the result is the plain union.  Otherwise only a
    name that more than one source defines can collide, so only those
    definitions are rendered and keyed; every other keeps its name.  Each
    piece of work is done once per distinct input it reads, in a memo that
    lives for this call only.  Decoded fragments share their expression
    nodes and opers, so each distinct body object is rendered, renamed and
    walked for references once, and an oper name that every source gives one
    object is not rendered at all.

    The sources are grouped once, by all that their merge work reads: their
    function names, masked to those that collide or that some body
    references (all of them where a source defines a name twice), the
    identities of their bodies, their argument categories and results, and
    their opers.  The least (sentence id, index) member of a group does the
    group's work: its oper renames, its first definitions and the keys of
    its colliding names.  The replicas of one sentence differ only in their
    sentence function's name, so they form one group, and each adds no more
    than its entries.  Once names are fixed, every function goes into one
    table under its final name, which keeps its least (sentence id,
    position): a colliding name comes from its group's least member only, a
    name that one source defines from that source.  Groups are visited in
    the order of their least members, so where two alike definitions share
    a place, the one from the source first in the list stays.

    Each function keeps the place (sentence id, position) that its source
    gives it, and the result lists functions in place order.  A merged
    grammar passed back in is one source whose sentence id is "", so its
    functions keep their order and come before those of every fragment
    whose id is not empty.
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

    memo = {}  # (fn, id(expr), *rest) -> fn(expr, *rest); the sources keep each expr alive

    def once(fn, expr, *rest):
        key = (fn, id(expr), *rest)
        out = memo.get(key)
        if out is None:
            out = memo[key] = fn(expr, *rest)
        return out

    # each source's function names and body identities, and the functions of each
    # distinct tuple of bodies
    defined, bodies, entries = [], {}, []
    for index, src in enumerate(sources):
        names, ids = tuple(map(_NAME, src.functions)), tuple(map(id, map(_LIN, src.functions)))
        bodies[ids] = src.functions
        defined.extend(distinct := set(names))
        entries.append((src.sentence_id, index, names, len(distinct) < len(names), ids, src))
    fun_variants = {name: {} for name, n in Counter(defined).items() if n > 1}
    # a source's work reads a function name only where it collides or some body
    # references it, so its shape key masks out every other name
    referenced = (
        ref for funs in bodies.values() for fun in funs for ref in once(expr_refs, fun.lin, "fun")
    )
    named = {name: name for name in chain(fun_variants, referenced)}
    groups = {}  # shape key -> its sources' entries
    for entry in entries:
        _, _, names, twice, ids, src = entry
        masked = names if twice else tuple(map(named.get, names))
        opers = tuple(src.opers), tuple(map(id, src.opers.values()))
        groups.setdefault((masked, ids, tuple(map(_SIG, src.functions)), opers), []).append(entry)

    oper_objects = defaultdict(dict)  # name -> {id: oper}, one entry per distinct object
    for members in groups.values():
        for name, oper in members[0][5].opers.items():
            oper_objects[name][id(oper)] = oper
    # global, order-independent rename plan for colliding oper definitions
    oper_variants = {
        name: dict.fromkeys(once(render_expr, oper.definition) for oper in objects.values())
        for name, objects in oper_objects.items()
        if len(objects) > 1
    }
    _name_variants(oper_variants, set(oper_objects), _suffixed_oper_name, sorted)
    # the names that some source's oper is renamed from
    split = {name for name, variants in oper_variants.items() if len(variants) > 1}

    def group_work(least):
        """A group's least entry, its first definitions as (function, body after oper
        renames), and the keys of the functions that its colliding names reach."""
        _, _, names, _, _, src = least
        renames = frozenset(
            ((name, "oper"), final)
            for name in split.intersection(src.opers)
            if (final := oper_variants[name][once(render_expr, src.opers[name].definition)]) != name
        )
        firsts, keys = {}, {}
        for fun in src.functions:  # a name defined twice keeps its first definition
            if fun.name not in firsts:
                firsts[fun.name] = fun, once(_rename_expr, fun.lin, renames) if renames else fun.lin

        def key(name):
            # (argument categories, result, rendered body) plus the keys of the functions
            # the body reaches, so alike bodies that reach different functions differ
            if name not in keys:
                keys[name] = None  # a cyclic reference contributes no key
                fun, lin = firsts[name]
                reached = tuple(key(ref) for ref in once(expr_refs, lin, "fun") if ref in firsts)
                keys[name] = (fun.arg_cats, fun.result, once(render_expr, lin), reached)
            return keys[name]

        for name in names:
            if name in fun_variants:
                fun_variants[name][key(name)] = None
        return least, firsts, keys

    # visited by least member, so where alike definitions share a place the first source's stays
    work = sorted(group_work(min(members)) + (members,) for members in groups.values())
    _name_variants(fun_variants, set(defined), _suffixed_fun_name, lambda k: sorted(k, key=repr))

    placed = {}  # final name -> its least (sentence id, position, function)

    def place(final, sid, i, fun, lin):
        best = placed.get(final)
        if best is None or (sid, i) < best[:2]:
            if final != fun.name or lin is not fun.lin:
                fun = GfFunction(final, fun.arg_names, fun.arg_cats, fun.result, lin)
            placed[final] = (sid, i, fun)

    for (sid, _, names, _, _, src), firsts, keys, members in work:
        finals = {name: fun_variants[name][k] for name, k in keys.items() if name in fun_variants}
        lins = []
        for name in names:
            lin = firsts[name][1]
            refs = once(expr_refs, lin, "fun")
            renames = frozenset(((r, "fun"), finals[r]) for r in refs if finals.get(r, r) != r)
            lins.append(once(_rename_expr, lin, renames) if renames else lin)
        for i, name in enumerate(names):  # a colliding name from the least member only
            if name in finals:
                place(finals[name], sid, i, src.functions[i], lins[i])
        private = [i for i, name in enumerate(names) if name not in finals]
        for member_sid, _, member_names, _, _, member in members:
            for i in private:
                place(member_names[i], member_sid, i, member.functions[i], lins[i])
    functions = _in_place_order(placed.values())

    final_opers = defaultdict(list)
    for name, objects in oper_objects.items():
        variants = oper_variants.get(name)
        for oper in objects.values():
            final = variants[once(render_expr, oper.definition)] if variants else name
            final_opers[final].append(oper)
    opers = {}
    for final, variants in final_opers.items():
        oper = variants[0]
        if len(variants) > 1 or oper.name != final:
            forms = _merge_forms([v.definition for v in variants])
            oper = GfOper(final, oper.category, oper.definition._replace(forms=forms))
        opers[final] = oper

    return GfGrammar(categories=categories, lincats=lincats, functions=functions, opers=opers)


def _fun_signature(fun):
    cats = list(fun.arg_cats) + [fun.result]
    return " -> ".join(cats)


def render(grammar, name):
    """Render (abstract, concrete-English) GF sources with canonical ordering."""
    abstract = []
    abstract.append("abstract %s = {" % name)
    abstract.append("  flags startcat = Message ;")
    abstract.append("  cat")
    for cat in sorted(grammar.categories):
        abstract.append("    %s ;" % cat)
    if grammar.functions:
        abstract.append("  fun")
        for fun in grammar.functions:
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
        for fun in grammar.functions:
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
