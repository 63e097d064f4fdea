"""Merge per-sentence grammar fragments and render GF source files.

Merging is a set union of categories, lincats, functions and opers.  Name
collisions with identical definitions collapse to one entry; collisions with
different definitions are renamed with a numeric suffix chosen from the
canonical ordering of the definitions themselves, so the result does not
depend on fragment order.
"""

from dataclasses import dataclass, field, replace

from .encoder import App, GfFunction, GfOper, Lit, Ref, SentenceGrammar


class LookupError_(KeyError):
    """Unknown function or oper name in a grammar."""


_REQUIRED = object()


@dataclass
class GfGrammar:
    """A complete grammar.

    The name index behind ``function`` is built once, at construction, so
    ``functions`` must not change afterwards.
    """

    start_category: str = "Message"
    categories: set = field(default_factory=lambda: {"Message"})
    lincats: dict = field(default_factory=lambda: {"Message": "Cl"})
    functions: list = field(default_factory=list)  # (sentence_id, intra_index, GfFunction)
    opers: dict = field(default_factory=dict)
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_name = {}
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


def _rename_expr(expr, oper_map, fun_map):
    if isinstance(expr, Ref):
        if expr.kind == "oper" and expr.name in oper_map:
            return Ref(oper_map[expr.name], "oper")
        if expr.kind == "fun" and expr.name in fun_map:
            return Ref(fun_map[expr.name], "fun")
        return expr
    if isinstance(expr, App):
        return App(
            fn=expr.fn,
            args=tuple(_rename_expr(a, oper_map, fun_map) for a in expr.args),
            num=expr.num,
            forms=expr.forms,
        )
    return expr


def _fun_refs(expr):
    """Names of the functions an expression references, in reading order."""
    if isinstance(expr, Ref):
        return [expr.name] if expr.kind == "fun" else []
    if isinstance(expr, App):
        return [name for a in expr.args for name in _fun_refs(a)]
    return []


def _function_key(name, bodies, keys):
    """Merge key of a fragment function: its own key plus those of the functions it reaches.

    ``bodies`` maps each of the fragment's function names to (body, own key),
    the own key being (argument categories, result, rendered body); ``keys``
    memoizes the result.  Bodies that read alike but reach different
    functions get different keys, so they get different names.
    """
    if name not in keys:
        keys[name] = None  # a cyclic reference contributes no key
        lin, own = bodies[name]
        refs = tuple(_function_key(ref, bodies, keys) for ref in _fun_refs(lin) if ref in bodies)
        keys[name] = own + (refs,)
    return keys[name]


def _suffixed_oper_name(name, n):
    # keep the category suffix last: popular_A -> popular_2_A
    base, _, cat = name.rpartition("_")
    if base:
        return "%s_%d_%s" % (base, n, cat)
    return "%s_%d" % (name, n)


def _fragments(sources):
    """Normalize merge inputs to (functions, opers, categories, lincats) tuples.

    Each oper comes paired with its rendered definition, so it is rendered
    once; the other parts are the source's own, which merge only reads.
    """
    out = []
    for src in sources:
        if isinstance(src, SentenceGrammar):
            functions = [(src.sentence_id, i, f) for i, f in enumerate(src.functions)]
        elif isinstance(src, GfGrammar):
            functions = src.functions
        else:
            raise TypeError("cannot merge %r" % (src,))
        opers = [(oper, render_expr(oper.definition)) for oper in src.opers.values()]
        out.append((functions, opers, src.categories, src.lincats))
    return out


def _merge_forms(defs):
    """Union the observed-form metadata of render-identical definitions."""
    merged = {}
    for d in defs:
        for key, value in d.forms:
            merged.setdefault(key, []).append(value)
    return tuple(sorted((k, sorted(vs)[0]) for k, vs in merged.items()))


def merge(sources):
    """Union of grammar fragments into one well-formed grammar."""
    fragments = _fragments(sources)

    # global, order-independent rename plan for colliding oper definitions;
    # suffixed names must also dodge every name already in use
    oper_defs = {}
    for _, opers, _, _ in fragments:
        for oper, rendered in opers:
            oper_defs.setdefault(oper.name, {})[rendered] = None
    oper_final = {}
    taken_opers = set(oper_defs)
    for name in sorted(oper_defs):
        for i, rendered in enumerate(sorted(oper_defs[name])):
            if i == 0:
                final = name
            else:
                n = 2
                while _suffixed_oper_name(name, n) in taken_opers:
                    n += 1
                final = _suffixed_oper_name(name, n)
                taken_opers.add(final)
            oper_final[(name, rendered)] = final

    categories = {"Message"}
    lincats = {"Message": "Cl"}
    final_opers = {}
    fun_defs = {}
    staged = []
    for functions, opers, fragment_categories, fragment_lincats in fragments:
        categories |= fragment_categories
        for cat, lin in fragment_lincats.items():
            if lincats.setdefault(cat, lin) != lin:
                raise ValueError("conflicting lincat for %s" % cat)
        oper_renames = {}
        for oper, rendered in opers:
            final = oper_final[(oper.name, rendered)]
            if final != oper.name:
                oper_renames[oper.name] = final
            final_opers.setdefault(final, []).append(oper)
        bodies = {}  # a name defined twice keeps its first definition, as lookup does
        for _, _, fun in functions:
            if fun.name not in bodies:
                lin = _rename_expr(fun.lin, oper_renames, {}) if oper_renames else fun.lin
                bodies[fun.name] = (lin, (fun.arg_cats, fun.result, render_expr(lin)))
        keys = {}
        renamed = []
        for sid, intra, fun in functions:
            key = _function_key(fun.name, bodies, keys)
            renamed.append((sid, intra, fun, bodies[fun.name][0], key))
            fun_defs.setdefault(fun.name, {})[key] = None
        staged.append(renamed)

    taken_funs = set(fun_defs)
    for name in sorted(fun_defs):
        for i, key in enumerate(sorted(fun_defs[name], key=repr)):
            if i == 0:
                final = name
            else:
                n = 2
                while "%s_%d" % (name, n) in taken_funs:
                    n += 1
                final = "%s_%d" % (name, n)
                taken_funs.add(final)
            fun_defs[name][key] = final

    # identical functions collapse to one entry tagged with the least
    # (sentence id, position), so fragment order cannot leak into the result
    collapsed = {}
    for renamed in staged:
        local_funs = {fun.name: fun_defs[fun.name][key] for _, _, fun, _, key in renamed}
        fun_renames = {name: final for name, final in local_funs.items() if final != name}
        for sid, intra, fun, lin, (_, _, rendered, _) in renamed:
            if fun_renames:
                lin = _rename_expr(lin, {}, fun_renames)
                rendered = render_expr(lin)
            final_name = local_funs[fun.name]
            if final_name != fun.name or lin is not fun.lin:
                fun = replace(fun, name=final_name, lin=lin)
            key = (final_name, rendered)
            entry = (str(sid), intra, fun)
            if key not in collapsed or entry[:2] < collapsed[key][:2]:
                collapsed[key] = entry
    functions = sorted(
        collapsed.values(), key=lambda item: (str(item[0]), item[1], item[2].name)
    )

    opers = {}
    for final, variants in final_opers.items():
        first = variants[0]
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
        for _, _, fun in grammar.functions:
            head = fun.name if not fun.arg_names else fun.name + " " + " ".join(fun.arg_names)
            concrete.append("    %s = %s ;" % (head, render_expr(fun.lin)))
    if grammar.opers:
        concrete.append("  oper")
        for oper_name in sorted(grammar.opers):
            concrete.append(
                "    %s = %s ;" % (oper_name, render_expr(grammar.opers[oper_name].definition))
            )
    concrete.append("}")

    return "\n".join(abstract) + "\n", "\n".join(concrete) + "\n"


def grammar_to_dict(grammar):
    from .encoder import expr_to_dict

    return {
        "start_category": grammar.start_category,
        "categories": sorted(grammar.categories),
        "lincats": dict(sorted(grammar.lincats.items())),
        "functions": [
            {
                "sentence_id": sid,
                "intra": intra,
                "name": f.name,
                "args": [{"name": n, "cat": c} for n, c in zip(f.arg_names, f.arg_cats)],
                "result": f.result,
                "lin": expr_to_dict(f.lin),
            }
            for sid, intra, f in grammar.functions
        ],
        "opers": [
            {
                "name": o.name,
                "category": o.category,
                "definition": expr_to_dict(o.definition),
            }
            for o in sorted(grammar.opers.values(), key=lambda o: o.name)
        ],
    }


def grammar_from_dict(d):
    from .encoder import expr_from_dict

    functions = [
        (
            f.get("sentence_id", ""),
            f.get("intra", 0),
            GfFunction(
                name=f["name"],
                arg_names=tuple(a["name"] for a in f["args"]),
                arg_cats=tuple(a["cat"] for a in f["args"]),
                result=f["result"],
                lin=expr_from_dict(f["lin"]),
            ),
        )
        for f in d["functions"]
    ]
    opers = {
        o["name"]: GfOper(
            name=o["name"], category=o["category"], definition=expr_from_dict(o["definition"])
        )
        for o in d["opers"]
    }
    return GfGrammar(
        start_category=d.get("start_category", "Message"),
        categories=set(d["categories"]),
        lincats=dict(d["lincats"]),
        functions=functions,
        opers=opers,
    )
