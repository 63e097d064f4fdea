"""Property tests over generated input, seeded so every run sees the same cases.

Random dependency forests go through the whole sentence path: each either
stops with a typed error or yields a fragment that type-checks, renders to
valid GF and linearizes.  Random malformed CoNLL-U is rejected with a
CoNLL-U or structure error, never another exception.
"""

import random
from collections import Counter

from gf_syntax import validate_abstract, validate_concrete

from gfgen.encoder import analyze, sentence_function, sentence_slots
from gfgen.exporter import render
from gfgen.ingest import ConlluError, StructureError, parse_conllu
from gfgen.linearizer import NPv, infer_category, linearize

# Penn tag -> UPOS; a few rows leave XPOS out so the UPOS fallback is read
TAGS = {
    "NN": "NOUN", "NNS": "NOUN", "NNP": "PROPN", "NNPS": "PROPN", "PRP": "PRON",
    "WP": "PRON", "CD": "NUM", "JJ": "ADJ", "JJR": "ADJ", "RB": "ADV", "VB": "VERB",
    "VBZ": "VERB", "VBP": "VERB", "VBD": "VERB", "VBN": "VERB", "VBG": "VERB",
    "MD": "AUX", "DT": "DET", "IN": "ADP", "CC": "CCONJ", "TO": "PART", ".": "PUNCT",
}
RELATIONS = (
    "nsubj", "nsubj:pass", "nsubjpass", "obj", "dobj", "xcomp", "cop", "aux:pass",
    "auxpass", "compound", "amod", "conj", "nmod", "obl", "case", "advmod", "det",
    "punct", "cc", "aux", "mark", "nmod:poss", "dep", "acl",
)
# the core relations of the five clause shapes and the complements, drawn more often
CORE = ("nsubj", "nsubjpass", "dobj", "xcomp", "cop", "auxpass", "compound", "amod",
        "nmod", "case", "conj", "advmod")
LEMMAS = ("person", "game", "student", "number", "equation", "friend", "Bill", "play",
          "be", "teach", "young", "slowly", "with", "the", "and", "$1", "$2")
PLURALS = {"person": ("persons", "people"), "student": ("students", "Students")}
TAG_NAMES = tuple(TAGS)


def _pick(rng, seq):
    """One item of ``seq``: ``rng.choice`` at a fraction of its cost."""
    return seq[int(rng.random() * len(seq))]


def _row(index, surface, lemma, upos, xpos, head, relation):
    return "\t".join(map(str, (index, surface, lemma, upos, xpos, "_", head, relation, "_", "_")))


def _forest(rng):
    """(surface, lemma, tag, head, relation) rows of one random sentence of 1-7 tokens.

    Heads form a forest when each token's head comes earlier in a random order;
    one sentence in ten draws its heads freely, so some hold a cycle.
    """
    n = rng.randint(1, 7)
    order = rng.sample(range(1, n + 1), n)
    words = []
    for place, index in enumerate(order):
        if rng.random() < 0.1:
            head = int(rng.random() * (n + 1))
        else:
            head = 0 if place == 0 or rng.random() < 0.15 else _pick(rng, order[:place])
        relation = _pick(rng, CORE if rng.random() < 0.7 else RELATIONS)
        words.append((index, head, relation))
    words.sort()
    rows = []
    for index, head, relation in words:
        lemma, tag = _pick(rng, LEMMAS), _pick(rng, TAG_NAMES)
        surface = lemma + "s" if tag in ("NNS", "VBZ") else lemma
        rows.append([surface, lemma, tag, head, relation])
    if n >= 2 and rng.random() < 0.3:  # an nn and an nns of one lemma
        a, b = rng.sample(range(n), 2)
        lemma = rng.choice(tuple(PLURALS))
        rows[a][:3] = [lemma, lemma, "NN"]
        rows[b][:3] = [rng.choice(PLURALS[lemma]), lemma, "NNS"]
    if rng.random() < 0.5:  # a capitalized first token
        rows[0][0] = rows[0][0][:1].upper() + rows[0][0][1:]
    return rows


def _conllu(sentence_id, rows, rng):
    lines = ["# sent_id = %s" % sentence_id, "# text = " + " ".join(r[0] for r in rows)]
    for index, (surface, lemma, tag, head, relation) in enumerate(rows, start=1):
        upos, xpos = TAGS[tag], tag
        if rng.random() < 0.05:
            xpos = "_"
        if rng.random() < 0.05:
            lemma = "_"
        lines.append(_row(index, surface, lemma, upos, xpos, head, relation))
    return "\n".join(lines) + "\n"


def _check_fragment(facts, fragment):
    """The fragment type-checks, renders to valid GF and its sentence linearizes."""
    lincats = fragment.lincats
    opers = fragment.opers
    for oper in opers.values():
        assert infer_category(oper.definition, opers) == oper.category
    funs = {f.name: lincats[f.result] for f in fragment.functions}
    for fun in fragment.functions:
        args = {n: lincats[c] for n, c in zip(fun.arg_names, fun.arg_cats)}
        assert infer_category(fun.lin, opers, funs, args) == lincats[fun.result]
    abstract, concrete = render(fragment, "Fragment")
    validate_abstract(abstract)
    validate_concrete(concrete)
    slots = sentence_slots(facts)
    sent = fragment.function(sentence_function(facts.sentence_id))
    assert len(sent.arg_names) == len(slots)
    text = linearize(fragment, sent.name, [NPv("x%d" % n, "sg") for n in slots])
    assert isinstance(text, str) and text.strip()


def test_random_forests_fail_typed_or_give_a_sound_fragment():
    rng = random.Random(20261020)
    seen = Counter()
    for i in range(20000):
        rows = _forest(rng)
        text = _conllu("g%d" % i, rows, rng)
        try:
            (facts,) = parse_conllu(text)
        except (ConlluError, StructureError):
            seen["rejected"] += 1
            continue
        record = analyze(facts)
        if record.error is not None:
            assert isinstance(record.error, ValueError), text
            seen["error"] += 1
        elif record.fragment is None:
            seen["unrecognized"] += 1
        else:
            _check_fragment(facts, record.fragment)
            seen["fragment"] += 1
            seen["slots"] += bool(sentence_slots(facts))
            seen["nn and nns"] += {"nn", "nns"} <= {t.pos for t in facts.tokens}
    # every outcome occurs, and the generator reaches its biases
    assert min(seen[k] for k in ("rejected", "error", "unrecognized")) > 100, seen
    assert seen["fragment"] > 500 and seen["slots"] > 50 and seen["nn and nns"] > 50, seen


# a well-formed block, and the ways one of its lines is broken
GOOD = (("1", "Bill", "Bill", "PROPN", "NNP", "_", "2", "nsubj", "_", "_"),
        ("2", "plays", "play", "VERB", "VBZ", "_", "0", "root", "_", "_"),
        ("3", "games", "game", "NOUN", "NNS", "_", "2", "obj", "_", "_"))
JUNK = ("", " ", "_", "0", "-1", "1.5", "2-3", "3.1", "x", "N N", "é", "#", "\t", "99",
        "=", "root", "\r")


def _malformed(rng):
    rows = [list(r) for r in rng.sample(GOOD, rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        row = rng.choice(rows)
        action = rng.random()
        if action < 0.6:
            row[rng.randrange(len(row))] = rng.choice(JUNK)
        elif action < 0.8:
            del row[rng.randrange(len(row))]
        else:
            row.insert(rng.randrange(len(row) + 1), rng.choice(JUNK))
    lines = ["\t".join(r) for r in rows]
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("# sent_id = m", "# text", "#")))
    return "\n".join(lines) + "\n"


def test_malformed_conllu_is_a_conllu_or_structure_error():
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(20000):
        text = _malformed(rng)
        try:
            sentences = parse_conllu(text)
        except (ConlluError, StructureError):
            seen["rejected"] += 1
            continue
        seen["parsed"] += 1
        for facts in sentences:
            record = analyze(facts)
            assert record.error is None or isinstance(record.error, ValueError), text
    assert seen["rejected"] > 5000 and seen["parsed"] > 500, seen
