"""English inflection helpers shared by the encoder and the linearizer."""

VOWELS = "aeiou"

IRREGULAR_PLURALS = {
    "man": "men",
    "woman": "women",
    "child": "children",
    "person": "people",
    "foot": "feet",
    "tooth": "teeth",
    "mouse": "mice",
    "species": "species",
    "series": "series",
    "fish": "fish",
    "sheep": "sheep",
    "deer": "deer",
}

SINGULARS_OF_IRREGULAR_PLURALS = {v: k for k, v in IRREGULAR_PLURALS.items()}

IRREGULAR_3SG = {
    "have": "has",
    "be": "is",
    "do": "does",
}

IRREGULAR_PARTICIPLES = {
    "be": "been",
    "become": "become",
    "bring": "brought",
    "buy": "bought",
    "catch": "caught",
    "choose": "chosen",
    "come": "come",
    "do": "done",
    "draw": "drawn",
    "drink": "drunk",
    "drive": "driven",
    "eat": "eaten",
    "feed": "fed",
    "find": "found",
    "give": "given",
    "grow": "grown",
    "have": "had",
    "hold": "held",
    "keep": "kept",
    "know": "known",
    "leave": "left",
    "make": "made",
    "pay": "paid",
    "read": "read",
    "say": "said",
    "see": "seen",
    "sell": "sold",
    "send": "sent",
    "show": "shown",
    "speak": "spoken",
    "take": "taken",
    "teach": "taught",
    "tell": "told",
    "think": "thought",
    "wear": "worn",
    "win": "won",
    "write": "written",
}

# 3sg forms that end in an "es" which inflect_verb_3sg added: after a sibilant,
# and after the "o" of go, do (undoes, torpedoes), echo and veto; "canoes",
# "shoes" and "tiptoes" add only "s" to a lemma ending in "oe", as the forms
# below do to one ending in "che" (whole forms: "teaches" ends in "aches")
ES_ENDINGS_3SG = ("ches", "shes", "xes", "sses", "zzes", "goes", "does", "echoes", "vetoes")
CHE_FORMS_3SG = frozenset({"aches", "caches", "niches"})

IRREGULAR_LEMMAS_3SG = {
    "is": "be",
    "are": "be",
    "was": "be",
    "were": "be",
    "has": "have",
    "does": "do",
}


def pluralize_noun(word):
    """Plural form of a noun (the final word of a multiword noun is inflected).

    Capitalized words are treated as proper nouns and repeat the singular.
    """
    if not word:
        return word
    head, _, last = word.rpartition(" ")
    if last[0].isupper():
        return word
    if last in IRREGULAR_PLURALS:
        plural = IRREGULAR_PLURALS[last]
    elif last.endswith("y") and len(last) > 1 and last[-2] not in VOWELS:
        plural = last[:-1] + "ies"
    elif last.endswith(("s", "x", "z", "ch", "sh")):
        plural = last + "es"
    else:
        plural = last + "s"
    return (head + " " if head else "") + plural


def inflect_verb_3sg(lemma):
    """Third-person singular present form of a verb lemma."""
    if lemma in IRREGULAR_3SG:
        return IRREGULAR_3SG[lemma]
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in VOWELS:
        return lemma[:-1] + "ies"
    if lemma.endswith(("s", "x", "z", "ch", "sh", "o")):
        return lemma + "es"
    return lemma + "s"


def past_participle(lemma):
    """Past participle of a verb lemma (used for passive clauses)."""
    if lemma in IRREGULAR_PARTICIPLES:
        return IRREGULAR_PARTICIPLES[lemma]
    if lemma.endswith("e"):
        return lemma + "d"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in VOWELS:
        return lemma[:-1] + "ied"
    if (
        len(lemma) >= 3
        and lemma[-1] not in VOWELS + "wxy"
        and lemma[-2] in VOWELS
        and lemma[-3] not in VOWELS
        and not any(c in VOWELS for c in lemma[:-3])
    ):
        # CVC monosyllables double the final consonant: stop -> stopped
        return lemma + lemma[-1] + "ed"
    return lemma + "ed"


def verb_lemma_from_3sg(form):
    """Undo 3sg inflection: the fallback lemmatizer for vbz-tagged verbs."""
    if form in IRREGULAR_LEMMAS_3SG:
        return IRREGULAR_LEMMAS_3SG[form]
    if form.endswith("ies") and len(form) > 4:
        return form[:-3] + "y"
    if form.endswith(ES_ENDINGS_3SG) and form not in CHE_FORMS_3SG:
        return form[:-2]
    if form.endswith("s") and not form.endswith("ss"):
        return form[:-1]
    return form


def noun_lemma_from_plural(form):
    """Fallback lemmatizer for nns-tagged nouns with no lemma column."""
    if form in SINGULARS_OF_IRREGULAR_PLURALS:
        return SINGULARS_OF_IRREGULAR_PLURALS[form]
    if form.endswith("ies") and len(form) > 4:
        return form[:-3] + "y"
    if form.endswith("s") and not form.endswith("ss"):
        return form[:-1]
    return form
