"""Sentence structure recognition and most-informative selection.

Five structures are recognized, one per row of ``engine.CLAUSE_SHAPES``, and
a reading is the row that matched: its kind names it, and its i-value counts
the dependency relations its rule consumed.  The reading with the highest
i-value is the most informative one.
"""

from .engine import CLAUSE_SHAPES

SHAPES = {shape.kind: shape for shape in CLAUSE_SHAPES}


def recognize(facts):
    """All structure readings of a sentence, as table rows (empty set: unrecognized)."""
    return {SHAPES[kind] for kind, _ in facts.model.by_predicate.get("structure", ())}


def select(structures):
    """The reading with the highest i-value, or None for the empty set.

    Ties break toward the shape listed first in the table.
    """
    return max(structures, key=lambda s: (s.i_value, -CLAUSE_SHAPES.index(s)), default=None)
