"""Sentence structure recognition and most-informative selection.

Five structures are recognized, one per row of ``engine.CLAUSE_SHAPES``; the
second argument of each structure atom (the i-value) counts the dependency
relations its rule consumed, and the atom with the highest i-value is the
most informative reading.
"""

from typing import NamedTuple

from .engine import CLAUSE_SHAPES

SHAPES = {shape.kind: shape for shape in CLAUSE_SHAPES}


class _StructureFields(NamedTuple):
    kind: int
    i_value: int


class StructureAtom(_StructureFields):
    __slots__ = ()

    def __new__(cls, kind, i_value):
        shape = SHAPES.get(kind)
        if shape is None or shape.i_value != i_value:
            raise ValueError("no structure (%d,%d) exists" % (kind, i_value))
        return tuple.__new__(cls, (kind, i_value))

    @property
    def shape(self):
        return SHAPES[self.kind]


def recognize(facts):
    """All structure readings of a sentence (empty set: unrecognized)."""
    return {StructureAtom(*a.args) for a in facts.model.derived_with("structure")}


def select(structures):
    """The structure with the highest i-value, or None for the empty set.

    Ties break toward the shape listed first in the table.
    """
    if not structures:
        return None
    return max(structures, key=lambda s: (s.i_value, -CLAUSE_SHAPES.index(s.shape)))
