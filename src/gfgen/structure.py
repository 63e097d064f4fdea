"""Sentence structure recognition and most-informative selection.

Five structures are recognized; the second argument of each structure atom
(the i-value) counts the dependency relations its rule consumed, and the
atom with the highest i-value is the most informative reading.
"""

from dataclasses import dataclass

# ties on i-value break toward the more specific triggering pattern
SELECT_PRIORITY = (3, 2, 5, 4, 1)

KIND_I_VALUES = {1: 1, 2: 2, 3: 3, 4: 2, 5: 2}


@dataclass(frozen=True)
class StructureAtom:
    kind: int
    i_value: int

    def __post_init__(self):
        if KIND_I_VALUES.get(self.kind) != self.i_value:
            raise ValueError("no structure (%d,%d) exists" % (self.kind, self.i_value))


def recognize(facts):
    """All structure readings of a sentence (empty set: unrecognized)."""
    return {StructureAtom(*a.args) for a in facts.model.derived_with("structure")}


def select(structures):
    """The structure with the highest i-value, or None for the empty set."""
    if not structures:
        return None
    return max(
        structures,
        key=lambda s: (s.i_value, -SELECT_PRIORITY.index(s.kind)),
    )
