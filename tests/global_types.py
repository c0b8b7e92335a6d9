"""A hypothesis strategy of well-formed global types, for properties that
range over protocols rather than over the corpus.

A draw is built from exchanges (a message, or a choice of two or three
labels), recursion, and the sequence of two independent sub-protocols on
disjoint pairs of participants, whose leaves then close the enclosing loop
as in `rec t. A->B:{x. G, y. A->B:z. G}` with `G = C->D:{x. t, ...}`.
A draw is kept only when `well_formed` accepts it.
"""
from itertools import count

from hypothesis import strategies as st

from mpst import GBranch, GEnd, GRec, GVar, well_formed

PARTS = ("A", "B", "C", "D")
LABELS = ("x", "y", "z")


@st.composite
def _protocol(draw, parts, size, leaves, names):
    """A type over parts nested at most size deep within each
    sub-protocol, each leaf drawn from leaves; names yields fresh
    recursion variables."""
    if size <= 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(leaves))
    if draw(st.integers(0, 2)):
        return draw(_guarded(parts, size, leaves, names))
    var = next(names)
    return GRec(var, draw(_guarded(parts, size, leaves + (GVar(var),),
                                   names)))


@st.composite
def _guarded(draw, parts, size, leaves, names):
    """An exchange or, over four participants, sometimes the sequence of
    two independent sub-protocols on two participants each."""
    if len(parts) == 4 and draw(st.booleans()):
        order = draw(st.permutations(parts))
        size -= 1
        leaves = (draw(_protocol(order[2:], size, leaves, names)),)
        parts = order[:2]
    sender, receiver = draw(st.permutations(parts))[:2]
    labels = draw(st.sampled_from([LABELS[:1], LABELS[:2], LABELS]))
    return GBranch(sender, receiver, tuple(
        (label, draw(_protocol(parts, size - 1, leaves, names)))
        for label in labels))


@st.composite
def _global_type(draw, size):
    names = (f"t{i}" for i in count())
    parts = PARTS[:draw(st.integers(2, 4))]
    return draw(_protocol(parts, size, (GEnd(),), names))


def global_types(size: int = 4):
    """Well-formed global types over two to four participants, nested at
    most size deep within each sub-protocol."""
    return _global_type(size).filter(lambda g: bool(well_formed(g)))
