"""The checks that ask whether a node can still reach a set, against the
references in oracles.py: `check_safety`'s liveness and counterexample,
`receiver_property` and `unique_sender` on random small systems,
nondeterministic ones included, at k = 1, 2; and `subtype` on pairs of
local types decompiled from random basic machines."""
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from mpst import (Action, Machine, check_safety, make_system,
                  receiver_property, subtype, to_local, unique_sender)

PARTS = ("A", "B", "C")
STATES = ("q0", "q1", "q2", "q3")


def system(enc):
    return make_system(
        Machine(p, init, tuple((src, Action(s, r, op, label), dst)
                               for src, s, r, op, label, dst in edges))
        for p, (init, edges) in enc.items())


@st.composite
def encodings(draw):
    """A system over two or three participants that exchange two to four
    kinds of message.  From each of q0, q1 and q2 up to four kinds are
    drawn, and the send and the receive of each are kept or dropped at
    random, each with a random target.  So q3 is final, and two moves may
    share a source and an action: machines may be nondeterministic.  Half
    of the three-party systems are also offered, twice each, the moves of
    a race at q0: A receiving from B and from C, which both send to it."""
    ps = PARTS[:draw(st.integers(2, 3))]
    pair = st.sampled_from([(p, r) for p in ps for r in ps if p != r])
    kinds = draw(st.lists(st.tuples(pair, st.sampled_from("ab")),
                          min_size=2, max_size=4, unique=True))
    race = len(ps) == 3 and draw(st.booleans())
    moves = [("q0", (("B", "A"), "a")), ("q0", (("C", "A"), "b"))] * 2 \
        if race else []
    moves += [(src, kind) for src in STATES[:3]
              for kind in draw(st.lists(st.sampled_from(kinds), max_size=4))]
    enc = {p: ("q0", set()) for p in ps}
    for src, ((s, r), label) in moves:
        for p, op in ((s, "!"), (r, "?")):
            if draw(st.booleans()):
                enc[p][1].add((src, s, r, op, label,
                               draw(st.sampled_from(STATES))))
    return {p: (init, tuple(sorted(edges)))
            for p, (init, edges) in enc.items()}


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(encodings(), st.sampled_from((1, 2)))
@example(oracles.COMMIT, 1)
@example(oracles.RACE, 1)
@example(oracles.UNINFORMED, 1)
@example(oracles.REMARK_ABC, 2)
@example(oracles.DEADLOCK, 2)
def test_reach_questions_agree_with_reference(enc, k):
    s = system(enc)
    assert receiver_property(s, k, False) == \
        oracles.receiver_property(enc, k)
    assert unique_sender(s, k, False) == oracles.unique_sender(enc, k)
    report = check_safety(s, k)
    c = report.liveness_counterexample
    assert (report.liveness, c and (c.states, c.buffers)) == \
        oracles.liveness(enc, k)


@st.composite
def basic_machines(draw):
    """The moves of a basic machine of A: each state either ends, sends to
    one peer or receives from one, with at most one target a label."""
    moves = []
    for q in STATES[:draw(st.integers(1, 4))]:
        kind = draw(st.sampled_from(("end", "!", "?", "?")))
        if kind == "end":
            continue
        peer = draw(st.sampled_from("BC"))
        for label in draw(st.sets(st.sampled_from("abc"), min_size=1)):
            a = (Action("A", peer, "!", label) if kind == "!"
                 else Action(peer, "A", "?", label))
            moves.append((q, a, draw(st.sampled_from(STATES))))
    return moves


@st.composite
def type_pairs(draw):
    """Two local types of A: the second decompiled either from a machine
    of its own or from the first machine with some moves dropped, which
    narrows receives and breaks sends."""
    m1 = draw(basic_machines())
    m2 = draw(st.one_of(basic_machines(),
                        st.lists(st.sampled_from(m1), unique=True)
                        if m1 else st.just([])))
    return (to_local(Machine("A", "q0", tuple(m1))),
            to_local(Machine("A", "q0", tuple(m2))))


@settings(max_examples=400, deadline=None)
@given(type_pairs())
def test_subtype_agrees_with_reference(pair):
    t1, t2 = pair
    assert subtype(t1, t2) == oracles.subtype(t1, t2)
    assert subtype(t2, t1) == oracles.subtype(t2, t1)
    assert subtype(t1, t1) and oracles.subtype(t1, t1)
