"""The checks that ask whether a node can still reach a set, against the
references in oracles.py: `check_safety`'s liveness and counterexample,
`receiver_property` and `unique_sender` on random small systems,
nondeterministic ones included, at k = 1, 2; and `check_safety` on two
such systems side by side, which it decides per component."""
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from mpst import (Action, Machine, check_safety, make_system,
                  receiver_property, unique_sender)
from mpst.cfsm import _components, _product_safety, _table

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


def side_by_side(enc1, enc2):
    """One system of both, enc2's participants renamed apart from enc1's."""
    ren = dict(zip(PARTS, "DEF"))
    return {**enc1, **{ren[p]: (init, tuple(
        (src, ren[s], ren[r], op, label, dst)
        for src, s, r, op, label, dst in edges))
        for p, (init, edges) in enc2.items()}}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(encodings(), encodings(), st.sampled_from((1, 2)), st.booleans())
@example(oracles.COMMIT, oracles.UNINFORMED, 1, True)
@example(oracles.COMMIT, oracles.COMMIT, 2, True)
@example(oracles.RACE, oracles.DEADLOCK, 1, False)
def test_split_check_safety_agrees_with_the_product(enc1, enc2, k, live):
    enc = side_by_side(enc1, enc2)
    s = system(enc)
    assert len(_components(s)) >= 2
    report = check_safety(s, k, live)
    assert repr(report) == repr(_product_safety(s, _table(s, k), live))
    c = report.liveness_counterexample
    want = oracles.liveness(enc, k) if live else (None, None)
    assert (report.liveness, c and (c.states, c.buffers)) == want
