"""The checks that ask whether a node can still reach a set, against the
references in oracles.py: `check_safety`'s liveness and counterexample,
`receiver_property` and `unique_sender` on random small systems,
nondeterministic ones included, at k = 1, 2; and `check_safety` on two
such systems side by side, or with one participant of each merged into
one machine, their interleaving product, which it decides per
component."""
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from mpst import (Action, Machine, check_safety, make_system,
                  receiver_property, unique_sender)
from mpst.cfsm import _components, _explore, _product_safety, _table

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


def moves(enc):
    return any(edges for _, edges in enc.values())


def agrees_with_the_product(enc, k, live):
    """check_safety of enc against `_product_safety` and the oracle."""
    s = system(enc)
    report = check_safety(s, k, live)
    assert repr(report) == repr(_product_safety(s, _table(s, k), live))
    c = report.liveness_counterexample
    want = oracles.liveness(enc, k) if live else (None, None)
    assert (report.liveness, c and (c.states, c.buffers)) == want
    return s


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(encodings(), encodings(), st.sampled_from((1, 2)), st.booleans())
@example(oracles.COMMIT, oracles.UNINFORMED, 1, True)
@example(oracles.COMMIT, oracles.COMMIT, 2, True)
@example(oracles.RACE, oracles.DEADLOCK, 1, False)
def test_split_check_safety_agrees_with_the_product(enc1, enc2, k, live):
    s = agrees_with_the_product(side_by_side(enc1, enc2), k, live)
    # each side with a move is at least one component; participants
    # without moves make none
    if moves(enc1) and moves(enc2):
        assert len(_components(s)) >= 2


def merged(enc1, enc2):
    """Both systems side by side, with enc2's A (renamed D) merged into
    enc1's A: A's machine is the interleaving product of the two, on
    states named "qa.qd", and the peers of D talk to A."""
    enc = side_by_side(enc1, enc2)
    (ia, ea), (id_, ed) = enc["A"], enc.pop("D")
    sa = {ia} | {q for e in ea for q in (e[0], e[5])}
    sd = {id_} | {q for e in ed for q in (e[0], e[5])}

    def ren(p):
        return "A" if p == "D" else p
    prod = [(f"{src}.{q}", s, r, op, label, f"{dst}.{q}")
            for src, s, r, op, label, dst in ea for q in sorted(sd)]
    prod += [(f"{q}.{src}", ren(s), ren(r), op, label, f"{q}.{dst}")
             for src, s, r, op, label, dst in ed for q in sorted(sa)]
    enc["A"] = (f"{ia}.{id_}", tuple(sorted(prod)))
    for p in ("E", "F"):
        if p in enc:
            init, edges = enc[p]
            enc[p] = (init, tuple((e[0], ren(e[1]), ren(e[2])) + e[3:]
                                  for e in edges))
    return enc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(encodings(), encodings(), st.sampled_from((1, 2)), st.booleans())
@example(oracles.COMMIT, oracles.UNINFORMED, 1, True)
@example(oracles.COMMIT, oracles.COMMIT, 2, True)
@example(oracles.RACE, oracles.DEADLOCK, 1, False)
def test_a_product_machine_is_split_into_its_factors(enc1, enc2, k, live):
    s = agrees_with_the_product(merged(enc1, enc2), k, live)
    parts = _components(s)
    if parts:
        assert math.prod(len(_explore(part, k)[0]) for part in parts) == \
            len(_explore(s, k)[0])
