"""Multiparty compatibility and duality."""
import json
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA, load
from global_types import global_types
from mpst import (Action, Machine, MPSTError, NotBasic, dual, gparticipants,
                  gsynthesize, make_system, multiparty_compatible,
                  parse_system, print_gglobal, print_system, print_type,
                  project, synthesize, to_machine)
from mpst import compat, generalized, synthesis
from mpst.cli import main
from mpst.compat import _compatible, _synchronous
from test_reach_oracle import encodings, system


def _actions():
    pair = st.sampled_from([("A", "B"), ("B", "A"), ("A", "C"), ("C", "B")])
    return st.builds(
        lambda pq, op, lbl: Action(pq[0], pq[1], op, lbl),
        pair, st.sampled_from("!?"), st.sampled_from("abc"))


@given(_actions())
def test_dual_is_an_involution(a):
    b = dual(a)
    assert dual(b) == a
    assert b.op != a.op
    assert (b.sender, b.receiver, b.label) == (a.sender, a.receiver, a.label)


def test_commit_is_compatible(commit_system):
    report = multiparty_compatible(commit_system)
    assert report
    assert report.compatible and report.failures == ()
    assert report.to_json() == {"compatible": True, "failures": []}


def test_remark_machines_are_compatible(remark_aprime):
    assert multiparty_compatible(remark_aprime).compatible


def test_buyer_seller_is_compatible(buyer_seller):
    assert multiparty_compatible(buyer_seller).compatible


def test_remark_variant_fails_with_witnesses(remark_abc):
    report = multiparty_compatible(remark_abc)
    assert not report
    got = {(f.participant, f.state, f.kind, str(f.witness))
           for f in report.failures}
    assert got == {
        ("A", "q1", "unhandled", "CA!d"),
        ("A", "q2", "unhandled", "CA!c"),
        ("C", "q0", "uncovered", "CA!d"),
        ("C", "q0", "uncovered", "CA!c"),
    }
    by_key = {(f.participant, f.state, str(f.witness)): f
              for f in report.failures}
    unhandled = by_key[("A", "q1", "CA!d")]
    assert [str(a) for a in unhandled.path] == ["BA!a", "BA?a"]
    assert "accepts only ['c']" in unhandled.message
    uncovered = by_key[("C", "q0", "CA!c")]
    assert uncovered.path == ()


def test_failure_json_shape(remark_abc):
    j = multiparty_compatible(remark_abc).to_json()
    assert j["compatible"] is False
    f = j["failures"][0]
    assert set(f) == {"participant", "state", "kind", "message",
                      "witness", "path"}
    assert isinstance(f["path"], list)


def test_missing_partner_is_no_dual(deadlock_system):
    report = multiparty_compatible(deadlock_system)
    assert {f.kind for f in report.failures} == {"no_dual"}
    assert {(f.participant, f.state) for f in report.failures} == \
        {("A", "q0"), ("B", "q0")}


def test_uninformed_receiver_is_no_dual(uninformed_system):
    report = multiparty_compatible(uninformed_system)
    assert not report
    assert {(f.participant, f.kind) for f in report.failures} == \
        {("C", "no_dual")}


def test_undirected_machine_is_rejected(race_system):
    with pytest.raises(NotBasic, match="not directed"):
        multiparty_compatible(race_system)


def test_allow_nonbasic_still_analyses(race_system):
    report = multiparty_compatible(race_system, allow_nonbasic=True)
    assert not report
    assert {f.kind for f in report.failures} == {"uncovered"}


def test_nondeterminism_rejected_even_when_allowed():
    from mpst import Machine, make_system
    a = Machine("A", "q0", (("q0", Action("A", "B", "!", "x"), "q1"),
                            ("q0", Action("A", "B", "!", "x"), "q2")))
    b = Machine("B", "p0", (("p0", Action("A", "B", "?", "x"), "p1"),))
    with pytest.raises(NotBasic, match="nondeterministic"):
        multiparty_compatible(make_system([a, b]), allow_nonbasic=True)


def _ring(n, stop_at=None):
    """The machines of rec t. P0->P1:{go. P1->P2:go. ... P(n-1)->P0:ack. t,
    stop. P1->P2:stop. ... end}; participant stop_at, when given, ends on
    stop without passing it on."""
    ps = [f"P{i}" for i in range(n)]
    machines = [Machine(ps[0], "q0", (
        ("q0", Action(ps[0], ps[1], "!", "go"), "q1"),
        ("q1", Action(ps[-1], ps[0], "?", "ack"), "q0"),
        ("q0", Action(ps[0], ps[1], "!", "stop"), "q2")))]
    for i, p in enumerate(ps[1:], 1):
        nxt = ps[(i + 1) % n]
        moves = [("q0", Action(ps[i - 1], p, "?", "go"), "q1"),
                 ("q1", Action(p, nxt, "!", "ack" if i == n - 1 else "go"),
                  "q0"),
                 ("q0", Action(ps[i - 1], p, "?", "stop"), "q2")]
        if i < n - 1 and p != stop_at:
            moves.append(("q2", Action(p, nxt, "!", "stop"), "q3"))
        machines.append(Machine(p, "q0", tuple(moves)))
    return make_system(machines)


def _no_dual(p):
    return {"participant": p, "state": "q0", "kind": "no_dual",
            "message": f"{p} waits at state q0 but no reachable context "
                       f"ever sends to {p}",
            "witness": None, "path": []}


@pytest.mark.parametrize("stop_at,failures", [
    (None, []),
    ("P4", [_no_dual("P5"), _no_dual("P6"), _no_dual("P7")]),
])
def test_compat_json_on_ring8(tmp_path, capsys, stop_at, failures):
    # the no_dual verdict is decided once per closure, and these pin its
    # report, order included, on a ring where many walk states share one
    path = tmp_path / "ring8.cfsm"
    path.write_text(print_system(_ring(8, stop_at)))
    rc = main(["compat", str(path), "--json"])
    want = {"compatible": not failures, "failures": failures}
    assert (rc, capsys.readouterr().out) == (
        1 if failures else 0,
        json.dumps(want, sort_keys=True, indent=2) + "\n")


def test_each_participant_takes_each_stable_configuration_once(remark_abc):
    # what a walk checks at a node depends only on the participant and the
    # node, so no later walk of a participant asks for a closure again
    calls = Counter()
    closure = compat._closure

    def counted(p, i, *rest):
        calls[p, i] += 1
        return closure(p, i, *rest)

    for s in (_ring(8), _ring(8, "P4"), remark_abc):
        calls.clear()
        with patch.object(compat, "_closure", counted):
            multiparty_compatible(s)
        assert calls and max(calls.values()) == 1


# --- against the check that stepped joint states itself ----------------------

def _pairs(n):
    """n independent pairs: Ai sends Bi x and loops, or y and then z and
    loops; Bi mirrors Ai."""
    machines = []
    for i in range(n):
        a, b = f"A{i}", f"B{i}"
        for p, op in ((a, "!"), (b, "?")):
            machines.append(Machine(p, "q0", (
                ("q0", Action(a, b, op, "x"), "q0"),
                ("q0", Action(a, b, op, "y"), "q1"),
                ("q1", Action(a, b, op, "z"), "q0"))))
    return make_system(machines)


def _deterministic(enc):
    """enc with only the first move of each state and action."""
    out = {}
    for p, (init, edges) in enc.items():
        first = {}
        for e in edges:
            first.setdefault(e[:5], e)
        out[p] = (init, tuple(first.values()))
    return out


def _outcome(fn, s):
    """fn(s), or the class and message of the toolkit error it raises."""
    try:
        return fn(s)
    except MPSTError as e:
        return type(e).__name__, str(e)


def _views(s):
    """What reads the compatibility check and the synchronous execution:
    the report, the execution's nodes and rows, and the types synthesised
    from them."""
    return (_outcome(lambda s: repr(multiparty_compatible(s, True)), s),
            _outcome(lambda s: _synchronous(_compatible(s, True)[1]), s),
            _outcome(lambda s: print_type(synthesize(s)), s),
            _outcome(lambda s: print_gglobal(gsynthesize(s)), s))


def _reference_views(s):
    """`_views` with the compatibility check and the synchronous execution
    of oracles.py in their place."""
    with patch.object(synthesis, "_compatible",
                      lambda s: (oracles.multiparty_compatible(s), None)), \
            patch.object(synthesis, "_synchronous",
                         lambda _: oracles.synchronous(s)), \
            patch.object(generalized, "_multiparty_compatible",
                         lambda s, _: oracles.multiparty_compatible(s, True)), \
            patch.object(generalized, "_synchronous",
                         lambda _: oracles.synchronous(s)):
        return (
            _outcome(lambda s: repr(oracles.multiparty_compatible(s, True)),
                     s),
            _outcome(oracles.synchronous, s),
            _outcome(lambda s: print_type(synthesize(s)), s),
            _outcome(lambda s: print_gglobal(gsynthesize(s)), s))


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(encodings())
@example(oracles.COMMIT)
@example(oracles.REMARK_ABC)
@example(oracles.DEADLOCK)
@example(oracles.UNINFORMED)
def test_exchange_graph_agrees_with_reference_on_random_systems(enc):
    s = system(_deterministic(enc))
    assert _views(s) == _reference_views(s)


@settings(max_examples=150, deadline=None)
@given(global_types())
def test_exchange_graph_agrees_with_reference_on_projected_types(g):
    s = make_system([to_machine(project(g, p), p)
                     for p in sorted(gparticipants(g))])
    assert _views(s) == _reference_views(s)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.cfsm")))
def test_exchange_graph_agrees_with_reference_on_the_corpus(name):
    s = parse_system(load(name))
    assert _views(s) == _reference_views(s)


@pytest.mark.parametrize("s", (
    [pytest.param(_pairs(n), id=f"pairs{n}") for n in (1, 2, 3)]
    + [pytest.param(_ring(n), id=f"ring{n}") for n in range(3, 9)]
    + [pytest.param(_ring(n, "P2"), id=f"ring{n}-P2-stops")
       for n in range(4, 9)]))
def test_exchange_graph_agrees_with_reference_on_families(s):
    assert _views(s) == _reference_views(s)
