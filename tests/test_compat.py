"""Multiparty compatibility and duality."""
import json

import pytest
from hypothesis import given, strategies as st

from mpst import (Action, Machine, NotBasic, dual, make_system,
                  multiparty_compatible, print_system)
from mpst.cli import main


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
