"""Multiparty compatibility and duality."""
import pytest
from hypothesis import given, strategies as st

from mpst import Action, NotBasic, dual, multiparty_compatible


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
