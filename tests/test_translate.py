"""Local type <-> machine translation and isomorphism checking."""
import pytest

from mpst import (Action, Machine, NotBasic, alpha_equiv, isomorphic,
                  local_config, parse_local, project, to_local, to_machine,
                  traces)


REFERENCE = {
    "A": Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "act"), "q2"),
        ("q2", Action("A", "C", "!", "commit"), "q0"),
        ("q0", Action("A", "B", "!", "quit"), "q1"),
        ("q1", Action("A", "C", "!", "finish"), "q3"),
    )),
    "B": Machine("B", "q0", (
        ("q0", Action("A", "B", "?", "act"), "q2"),
        ("q2", Action("B", "C", "!", "sig"), "q0"),
        ("q0", Action("A", "B", "?", "quit"), "q1"),
        ("q1", Action("B", "C", "!", "save"), "q3"),
    )),
    "C": Machine("C", "q0", (
        ("q0", Action("B", "C", "?", "sig"), "q2"),
        ("q2", Action("A", "C", "?", "commit"), "q0"),
        ("q0", Action("B", "C", "?", "save"), "q1"),
        ("q1", Action("A", "C", "?", "finish"), "q3"),
    )),
}


def test_commit_projections_translate_to_reference_machines(commit_type):
    for p, want in REFERENCE.items():
        m = to_machine(project(commit_type, p), p)
        assert isomorphic(m, want)


def test_machine_states_renamed_in_bfs_order(commit_type):
    m = to_machine(project(commit_type, "A"), "A")
    assert m.initial == "q0"
    assert m.states == {"q0", "q1", "q2", "q3"}


def test_translate_roundtrip_machine_side(commit_system, buyer_seller):
    for s in [commit_system, buyer_seller]:
        for p, m in s.machines:
            again = to_machine(to_local(m), p)
            assert isomorphic(m, again)


def test_translate_roundtrip_type_side(commit_type, commit_c_type):
    for t in [project(commit_type, "A"), project(commit_type, "B"),
              commit_c_type,
              parse_local("B!{a. end, b. C?x. end}"),
              parse_local("rec t. B?{go. t, stop. end}")]:
        owner = "Z"
        back = to_local(to_machine(t, owner))
        assert alpha_equiv(back, parse_local(str(back)))
        m1 = to_machine(t, owner)
        m2 = to_machine(back, owner)
        assert isomorphic(m1, m2)


def test_to_local_duplicates_shared_subtrees():
    # two selection branches converge on one state; the type unfolds the
    # shared continuation into both branches
    m = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "l"), "q1"),
        ("q0", Action("A", "B", "!", "r"), "q1"),
        ("q1", Action("A", "B", "!", "z"), "q2"),
    ))
    t = to_local(m)
    assert alpha_equiv(t, parse_local("B!{l. B!z. end, r. B!z. end}"))


def test_to_local_places_binder_at_reentry():
    m = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "go"), "q1"),
        ("q1", Action("A", "B", "!", "loop"), "q1"),
    ))
    t = to_local(m)
    assert alpha_equiv(t, parse_local("B!go. rec t. B!loop. t"))


def test_to_local_rejects_nondeterministic_machine():
    m = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "x"), "q1"),
        ("q0", Action("A", "B", "!", "x"), "q2"),
    ))
    with pytest.raises(NotBasic):
        to_local(m)


def test_to_local_rejects_mixed_machine():
    m = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "x"), "q1"),
        ("q0", Action("B", "A", "?", "y"), "q2"),
    ))
    with pytest.raises(NotBasic):
        to_local(m)


@pytest.mark.parametrize("text", ["A!a. end", "A?a. end",
                                  "rec t. B?{ok. end, again. A!a. t}"])
def test_to_machine_rejects_a_type_that_messages_its_owner(text):
    # the parsers reject self-messages; a local type names no owner, so
    # to_machine checks its peers against the owner it is given
    msg = "participant A cannot message itself"
    with pytest.raises(ValueError, match=msg):
        to_machine(parse_local(text), "A")
    with pytest.raises(ValueError, match=msg):  # not a KeyError
        traces(local_config({"A": parse_local(text)}), 3, 1)


def test_isomorphic_distinguishes_structure():
    m1 = Machine("A", "q0", (("q0", Action("A", "B", "!", "x"), "q1"),))
    m2 = Machine("A", "s", (("s", Action("A", "B", "!", "x"), "t"),))
    m3 = Machine("A", "q0", (("q0", Action("A", "B", "!", "y"), "q1"),))
    loop = Machine("A", "q0", (("q0", Action("A", "B", "!", "x"), "q0"),))
    assert isomorphic(m1, m2)
    assert not isomorphic(m1, m3)
    assert not isomorphic(m1, loop)
    # owners must match
    m4 = Machine("B", "q0", (("q0", Action("B", "A", "!", "x"), "q1"),))
    assert not isomorphic(m1, m4)


def test_isomorphic_ignores_unreachable_states():
    m1 = Machine("A", "q0", (("q0", Action("A", "B", "!", "x"), "q1"),))
    m2 = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "x"), "q1"),
        ("zz", Action("A", "B", "!", "y"), "q0"),
    ))
    assert isomorphic(m1, m2)
