"""Execution of global types and local-type collections, trace equivalence."""
from collections import Counter
from unittest.mock import patch

import pytest

import oracles
from mpst import (Action, GBranch, local_config, parse_global, parse_local,
                  parse_system, print_type, project_config, gbuffers,
                  step_global, trace_equiv, traces, trie_flatten, unfold,
                  well_formed)
from mpst import semantics
from mpst.search import _trie
from conftest import DATA

LOOP = """
machine A { init q0; q0 -- A B ! x --> q0; }
machine B { init q0; q0 -- A B ? x --> q0; }
"""


def acts(steps):
    return sorted(str(a) for a, _ in steps)


def test_initial_steps_are_the_sends(commit_type):
    assert acts(step_global(commit_type, 1)) == ["AB!act", "AB!quit"]


def test_send_commits_to_a_branch(commit_type):
    after = dict((str(a), g) for a, g in step_global(commit_type, 1))
    mid = after["AB!act"]
    assert isinstance(mid, GBranch) and mid.mid == 0
    assert gbuffers(mid) == {("A", "B"): ("act",)}
    mid_q = after["AB!quit"]
    assert mid_q.mid == 1


def test_receive_selects_committed_continuation(commit_type):
    after = dict((str(a), g) for a, g in step_global(commit_type, 1))
    mid = after["AB!act"]
    nxt = dict((str(a), g) for a, g in step_global(mid, 1))
    # the receiver consumes, or the sender runs ahead inside its branch
    assert sorted(nxt) == ["AB?act", "AC!commit"]
    got = nxt["AB?act"]
    want = dict(unfold(commit_type).branches)["act"]
    assert got == want


def test_uninvolved_pair_steps_under_unresolved_choice():
    g = parse_global("A -> B : { l. C -> D : m. end, r. C -> D : m. end }")
    assert acts(step_global(g, 1)) == ["AB!l", "AB!r", "CD!m"]
    after = dict((str(a), t) for a, t in step_global(g, 1))
    inner = after["CD!m"]
    # the inner exchange is marked in every branch of the outer one
    assert all(b.mid is not None for _, b in inner.branches)
    assert gbuffers(inner) == {("C", "D"): ("m",)}


def test_uninvolved_pair_blocked_when_branches_differ():
    g = parse_global("A -> B : { l. C -> D : m. end, r. C -> D : n. end }")
    assert acts(step_global(g, 1)) == ["AB!l", "AB!r"]


def test_each_branch_is_stepped_once_and_no_participants_are_collected():
    # C and D step under A -> B in all three branches: each later branch
    # is stepped once, not once per action of the first, and no
    # branching's participants are collected to find what cannot move
    g = parse_global("A -> B : { l. C -> D : { x. end, y. end }, "
                     "m. C -> D : { x. end, y. end }, "
                     "n. C -> D : { x. end, y. end } }")
    calls = Counter()
    step = semantics._step

    def counted(u, blocked=frozenset(), *rest):
        calls[id(u), blocked] += 1
        return step(u, blocked, *rest)

    def collect(u):
        raise AssertionError("participants collected")

    with patch.object(semantics, "_step", counted), \
            patch.object(semantics, "gparticipants", collect):
        steps = step_global(g, 1)
    assert [str(a) for a, _ in steps] == "AB!l AB!m AB!n CD!x CD!y".split()
    assert set(calls.values()) == {1}


def test_a_recursion_whose_participants_are_all_blocked_is_not_unfolded():
    # under A -> B : m only participants other than A and B may step, and
    # the loop after it has none, so it is left folded: unfolding nested
    # loops until the (recursion, blocked) pairs repeat costs far more
    g = parse_global("A -> B : m. rec t. A -> B : { x. t, y. rec u. "
                     "A -> B : { x. t, y. u } }")
    with patch.object(semantics, "unfold",
                      side_effect=AssertionError("unfolded")):
        assert acts(step_global(g, 1)) == ["AB!m"]


@pytest.mark.parametrize("text,trace", [
    ("rec t. A -> B : { x. t, y. C -> D : m. end }", "AB!y CD!m"),
    ("rec t. A -> B : { x. A -> C : x. t, y. A -> C : y. C -> D : m. end }",
     "AB!y AC!y AC?y CD!m"),
])
def test_a_loop_branch_under_blocked_exchanges_steps_nothing(text, trace):
    # C and D may step under A -> B only in both branches, and the branch
    # of the loop meets the same recursion with the same participants
    # blocked: stepping it once recursed without end
    g = parse_global(text)
    assert acts(step_global(g, 1)) == ["AB!x", "AB!y"]
    assert trace in {" ".join(map(str, t))
                     for t in trie_flatten(traces(g, 4, 1))}


def test_send_respects_buffer_bound():
    g = parse_global("A -> B : x. A -> B : y. end")
    mid = dict((str(a), t) for a, t in step_global(g, 1))["AB!x"]
    assert acts(step_global(mid, 1)) == ["AB?x"]
    assert acts(step_global(mid, 2)) == ["AB!y", "AB?x"]


def test_g2_has_exactly_three_complete_interleavings():
    g2 = parse_global("A -> B : a. A -> C : b. end")
    flat = trie_flatten(traces(g2, 4, 1))
    complete = sorted("·".join(map(str, w)) for w in flat if len(w) == 4)
    assert complete == [
        "AB!a·AB?a·AC!b·AC?b",
        "AB!a·AC!b·AB?a·AC?b",
        "AB!a·AC!b·AC?b·AB?a",
    ]


def test_global_traces_equal_projected_family(commit_type):
    fam = project_config(commit_type)
    for k in (1, 2, 3):
        ok, w = trace_equiv(commit_type, fam, 8, k)
        assert ok, w


def test_global_traces_equal_machine_system(commit_type, commit_system):
    for k in (1, 2, 3):
        ok, w = trace_equiv(commit_type, commit_system, 8, k)
        assert ok, w


def test_local_collection_stepping_is_fifo():
    fam = local_config({
        "A": parse_local("B!x. B!y. end"),
        "B": parse_local("A?x. A?y. end"),
    })
    trie = traces(fam, 3, 2)
    assert acts(trie.items()) == ["AB!x"]
    after_x = dict((str(a), sub) for a, sub in trie.items())["AB!x"]
    assert acts(after_x.items()) == ["AB!y", "AB?x"]
    # receives take the head, never a later word
    after_xy = dict((str(a), sub) for a, sub in after_x.items())["AB!y"]
    assert acts(after_xy.items()) == ["AB?x"]


def test_local_collection_unfolds_recursion_on_the_fly():
    fam = local_config({
        "A": parse_local("rec t. B!x. t"),
        "B": parse_local("rec t. A?x. t"),
    })
    flat = trie_flatten(traces(fam, 4, 1))
    assert max(len(w) for w in flat) == 4


def test_project_config_carries_buffers(commit_type):
    after = dict((str(a), g) for a, g in step_global(commit_type, 1))
    lc = project_config(after["AB!act"])
    idx = lc.channels.index(("A", "B"))
    assert lc.buffers[idx] == ("act",)


def test_trace_equiv_reports_first_divergence():
    x = parse_global("A -> B : a. end")
    y = parse_global("A -> B : b. end")
    ok, w = trace_equiv(x, y, 4, 1)
    assert not ok
    assert w == (Action("A", "B", "!", "a"),)


def test_trace_equiv_witness_is_shortest():
    x = parse_global("A -> B : a. A -> B : { c. end, d. end }")
    y = parse_global("A -> B : a. A -> B : { c. end }")
    ok, w = trace_equiv(x, y, 6, 1)
    assert not ok
    assert w == (Action("A", "B", "!", "a"), Action("A", "B", "?", "a"),
                 Action("A", "B", "!", "d"))


def test_trace_equiv_rejects_dicts_of_other_than_equation_systems(
        commit_type, commit_system):
    # a dict is a family of local equation systems; a family of local
    # types must come as a LocalConfig, and a trie is no input
    for x in (3, {"A": parse_local("B!x. end")},
              traces(commit_system, 6, 1)):
        msg = f"^cannot take traces of {type(x).__name__}$"
        with pytest.raises(TypeError, match=msg):
            traces(x, 3, 1)
        with pytest.raises(TypeError, match=msg):
            trace_equiv(x, commit_type, 3, 1)
        with pytest.raises(TypeError, match=msg):
            trace_equiv(commit_system, x, 3, 1)


def test_trace_equiv_decides_deep_tries():
    # one trie level per step: nothing may recurse once per level
    g = parse_global("rec t. A -> B : x. t")
    assert trace_equiv(g, parse_system(LOOP), 1200, 1) == (True, None)


def test_trie_flatten_handles_deep_tries():
    flat = trie_flatten(traces(parse_system(LOOP), 1200, 1))
    assert len(flat) == 1201 and max(map(len, flat)) == 1200


# Types whose marked states reach several participants' buffers at once:
# a ring of four, three independent pairs, and two pairs whose loops
# interleave.
RING4 = ("rec t. P0 -> P1 : { go. P1 -> P2 : go. P2 -> P3 : go. "
         "P3 -> P0 : ack. t, stop. P1 -> P2 : stop. P2 -> P3 : stop. end }")
INDEP3 = "A0 -> B0 : m. A1 -> B1 : m. A2 -> B2 : m. end"
PAIRS2 = ("rec t. A0 -> B0 : { x. A1 -> B1 : { x. t, y. A1 -> B1 : z. t }, "
          "y. A0 -> B0 : z. A1 -> B1 : { x. t, y. A1 -> B1 : z. t } }")


def test_local_types_and_their_machines_have_the_same_traces():
    # local-type collections run as machine systems, against the term
    # stepper of the oracles, from every marked state within four steps of
    # each projectable type: in-flight words included
    texts = [p.read_text() for p in sorted(DATA.glob("*.gt"))]
    checked = 0
    for text in texts + [RING4, INDEP3, PAIRS2]:
        g = parse_global(text)
        if not well_formed(g):
            continue
        marked, frontier = {g}, [g]
        for _ in range(4):
            frontier = {g2 for g1 in frontier
                        for _, g2 in step_global(g1)} - marked
            marked |= frontier
        for m in marked:
            c = project_config(m)
            for k in (1, 2, 3):
                want = _trie((c.types, c.buffers), oracles.local_steps, 3, k)
                assert oracles.plain_trie(traces(c, 3, k)) == want, (m, k)
            checked += 1
    assert checked == 380


def test_marked_global_type_prints_the_in_transit_label(commit_type):
    after = dict((str(a), g) for a, g in step_global(commit_type, 1))
    txt = print_type(after["AB!act"])
    assert txt.startswith("A ~> B : [act]")
    # unmarked types keep the plain arrow
    assert "~>" not in print_type(commit_type)
