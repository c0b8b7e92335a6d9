"""Projection, merge and well-formedness.  Merge is checked to give an
upper bound of its arguments under `oracles.subtype`, a reference
subtyping kept with the tests: the toolkit defines none, as the paper
needs none."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst import (GBranch, LEnd, LRecv, LSend, MergeFailure, alpha_equiv, merge,
                  parse_global, parse_local, project, well_formed)
from conftest import load
from oracles import subtype


def test_project_commit_to_each_participant(commit_type):
    want = {
        "A": "rec t. B!{act. C!commit. t, quit. C!finish. end}",
        "B": "rec t. A?{act. C!sig. t, quit. C!save. end}",
        "C": "rec t. B?{sig. A?commit. t, save. A?finish. end}",
    }
    for p, txt in want.items():
        assert alpha_equiv(project(commit_type, p), parse_local(txt))


def test_project_sender_vs_receiver_vs_third():
    g = parse_global("A -> B : { l. B -> C : m. end, r. B -> C : m. end }")
    assert project(g, "A") == parse_local("B!{l. end, r. end}")
    assert project(g, "B") == parse_local("A?{l. C!m. end, r. C!m. end}")
    # C hears m either way: the merge of both branches
    assert project(g, "C") == parse_local("B?m. end")


def test_project_committed_exchange_keeps_receiver_branching():
    # after the sender commits to the first branch, the receiver still
    # faces the full branching while everyone else follows that branch
    g = GBranch("A", "B", (
        ("l", parse_global("B -> A : x. end")),
        ("r", parse_global("B -> A : y. end")),
    ), mid=0)
    assert project(g, "B") == parse_local("A?{l. A!x. end, r. A!y. end}")
    assert project(g, "A") == parse_local("B?x. end")


def test_project_uninvolved_participant_of_loop_is_end():
    # C does not occur: the body projects to the bare variable, so the
    # whole recursion collapses to end
    g = parse_global("rec t. A -> B : x. t")
    assert project(g, "C") == LEnd()
    assert project(g, "A") != LEnd()
    # C acts inside the loop body: the binder must survive
    g2 = parse_global("rec t. A -> B : x. C -> A : z. t")
    assert alpha_equiv(project(g2, "C"), parse_local("rec t. A!z. t"))


def test_merge_is_idempotent_on_commit_projections(commit_type):
    for p in "ABC":
        t = project(commit_type, p)
        assert merge(t, t) == t


def test_merge_unions_receive_branchings():
    t1 = parse_local("B?{a. end}")
    t2 = parse_local("B?{b. end}")
    assert merge(t1, t2) == parse_local("B?{a. end, b. end}")
    assert merge(t2, t1) == merge(t1, t2)


def test_merge_recurses_on_shared_labels():
    t1 = parse_local("B?{a. C?x. end}")
    t2 = parse_local("B?{a. C?y. end, b. end}")
    got = merge(t1, t2)
    assert got == parse_local("B?{a. C?{x. end, y. end}, b. end}")


def test_merge_failures():
    with pytest.raises(MergeFailure):
        merge(parse_local("B!{a. end}"), parse_local("B!{b. end}"))
    with pytest.raises(MergeFailure):
        merge(parse_local("B?a. end"), parse_local("C?a. end"))
    with pytest.raises(MergeFailure):
        merge(parse_local("B?a. end"), parse_local("B!a. end"))
    with pytest.raises(MergeFailure):
        merge(parse_local("B?{a. C!x. end}"), parse_local("B?{a. C!y. end}"))


def test_merge_homomorphic_on_rec():
    t1 = parse_local("rec t. B?{a. t}")
    t2 = parse_local("rec t. B?{b. t}")
    assert merge(t1, t2) == parse_local("rec t. B?{a. t, b. t}")


def test_subtype_reflexive_and_receive_widening(commit_type):
    for p in "ABC":
        t = project(commit_type, p)
        assert subtype(t, t)
    narrow = parse_local("B?{a. end}")
    wide = parse_local("B?{a. end, b. end}")
    assert subtype(narrow, wide)
    assert not subtype(wide, narrow)
    # selections do not widen
    assert not subtype(parse_local("B!{a. end}"),
                       parse_local("B!{a. end, b. end}"))


def test_subtype_of_merge_upper_bound():
    pairs = [
        ("B?{a. end}", "B?{b. end}"),
        ("B?{a. C?x. end}", "B?{a. C?y. end, b. end}"),
        ("rec t. B?{a. t}", "rec t. B?{b. t}"),
    ]
    for x, y in pairs:
        t1, t2 = parse_local(x), parse_local(y)
        m = merge(t1, t2)
        assert subtype(t1, m) and subtype(t2, m)


def test_subtype_crosses_recursion_unfolding():
    t1 = parse_local("rec t. B?{a. t}")
    t2 = parse_local("B?{a. rec t. B?{a. t}}")
    assert subtype(t1, t2) and subtype(t2, t1)


def test_well_formed_verdicts(commit_type):
    assert well_formed(commit_type).ok
    good = parse_global(load("remark_good.gt"))
    bad = parse_global(load("remark_bad.gt"))
    assert well_formed(good).ok
    rep = well_formed(bad)
    assert not rep.ok
    assert [p for p, _ in rep.failures] == ["C"]
    assert not bool(rep)


def test_well_formed_collects_reasons():
    bad = parse_global("A -> B : { l. C -> A : x. end, r. end }")
    rep = well_formed(bad)
    assert not rep.ok and rep.failures


def test_well_formed_does_not_depend_on_branch_order():
    # C's selection is written in two orders in the two branches; the merge
    # of a selection with itself must not care about the order
    same = parse_global("A -> B : { l. C -> D : { a. end, b. end }, "
                        "r. C -> D : { a. end, b. end } }")
    swapped = parse_global("A -> B : { l. C -> D : { a. end, b. end }, "
                           "r. C -> D : { b. end, a. end } }")
    assert well_formed(same).ok
    assert well_formed(swapped).ok
    for p in ("A", "B", "C", "D"):
        assert str(project(swapped, p)) == str(project(same, p))


def test_merge_of_selections_ignores_branch_order():
    t1 = parse_local("D!{a. C?{x. end, y. end}, b. end}")
    t2 = LSend("D", tuple(reversed(
        [(l, LRecv("C", tuple(reversed(b.branches))) if l == "a" else b)
         for l, b in t1.branches])))
    assert merge(t1, t2) == t1
    assert merge(t2, t1) == t2
    with pytest.raises(MergeFailure):
        merge(t1, parse_local("D!{a. C?{x. end, y. end}, c. end}"))


# --- randomized merge properties ---------------------------------------------

_labels = st.sampled_from(list("abcd"))


def _recv_trees(depth):
    if depth == 0:
        return st.sampled_from([LEnd()])
    sub = _recv_trees(depth - 1)
    return st.one_of(sub, st.builds(
        lambda items: LRecv("B", tuple(sorted(dict(items).items()))),
        st.lists(st.tuples(_labels, sub), min_size=1, max_size=3)))


@settings(max_examples=80, deadline=None)
@given(_recv_trees(3), _recv_trees(3))
def test_merge_commutes_and_bounds_on_receive_trees(t1, t2):
    try:
        m12 = merge(t1, t2)
    except MergeFailure:
        with pytest.raises(MergeFailure):
            merge(t2, t1)
        return
    assert m12 == merge(t2, t1)
    assert subtype(t1, m12) and subtype(t2, m12)
    assert merge(m12, m12) == m12


@settings(max_examples=40, deadline=None)
@given(_recv_trees(2), _recv_trees(2), _recv_trees(2))
def test_merge_associates_on_receive_trees(t1, t2, t3):
    try:
        left = merge(merge(t1, t2), t3)
        right = merge(t1, merge(t2, t3))
    except MergeFailure:
        return
    assert left == right
