"""Recovering a global type from a compatible system."""
import pytest
from hypothesis import example, given, settings

import oracles
from mpst import (GBranch, GEnd, GRec, GVar, MPSTError, NotBasic,
                  NotCompatible, SynthesisFailure, alpha_canonical,
                  alpha_equiv, gparticipants, isomorphic, make_system,
                  multiparty_compatible, parse_global, parse_system,
                  print_type, project, synthesize, to_machine,
                  verify_roundtrip, well_formed)
from conftest import DATA, load
from global_types import global_types

# fault 2a: two independent pairs, each in a loop of its own
PAIRS2 = ("rec t. A0->B0:{x. A1->B1:{x. t, y. A1->B1:z. t}, "
          "y. A0->B0:z. A1->B1:{x. t, y. A1->B1:z. t}}")
# fault 2b: a loop whose next round can start before this one ends
ROTATED = "rec t. B -> A : a. B -> C : c. C -> D : b. t"


def _projections(g):
    return make_system([to_machine(project(g, p), p)
                        for p in sorted(gparticipants(g))])


def test_commit_synthesis_matches_the_source_type(commit_type, commit_system):
    g = synthesize(commit_system)
    assert alpha_equiv(g, commit_type)
    assert print_type(g) == ("rec t0. A->B:{act. B->C:sig. A->C:commit. t0, "
                             "quit. B->C:save. A->C:finish. end}")


def test_remark_synthesis_is_the_expected_type(remark_aprime):
    g = synthesize(remark_aprime)
    assert print_type(g) == ("B->A:{a. C->A:{c. end, d. end}, "
                             "b. C->A:{c. end, d. end}}")
    assert alpha_equiv(g, parse_global(load("remark_good.gt")))


def test_buyer_seller_synthesis(buyer_seller):
    g = synthesize(buyer_seller)
    assert print_type(g) == ("rec t0. B->S:title. S->B:quote. "
                             "B->S:{ok. B->S:addrs. S->B:date. end, "
                             "retry. t0}")


def test_incompatible_system_is_refused(remark_abc):
    with pytest.raises(NotCompatible, match="not multiparty compatible"):
        synthesize(remark_abc)


def test_nonbasic_system_is_refused(race_system):
    with pytest.raises(NotBasic):
        synthesize(race_system)


def test_roundtrip_verification_reports_per_bound(commit_system):
    ok, per = verify_roundtrip(commit_system, max_len=8)
    assert ok
    assert sorted(per) == [1, 2, 3]
    assert all(v == (True, None) for v in per.values())


def test_roundtrip_verification_accepts_a_candidate(commit_type,
                                                    commit_system):
    ok, _ = verify_roundtrip(commit_system, g=commit_type, max_len=8)
    assert ok
    wrong = parse_global("A -> B : act. end")
    ok, per = verify_roundtrip(commit_system, g=wrong, max_len=8,
                               bounds=(1,))
    assert not ok
    bad, witness = per[1]
    assert not bad and witness is not None


@pytest.mark.parametrize("text", [
    "A->B:{x. rec t0. C->D:x. t0, y. rec t1. C->D:x. t1}",
    "A->B:{x. rec t0. C->D:x. t0, y. rec t0. C->D:x. t0}"])
def test_loops_bound_apart_in_branches_round_trip(text):
    # merge is up to binder names, so the type synthesised from the
    # projections, whose binders alpha_canonical numbers apart, is
    # well-formed
    g = parse_global(text)
    assert print_type(synthesize(_projections(g))) == (
        "A->B:{x. rec t0. C->D:x. t0, y. rec t1. C->D:x. t1}")


@pytest.mark.xfail(strict=True, raises=SynthesisFailure, reason=(
    "fault 2a: a loop closes only when every participant has moved or is "
    "final, so loops of independent pairs never close; fix: close loops "
    "per component of the participants that interact (ROADMAP item 2a)"))
def test_loops_of_independent_pairs_are_synthesised():
    synthesize(_projections(parse_global(PAIRS2)))


@pytest.mark.xfail(strict=True, reason=(
    "fault 2b: the loop is unrolled once, B->A:a. rec t0. B->C:c. B->A:a. "
    "C->D:b. t0, so A's and B's projections are only trace-equivalent to "
    "their machines; fix: close a rotated loop where it was entered "
    "(ROADMAP item 2b)"))
def test_rotated_loop_projects_to_isomorphic_machines():
    s = _projections(parse_global(ROTATED))
    g = synthesize(s)
    assert [isomorphic(to_machine(project(g, p), p), m)
            for p, m in s.machines] == [True] * 4


# --- against the synthesis that stepped joint states itself ----------------

def _from_plain(t):
    if t[0] == "end":
        return GEnd()
    if t[0] == "var":
        return GVar(t[1])
    if t[0] == "rec":
        return GRec(t[1], _from_plain(t[2]))
    return GBranch(t[1], t[2], tuple((label, _from_plain(u))
                                     for label, u in t[3]))


def _reference(s):
    """`synthesize` as first written: the compatibility check, the walk of
    `oracles.synthesize`, then the well-formedness check."""
    report = multiparty_compatible(s)
    if not report:
        raise NotCompatible("system is not multiparty compatible: "
                            + report.failures[0].message)
    enc = {p: (m.initial, tuple((src, a.sender, a.receiver, a.op, a.label, dst)
                                for src, a, dst in m.transitions))
           for p, m in s.machines}
    try:
        g = alpha_canonical(_from_plain(oracles.synthesize(enc)))
    except oracles.SynthesisFailure as e:
        raise SynthesisFailure(str(e)) from None
    wf = well_formed(g)
    if not wf:
        raise SynthesisFailure(
            "synthesised type is not well-formed: " + wf.failures[0][1])
    return g


def _outcome(synth, s):
    """The printed type, or the exception's class and message."""
    try:
        return print_type(synth(s))
    except MPSTError as e:
        return type(e).__name__, str(e)


@settings(max_examples=150, deadline=None)
@given(global_types())
@example(parse_global(PAIRS2))
@example(parse_global(ROTATED))
def test_synthesis_agrees_with_the_reference_on_projected_types(g):
    s = _projections(g)
    assert _outcome(synthesize, s) == _outcome(_reference, s)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.cfsm")))
def test_synthesis_agrees_with_the_reference_on_the_corpus(name):
    s = parse_system(load(name))
    assert _outcome(synthesize, s) == _outcome(_reference, s)
