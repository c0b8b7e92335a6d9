"""Equation systems against the form-by-form reference in oracles.py: the
traces of global systems and of their projections, subset construction,
and the labelled net with its safety verdict, on random small global
systems with forks, joins, choices and merges."""
import random
from itertools import permutations

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import load
from mpst import (ChoiceOwnership, ResourceLimit, gg_participants, gproject,
                  gto_machine, is_safe, parse_gglobal, parse_glocal,
                  print_gglobal, print_glocal, to_petri, traces)
from mpst.search import _trie
from test_generalized import fork_join

PARTS = ("A", "B", "C")
FORMS = ("end", "msg", "msg", "msg", "choice", "fork", "join", "merge",
         "indir")
MAX_LEN = 5  # trace length compared per system and reading

# A fork inside a silent loop: the net is unsafe, and the closure of the
# first holes passes the fork cap.
FORK_LOOP = """init x0;
x0 = x1 | x2;
x1 = x0;
x2 = A -> B : a ; x3;
x3 = end;
"""
# A fork and a join around two exchanges that share a continuation.
DIAMOND = """init x0;
x0 = x1 | x2;
x1 = A -> B : a ; x3;
x2 = A -> C : b ; x4;
x3 | x4 = x5;
x5 = x6 + x7;
x6 = A -> B : c ; x8;
x7 = A -> B : d ; x8;
x8 = end;
"""
# A fork in a loop that only an exchange closes: the net is unsafe, and
# A's view passes the fork cap after more rounds than five steps take.
SEND_LOOP = """init x0;
x0 = x1 | x2;
x1 = A -> B : a ; x0;
x2 = end;
"""


@st.composite
def systems(draw):
    """The text of a global equation system over x0..x(n-1), each variable
    defined once; a join or merge defines two of them."""
    n = draw(st.integers(2, 7))
    var = st.sampled_from([f"x{i}" for i in range(n)])
    todo = [f"x{i}" for i in range(n)]
    lines = ["init x0;"]
    while todo:
        v = todo.pop(0)
        form = draw(st.sampled_from(FORMS))
        if form in ("join", "merge") and todo:
            w = todo.pop(draw(st.integers(0, len(todo) - 1)))
            op = "|" if form == "join" else "+"
            lines.append(f"{v} {op} {w} = {draw(var)};")
        elif form == "msg":
            src, dst = draw(st.permutations(PARTS))[:2]
            label = draw(st.sampled_from("ab"))
            lines.append(f"{v} = {src} -> {dst} : {label} ; {draw(var)};")
        elif form in ("choice", "fork"):
            op = "+" if form == "choice" else "|"
            lines.append(f"{v} = {draw(var)} {op} {draw(var)};")
        elif form == "indir":
            lines.append(f"{v} = {draw(var)};")
        else:
            lines.append(f"{v} = end;")
    return "\n".join(lines) + "\n"


def _act(a):
    return (a.sender, a.receiver, a.op, a.label)


def _outcome(run, limit):
    """run's result, or "limit" when it raises the exception limit."""
    try:
        return run()
    except limit:
        return "limit"


def _reference_traces(defs_by, ps, entry, k, global_view):
    """The trace trie of the reference stepping, hole multisets kept apart
    per closure element."""
    start = (tuple((entry,) for _ in ps),
             tuple(() for a in ps for b in ps if a != b))

    def step(c, k):
        return [(act, (holes, bufs)) for act, holes, bufs in oracles.gsteps(
            defs_by, ps, c[0], c[1], k, global_view)]

    return _trie(start, step, MAX_LEN, k)


def _same_traces(g, got, want):
    """got runs the machines of every view in full, want steps only as far
    as MAX_LEN: both are the same trie, or both pass the fork cap, or only
    got does, which a safe net rules out."""
    got = _outcome(lambda: oracles.plain_trie(got()), ResourceLimit)
    want = _outcome(want, oracles.ForkCap)
    if got == "limit" and want != "limit":
        assert not is_safe(to_petri(g))[0]
        return "limit"
    assert got == want
    return got


def _global_traces(g, k):
    """`_same_traces` for the global reading of g."""
    defs = oracles.eq_defs(g.equations)
    ps = gg_participants(g)
    return _same_traces(g, lambda: traces(g, MAX_LEN, k),
                        lambda: _reference_traces({p: defs for p in ps}, ps,
                                                  g.entry, k, True))


def _same_machine(t, p, defs, global_view):
    """`gto_machine(t, p)` is the reference subset construction over defs,
    or both pass the fork cap."""
    got = _outcome(lambda: {(s, _act(a), d) for s, a, d
                            in gto_machine(t, p).transitions}, ResourceLimit)
    want = _outcome(lambda: oracles.gmachine(defs, t.entry, p, global_view),
                    oracles.ForkCap)
    assert got == want, p


def _net(net):
    return net.places, net.transitions, net.initial


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(systems(), st.sampled_from([1, 2]))
@example(FORK_LOOP, 1)
@example(DIAMOND, 1)
@example(SEND_LOOP, 1)
def test_equation_systems_agree_with_the_reference(text, k):
    g = parse_gglobal(text)
    ps = gg_participants(g)
    defs = oracles.eq_defs(g.equations)
    for p in ps:
        _same_machine(g, p, defs, True)
    try:
        fam = {p: gproject(g, p) for p in ps}
    except ChoiceOwnership:
        assume(False)
    assume(ps)
    _global_traces(g, k)
    local_defs = {p: oracles.eq_defs(t.equations) for p, t in fam.items()}
    _same_traces(g, lambda: traces(fam, MAX_LEN, k),
                 lambda: _reference_traces(local_defs, ps, g.entry, k,
                                           False))
    for p, t in fam.items():
        _same_machine(t, p, local_defs[p], False)
    for t, owner in ((g, None), *((t, p) for p, t in fam.items())):
        net = oracles.petri(t.equations, t.entry, owner)
        assert _net(to_petri(t, owner)) == net
        assert is_safe(to_petri(t, owner)) == oracles.is_safe(*net[1:])


def test_the_examples_cover_unsafe_nets_and_the_fork_cap():
    g = parse_gglobal(FORK_LOOP)
    ok, marking = is_safe(to_petri(g))
    assert not ok and marking == {"x1": 1, "x2": 2}
    assert (ok, marking) == oracles.is_safe(*oracles.petri(
        g.equations, g.entry)[1:])
    assert _global_traces(g, 2) == "limit"
    # only the machines pass the fork cap: the reference stops within
    # MAX_LEN steps
    g = parse_gglobal(SEND_LOOP)
    defs = oracles.eq_defs(g.equations)
    assert _reference_traces({"A": defs, "B": defs}, ("A", "B"), g.entry, 1,
                             True)
    assert _global_traces(g, 1) == "limit"
    assert is_safe(to_petri(parse_gglobal(DIAMOND))) == (True, None)


def _sharing_changes_no_machine(text, rnd):
    """Every machine of g and of its projections, built on the hole table
    that `gproject` shares, equals the machine of a fresh copy, which
    shares nothing; the participants go in rnd's order, with g's own
    machines built first, then last.  A projection's machine is also g's
    machine for its participant."""
    for g_first in (True, False):
        g = parse_gglobal(text)
        ps = list(gg_participants(g))
        try:
            fam = {p: gproject(g, p) for p in ps}
        except ChoiceOwnership:
            fam = {}
        assert all(t._holes is g._holes for t in fam.values())
        rnd.shuffle(ps)
        own = [(g, p) for p in ps]
        views = [(fam[p], p) for p in ps if p in fam]
        got = {}
        for t, p in own + views if g_first else views + own:
            fresh = (parse_gglobal(print_gglobal(t)) if t is g
                     else parse_glocal(print_glocal(t)))
            got[t is g, p] = _outcome(lambda: gto_machine(t, p),
                                      ResourceLimit)
            assert got[t is g, p] == _outcome(lambda: gto_machine(fresh, p),
                                              ResourceLimit), p
        for p in fam:
            assert got[False, p] == got[True, p]


@settings(max_examples=150, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
@example(FORK_LOOP, random.Random(1))
@example(DIAMOND, random.Random(1))
@example(SEND_LOOP, random.Random(1))
def test_sharing_the_hole_table_changes_no_machine(text, rnd):
    _sharing_changes_no_machine(text, rnd)


@pytest.mark.parametrize("text", [
    pytest.param(fork_join(n, shared), id=f"fj{n}-{kind}")
    for n in (1, 2, 3, 4)
    for shared, kind in ((True, "shared"), (False, "per-branch"))]
    + [pytest.param(load("data_transfer.ggt"), id="data_transfer")])
def test_sharing_changes_no_machine_of_the_corpus_and_fork_joins(text):
    for seed in range(2):
        _sharing_changes_no_machine(text, random.Random(seed))


def test_the_fork_cap_holds_for_every_view_in_any_order():
    # a multiset past the cap keeps no row in the shared table, so a view
    # stepped after another one raised still raises
    ps = gg_participants(parse_gglobal(FORK_LOOP))
    for order in permutations([(True, p) for p in ps]
                              + [(False, p) for p in ps]):
        g = parse_gglobal(FORK_LOOP)
        for own, p in order:
            with pytest.raises(ResourceLimit, match="more than 8 parallel"):
                gto_machine(g if own else gproject(g, p), p)
