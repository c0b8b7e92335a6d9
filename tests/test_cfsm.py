"""Configurations, bounded reachability, classification, safety."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst import (BAD_FLAGS, Action, Machine, ResourceLimit, SafetyReport,
                  check_safety, classify, dot_machine, dot_reach, dot_system,
                  fire, initial, is_basic, make_system, reach, traces,
                  trie_flatten)
from mpst.cfsm import _explore
import oracles


def encode(s):
    """Adapt a System to the oracle's plain-tuple encoding."""
    return {p: (m.initial,
                tuple((src, a.sender, a.receiver, a.op, a.label, dst)
                      for src, a, dst in m.transitions))
            for p, m in s.machines}


def as_tuple(c):
    return (c.states, c.buffers)


def act_tuple(a):
    return (a.sender, a.receiver, a.op, a.label)


def test_initial_configuration(commit_system):
    c = initial(commit_system)
    assert c.states == ("q0", "q0", "q0")
    assert c.buffers == ((),) * 6
    assert c.is_stable()


def test_commit_reach_sizes_match_frozen_oracle(commit_system):
    for k, (nconf, nedge, nstable) in {1: (30, 48, 6), 2: (70, 144, 6),
                                       3: (126, 288, 6)}.items():
        rset = reach(commit_system, k)
        stable = [c for c in rset.configs if c.is_stable()]
        assert (len(rset.configs), len(rset.edges),
                len(stable)) == (nconf, nedge, nstable)


def test_reach_agrees_with_oracle_exactly(commit_system, remark_abc,
                                          remark_aprime, buyer_seller,
                                          deadlock_system, race_system,
                                          uninformed_system):
    # random machines rarely reach a final configuration by many routes;
    # these do, so liveness has to follow every predecessor
    systems = [commit_system, remark_abc, remark_aprime, buyer_seller,
               deadlock_system, race_system, uninformed_system]
    for s in systems:
        for k in (1, 2, 3):
            assert_kernel_agrees_with_oracle(s, k)


def test_classify_agrees_with_oracle(commit_system, remark_abc,
                                     deadlock_system, race_system,
                                     uninformed_system):
    for s in [commit_system, remark_abc, deadlock_system, race_system,
              uninformed_system]:
        enc = encode(s)
        for c in reach(s, 1).configs:
            assert classify(c, s) == oracles.classify(enc, as_tuple(c))


def test_remark_abc_census(remark_abc):
    rset = reach(remark_abc, 1)
    assert len(rset.configs) == 17
    bad = {}
    for c in rset.configs:
        for f in classify(c, remark_abc) & BAD_FLAGS:
            bad[f] = bad.get(f, 0) + 1
    assert bad == {"unspecified_reception": 2}


def test_deadlock_initial_flags(deadlock_system):
    flags = classify(initial(deadlock_system), deadlock_system)
    assert flags == {"stable", "deadlock"}


def test_race_reaches_orphan(race_system):
    flagged = set()
    for c in reach(race_system, 1).configs:
        flagged |= classify(c, race_system)
    assert "orphan" in flagged


def test_fire_is_deterministically_ordered(commit_system):
    succ = fire(initial(commit_system), commit_system, 1)
    assert [str(a) for a, _ in succ] == ["AB!act", "AB!quit"]


def test_fire_respects_bound(commit_system):
    c = initial(commit_system)
    (_, c1), = [x for x in fire(c, commit_system, 1) if str(x[0]) == "AB!act"]
    # channel (A,B) is full at k=1: A cannot send again before B receives
    assert all(a.channel != ("A", "B") or a.op == "?"
               for a, _ in fire(c1, commit_system, 1))


def test_path_to_replays_through_fire(commit_system):
    rset = reach(commit_system, 2)
    for c in list(rset.configs)[::5]:
        cur = initial(commit_system)
        for a in rset.path_to(c):
            succ = dict(fire(cur, commit_system, 2))
            cur = succ[a]
        assert cur == c


def test_is_basic_verdicts(commit_system, race_system, remark_abc):
    for _, m in commit_system.machines:
        ok, reasons = is_basic(m)
        assert ok and not reasons
    ok, reasons = is_basic(race_system.machine("A"))
    assert not ok and any(r.startswith("not directed:") for r in reasons)


def test_is_basic_flags_nondeterminism_and_mixing():
    from mpst import Action, Machine
    nd = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "x"), "q1"),
        ("q0", Action("A", "B", "!", "x"), "q2"),
    ))
    ok, reasons = is_basic(nd)
    assert not ok and any(r.startswith("nondeterministic:") for r in reasons)
    mixed = Machine("A", "q0", (
        ("q0", Action("A", "B", "!", "x"), "q1"),
        ("q0", Action("B", "A", "?", "y"), "q2"),
    ))
    ok, reasons = is_basic(mixed)
    assert not ok and any(r.startswith("mixed state:") for r in reasons)


def test_traces_prefix_closed_and_match_oracle(commit_system):
    flat = trie_flatten(traces(commit_system, 2, 1))
    assert len(flat) == 7
    assert () in flat
    want = oracles.traces(encode(commit_system), 2, 1)
    assert {tuple(map(act_tuple, w)) for w in flat} == want


def test_traces_match_oracle_deeper(commit_system, buyer_seller):
    for s in [commit_system, buyer_seller]:
        flat = trie_flatten(traces(s, 6, 2))
        want = oracles.traces(encode(s), 6, 2)
        assert {tuple(map(act_tuple, w)) for w in flat} == want


def test_check_safety_commit(commit_system):
    for k in (1, 2, 3):
        rep = check_safety(commit_system, k)
        assert rep.ok and not rep.violations and rep.liveness is True
    j = rep.to_json()
    assert j["bound"] == 3 and j["violations"] == [] and j["liveness"] is True


def test_check_safety_uninformed(uninformed_system):
    rep = check_safety(uninformed_system, 1)
    assert not rep.violations
    assert rep.liveness is False
    assert not rep.ok
    assert rep.liveness_counterexample is not None


def test_check_safety_deadlock_reports_violation(deadlock_system):
    rep = check_safety(deadlock_system, 1)
    assert rep.violations
    kinds = {kind for kind, _, _ in rep.violations}
    assert kinds == {"deadlock"}
    assert rep.liveness is None  # no final configuration exists


def test_violation_paths_replay(remark_abc):
    rep = check_safety(remark_abc, 1)
    assert rep.violations
    for kind, path, cfg in rep.violations:
        cur = initial(remark_abc)
        for a in path:
            cur = dict(fire(cur, remark_abc, 1))[a]
        assert cur == cfg
        assert kind in classify(cfg, remark_abc)


def test_reach_cap_raises(monkeypatch, commit_system):
    monkeypatch.setenv("MPST_NODE_CAP", "5")
    with pytest.raises(ResourceLimit):
        reach(commit_system, 1)


def test_reach_explicit_cap(commit_system):
    with pytest.raises(ResourceLimit):
        reach(commit_system, 1, cap=10)


def test_check_safety_cap_matches_reach(monkeypatch, commit_system):
    # the same count trips the cap, with the same message, as in reach
    for cap in (1, 10, 29):
        with pytest.raises(ResourceLimit) as want:
            reach(commit_system, 1, cap=cap)
        with pytest.raises(ResourceLimit) as got:
            check_safety(commit_system, 1, cap=cap)
        assert str(got.value) == str(want.value) \
            == f"reachability set exceeded the node cap of {cap}"
    assert check_safety(commit_system, 1, cap=30).ok  # RS_1 has 30
    monkeypatch.setenv("MPST_NODE_CAP", "5")
    with pytest.raises(ResourceLimit) as want:
        reach(commit_system, 1)
    with pytest.raises(ResourceLimit) as got:
        check_safety(commit_system, 1, check_liveness=False)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("k", [0, -1])
def test_check_safety_rejects_bound_below_one(commit_system, k):
    with pytest.raises(ValueError, match="bound k must be >= 1"):
        check_safety(commit_system, k)
    with pytest.raises(ValueError, match="bound k must be >= 1"):
        reach(commit_system, k)


def test_dot_outputs_are_stable(commit_system):
    m = commit_system.machine("A")
    assert dot_machine(m) == dot_machine(m)
    assert "doublecircle" in dot_machine(m)
    assert dot_system(commit_system).count("digraph") >= 1
    r = reach(commit_system, 1)
    assert dot_reach(r) == dot_reach(r)


# --- the exploration kernel against the brute-force oracle -------------------

@st.composite
def small_systems(draw):
    """2-3 machines of at most 4 states over labels a/b, with any mix of
    sends and receives (not necessarily deterministic or connected)."""
    ps = ["A", "B", "C"][:draw(st.integers(2, 3))]
    machines = []
    for p in ps:
        states = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
        moves = draw(st.lists(st.tuples(
            st.sampled_from(states), st.sampled_from([q for q in ps if q != p]),
            st.sampled_from("!?"), st.sampled_from("ab"),
            st.sampled_from(states)), max_size=5))
        machines.append(Machine(p, "q0", tuple(
            (src, Action(p, q, "!", lbl) if op == "!" else Action(q, p, "?", lbl),
             dst)
            for src, q, op, lbl, dst in moves)))
    return make_system(machines)


def _distances(init, edges):
    succ = {}
    for a, _, b in edges:
        succ.setdefault(a, []).append(b)
    dist = {init: 0}
    frontier = [init]
    while frontier:
        nxt = []
        for x in frontier:
            for b in succ.get(x, ()):
                if b not in dist:
                    dist[b] = dist[x] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


def assert_kernel_agrees_with_oracle(s, k):
    enc = encode(s)
    rs = reach(s, k)
    oconfigs, oedges = oracles.rs(enc, k)
    assert len(rs.configs) == len(oconfigs)
    assert {as_tuple(c) for c in rs.configs} == oconfigs
    assert Counter((as_tuple(a), act_tuple(b), as_tuple(c))
                   for a, b, c in rs.edges) == Counter(oedges)
    # one object per configuration, shared by configs, edges and parents
    ids = {id(c) for c in rs.configs}
    assert rs.initial is rs.configs[0]
    assert all(id(a) in ids and id(b) in ids for a, _, b in rs.edges)
    assert all(id(c) in ids and (v is None or id(v[0]) in ids)
               for c, v in rs.parents.items())
    dist = _distances(oracles.initial_config(enc), oedges)
    oflags = {c: oracles.classify(enc, c) for c in oconfigs}
    for c in rs.configs:
        assert classify(c, s) == oflags[as_tuple(c)]
        # the witness is a shortest path, and fire replays it to c
        path = rs.path_to(c)
        assert len(path) == dist[as_tuple(c)]
        cur = {initial(s)}
        for a in path:
            cur = {c2 for c1 in cur for b, c2 in fire(c1, s, k) if b == a}
        assert c in cur
    rep = check_safety(s, k)
    assert {(kind, as_tuple(cfg)) for kind, _, cfg in rep.violations} \
        == {(f, c) for c, fl in oflags.items() for f in fl & BAD_FLAGS}
    # the report itself is pinned: configurations in BFS order, kinds sorted
    # within one, each with the shortest path reach gives
    assert list(rep.violations) == [
        (kind, rs.path_to(c), c) for c in rs.configs
        for kind in sorted(oflags[as_tuple(c)] & BAD_FLAGS)]
    assert check_safety(s, k, check_liveness=False) \
        == SafetyReport(k, rep.violations, None)
    finals = {c for c, fl in oflags.items() if "final" in fl}
    live = set(finals)
    changed = True
    while changed:
        changed = False
        for a, _, b in oedges:
            if b in live and a not in live:
                live.add(a)
                changed = True
    if not finals:
        assert rep.liveness is None
    else:
        assert rep.liveness == (live == oconfigs)
        dead = [c for c in rs.configs if as_tuple(c) not in live]
        assert rep.liveness_counterexample == (dead[0] if dead else None)


@settings(max_examples=120, deadline=None)
@given(small_systems(), st.integers(1, 3))
def test_kernel_agrees_with_brute_force(s, k):
    assert_kernel_agrees_with_oracle(s, k)


# --- RS_k sizes of the benchmark families, from their closed forms -----------

def _send(p, q, lbl):
    return Action(p, q, "!", lbl)


def _recv(p, q, lbl):
    return Action(p, q, "?", lbl)


def pairs(n):
    """n independent pairs: A_i sends x (loop) or y then z (loop) to B_i,
    and B_i mirrors A_i."""
    machines = []
    for i in range(n):
        a, b = f"A{i}", f"B{i}"
        for owner, act in ((a, _send), (b, _recv)):
            machines.append(Machine(owner, "q0", (
                ("q0", act(a, b, "x"), "q0"), ("q0", act(a, b, "y"), "q1"),
                ("q1", act(a, b, "z"), "q0"))))
    return make_system(machines)


def ring(n):
    """The machines of rec t. P0->P1:{go. P1->P2:go. ... P(n-1)->P0:ack. t,
    stop. P1->P2:stop. ... end}."""
    ps = [f"P{i}" for i in range(n)]
    machines = [Machine(ps[0], "q0", (
        ("q0", _send(ps[0], ps[1], "go"), "q1"),
        ("q1", _recv(ps[-1], ps[0], "ack"), "q0"),
        ("q0", _send(ps[0], ps[1], "stop"), "q2")))]
    for i, p in enumerate(ps[1:], 1):
        prv = ps[i - 1]
        go_on = (_send(p, ps[0], "ack") if i == n - 1
                 else _send(p, ps[i + 1], "go"))
        moves = [("q0", _recv(prv, p, "go"), "q1"), ("q1", go_on, "q0"),
                 ("q0", _recv(prv, p, "stop"), "q2")]
        if i < n - 1:
            moves.append(("q2", _send(p, ps[i + 1], "stop"), "q3"))
        machines.append(Machine(p, "q0", tuple(moves)))
    return make_system(machines)


def explored_sizes(s, k):
    """Keys and successor entries of the kernel that check_safety runs on,
    which does not go through reach."""
    keys, rows, parents = _explore(s, k, None)
    assert len(rows) == len(parents) == len(keys)
    return len(keys), sum(len(row) for row in rows) // 2


@pytest.mark.parametrize("k,c,e", [(1, 5, 6), (2, 10, 16), (3, 18, 32)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairs_reach_sizes_match_closed_form(n, k, c, e):
    rs = reach(pairs(n), k)
    assert (len(rs.configs), len(rs.edges)) == (c ** n, n * e * c ** (n - 1))
    assert explored_sizes(pairs(n), k) == (c ** n, n * e * c ** (n - 1))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 8])
def test_ring_reach_sizes_match_closed_form(n, k):
    # one message is in flight at a time, so RS_k is one cycle for every k
    rs = reach(ring(n), k)
    assert len(rs.configs) == len(rs.edges) == 4 * n - 2
    assert explored_sizes(ring(n), k) == (4 * n - 2, 4 * n - 2)
    assert check_safety(ring(n), k).ok
