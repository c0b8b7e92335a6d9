"""Configurations, bounded reachability, classification, safety."""
import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpst import (BAD_FLAGS, Action, Config, Machine, ReachSet,
                  ResourceLimit, SafetyReport, check_safety, classify,
                  dot_machine, dot_reach, dot_system, fire, initial,
                  is_basic, local_config, make_system, parse_local,
                  parse_system, reach, to_machine, traces, trie_flatten)
from mpst.cfsm import (_Table, _components, _config, _explore, _factors,
                       _key, _product_safety, _table)
from conftest import load
import mpst
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


def test_check_safety_cap_matches_reach(monkeypatch, commit_system):
    # the same count trips the cap, with the same message, as in reach,
    # with or without the liveness check
    for cap in (1, 5, 10, 29):
        monkeypatch.setenv("MPST_NODE_CAP", str(cap))
        with pytest.raises(ResourceLimit) as want:
            reach(commit_system, 1)
        for liveness in (True, False):
            with pytest.raises(ResourceLimit) as got:
                check_safety(commit_system, 1, check_liveness=liveness)
            assert str(got.value) == str(want.value) \
                == f"reachability set exceeded the node cap of {cap}"
    monkeypatch.setenv("MPST_NODE_CAP", "30")
    assert check_safety(commit_system, 1).ok  # RS_1 has 30


def _loops(n):
    """n independent loops: A_i sends x to B_i forever, B_i takes it."""
    return [Machine(p, "q0", (("q0", Action(a, b, op, "x"), "q0"),))
            for a, b in ((f"A{i}", f"B{i}") for i in range(n))
            for p, op in ((a, "!"), (b, "?"))]


def _capped_searches():
    """(search, public function, arguments[, id]) for every search the
    node cap bounds, each with an input on which it finds more than two
    nodes.  A row's id is its function's name, or its fourth field for a
    second input of the same function: the ids of `traces` of a global
    type, a local configuration and an equation system are traces_global,
    traces_local and gtraces_global."""
    s = mpst.parse_system(load("commit.cfsm"))
    g = mpst.parse_global(load("commit.gt"))
    t = mpst.project(g, "A")
    gg = mpst.parse_gglobal(load("data_transfer.ggt"))
    rs, trie = "reachability set", "trace trie"
    return [
        (rs, "reach", (s, 1)), (rs, "check_safety", (s, 1)),
        (rs, "multiparty_compatible", (s,)),
        (rs, "session_compatible", (s,)), (rs, "receiver_property", (s,)),
        (rs, "unique_sender", (s,)), (rs, "gsynthesize", (s,)),
        (trie, "traces", (s, 4, 1)),
        (trie, "traces", (g, 4, 1), "traces_global"),
        (trie, "trace_equiv", (g, s, 4, 1)),
        (trie, "verify_roundtrip", (s, g)),
        ("local type translation", "traces",
         (mpst.local_config({"A": t}), 4, 1), "traces_local"),
        ("local type translation", "to_machine", (t, "A")),
        ("subset construction", "gto_machine",
         (mpst.parse_glocal(load("data_transfer_a.glt")), "A")),
        ("subset construction", "traces", (gg, 4, 1), "gtraces_global"),
        ("deciding-sender search", "gproject", (gg, "A")),
        ("marking graph", "is_safe", (mpst.to_petri(gg),)),
        ("canonical renaming", "isomorphic",
         (s.machine("A"), s.machine("A"))),
        # two independent loops of two configurations each: every
        # component fits under the cap, their product does not
        (rs, "check_safety", (make_system(_loops(2)), 1),
         "check_safety-disconnected"),
    ]


@pytest.mark.parametrize("search,fn,args", [
    pytest.param(*row[:3], id=row[-1] if len(row) > 3 else row[1])
    for row in _capped_searches()])
def test_every_search_obeys_the_node_cap(monkeypatch, search, fn, args):
    monkeypatch.setenv("MPST_NODE_CAP", "2")
    with pytest.raises(ResourceLimit) as err:
        getattr(mpst, fn)(*args)
    assert str(err.value) == f"{search} exceeded the node cap of 2"


@pytest.mark.parametrize("k", [0, -1])
def test_check_safety_rejects_bound_below_one(commit_system, k):
    with pytest.raises(ValueError, match="bound k must be >= 1"):
        check_safety(commit_system, k)
    with pytest.raises(ValueError, match="bound k must be >= 1"):
        reach(commit_system, k)


def test_a_peer_without_a_machine_is_a_value_error():
    # `mpst translate` prints such one-machine systems; exploring one is a
    # usage error, not a crash
    t = parse_local("B!x. end")
    msg = "machine A talks to B, which has no machine in the system"
    with pytest.raises(ValueError, match=msg):
        traces(make_system([to_machine(t, "A")]), 3, 1)
    with pytest.raises(ValueError, match=msg):
        traces(local_config({"A": t}), 3, 1)


def test_a_move_parse_system_rejects_is_a_value_error():
    # machines built in the library skip the parser's checks: a self-channel
    # has no buffer, and a move of another participant would be explored as
    # if that participant made it
    def one_move(a):
        return make_system([Machine("A", "q0", (("q0", a, "q1"),)),
                            Machine("B", "q0", ())])

    selfie = one_move(Action("A", "A", "!", "a"))
    with pytest.raises(ValueError, match="machine A uses the self-channel AA"):
        check_safety(selfie, 1)
    borrowed = one_move(Action("B", "A", "!", "a"))
    for run in (lambda s: check_safety(s, 1), lambda s: traces(s, 3, 1)):
        with pytest.raises(ValueError,
                           match="machine A holds BA!a, an action of B"):
            run(borrowed)


@pytest.mark.parametrize("extra,k,msg", [
    ((("q0", Action("C", "C", "!", "a"), "q1"),), 1,
     "machine C uses the self-channel CC"),
    ((("q0", Action("C", "D", "!", "a"), "q1"),), 1,
     "machine C talks to D, which has no machine in the system"),
    ((("q0", Action("A0", "C", "!", "a"), "q1"),), 1,
     "machine C holds A0C!a, an action of A0"),
    ((), 0, "bound k must be >= 1"),
    ((), -1, "bound k must be >= 1"),
    ((("q0", Action("C", "C", "!", "a"), "q1"),), 0,
     "bound k must be >= 1"),
], ids=["self-channel", "no-machine", "borrowed", "k=0", "k=-1",
        "k=0-self-channel"])
def test_a_disconnected_system_is_checked_as_a_whole(extra, k, msg):
    # C, with the move extra, is a component of its own: the whole system
    # is checked first, with the messages of a connected one, and the
    # bound before the system
    s = make_system(_loops(2) + [Machine("C", "q0", extra)])
    with pytest.raises(ValueError, match=msg):
        check_safety(s, k)


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
    # one object per configuration, shared by configs and edges
    ids = {id(c) for c in rs.configs}
    assert rs.initial is rs.configs[0]
    assert all(id(a) in ids and id(b) in ids for a, _, b in rs.edges)
    oflags = {c: oracles.classify(enc, c) for c in oconfigs}
    for c in rs.configs:
        assert classify(c, s) == oflags[as_tuple(c)]
    rep = check_safety(s, k)
    # the report itself is pinned: configurations in BFS order, kinds sorted
    # within one
    assert [(kind, cfg) for kind, _, cfg in rep.violations] == [
        (kind, c) for c in rs.configs
        for kind in sorted(oflags[as_tuple(c)] & BAD_FLAGS)]
    # each witness is a shortest path, and fire replays it to its
    # configuration
    dist = _distances(oracles.initial_config(enc), oedges)
    for _, path, cfg in rep.violations:
        assert len(path) == dist[as_tuple(cfg)]
        cur = {initial(s)}
        for a in path:
            cur = {c2 for c1 in cur for b, c2 in fire(c1, s, k) if b == a}
        assert cfg in cur
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


@st.composite
def any_configs(draw, s):
    """A configuration of s that need not be reachable: any local state of
    each machine and up to three words on every channel, channels that no
    move uses included."""
    states = tuple(draw(st.sampled_from(sorted(m.states)))
                   for _, m in s.machines)
    buffers = tuple(tuple(draw(st.lists(st.sampled_from("ab"), max_size=3)))
                    for _ in s.channels)
    return Config(states, buffers)


@settings(max_examples=300, deadline=None)
@given(st.data(), small_systems(), st.sampled_from([None, 1, 2, 3]))
def test_fire_and_classify_agree_with_oracle_anywhere(data, s, k):
    # reachable configurations leave unused channels empty; these need not
    c = data.draw(any_configs(s))
    enc = encode(s)
    want = oracles.successors(enc, as_tuple(c), 4 if k is None else k)
    assert [(act_tuple(a), as_tuple(c2)) for a, c2 in fire(c, s, k)] == want
    assert classify(c, s) == oracles.classify(enc, as_tuple(c))


@settings(max_examples=300, deadline=None)
@given(st.data(), small_systems(), st.sampled_from([None, 1, 2, 3]))
def test_a_configuration_round_trips_through_its_key(data, s, k):
    # words on channels that no move uses, longer than k or of labels never
    # sent all get c a table of its own, in whose key they are kept
    c = data.draw(any_configs(s))
    t = _table(s, k, c)
    assert _config(t, _key(t, c)) == c


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
    keys, rows = _explore(s, k)
    assert len(rows) == len(keys)
    return len(keys), sum(len(row) for row in rows) // 2


@pytest.mark.parametrize("k,c,e", [(1, 5, 6), (2, 10, 16), (3, 18, 32)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairs_reach_sizes_match_closed_form(n, k, c, e):
    rs = reach(pairs(n), k)
    assert (len(rs.configs), len(rs.edges)) == (c ** n, n * e * c ** (n - 1))
    assert explored_sizes(pairs(n), k) == (c ** n, n * e * c ** (n - 1))


def test_reach_keeps_keys_and_decodes_configurations_on_use():
    # 4 independent pairs at k=2: 10,000 configurations, 64,000 edges.
    # The sizes are read without building a Config or an edge triple, so
    # the peak is about that of _explore's keys and rows (2.8 MB), not the
    # 11.4 MB of decoding every configuration
    s = pairs(4)
    tracemalloc.start()
    try:
        rs = reach(s, 2)
        sizes = len(rs.configs), len(rs.edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == (10 ** 4, 64 * 10 ** 3)
    assert peak < 5 * 2 ** 20


def test_reach_set_is_a_view_of_its_system_and_bound(monkeypatch):
    s = pairs(2)
    rs = reach(s, 2)
    assert rs == reach(s, 2) == ReachSet(s, 2) != reach(s, 1)
    assert hash(rs) == hash((s, 2))
    c = rs.configs[5]
    assert rs.configs[5] is c and rs.configs[-95] is c
    assert rs.configs[4:6] == [rs.configs[4], c] and c in rs.configs
    assert rs.initial is rs.configs[0] == initial(s)
    assert sum(1 for _ in rs.edges) == len(rs.edges) == 2 * 16 * 10
    # the graph of RS_k reads local states alone: it builds no Config
    monkeypatch.setattr(mpst.cfsm, "_config", None)
    assert dot_reach(reach(pairs(3), 2)).count(" -> ") == 3 * 16 * 100


@pytest.mark.parametrize("k,c", [(1, 5), (2, 10), (3, 18)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairs_are_decided_per_pair(monkeypatch, n, k, c):
    # pairs never reach a final configuration and have no violation, so
    # each pair's RS_k, c configurations, decides the c^n of the product;
    # the product's search is not run, and the cap still counts c^n
    s = pairs(n)
    assert len(_components(s)) == n
    monkeypatch.setattr(mpst.cfsm, "_product_safety",
                        lambda *args: pytest.fail("searched the product"))
    for live in (True, False):
        assert check_safety(s, k, live) == SafetyReport(k, (), None)
    for cap, blown in ((c ** n - 1, True), (c ** n, False)):
        monkeypatch.setenv("MPST_NODE_CAP", str(cap))
        if blown:
            with pytest.raises(ResourceLimit, match=f"node cap of {cap}$"):
                check_safety(s, k)
        else:
            check_safety(s, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_shared_sender_is_decided_per_branch(monkeypatch, k):
    # S of fj(2) runs its loops to B0 and B1 at once: its 9 states are the
    # product of two 3-state loops, so it is split into one factor per
    # branch; the branches' RS_k decide the product's, and the cap still
    # counts the product
    s = parse_system(load("fork2.cfsm"))
    parts = _components(s)
    assert [part.participants for part in parts] == [("B0", "S"), ("B1", "S")]
    assert [len(m.states) for part in parts for _, m in part.machines] == \
        [3, 3, 3, 3]
    size = len(_explore(s, k)[0])
    assert math.prod(len(_explore(part, k)[0]) for part in parts) == size
    monkeypatch.setattr(mpst.cfsm, "_product_safety",
                        lambda *args: pytest.fail("searched the product"))
    assert check_safety(s, k) == SafetyReport(k, (), True)
    monkeypatch.setenv("MPST_NODE_CAP", str(size - 1))
    with pytest.raises(ResourceLimit, match=f"node cap of {size - 1}$"):
        check_safety(s, k)


def _a_moves(init, moves):
    """A's machine from (source, peer, op, label, target) moves."""
    return Machine("A", init, tuple(
        (src, Action("A", q, op, x) if op == "!" else Action(q, "A", op, x),
         dst) for src, q, op, x, dst in moves))


@pytest.mark.parametrize("init,moves,classes", [
    # a directed machine is never split
    ("q0", [("q0", "B", "!", "a", "q1"), ("q1", "C", "?", "b", "q0")], None),
    # a to B, then b to C or c to C, interleaved: the product of 2 and 3
    # states
    ("p0", [(f"p{i}", "B", "!", "a", f"p{i + 3}") for i in range(3)]
     + [(f"p{3 * j}", "C", "!", x, f"p{3 * j + i}")
        for j in range(2) for x, i in (("b", 1), ("c", 2))], [{"B"}, {"C"}]),
    # a and b always enabled, on 2 states: each quotient has 1 state with
    # the same moves from both, but 2 states are not 1 x 1
    ("q0", [(q, p, "!", x, d) for q, d in (("q0", "q1"), ("q1", "q0"))
            for p, x in (("B", "a"), ("C", "b"))], None),
    # 4 states onto 2 x 2, but C?d loops only after B!a: the C quotient
    # state of q0 and q2 has different moves from each
    ("q2", [("q0", "C", "?", "d", "q0"), ("q0", "C", "?", "d", "q1"),
            ("q2", "B", "!", "a", "q0"), ("q2", "C", "?", "d", "q3"),
            ("q3", "B", "!", "a", "q1")], None),
], ids=["directed", "product", "too-few-states", "moves-differ"])
def test_a_machine_is_split_only_into_the_factors_of_a_product(init, moves,
                                                               classes):
    factors = _factors(_a_moves(init, moves))
    if classes is None:
        assert factors is None
    else:
        index, reps = factors
        assert [{p for p, i in index.items() if i == c}
                for c in range(len(reps))] == classes
        assert [len(set(rep.values())) for rep in reps] == [2, 3]


def test_a_product_with_an_unreachable_state_is_split():
    # the product case above, with a state u that no move reaches: the gate
    # and the quotients read only the states reachable from the initial one
    product = [(f"p{i}", "B", "!", "a", f"p{i + 3}") for i in range(3)] \
        + [(f"p{3 * j}", "C", "!", x, f"p{3 * j + i}")
           for j in range(2) for x, i in (("b", 1), ("c", 2))]
    a = _a_moves("p0", product + [("u", "B", "!", "a", "p0")])
    assert _factors(a) is not None
    s = make_system([a, Machine("B", "q0", (
        ("q0", Action("A", "B", "?", "a"), "q1"),)), Machine("C", "q0", (
            ("q0", Action("A", "C", "?", "b"), "q1"),
            ("q0", Action("A", "C", "?", "c"), "q1")))])
    assert [part.participants for part in _components(s)] == \
        [("A", "B"), ("A", "C")]
    for k in (1, 2):
        for live in (True, False):
            assert repr(check_safety(s, k, live)) == \
                repr(_product_safety(s, _table(s, k), live))


def test_a_deadlock_of_factors_is_found_in_the_product():
    # P, X and Y each interleave one send to the next with two receives
    # from the previous, so each is split in two factors.  Each of the
    # three components ends with a final sender and a waiting receiver:
    # stuck, not deadlocked.  The product is deadlocked, and only the
    # fall-back to its search on a stuck component reports it
    s = parse_system(load("triangle.cfsm"))
    parts = _components(s)
    assert [part.participants for part in parts] == \
        [("P", "X"), ("P", "Y"), ("X", "Y")]
    for live in (True, False):
        report = check_safety(s, 2, live)
        assert repr(report) == repr(_product_safety(s, _table(s, 2), live))
        assert [kind for kind, _, _ in report.violations] == ["deadlock"]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 8])
def test_ring_reach_sizes_match_closed_form(n, k):
    # one message is in flight at a time, so RS_k is one cycle for every k
    rs = reach(ring(n), k)
    assert len(rs.configs) == len(rs.edges) == 4 * n - 2
    assert explored_sizes(ring(n), k) == (4 * n - 2, 4 * n - 2)
    assert check_safety(ring(n), k).ok


@pytest.mark.parametrize("s,n,used,k,sizes", [
    (ring(16), 16, 16, 2, (62, 62)),
    (ring(32), 32, 32, 2, (126, 126)),
    (pairs(4), 8, 4, 2, (10 ** 4, 4 * 16 * 10 ** 3)),
], ids=["ring16", "ring32", "pairs4"])
def test_explored_keys_carry_only_the_channels_moves_use(s, n, used, k,
                                                         sizes):
    # ring(n) uses n of its n(n-1) channels and pairs(4) 4 of 56: only those
    # can ever fill, so only those have a field in the int key
    keys = _explore(s, k)[0]
    t = _table(s, k)
    assert len(t.chans) == len(t.fields) == used
    assert len(t.names) == n
    assert keys[0] == t.start
    assert explored_sizes(s, k) == sizes


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ring64_reach_size_matches_closed_form(k):
    # 64 participants: a key far wider than a machine word still steps by
    # adding deltas, and only the participant holding the message moves
    assert explored_sizes(ring(64), k) == (4 * 64 - 2, 4 * 64 - 2)
    assert check_safety(ring(64), k).ok


def test_words_are_interned_lazily():
    # A picks one of 40 labels and waits for B's ack: at k=6 a field holds
    # any of the 40^6 words as six 6-bit digits under a 3-bit length, and
    # only the 40 single labels and the empty word are ever reached
    labels = [f"l{i}" for i in range(40)]
    a = Machine("A", "q0", tuple(("q0", _send("A", "B", x), "q1")
                                 for x in labels)
                + (("q1", _recv("B", "A", "ack"), "q0"),))
    b = Machine("B", "q0", tuple(("q0", _recv("A", "B", x), "q1")
                                 for x in labels)
                + (("q1", _send("B", "A", "ack"), "q0"),))
    s = make_system([a, b])
    # the start, one configuration per label in flight, B after the
    # receive, and the ack in flight; each label is sent and received once
    assert explored_sizes(s, 6) == (len(labels) + 3, 2 * len(labels) + 2)
    assert check_safety(s, 6).ok
    t = _table(s, 6)
    _, mask, b, lsh, field_labels, _ = t.fields[t.chans.index(
        s.channels.index(("A", "B")))]
    assert (b, lsh, mask) == (6, 36, (1 << 39) - 1)
    assert field_labels == tuple(sorted(labels))


def test_a_huge_bound_costs_a_loop_free_system_little():
    # A sends x or y to B once, B takes either: at a bound of a million the
    # field is a million 1-bit digits under a 20-bit length, and no step
    # walks the words a field could hold
    s = make_system([
        Machine("A", "q0", (("q0", _send("A", "B", "x"), "q1"),
                            ("q0", _send("A", "B", "y"), "q1"))),
        Machine("B", "q0", (("q0", _recv("A", "B", "x"), "q1"),
                            ("q0", _recv("A", "B", "y"), "q1")))])
    rep = check_safety(s, 10 ** 6, check_liveness=True)
    assert rep.ok and not rep.violations and rep.liveness is True


def _loop():
    # A sends x or y to B forever; B takes only x
    return make_system([
        Machine("A", "q0", (("q0", _send("A", "B", "x"), "q0"),
                            ("q0", _send("A", "B", "y"), "q0"))),
        Machine("B", "q0", (("q0", _recv("A", "B", "x"), "q0"),))])


def test_a_key_is_a_function_of_the_configuration():
    # two tables meet the same words in opposite orders: a key holds the
    # word itself, so it does not depend on which word was met first
    s = _loop()
    words = [("y",), ("x",), ("x", "y"), ("y", "y", "x")]
    keys = []
    for order in (words, words[::-1]):
        t = _Table(s, 3)
        got = {w: _key(t, Config(("q0", "q0"), (w, ()))) for w in order}
        assert all(_config(t, key) == Config(("q0", "q0"), (w, ()))
                   for w, key in got.items())
        keys.append([got[w] for w in words])
    assert keys[0] == keys[1]


@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_fire_from_words_longer_than_the_bound_agrees_with_oracle(k):
    s = _loop()
    enc = encode(s)
    for word in [("x",) * 5, ("y", "x", "x", "y"), ("x", "y") * 3]:
        c = Config(("q0", "q0"), (word, ()))
        want = oracles.successors(enc, as_tuple(c), 9 if k is None else k)
        assert [(act_tuple(a), as_tuple(c2))
                for a, c2 in fire(c, s, k)] == want
        # again, once the first call has interned its words
        assert [(act_tuple(a), as_tuple(c2))
                for a, c2 in fire(c, s, k)] == want


def test_unbounded_firing_builds_few_tables():
    # without a bound, fire takes the least power of two above the longest
    # word, so a run that keeps sending compiles the system log2 times
    s = _loop()
    c = initial(s)
    for _ in range(64):
        c = next(c2 for a, c2 in fire(c, s) if a.label == "y")
    assert c.buffers[0] == ("y",) * 64
    assert sorted(s.__dict__["_tables"]) == [1, 2, 4, 8, 16, 32, 64]


def test_classify_with_labels_no_move_uses_agrees_with_oracle():
    # B takes only x: a z at the head of its channel is an unspecified
    # reception, and a w waits on a channel that no move uses
    s = _loop()
    enc = encode(s)
    for bufs in [(("z",), ()), (("x", "z"), ()), (("y",), ("w", "w")),
                 ((), ("w",)), (("z",) * 4, ())]:
        c = Config(("q0", "q0"), bufs)
        assert classify(c, s) == oracles.classify(enc, as_tuple(c))
        for k in (None, 1, 2, 3):
            want = oracles.successors(enc, as_tuple(c), 9 if k is None else k)
            assert [(act_tuple(a), as_tuple(c2))
                    for a, c2 in fire(c, s, k)] == want


def test_traces_local_from_words_longer_than_the_bound_agrees_with_oracle():
    from test_semantics import PAIRS2
    from mpst import parse_global, project_config, step_global
    g = parse_global(PAIRS2)
    for _ in range(3):  # three x's in flight from A0 to B0
        g = next(g2 for a, g2 in step_global(g, 3) if str(a) == "A0B0!x")
    c = project_config(g)
    assert max(map(len, c.buffers)) == 3
    for k in (1, 2, 3):
        want = mpst.search._trie((c.types, c.buffers), oracles.local_steps,
                                 4, k)
        assert oracles.plain_trie(traces(c, 4, k)) == want


def _bound_calls(k):
    s = mpst.parse_system(load("commit.cfsm"))
    g = mpst.parse_global(load("commit.gt"))
    gg = mpst.parse_gglobal(load("data_transfer.ggt"))
    fam = {p: mpst.gproject(gg, p) for p in mpst.gg_participants(gg)}
    # `traces` on each kind of view, named as in the node-cap table
    return {
        "fire": lambda: fire(initial(s), s, k),
        "step_global": lambda: mpst.step_global(g, k),
        "traces": lambda: traces(s, 4, k),
        "traces_global": lambda: traces(g, 4, k),
        "traces_local": lambda: traces(mpst.project_config(g), 4, k),
        "gtraces_global": lambda: traces(gg, 4, k),
        "gtraces_local": lambda: traces(fam, 4, k),
        "trace_equiv": lambda: mpst.trace_equiv(g, s, 4, k),
    }


@pytest.mark.parametrize("fn", list(_bound_calls(1)))
@pytest.mark.parametrize("k", [0, -1])
def test_every_trace_function_rejects_bound_below_one(fn, k):
    # with k = 0 no send is enabled, so each of these used to return a
    # vacuous trie, and trace_equiv an equivalence
    assert _bound_calls(1)[fn]()
    with pytest.raises(ValueError, match="bound k must be >= 1"):
        _bound_calls(k)[fn]()


def test_a_malformed_configuration_is_a_value_error(commit_system):
    s = commit_system
    c = initial(s)
    bad_state = Config(("q0", "q9", "q0"), c.buffers)
    for run in (lambda c: fire(c, s), lambda c: fire(c, s, 2),
                lambda c: classify(c, s)):
        with pytest.raises(ValueError, match="'q9' is not a state of B"):
            run(bad_state)
        for odd in (Config(c.states, c.buffers[:-1]),
                    Config(c.states, c.buffers + ((),)),
                    Config(c.states[:2], c.buffers)):
            with pytest.raises(ValueError, match="a configuration of 3 local "
                                                 "states and 6 buffers"):
                run(odd)
