"""Graph-shaped session types: equation systems, nets, and synthesis."""
import gc
import time
import weakref

import pytest

from mpst import (Action, ChoiceOwnership, EndEq, GeneralGlobal, GeneralLocal,
                  GGChoice, Indir, LabelledNet, Machine, ParseError,
                  ResourceLimit, dot_net, gg_participants, gparticipants,
                  gproject, gsynthesize, gto_machine, is_safe, make_system,
                  mixed_parallel, multiparty_compatible, parse_gglobal,
                  parse_global, parse_glocal, parse_system, print_gglobal,
                  print_glocal, project, receiver_property, session_compatible,
                  synthesize, to_machine, to_petri, trace_equiv, traces,
                  trie_flatten, unique_sender)
from mpst import cfsm, compat, generalized, search, session
from mpst.search import _trie
from conftest import DATA, load
import oracles

DIAMOND = """
init x0;
x0 = x1 | x2;
x1 = A -> B : a ; x3;
x2 = A -> C : b ; x4;
x3 | x4 = x5;
x5 = end;
"""


def test_global_print_parse_roundtrip(data_transfer_type):
    txt = print_gglobal(data_transfer_type)
    assert parse_gglobal(txt) == data_transfer_type
    # equations come out sorted by their defined variable
    lines = txt.splitlines()
    assert lines[0] == "init x0;"
    assert lines[1] == "x0 = x1 | x2;"
    assert "x1 + x5 = x3;" in lines


def test_participants_are_collected(data_transfer_type):
    assert gg_participants(data_transfer_type) == ("A", "B", "C")


def test_validation_errors():
    with pytest.raises(ParseError, match="defined more than once"):
        parse_gglobal("init x0; x0 = end; x0 = end;")
    with pytest.raises(ParseError, match="cannot message itself"):
        parse_gglobal("init x0; x0 = A -> A : m ; x1; x1 = end;")
    with pytest.raises(ParseError, match="used but never defined"):
        parse_gglobal("init x0; x0 = A -> B : m ; x9;")
    with pytest.raises(ParseError, match="entry variable"):
        parse_gglobal("init x9; x0 = end;")


def test_a_system_built_in_code_has_no_position():
    for build, eqs in ((GeneralGlobal, (Indir("x0", "x1"),)),
                       (GeneralLocal, (EndEq("x0"), EndEq("x0")))):
        with pytest.raises(ParseError) as err:
            build("x0", eqs)
        assert (err.value.line, err.value.col) == (None, None)
        assert not str(err.value)[0].isdigit()


def test_projection_keeps_structure(data_transfer_type):
    la = gproject(data_transfer_type, "A")
    assert print_glocal(la) == load("data_transfer_a.glt")
    txt = print_glocal(la)
    assert "x4 = x5 (+) x6;" in txt        # the chooser sees (+)
    assert "x9 = x10;" in txt              # uninvolved exchange drops out
    assert parse_glocal(txt) == la


def test_projection_views_of_the_choice(data_transfer_type):
    lb = print_glocal(gproject(data_transfer_type, "B"))
    assert "x4 = x5 & x6;" in lb           # the hearer sees &
    assert "x3 = A ? data ; x4;" in lb
    assert "x2 = x8;" in lb
    lc = print_glocal(gproject(data_transfer_type, "C"))
    assert "x9 = B ? save ; x10;" in lc
    assert "x3 = x4;" in lc


def test_choice_needs_a_single_decider():
    g = parse_gglobal("init x0; x0 = x1 + x2; x1 = A -> B : a ; x3; "
                      "x2 = B -> A : b ; x4; x3 = end; x4 = end;")
    with pytest.raises(ChoiceOwnership, match="exactly one deciding sender"):
        gproject(g, "A")


def test_machine_translation_of_the_sender(data_transfer_type):
    m = gto_machine(gproject(data_transfer_type, "A"), "A")
    assert len(m.states) == 6
    counts = {}
    for _, a, _ in m.transitions:
        counts[str(a)] = counts.get(str(a), 0) + 1
    assert counts == {"AB!data": 4, "AC!log": 3, "AB!eof": 2}
    assert mixed_parallel(m)


def test_subset_construction_obeys_the_node_cap(monkeypatch):
    t = parse_glocal(load("data_transfer_a.glt"))
    monkeypatch.setenv("MPST_NODE_CAP", "2")
    with pytest.raises(ResourceLimit) as err:
        gto_machine(t, "A")
    assert str(err.value) == "subset construction exceeded the node cap of 2"
    monkeypatch.setenv("MPST_NODE_CAP", "6")
    assert len(gto_machine(t, "A").states) == 6


def test_a_local_system_that_messages_its_owner_is_a_value_error():
    # the parser accepts it: a local system does not name its owner
    t = parse_glocal("init x0; x0 = A ! a ; x1; x1 = end;")
    msg = "participant A cannot message itself"
    with pytest.raises(ValueError, match=msg):
        gto_machine(t, "A")
    with pytest.raises(ValueError, match=msg):
        traces({"A": t}, 3, 1)
    with pytest.raises(ValueError, match=msg):
        to_petri(t, "A")
    assert len(gto_machine(t, "B").states) == 2


def test_fork_of_two_sends_is_a_diamond():
    m = gto_machine(gproject(parse_gglobal(DIAMOND), "A"), "A")
    assert sorted((s, str(a), d) for s, a, d in m.transitions) == [
        ("s0", "AB!a", "s1"), ("s0", "AC!b", "s2"),
        ("s1", "AC!b", "s3"), ("s2", "AB!a", "s3")]


def test_net_of_the_global_system(data_transfer_type):
    net = to_petri(data_transfer_type)
    assert len(net.places) == 11 and len(net.transitions) == 10
    assert net.initial == "x0"
    labels = {t[1] for t in net.transitions if t[1]}
    assert labels == {"A->B:data", "A->B:eof", "A->C:log", "B->C:save"}
    assert sum(1 for t in net.transitions if len(t[3]) > 1) == 1  # fork
    assert sum(1 for t in net.transitions if len(t[2]) > 1) == 1  # join
    assert is_safe(net) == (True, None)
    assert "x0" in dot_net(net)


def test_net_of_a_local_system(data_transfer_type):
    net = to_petri(gproject(data_transfer_type, "A"), owner="A")
    labels = {t[1] for t in net.transitions if t[1]}
    assert labels == {"AB!data", "AB!eof", "AC!log"}


def test_unsafe_net_yields_a_marking():
    net = LabelledNet(("p0", "p1"),
                      (("t0", None, ("p0",), ("p0", "p1")),), "p0")
    ok, marking = is_safe(net)
    assert not ok and marking == {"p0": 1, "p1": 2}


def test_global_stepping(data_transfer_type):
    trie = traces(data_transfer_type, 2, 1)
    assert sorted(str(a) for a in trie) == ["AB!data", "AC!log"]
    after = {str(a): sub for a, sub in trie.items()}
    # A forked and can still log; channel (A, B) holds the data
    assert sorted(str(a) for a in after["AB!data"]) == ["AB?data", "AC!log"]


def test_local_family_stepping(data_transfer_type):
    fam = {p: gproject(data_transfer_type, p)
           for p in gg_participants(data_transfer_type)}
    assert {str(a) for a in traces(fam, 1, 1)} == {"AB!data",
                                                          "AC!log"}


def test_global_and_local_traces_agree(data_transfer_type):
    fam = {p: gproject(data_transfer_type, p)
           for p in gg_participants(data_transfer_type)}
    for k in (1, 2):
        tg = trie_flatten(traces(data_transfer_type, 6, k))
        tl = trie_flatten(traces(fam, 6, k))
        assert set(tg) == set(tl)


def test_local_family_and_its_machines_have_the_same_traces(
        data_transfer_type):
    # the machine systems that run a local family against the reference
    # stepping of its equation systems, form by form, in the local view
    ps = gg_participants(data_transfer_type)
    fam = {p: gproject(data_transfer_type, p) for p in ps}
    defs = {p: oracles.eq_defs(t.equations) for p, t in fam.items()}
    start = (tuple((fam[p].entry,) for p in ps),
             tuple(() for a in ps for b in ps if a != b))

    def step(c, k):
        return [(act, (holes, bufs)) for act, holes, bufs
                in oracles.gsteps(defs, ps, c[0], c[1], k, False)]

    for k in (1, 2):
        want = _trie(start, step, 6, k)
        assert len(trie_flatten(want)) > 6
        assert oracles.plain_trie(traces(fam, 6, k)) == want


def test_stepping_keeps_no_equation_system_alive():
    # the per-system map of definitions lives on the instance, so a type
    # nothing refers to any more is freed with it
    g = parse_gglobal(DIAMOND)
    fam = {p: gproject(g, p) for p in gg_participants(g)}
    assert traces(g, 2, 1)
    assert traces(fam, 2, 1)
    # the projections share g's hole table; g's own machines step it too
    for p in fam:
        assert gto_machine(fam[p], p) == gto_machine(g, p)
    refs = [weakref.ref(t) for t in (g, *fam.values())]
    del g, fam
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def fork_join(n: int, shared: bool = False) -> str:
    """The text of fj(n): n data*.eof loops in parallel under binary forks
    and joins, then end; loop i is sent to B<i> by A<i>, or by S for all
    loops when shared."""
    eqs = []
    names = (f"x{i}" for i in range(10 * n))

    def region(lo, hi):
        if hi - lo == 1:
            entry, head, dec, back, eof, out = (next(names) for _ in range(6))
            src = "S" if shared else f"A{lo}"
            eqs.extend([f"{entry} + {back} = {head};",
                        f"{head} = {src} -> B{lo} : data ; {dec};",
                        f"{dec} = {back} + {eof};",
                        f"{eof} = {src} -> B{lo} : eof ; {out};"])
            return entry, out
        mid = (lo + hi) // 2
        (l_in, l_out), (r_in, r_out) = region(lo, mid), region(mid, hi)
        entry, out = next(names), next(names)
        eqs.extend([f"{entry} = {l_in} | {r_in};",
                    f"{l_out} | {r_out} = {out};"])
        return entry, out

    entry, out = region(0, n)
    return f"init {entry};\n" + "\n".join(eqs) + f"\n{out} = end;\n"


def test_fork_join_traces_grow_with_the_actions_only():
    # each participant's closures are determinised into one machine state,
    # so a step is one successor per action, not one per hole multiset
    g2, g3 = (parse_gglobal(fork_join(n)) for n in (2, 3))
    for g in (g2, g3):
        ps = gg_participants(g)
        assert {p: len(gto_machine(gproject(g, p), p).states)
                for p in ps} == dict.fromkeys(ps, 3)
    assert len(trie_flatten(traces(g2, 6, 1))) - 1 == 274
    start = time.perf_counter()
    traces(g3, 4, 1)
    assert time.perf_counter() - start < 5
    s = make_system([gto_machine(gproject(g3, p), p)
                     for p in gg_participants(g3)])
    assert trace_equiv(gsynthesize(s), s, 6, 1) == (True, None)


def test_subset_construction_closes_each_subset_once(monkeypatch):
    # one closure for the start and one per machine transition, however
    # many hole multisets a subset holds; S interleaves the four loops
    calls = []
    closure = generalized._gclosure

    def counting(silent, seeds):
        calls.append(seeds)
        return closure(silent, seeds)

    monkeypatch.setattr(generalized, "_gclosure", counting)
    g = parse_gglobal(fork_join(4, shared=True))
    sizes = {}
    for p in gg_participants(g):
        calls.clear()
        m = gto_machine(gproject(g, p), p)
        assert len(calls) == len(m.transitions) + 1, p
        sizes[p] = (len(m.states), len(calls))
    assert sizes == {"S": (3 ** 4, 325),
                     **{f"B{i}": (3, 4) for i in range(4)}}


@pytest.mark.parametrize("shared", [True, False])
def test_each_hole_multiset_is_stepped_once_per_system(monkeypatch, shared):
    # the projections share g's table, so every participant's machine is
    # built on the multisets that the ones before it have stepped
    calls = []
    enabled = generalized._enabled

    def counting(index, ps):
        calls.append(ps)
        return enabled(index, ps)

    monkeypatch.setattr(generalized, "_enabled", counting)
    g = parse_gglobal(fork_join(4, shared))
    for p in gg_participants(g):
        gto_machine(gproject(g, p), p)
    assert len(calls) == len(set(calls)) == 1446


def test_deciding_senders_are_searched_once_per_choice(monkeypatch):
    # one search per choice and participant, however many projections
    searches = []
    bfs = generalized._bfs

    def counting(start, step, what):
        searches.append(what)
        return bfs(start, step, what)

    monkeypatch.setattr(generalized, "_bfs", counting)
    g = parse_gglobal(load("data_transfer.ggt"))
    ps = gg_participants(g)
    for p in ps * 2:
        gproject(g, p)
    choices = sum(isinstance(eq, GGChoice) for eq in g.equations)
    assert choices and searches == ["deciding-sender search"] * (
        choices * len(ps))


def test_mixed_parallel_rejects_noncommuting_actions():
    m = Machine("A", "q0", (("q0", Action("A", "B", "!", "x"), "q1"),
                            ("q0", Action("B", "A", "?", "y"), "q2")))
    assert not mixed_parallel(m)


def test_sender_and_receiver_properties(data_transfer_type, race_system,
                                        uninformed_system):
    s = make_system([gto_machine(gproject(data_transfer_type, p), p)
                     for p in gg_participants(data_transfer_type)])
    assert unique_sender(s)
    assert receiver_property(s)
    assert not unique_sender(race_system, require_compatible=False)
    assert not receiver_property(uninformed_system, require_compatible=False)


def test_session_compatibility_report(commit_system, data_transfer_type):
    s = make_system([gto_machine(gproject(data_transfer_type, p), p)
                     for p in gg_participants(data_transfer_type)])
    for sys in (commit_system, s):
        rep = session_compatible(sys)
        assert rep.ok
        assert [name for name, _, _ in rep.items] == [
            "deterministic", "multiparty_compatible", "mixed_parallel",
            "unique_sender", "receiver_property"]
        assert all(ok for _, ok, _ in rep.items)


def _machine(owner, *moves):
    """A .cfsm block from (src, sender, receiver, op, label, dst) moves."""
    body = "".join(f"{s} -- {p} {q} {op} {lbl} --> {d}; "
                   for s, p, q, op, lbl, d in moves)
    return f"machine {owner} {{ init q0; {body}}}\n"


def _pairs(n):
    """n independent looping pairs: A_i sends x (loop) or y then z to B_i,
    and B_i mirrors A_i."""
    text = ""
    for i in range(n):
        a, b = f"A{i}", f"B{i}"
        for owner, op in ((a, "!"), (b, "?")):
            text += _machine(owner, ("q0", a, b, op, "x", "q0"),
                             ("q0", a, b, op, "y", "q1"),
                             ("q1", a, b, op, "z", "q0"))
    return parse_system(text)


def _projected(text):
    g = parse_global(text)
    return make_system([to_machine(project(g, p), p)
                        for p in gparticipants(g)])


def _ring(n):
    """rec t. P0->P1:{go. P1->P2:go. ... P(n-1)->P0:ack. t,
    stop. P1->P2:stop. ... end}, projected."""
    go = "".join(f"P{i}->P{i + 1}:go. " for i in range(1, n - 1))
    stop = "".join(f"P{i}->P{i + 1}:stop. " for i in range(1, n - 1))
    return _projected(f"rec t. P0->P1:{{go. {go}P{n - 1}->P0:ack. t, "
                      f"stop. {stop}end}}")


def _indep(n):
    return _projected("".join(f"A{i}->B{i}:m. " for i in range(n)) + "end")


def _fork_join_loops():
    """Two data*.eof loops, A0 to B0 and A1 to B1, under a fork and a
    join."""
    eqs = ["init x0;", "x0 = x1 | x2;", "x7 | x14 = x15;", "x15 = end;"]
    for i, (entry, v) in enumerate((("x1", 3), ("x2", 10))):
        head, back, dec, eof, out = (f"x{v + j}" for j in range(5))
        eqs += [f"{entry} + {back} = {head};",
                f"{head} = A{i} -> B{i} : data ; {dec};",
                f"{dec} = {back} + {eof};",
                f"{eof} = A{i} -> B{i} : eof ; {out};"]
    g = parse_gglobal("\n".join(eqs))
    return make_system([gto_machine(gproject(g, p), p)
                        for p in gg_participants(g)])


FAMILIES = {**{f"pairs{n}": (lambda n=n: _pairs(n)) for n in (1, 2, 3)},
            **{f"ring{n}": (lambda n=n: _ring(n)) for n in (3, 4)},
            "indep3": lambda: _indep(3), "fj2": _fork_join_loops}
CORPUS = sorted(p.name for p in DATA.glob("*.cfsm"))


@pytest.mark.parametrize("name", CORPUS + sorted(FAMILIES))
def test_session_report_agrees_with_the_public_checks(name):
    s = (FAMILIES[name]() if name in FAMILIES
         else parse_system(load(name)))
    report = multiparty_compatible(s, allow_nonbasic=True)
    want = {"deterministic": True,
            "multiparty_compatible": report.compatible,
            "mixed_parallel": all(mixed_parallel(m) for _, m in s.machines)}
    if report:
        want["unique_sender"] = unique_sender(s, require_compatible=False)
        want["receiver_property"] = receiver_property(
            s, require_compatible=False)
    items = session_compatible(s).items
    assert {check: ok for check, ok, _ in items} == want
    assert items[1][2] == ("" if report else report.failures[0].message)


def test_session_compatible_explores_rs1_once(monkeypatch):
    calls = []

    def counting(s, k):
        calls.append(k)
        return cfsm._explore(s, k)

    monkeypatch.setattr(compat, "_explore", counting)
    monkeypatch.setattr(session, "_explore", counting)
    s = parse_system(load("commit.cfsm"))
    assert [ok for _, ok, _ in session_compatible(s).items] == [True] * 5
    assert calls == [1]
    # compatibility, synthesis and the synchronous execution read the same
    # RS_1, each call exploring it once
    for check in (multiparty_compatible, synthesize, gsynthesize):
        calls.clear()
        assert check(s)
        assert calls == [1], check.__name__


def test_receiver_property_searches_receiver_sets_once(monkeypatch):
    calls = []

    def counting(start, step, what):
        calls.append(what)
        return search._bfs(start, step, what)

    monkeypatch.setattr(session, "_bfs", counting)
    # three independent pairs: Ai sends Bi x (a loop), or y and then z, and
    # Bi mirrors it; RS_1 has a choice point wherever some Ai is at q0
    text = "".join(
        f"machine A{i} {{ init q0; q0 -- A{i} B{i} ! x --> q0;"
        f" q0 -- A{i} B{i} ! y --> q1; q1 -- A{i} B{i} ! z --> q0; }}\n"
        f"machine B{i} {{ init q0; q0 -- A{i} B{i} ? x --> q0;"
        f" q0 -- A{i} B{i} ? y --> q1; q1 -- A{i} B{i} ? z --> q0; }}\n"
        for i in range(3))
    assert receiver_property(parse_system(text))
    assert calls.count("receiver-set search") == 1


def test_general_synthesis_of_one_exchange():
    s = parse_system("machine A { init q0; q0 -- A B ! a --> q1; }\n"
                     "machine B { init q0; q0 -- A B ? a --> q1; }")
    assert print_gglobal(gsynthesize(s)) == \
        "init x0;\nx0 = A -> B : a ; x1;\nx1 = end;\n"


def test_general_synthesis_of_commit(commit_system):
    g = gsynthesize(commit_system)
    assert print_gglobal(g) == (
        "init x0;\n"
        "x0 = x6 + x7;\n"
        "x1 = B -> C : sig ; x3;\n"
        "x2 = B -> C : save ; x4;\n"
        "x3 = A -> C : commit ; x0;\n"
        "x4 = A -> C : finish ; x5;\n"
        "x5 = end;\n"
        "x6 = A -> B : act ; x1;\n"
        "x7 = A -> B : quit ; x2;\n")
    ok, w = trace_equiv(g, commit_system, 10, 1)
    assert ok, w


def test_general_synthesis_handles_forks(data_transfer_type):
    s = make_system([gto_machine(gproject(data_transfer_type, p), p)
                     for p in gg_participants(data_transfer_type)])
    g = gsynthesize(s)
    ok, w = trace_equiv(g, s, 10, 1)
    assert ok, w
