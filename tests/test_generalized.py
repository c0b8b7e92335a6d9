"""Graph-shaped session types: equation systems, nets, and synthesis."""
import gc
import weakref

import pytest

from mpst import (Action, ChoiceOwnership, LabelledNet, Machine, ParseError,
                  ResourceLimit, dot_net, gg_participants, ginitial_global,
                  ginitial_local, gparticipants, gproject, gstep_global,
                  gstep_local, gsynthesize, gto_machine, gtraces_global,
                  gtraces_local, is_safe, make_system, mixed_parallel,
                  multiparty_compatible, parse_gglobal, parse_global,
                  parse_glocal, parse_system, print_gglobal, print_glocal,
                  project, receiver_property, session_compatible, to_machine,
                  to_petri, trace_equiv, traces, trie_flatten, unique_sender)
from mpst import cfsm, compat, generalized
from conftest import DATA, load

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
    c0 = ginitial_global(data_transfer_type)
    assert c0.holes == (("x0",), ("x0",), ("x0",))
    steps = gstep_global(data_transfer_type, c0, 1)
    assert sorted(str(a) for a, _ in steps) == ["AB!data", "AC!log", "AC!log"]
    after = dict((str(a), c) for a, c in steps)
    c1 = after["AB!data"]
    assert c1.holes[0] == ("x2", "x4")     # A forked, sent, and moved on
    assert c1.buffers[0] == ("data",)      # channel (A, B) holds the message


def test_local_family_stepping(data_transfer_type):
    fam = {p: gproject(data_transfer_type, p)
           for p in gg_participants(data_transfer_type)}
    c0 = ginitial_local(fam)
    steps = gstep_local(fam, c0, 1)
    assert {str(a) for a, _ in steps} == {"AB!data", "AC!log"}


def test_global_and_local_traces_agree(data_transfer_type):
    fam = {p: gproject(data_transfer_type, p)
           for p in gg_participants(data_transfer_type)}
    for k in (1, 2):
        tg = trie_flatten(gtraces_global(data_transfer_type, 6, k))
        tl = trie_flatten(gtraces_local(fam, 6, k))
        assert set(tg) == set(tl)


def test_local_family_and_its_machines_have_the_same_traces(
        data_transfer_type):
    # the buffer rule of stepped equation systems against the compiled one
    # of machine systems
    fam = {p: gproject(data_transfer_type, p)
           for p in gg_participants(data_transfer_type)}
    s = make_system([gto_machine(t, p) for p, t in fam.items()])
    for k in (1, 2):
        assert gtraces_local(fam, 6, k) == traces(s, 6, k)


def test_stepping_keeps_no_equation_system_alive():
    # the per-system map of definitions lives on the instance, so a type
    # nothing refers to any more is freed with it
    g = parse_gglobal(DIAMOND)
    fam = {p: gproject(g, p) for p in gg_participants(g)}
    assert gstep_global(g, ginitial_global(g), 1)
    assert gstep_local(fam, ginitial_local(fam), 1)
    refs = [weakref.ref(t) for t in (g, *fam.values())]
    del g, fam
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


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

    def counting(s, k, cap):
        calls.append(k)
        return cfsm._explore(s, k, cap)

    monkeypatch.setattr(compat, "_explore", counting)
    monkeypatch.setattr(generalized, "_explore", counting)
    s = parse_system(load("commit.cfsm"))
    assert [ok for _, ok, _ in session_compatible(s).items] == [True] * 5
    assert calls == [1]


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
