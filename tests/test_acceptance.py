"""End-to-end acceptance: one test (and one printed verdict line) per item."""
import random
import subprocess
import sys
import time

from mpst import (GBranch, GEnd, GRec, GVar, alpha_equiv, check_safety, dual,
                  gg_participants, gproject, gsynthesize, gto_machine,
                  is_basic, is_safe, isomorphic, make_system,
                  multiparty_compatible, parse_global, print_glocal, project,
                  project_config, synthesize, to_machine, to_petri,
                  trace_equiv, traces, trie_flatten, well_formed)
from conftest import DATA, load

LABELS = ["a", "b", "c", "d", "e", "f"]


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _gen_type(rng):
    parts = ["A", "B", "C", "D"][: rng.randint(2, 4)]
    budget = rng.randint(1, 6)
    var = "t" if rng.random() < 0.5 else None

    def exchange(b, var):
        src, dst = rng.sample(parts, 2)
        nb = 1 if b <= 1 or rng.random() < 0.6 else 2
        labels = sorted(rng.sample(LABELS, nb))
        share = (b - 1) // nb
        return GBranch(src, dst,
                       tuple((lbl, body(share, var)) for lbl in labels),
                       None)

    def body(b, var):
        if b <= 0:
            if var is not None and rng.random() < 0.5:
                return GVar(var)
            return GEnd()
        return exchange(b, var)

    core = exchange(budget, var)
    return GRec("t", core) if var else core


def _fuzz_globals(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _gen_type(rng)
        if well_formed(g).ok:
            out.append(g)
    return out


def _machine_traces(m, n):
    out = {()}
    frontier = [((), m.initial)]
    for _ in range(n):
        nxt = []
        for pre, q in frontier:
            for _, a, q2 in m.outgoing(q):
                w = pre + (a,)
                if w not in out:
                    out.add(w)
                    nxt.append((w, q2))
        frontier = nxt
    return out


def test_criterion_1_commit_round_trip(commit_type, commit_system):
    machines = make_system([to_machine(project(commit_type, p), p)
                            for p in ("A", "B", "C")])
    for (p, m), (_, ref) in zip(machines.machines, commit_system.machines):
        assert isomorphic(m, ref), f"translated {p} differs from reference"
    assert multiparty_compatible(machines).compatible
    g = synthesize(machines)
    assert alpha_equiv(g, commit_type)
    for k in (1, 2, 3):
        ok, w = trace_equiv(commit_type, g, 10, k)
        assert ok, f"k={k}: diverge at {w}"
    _verdict(1, True, "commit type round-trips through machines and back")


def test_criterion_2_remark_discrimination(remark_abc, remark_aprime):
    report = multiparty_compatible(remark_abc)
    assert not report.compatible
    assert any(str(f.witness) == "CA!d" for f in report.failures), \
        "expected a CA!d witness"
    assert multiparty_compatible(remark_aprime).compatible
    g = synthesize(remark_aprime)
    assert alpha_equiv(g, parse_global(load("remark_good.gt")))
    assert not well_formed(parse_global(load("remark_bad.gt"))).ok
    _verdict(2, True, "remark systems discriminated with a CA!d witness")


def test_criterion_3_projection_preserves_traces(commit_type):
    t0 = time.time()
    g2 = parse_global("A -> B : a. A -> C : b. end")
    flat = trie_flatten(traces(g2, 4, 1))
    complete = {"·".join(map(str, w)) for w in flat if len(w) == 4}
    assert complete == {
        "AB!a·AB?a·AC!b·AC?b",
        "AB!a·AC!b·AB?a·AC?b",
        "AB!a·AC!b·AC?b·AB?a",
    }, "wrong complete interleavings for the two-exchange type"
    for g in [commit_type, g2] + _fuzz_globals(200, 20260816):
        ok, w = trace_equiv(g, project_config(g), 8, 2)
        assert ok, f"{g}: diverge at {w}"
    took = time.time() - t0
    assert took < 60, f"fuzz batch took {took:.1f}s"
    _verdict(3, True, f"202 global types match their projected families "
                      f"({took:.1f}s)")


def test_criterion_4_compatible_systems_are_safe(commit_system,
                                                 remark_aprime,
                                                 buyer_seller):
    for name, s in [("commit", commit_system), ("remark", remark_aprime),
                    ("buyer_seller", buyer_seller)]:
        assert all(is_basic(m)[0] for _, m in s.machines)
        assert multiparty_compatible(s).compatible
        for k in (1, 2, 3):
            report = check_safety(s, k)
            assert report.violations == (), \
                f"{name} k={k}: {report.violations[0][0]}"
            assert report.liveness is not False, f"{name} k={k}: not live"
    _verdict(4, True, "compatible corpus systems are violation-free and "
                      "live for k=1,2,3")


def test_criterion_5_one_buffer_suffices(commit_system, remark_aprime,
                                         buyer_seller):
    for name, s in [("commit", commit_system), ("remark", remark_aprime),
                    ("buyer_seller", buyer_seller)]:
        g = synthesize(s)
        back = make_system([to_machine(project(g, p), p)
                            for p in s.participants])
        eq1, _ = trace_equiv(s, back, 10, 1)
        eq2, w2 = trace_equiv(s, back, 10, 2)
        eq3, w3 = trace_equiv(s, back, 10, 3)
        assert eq1, f"{name}: not even 1-bounded equivalent"
        assert eq2 and eq3, f"{name}: k=1 agreed but k=2/3 diverged " \
                            f"({w2 or w3})"
    _verdict(5, True, "1-bounded equivalence extends to k=2,3 on all "
                      "round-trips")


def test_criterion_6_binary_duality(buyer_seller):
    assert multiparty_compatible(buyer_seller).compatible
    (_, m1), (_, m2) = buyer_seller.machines
    tr1 = _machine_traces(m1, 12)
    tr2 = _machine_traces(m2, 12)
    assert tr1 == {tuple(dual(a) for a in w) for w in tr2}, \
        "buyer traces are not the dual image of seller traces"
    _verdict(6, True, "buyer and seller traces are dual images up to "
                      "length 12")


def test_criterion_7_generalized_tier(data_transfer_type):
    g = data_transfer_type
    la = gproject(g, "A")
    assert "x9 = x10;" in print_glocal(la), "missing indirection at x9"
    m = gto_machine(la, "A")
    counts = {}
    for _, a, _ in m.transitions:
        counts[str(a)] = counts.get(str(a), 0) + 1
    assert len(m.states) == 6 and counts == {"AB!data": 4, "AC!log": 3,
                                             "AB!eof": 2}
    net = to_petri(g)
    assert len(net.places) == 11
    assert sum(1 for t in net.transitions if len(t[3]) > 1) == 1
    assert sum(1 for t in net.transitions if len(t[2]) > 1) == 1
    t0 = time.time()
    ok, marking = is_safe(net)
    assert ok and time.time() - t0 < 1.0
    fam = {p: gproject(g, p) for p in gg_participants(g)}
    tg = set(trie_flatten(traces(g, 10, 1)))
    tl = set(trie_flatten(traces(fam, 10, 1)))
    assert tg == tl, "global and local graph traces differ at n=10"
    _verdict(7, True, "data-transfer graph projects, compiles to a safe "
                      "net, and runs consistently")


def test_criterion_8_generalized_compatibility(commit_system,
                                               data_transfer_type):
    from mpst import session_compatible
    dt = make_system([gto_machine(gproject(data_transfer_type, p), p)
                      for p in gg_participants(data_transfer_type)])
    for name, s in [("commit", commit_system), ("data-transfer", dt)]:
        rep = session_compatible(s)
        assert rep.ok, f"{name}: {[n for n, ok, _ in rep.items if not ok]}"
        gg = gsynthesize(s)
        ok, w = trace_equiv(gg, s, 10, 1)
        assert ok, f"{name}: synthesized graph diverges at {w}"
    _verdict(8, True, "both systems are session-compatible and "
                      "re-synthesize faithfully")


def test_criterion_9_cli_is_deterministic():
    d = str(DATA)
    commands = [
        ("parse", f"{d}/commit.gt"),
        ("parse", f"{d}/commit.cfsm"),
        ("parse", f"{d}/data_transfer.ggt"),
        ("project", f"{d}/commit.gt", "-p", "B"),
        ("wf", f"{d}/remark_bad.gt"),
        ("translate", f"{d}/commit_c.lt", "-p", "C"),
        ("translate", f"{d}/commit.cfsm"),
        ("compat", f"{d}/commit.cfsm"),
        ("compat", f"{d}/remark_abc.cfsm", "--json"),
        ("synth", f"{d}/buyer_seller.cfsm", "--verify", "8,2"),
        ("check", f"{d}/deadlock.cfsm", "--bound", "2"),
        ("check", f"{d}/race.cfsm", "--bound", "1"),
        ("check", f"{d}/commit.cfsm", "--bound", "3", "--liveness"),
        ("simulate", f"{d}/buyer_seller.cfsm", "--steps", "9",
         "--bound", "1"),
        ("gproject", f"{d}/data_transfer.ggt", "-p", "C"),
        ("gsynth", f"{d}/commit.cfsm"),
        ("session", f"{d}/uninformed.cfsm"),
        ("petri", f"{d}/data_transfer.ggt", "--dot"),
        ("dot", f"{d}/commit.cfsm"),
        ("dot", f"{d}/data_transfer.ggt"),
    ]
    for args in commands:
        runs = [subprocess.run(
                    [sys.executable, "-c",
                     "from mpst.cli import main; raise SystemExit(main())",
                     *args],
                    capture_output=True) for _ in range(2)]
        a, b = runs
        assert (a.returncode, a.stdout, a.stderr) == \
               (b.returncode, b.stdout, b.stderr), \
               f"nondeterministic output: {' '.join(args)}"
    _verdict(9, True, f"{len(commands)} CLI invocations byte-identical "
                      "across repeated runs")
