"""Equation systems against the form-by-form reference in oracles.py:
stepping of global systems and of their projections, subset construction,
and the labelled net with its safety verdict, on random small global
systems with forks, joins, choices and merges."""
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from mpst import (ChoiceOwnership, GConfig, ResourceLimit, gg_participants,
                  ginitial_global, ginitial_local, gproject, gstep_global,
                  gstep_local, gto_machine, is_safe, parse_gglobal, to_petri)

PARTS = ("A", "B", "C")
FORMS = ("end", "msg", "msg", "msg", "choice", "fork", "join", "merge",
         "indir")
EXPLORE = 60  # configurations stepped per system and reading

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


def _explore(c0, step, reference):
    """Step at most EXPLORE configurations breadth-first from c0 and check
    that every one has the steps of the reference, or that both pass the
    fork cap; returns the number of configurations that hit it."""
    seen, todo, limits = {c0}, [c0], 0
    while todo and len(seen) < EXPLORE:
        c = todo.pop(0)
        got = _outcome(lambda: [(_act(a), c2.holes, c2.buffers)
                                for a, c2 in step(c)], ResourceLimit)
        want = _outcome(lambda: reference(c.holes, c.buffers),
                        oracles.ForkCap)
        assert got == want, c
        if got == "limit":
            limits += 1
            continue
        for _, holes, buffers in got:
            c2 = GConfig(holes, buffers)
            if c2 not in seen:
                seen.add(c2)
                todo.append(c2)
    return limits


def _net(net):
    return net.places, net.transitions, net.initial


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(systems(), st.sampled_from([1, 2]))
@example(FORK_LOOP, 1)
@example(DIAMOND, 1)
def test_equation_systems_agree_with_the_reference(text, k):
    g = parse_gglobal(text)
    ps = gg_participants(g)
    try:
        fam = {p: gproject(g, p) for p in ps}
    except ChoiceOwnership:
        assume(False)
    assume(ps)
    defs = oracles.eq_defs(g.equations)
    _explore(ginitial_global(g), lambda c: gstep_global(g, c, k),
             lambda holes, bufs: oracles.gsteps(
                 {p: defs for p in ps}, ps, holes, bufs, k, True))
    local_defs = {p: oracles.eq_defs(t.equations) for p, t in fam.items()}
    _explore(ginitial_local(fam), lambda c: gstep_local(fam, c, k),
             lambda holes, bufs: oracles.gsteps(
                 local_defs, ps, holes, bufs, k, False))
    for p, t in fam.items():
        got = _outcome(lambda: {(s, _act(a), d) for s, a, d
                                in gto_machine(t, p).transitions},
                       ResourceLimit)
        want = _outcome(lambda: oracles.gmachine(local_defs[p], t.entry, p),
                        oracles.ForkCap)
        assert got == want, p
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
    defs = oracles.eq_defs(g.equations)
    ps = gg_participants(g)
    assert _explore(ginitial_global(g), lambda c: gstep_global(g, c, 2),
                    lambda holes, bufs: oracles.gsteps(
                        {p: defs for p in ps}, ps, holes, bufs, 2, True)) > 0
    assert is_safe(to_petri(parse_gglobal(DIAMOND))) == (True, None)
