"""Session compatibility of machine systems, and synthesis of a global
equation system from them.

The checks of generalised multiparty compatibility that hold beyond basic
machines: determinism, multiparty compatibility (`compat`), commuting
mixed states, unique deciders for races and informable receivers, the
last two read off RS_k (`cfsm._explore`).  A session-compatible system's
synchronous execution, read off the same RS_1, is fused into an equation
system of `generalized`.
"""

from __future__ import annotations

from .cfsm import _explore, _states, _table
from .compat import (_exchange_graph, _multiparty_compatible, _synchronous,
                     dual, multiparty_compatible)
from .errors import NotCompatible, NotSessionCompatible, SynthesisFailure
from .generalized import EndEq, GGChoice, GGMsg, GeneralGlobal, Merge
from .search import _bfs, _can_reach, _nondeterminism, _parents, _path, _preds
from .syntax import Action, Machine, Participant, System, _Record


# --------------------------------------------------------------------------
# Session compatibility for systems of (possibly non-basic) machines

def _moves(m: Machine, q: str, op: str) -> list[tuple[Action, str]]:
    """The sends (op "!") or receives (op "?") of m at q as (action,
    target) pairs, one per target, in `Machine.outgoing` order."""
    return [(a, d) for _, a, d in m.outgoing(q) if a.op == op]


def _targets(m: Machine, q: str, a: Action) -> tuple[str, ...]:
    """The states m reaches from q by a."""
    return tuple(d for _, b, d in m.outgoing(q) if b == a)


def _commute(m: Machine, a1: Action, d1: str, a2: Action, d2: str) -> bool:
    """Moves a1 to d1 and a2 to d2 from one state of m commute: some state
    follows both a1 then a2 and a2 then a1."""
    return not set(_targets(m, d1, a2)).isdisjoint(_targets(m, d2, a1))


def mixed_parallel(m: Machine) -> bool:
    """Sends and receives available together always commute."""
    return all(_commute(m, a1, d1, a2, d2) for q in sorted(m.states)
               for a1, d1 in _moves(m, q, "!")
               for a2, d2 in _moves(m, q, "?"))


def _require_compat(s: System) -> None:
    report = multiparty_compatible(s, allow_nonbasic=True)
    if not report:
        raise NotCompatible("system is not multiparty compatible: "
                            + report.failures[0].message)


def _local_states(s: System, k: int, keys: list) -> list[tuple[str, ...]]:
    """The local states of each key of `_explore(s, k)`."""
    t = _table(s, k)
    return [_states(t, key) for key in keys]


def receiver_property(s: System, k: int = 1,
                      require_compatible: bool = True) -> bool:
    """After any internal choice, some common set of receivers can be
    informed of the chosen branch no matter how execution proceeds."""
    if require_compatible:
        _require_compat(s)
    keys, rows = _explore(s, k)
    return _receiver_property(s, _local_states(s, k, keys), rows)


def _receiver_property(s: System, states: list, rows: list) -> bool:
    """`receiver_property` over the local states and rows of RS_k (see
    `_explore` and `_local_states`); it never reads the buffers."""
    # each participant's sends from each of its states, one per target
    sends = [{q: [a for a, _ in _moves(m, q, "!")] for q in m.states}
             for _, m in s.machines]
    choices = []  # the branch successors of every choice point
    for qs, row in zip(states, rows):
        for sends_at, q in zip(sends, qs):
            acts = sends_at[q]
            if len(acts) < 2:
                continue
            succs = dict(zip(row[::2], row[1::2]))
            if any(a not in succs for a in acts):
                continue  # the choice is blocked here, judged elsewhere
            choices.append([succs[a] for a in acts])
    families = _complete_receiver_sets(
        rows, sorted({c for branches in choices for c in branches}))
    return all(frozenset.intersection(*(families[c] for c in branches))
               for branches in choices)


def _complete_receiver_sets(rs_rows: list, starts: list) -> dict:
    """For each configuration c of starts, the receiver sets that cannot
    grow any further from some reachable point after c, along the RS_k
    successor rows rs_rows (see `_explore`).  One `_bfs` over
    (configuration, receivers so far), from a root None that leads to
    each (c, {}), serves every start.  Sets only grow along edges, so a
    node can grow exactly when it can reach an edge that grows its set."""

    def step(node):
        if node is None:
            return [(None, (c, frozenset())) for c in starts]
        i, r = node
        row = rs_rows[i]
        return [(act, (j, r | {act.receiver} if act.op == "?" else r))
                for act, j in zip(row[::2], row[1::2])]

    nodes, rows = _bfs(None, step, "receiver-set search")
    preds = _preds(rows)
    # the root counts as growing: its None differs from each start's set
    sets = [None] + [r for _, r in nodes[1:]]
    grows = _can_reach(preds, [n for n, row in enumerate(rows)
                               if any(sets[m] != sets[n] for m in row[1::2])])
    complete: dict[frozenset, list[int]] = {}  # the nodes holding each set
    for n, r in enumerate(sets):
        if not grows[n]:
            complete.setdefault(r, []).append(n)
    reaches = [(r, _can_reach(preds, held)) for r, held in complete.items()]
    return {c: frozenset(r for r, marks in reaches if marks[n])
            for c, n in zip(starts, rows[0][1::2])}


def unique_sender(s: System, k: int = 1,
                  require_compatible: bool = True) -> bool:
    """Races between non-commuting receives at one machine are always
    decided by a single participant."""
    if require_compatible:
        _require_compat(s)
    keys, rows = _explore(s, k)
    return _unique_sender(s, _local_states(s, k, keys), rows)


def _unique_sender(s: System, states: list, rows: list) -> bool:
    """`unique_sender` over the local states and rows of RS_k (see
    `_explore` and `_local_states`); it never reads the buffers, and
    builds the BFS tree (`_parents`) only for a race it has to judge."""
    by_act: dict[Action, list[tuple[int, int]]] = {}  # edges in BFS order
    for c, row in enumerate(rows):
        for act, c2 in zip(row[::2], row[1::2]):
            by_act.setdefault(act, []).append((c, c2))
    preds = _preds(rows)
    parents = None

    for i, (_, m) in enumerate(s.machines):
        for q in sorted(m.states):
            recvs = _moves(m, q, "?")
            for x in range(len(recvs)):
                for y in range(x + 1, len(recvs)):
                    (a1, d1), (a2, d2) = recvs[x], recvs[y]
                    # commuting receives are not a race
                    if a1 == a2 or _commute(m, a1, d1, a2, d2):
                        continue
                    inst1 = [(c, c2) for c, c2 in by_act.get(a1, ())
                             if states[c][i] == q]
                    inst2 = [(c, c2) for c, c2 in by_act.get(a2, ())
                             if states[c][i] == q]
                    if not inst1 or not inst2:
                        continue
                    # receives one of which can still follow the other are
                    # ordered, not raced
                    reach2 = _can_reach(preds, {c for c, _ in inst2})
                    reach1 = _can_reach(preds, {c for c, _ in inst1})
                    if any(reach2[c2] for _, c2 in inst1) \
                            or any(reach1[c2] for _, c2 in inst2):
                        continue
                    if parents is None:
                        parents = _parents(rows)
                    phi1, phi2, div = _best_witnesses(parents, inst1, inst2,
                                                      a1, a2)
                    s1 = _decider(phi1[div:])
                    s2 = _decider(phi2[div:])
                    if not (len(s1) == 1 and s1 == s2):
                        return False
    return True


def _best_witnesses(parents, inst1, inst2, a1, a2):
    """Shortest executions reaching each receive, maximising their common
    prefix; returns both with the divergence point."""
    paths1 = sorted(_path(parents, c) + (a1,) for c, _ in inst1)
    paths2 = sorted(_path(parents, c) + (a2,) for c, _ in inst2)
    best = None
    for w1 in paths1:
        for w2 in paths2:
            d = 0
            while d < len(w1) and d < len(w2) and w1[d] == w2[d]:
                d += 1
            if best is None or d > best[2]:
                best = (w1, w2, d)
    return best


def _decider(phi: tuple[Action, ...]) -> frozenset[Participant]:
    """Participants that could have decided the branch: senders in the
    causal chain of its last action with no earlier receive of theirs."""
    if not phi:
        return frozenset()
    chain = [phi[-1]]
    for u in reversed(phi[:-1]):
        if any(u == dual(v) or u.subject == v.subject for v in chain):
            chain.insert(0, u)
    out = set()
    for idx, t in enumerate(chain):
        if t.op == "!" and not any(
                v.op == "?" and v.subject == t.subject
                for v in chain[:idx]):
            out.add(t.subject)
    return frozenset(out)


class SessionReport(_Record):
    """items is a tuple of (check name, verdict, detail) triples."""

    __slots__ = ("ok", "items")

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"session_compatible": self.ok,
                "checks": [{"name": n, "ok": v, "detail": d}
                           for n, v, d in self.items]}


def session_compatible(s: System) -> SessionReport:
    """Deterministic machines, multiparty compatible, commuting mixed
    states, unique deciders for races, and informable receivers.  RS_1 is
    explored once, for all three checks that read it."""
    return _session(s)[0]


def _session(s: System) -> tuple[SessionReport, dict | None]:
    """`session_compatible`, and the `_exchange_graph` of RS_1 (None for a
    nondeterministic machine)."""
    nondet = next((f"{p}: {r}" for p, m in s.machines
                   for r in _nondeterminism(m)), None)
    if nondet:
        return SessionReport(False, (("deterministic", False, nondet),)), None
    keys, rows = _explore(s, 1)
    graph = _exchange_graph(s, keys, rows)
    report = _multiparty_compatible(s, graph)
    items = [("deterministic", True, ""),
             ("multiparty_compatible", report.compatible,
              "" if report else report.failures[0].message)]
    mp = all(mixed_parallel(m) for _, m in s.machines)
    items.append(("mixed_parallel", mp,
                  "" if mp else "a mixed state fails to commute"))
    if report:
        states = _local_states(s, 1, keys)
        us = _unique_sender(s, states, rows)
        items.append(("unique_sender", us,
                      "" if us else "a race has no unique decider"))
        rp = _receiver_property(s, states, rows)
        items.append(("receiver_property", rp,
                      "" if rp else "branches inform different receivers"))
    return SessionReport(all(v for _, v, _ in items) and len(items) == 5,
                         tuple(items)), graph


# --------------------------------------------------------------------------
# Synthesis of a general global type from a session-compatible system

def gsynthesize(s: System) -> GeneralGlobal:
    """Fuse the synchronous execution, read off RS_1, into a global
    equation system."""
    report, graph = _session(s)
    if not report:
        bad = next((n, d) for n, v, d in report.items if not v)
        raise NotSessionCompatible(f"{bad[0]} fails: {bad[1]}")
    # vertex x{i} is the i-th joint state found; edges are (i, action, j)
    nodes, rows = _synchronous(graph)
    outgoing = [[(u, a, v) for a, v in zip(row[::2], row[1::2])]
                for u, row in enumerate(rows)]
    edges = [e for outs in outgoing for e in outs]
    incoming: list[list] = [[] for _ in nodes]
    for e in edges:
        incoming[e[2]].append(e)
    counter = iter(range(len(nodes), len(nodes) + 4 * len(edges) + 4))
    eqs = []
    head_var: dict = {}
    # branching points: one head variable per outgoing edge, cascaded
    for u, outs in enumerate(outgoing):
        if len(outs) < 2:
            continue
        heads = []
        for e in outs:
            v = f"x{next(counter)}"
            head_var[e] = v
            heads.append(v)
        left = f"x{u}"
        while len(heads) > 2:
            aux = f"x{next(counter)}"
            eqs.append(GGChoice(left, heads[0], aux))
            left = aux
            heads = heads[1:]
        eqs.append(GGChoice(left, heads[0], heads[1]))
    # shared continuations: one entry variable per incoming edge, merged
    entry_var: dict = {}
    for v, ins in enumerate(incoming):
        if len(ins) < 2:
            continue
        tails = []
        for e in ins:
            w = f"x{next(counter)}"
            entry_var[e] = w
            tails.append(w)
        while len(tails) > 2:
            aux = f"x{next(counter)}"
            eqs.append(Merge(tails[0], tails[1], aux))
            tails = [aux] + tails[2:]
        eqs.append(Merge(tails[0], tails[1], f"x{v}"))
    for e in edges:
        u, a, v = e
        eqs.append(GGMsg(head_var.get(e, f"x{u}"), a.sender, a.receiver,
                         a.label, entry_var.get(e, f"x{v}")))
    for u, tup in enumerate(nodes):
        if not outgoing[u]:
            if not all(m.is_final(q) for (_, m), q in zip(s.machines, tup)):
                raise SynthesisFailure(
                    f"execution stops at {dict(zip(s.participants, tup))} "
                    f"with unfinished machines")
            eqs.append(EndEq(f"x{u}"))
    return GeneralGlobal("x0", tuple(eqs))
