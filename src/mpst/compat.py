"""Multiparty compatibility of communicating systems.

A system is multiparty compatible when, from every stable reachable
configuration, each machine's behaviour is matched by its context under the
alternating (send immediately followed by its receive) discipline: every
send eventually finds a context ready to accept all its labels, and every
label the context may send at a receiving machine is accepted by it.

Such an exchange is a path of two edges in RS_1, a send from a stable
configuration followed by the receive of that message, so the exchanges
are read off the rows of `_explore(s, 1)` (`_exchange_graph`).  The check
walks each machine against the closure of its context under the exchanges
of the others, visiting each stable configuration once per participant, so
it decides compatibility in finite time.  Only the walked machine is asked
for its moves: every context is read off RS_1's rows, which hold what each
participant sends at a stable configuration and, in the exchanges, which
of those sends their receivers accept.  The synchronous execution that
synthesis walks is read off the same graph (`_synchronous`).
"""

from __future__ import annotations

from .cfsm import (_bfs, _explore, _nondeterminism, _peer, _stable, _states,
                   _table, is_basic)
from .errors import NotBasic
from .syntax import Action, Machine, Participant, System, _Record


def dual(a: Action) -> Action:
    """The matching receive of a send and vice versa."""
    return Action(a.sender, a.receiver, "?" if a.op == "!" else "!", a.label)


class CompatFailure(_Record):
    """kind is "unhandled", "uncovered" or "no_dual"; witness is an Action
    or None, path a tuple of Actions."""

    __slots__ = ("participant", "state", "kind", "message", "witness",
                 "path")

    def to_json(self) -> dict:
        return {"participant": self.participant, "state": self.state,
                "kind": self.kind, "message": self.message,
                "witness": str(self.witness) if self.witness else None,
                "path": [str(a) for a in self.path]}


class CompatReport(_Record):
    __slots__ = ("compatible", "failures")

    def __bool__(self) -> bool:
        return self.compatible

    def to_json(self) -> dict:
        return {"compatible": self.compatible,
                "failures": [f.to_json() for f in self.failures]}


def multiparty_compatible(s: System, allow_nonbasic: bool = False) -> CompatReport:
    """Decide multiparty compatibility over the 1-bounded reachability set.
    Raises NotBasic for a nondeterministic machine, and without
    allow_nonbasic for any machine that is not basic."""
    return _compatible(s, allow_nonbasic)[0]


def _compatible(s: System, allow_nonbasic: bool = False
                ) -> tuple[CompatReport, dict]:
    """`multiparty_compatible`, and the `_exchange_graph` it was decided on."""
    for p, m in s.machines:
        reasons = _nondeterminism(m) if allow_nonbasic else is_basic(m)[1]
        if reasons:
            raise NotBasic(f"{p}: {reasons[0]}")
    graph = _exchange_graph(s, *_explore(s, 1))
    return _multiparty_compatible(s, graph), graph


def _exchange_graph(s: System, keys: list, rows: list) -> dict:
    """The exchanges of RS_1, given its keys and rows (see `_explore`): the
    BFS index of each stable key mapped to its local states, its row's
    actions and its exchanges (send, receive, l), a send edge of its row
    followed by a receive edge of the row that the send leads to.  At k = 1
    a stable key's row holds every send of every participant and no
    receive.  l is stable again: after a send only its channel is
    non-empty, so every receive there takes that message.  No two stable
    keys share their local states."""
    t = _table(s, 1)
    return {i: (_states(t, key), rows[i][::2],
                [(a, b, l) for a, j in zip(rows[i][::2], rows[i][1::2])
                 for b, l in zip(rows[j][::2], rows[j][1::2]) if b.op == "?"])
            for i, key in enumerate(keys) if _stable(t, key)}


def _multiparty_compatible(s: System, graph: dict) -> CompatReport:
    """`multiparty_compatible` of a system of deterministic machines, given
    its `_exchange_graph`: a walk of each participant from each node that
    no earlier walk of that participant took.  What a walk checks and
    pushes at a node depends only on the participant and the node, and a
    node an earlier walk took leads only to nodes it took, so skipping
    those nodes drops only repeats of failures already reported."""
    first: dict = {}  # each failure's first report
    visited = [set() for _ in s.machines]  # the nodes each participant took
    for i in graph:
        for pi, (p, m) in enumerate(s.machines):
            for f in _walk(p, pi, m, i, graph, visited[pi]):
                key = (f.participant, f.state, f.kind, f.witness)
                first.setdefault(key, f)
    return CompatReport(not first, tuple(first.values()))


def _synchronous(graph: dict) -> tuple[list, list]:
    """The synchronous execution: `_bfs` from the initial local states over
    the sorted (send, local states') of each node's exchanges in graph, an
    `_exchange_graph`, whose nodes it numbers in BFS order."""
    index = {states: i for i, (states, _, _) in graph.items()}
    return _bfs(graph[0][0], lambda states: sorted(
        (a, graph[l][0]) for a, _, l in graph[index[states]][2]),
        "synchronous execution")


def _closure(p: Participant, i: int, graph: dict) -> dict:
    """The nodes of graph reachable from node i by exchanges not involving
    p, mapped to the shortest path of (send, receive) edges reaching them
    (discovery order).  It keeps its own loop: on `_bfs`, with the paths
    rebuilt from parents, it was longer and slower."""
    out = {i: ()}
    todo = [i]
    for cur in todo:
        for a, b, l in graph[cur][2]:
            if p not in a.channel and l not in out:
                out[l] = out[cur] + (a, b)
                todo.append(l)
    return out


def _walk(p: Participant, pi: int, m: Machine, i0: int, graph: dict,
          visited: set) -> list[CompatFailure]:
    """Check p's machine m, the pi-th of the system, from node i0 of graph,
    an `_exchange_graph`, against every context reachable from there,
    entering no node of visited and adding each node it enters.  m gives
    only p's moves; the context is read off graph.  A send of p to r is
    uncovered when no closure node has an exchange on (p, r) of each of its
    labels; a send to p is unhandled when p reads from its sender but
    refuses its label; a receiving p has no dual when no closure node has a
    send to p.  It keeps its own loop: it records failures as it walks,
    and each step extends the path by a context path and an exchange, not
    by one label."""
    failures: list[CompatFailure] = []
    todo: list = []  # the BFS queue, walked while it grows

    def push(i, path):
        if i not in visited:
            visited.add(i)
            todo.append((i, path))

    push(i0, ())
    for i, path in todo:
        q = graph[i][0][pi]
        sends, recvs = moves = ({}, {})  # labels by receiver, by sender
        for _, a, _ in m.outgoing(q):
            moves[a.op == "?"].setdefault(_peer(a), set()).add(a.label)
        if not sends and not recvs:
            continue
        clo = _closure(p, i, graph)

        for r, labels in sends.items():
            best, best_cover = None, -1
            for i2, cpath in clo.items():
                got = {a.label for a, _, _ in graph[i2][2]
                       if a.channel == (p, r)}
                if len(got) == len(labels):
                    break
                if len(got) > best_cover:
                    best, best_cover = (cpath, got), len(got)
            else:
                cpath, got = best
                missing = sorted(labels - got)
                failures.append(CompatFailure(
                    p, q, "uncovered",
                    f"{p} offers {sorted(labels)} to {r} but no reachable "
                    f"context of {r} accepts {missing}",
                    Action(p, r, "!", missing[0]), path + cpath))
                continue
            for a, b, l in graph[i2][2]:
                if a.channel == (p, r):
                    push(l, path + cpath + (a, b))

        # the senders p reads from here: a message from any other one
        # waits in its buffer rather than being refused
        for i2, cpath in clo.items() if recvs else ():
            refused: dict = {}  # sender: its least refused label, as the
            for a in graph[i2][1]:  # row is in participant, then label, order
                if (a.receiver == p and a.sender in recvs
                        and a.label not in recvs[a.sender]):
                    refused.setdefault(a.sender, a.label)
            for r, x in refused.items():
                failures.append(CompatFailure(
                    p, q, "unhandled",
                    f"{r} may send {x} to {p}, which accepts "
                    f"only {sorted(recvs[r])} from {r} at state {q}",
                    Action(r, p, "!", x), path + cpath))
            for a, b, l in graph[i2][2]:
                if a.receiver == p:
                    push(l, path + cpath + (a, b))
        if not sends and not any(a.receiver == p
                                 for i2 in clo for a in graph[i2][1]):
            failures.append(CompatFailure(
                p, q, "no_dual",
                f"{p} waits at state {q} but no reachable context "
                f"ever sends to {p}", None, path))
    return failures
