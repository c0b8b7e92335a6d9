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
of the others, visiting each stable configuration once per walk, so it
decides compatibility in finite time.  The synchronous execution that
synthesis walks is read off the same graph (`_synchronous`).
"""

from __future__ import annotations

from .cfsm import (_bfs, _explore, _nondeterminism, _stable, _states, _table,
                   is_basic)
from .errors import NotBasic
from .syntax import Action, Participant, System, _Record


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
    BFS index of each stable key mapped to its local states and its
    exchanges (send, receive, l), a send edge of its row followed by a
    receive edge of the row that the send leads to.  l is stable again: on
    a stable key every edge is a send, and after it only the send's channel
    is non-empty, so every receive there takes that message.  No two
    stable keys share their local states."""
    t = _table(s, 1)
    return {i: (_states(t, key),
                [(a, b, l) for a, j in zip(rows[i][::2], rows[i][1::2])
                 for b, l in zip(rows[j][::2], rows[j][1::2]) if b.op == "?"])
            for i, key in enumerate(keys) if _stable(t, key)}


def _multiparty_compatible(s: System, graph: dict) -> CompatReport:
    """`multiparty_compatible` of a system of deterministic machines, given
    its `_exchange_graph`: a walk of each participant from each node."""
    ps, ms = s.participants, tuple(m for _, m in s.machines)
    first: dict = {}  # each failure's first report
    closure_cache: dict = {}
    fed_cache: dict = {}
    for i in graph:
        for pi in range(len(ms)):
            for f in _walk(ps, ms, pi, i, graph, closure_cache, fed_cache):
                key = (f.participant, f.state, f.kind, f.witness)
                first.setdefault(key, f)
    return CompatReport(not first, tuple(first.values()))


def _synchronous(graph: dict) -> tuple[list, list]:
    """The synchronous execution: `_bfs` from the initial local states over
    the sorted (send, local states') of each node's exchanges in graph, an
    `_exchange_graph`, whose nodes it numbers in BFS order."""
    index = {states: i for i, (states, _) in graph.items()}
    return _bfs(graph[0][0], lambda states: sorted(
        (a, graph[l][0]) for a, _, l in graph[index[states]][1]),
        "synchronous execution")


def _closure(p: Participant, i: int, graph: dict, cache: dict) -> dict:
    """The nodes of graph reachable from node i by exchanges not involving
    p, mapped to the shortest path of (send, receive) edges reaching them
    (discovery order).  It keeps its own loop: on `_bfs`, with the paths
    rebuilt from parents, it was longer and slower."""
    key = (p, i)
    out = cache.get(key)
    if out is None:
        out = cache[key] = {i: ()}
        todo = [i]
        for cur in todo:
            for a, b, l in graph[cur][1]:
                if p not in a.channel and l not in out:
                    out[l] = out[cur] + (a, b)
                    todo.append(l)
    return out


def _walk(ps: tuple[Participant, ...], ms: tuple, pi: int, i0: int,
          graph: dict, closure_cache: dict,
          fed_cache: dict) -> list[CompatFailure]:
    """Check participant ps[pi]'s machine ms[pi] from node i0 of graph, an
    `_exchange_graph`, against every context reachable from there.  It
    steps along graph's exchanges, and reads the failures off the
    machines' states.  Whether some context of a closure sends to p is
    decided once per closure and kept in fed_cache under the closure's key
    in closure_cache.  It keeps its own loop: it records failures as it
    walks, and each step extends the path by a context path and an
    exchange, not by one label."""
    p, m = ps[pi], ms[pi]
    failures: list[CompatFailure] = []
    visited = {i0}
    todo = [(i0, ())]  # the BFS queue, walked while it grows

    def push(i, path):
        if i not in visited:
            visited.add(i)
            todo.append((i, path))

    for i, path in todo:
        q = graph[i][0][pi]
        sends, recvs = m._sends(q), m._receives(q)
        if not sends and not recvs:
            continue
        clo = _closure(p, i, graph, closure_cache)

        for r, labels in sends.items():
            ri = ps.index(r)
            best, best_cover = None, -1
            for i2, cpath in clo.items():
                J = ms[ri]._receives(graph[i2][0][ri]).get(p, {})
                if labels.keys() <= J.keys():
                    break
                cover = len(labels.keys() & J.keys())
                if cover > best_cover:
                    best, best_cover = (cpath, J), cover
            else:
                cpath, J = best
                missing = sorted(labels.keys() - J.keys())
                failures.append(CompatFailure(
                    p, q, "uncovered",
                    f"{p} offers {sorted(labels)} to {r} but no reachable "
                    f"context of {r} accepts {missing}",
                    Action(p, r, "!", missing[0]), path + cpath))
                continue
            for a, b, l in graph[i2][1]:
                if a.channel == (p, r):
                    push(l, path + cpath + (a, b))

        # the senders p reads from here: a message from any other one
        # waits in its buffer rather than being refused
        peers = [(ri, r, recvs[r]) for ri, r in enumerate(ps) if r in recvs]
        for i2, cpath in clo.items() if peers else ():
            states = graph[i2][0]
            for ri, r, accepted in peers:
                offers = ms[ri]._sends(states[ri]).get(p, {})
                bad = sorted(offers.keys() - accepted.keys())
                if bad:
                    failures.append(CompatFailure(
                        p, q, "unhandled",
                        f"{r} may send {bad[0]} to {p}, which accepts "
                        f"only {sorted(accepted)} from {r} at state {q}",
                        Action(r, p, "!", bad[0]), path + cpath))
            for a, b, l in graph[i2][1]:
                if a.receiver == p:
                    push(l, path + cpath + (a, b))
        if sends:
            continue
        fed = fed_cache.get((p, i))
        if fed is None:
            fed = fed_cache[(p, i)] = any(
                p in mr._sends(q2) for i2 in clo
                for mr, q2 in zip(ms, graph[i2][0]))
        if not fed:
            failures.append(CompatFailure(
                p, q, "no_dual",
                f"{p} waits at state {q} but no reachable context "
                f"ever sends to {p}", None, path))
    return failures
