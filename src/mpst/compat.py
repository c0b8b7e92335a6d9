"""Multiparty compatibility of communicating systems.

A system is multiparty compatible when, from every stable reachable
configuration, each machine's behaviour is matched by its context under the
alternating (send immediately followed by its receive) discipline: every
send eventually finds a context ready to accept all its labels, and every
label the context may send at a receiving machine is accepted by it.

The check walks each machine against the closure of its context under
atomic exchanges, visiting each (state, context) pair once, so it decides
compatibility in finite time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cfsm import _explore, is_basic
from .errors import NotBasic
from .syntax import Action, Machine, Participant, System


def dual(a: Action) -> Action:
    """The matching receive of a send and vice versa."""
    return Action(a.sender, a.receiver, "?" if a.op == "!" else "!", a.label)


@dataclass(frozen=True)
class CompatFailure:
    participant: Participant
    state: str
    kind: str  # "unhandled" | "uncovered" | "no_dual"
    message: str
    witness: Action | None
    path: tuple[Action, ...]

    def to_json(self) -> dict:
        return {"participant": self.participant, "state": self.state,
                "kind": self.kind, "message": self.message,
                "witness": str(self.witness) if self.witness else None,
                "path": [str(a) for a in self.path]}


@dataclass(frozen=True)
class CompatReport:
    compatible: bool
    failures: tuple[CompatFailure, ...]

    def __bool__(self) -> bool:
        return self.compatible

    def to_json(self) -> dict:
        return {"compatible": self.compatible,
                "failures": [f.to_json() for f in self.failures]}


def multiparty_compatible(s: System, allow_nonbasic: bool = False) -> CompatReport:
    """Decide multiparty compatibility over the 1-bounded reachability set.
    Raises NotBasic for a nondeterministic machine, and without
    allow_nonbasic for any machine that is not basic."""
    for p, m in s.machines:
        ok, reasons = is_basic(m)
        # is_basic lists the nondeterminism reasons first
        if not ok and (not allow_nonbasic
                       or reasons[0].startswith("nondeterministic")):
            raise NotBasic(f"{p}: {reasons[0]}")
    return _multiparty_compatible(s, _explore(s, 1, None)[0])


def _multiparty_compatible(s: System, keys: list) -> CompatReport:
    """`multiparty_compatible` of a system of deterministic machines, given
    the keys of its RS_1 (see `_explore`)."""
    ps = s.participants
    n = len(ps)
    ms = tuple(m for _, m in s.machines)
    failures: list[CompatFailure] = []
    closure_cache: dict = {}
    # the stable configurations of RS_1, keys whose buffers are all empty:
    # no two of them share their local states
    for key in keys:
        if any(key[n:]):
            continue
        for i, p in enumerate(ps):
            failures.extend(_walk(
                p, ms[i], key[i], ps[:i] + ps[i + 1:], ms[:i] + ms[i + 1:],
                key[:i] + key[i + 1:n], closure_cache))
    unique = []
    seen = set()
    for f in failures:
        fkey = (f.participant, f.state, f.kind, f.witness)
        if fkey not in seen:
            seen.add(fkey)
            unique.append(f)
    return CompatReport(not unique, tuple(unique))


def _exchanges(names: tuple[Participant, ...], machines: tuple[Machine, ...],
               states: tuple[str, ...], skip: Participant | None = None
               ) -> list[tuple[Action, tuple[str, ...]]]:
    """The matched exchanges from states, the local states of machines,
    which belong to the participants names: each send not addressed to
    skip, taken together with each receive of it by its receiver, as
    (send, states'), in participant order and then `Machine.outgoing`
    order."""
    out = []
    for i, (p, m) in enumerate(zip(names, machines)):
        for r, labels in m._sends(states[i]).items():
            if r == skip:
                continue
            j = names.index(r)
            accepts = machines[j]._receives(states[j]).get(p)
            if not accepts:
                continue
            for label, targets in labels.items():
                rtargets = accepts.get(label)
                if not rtargets:
                    continue
                send = Action(p, r, "!", label)
                for di in targets:
                    for dj in rtargets:
                        nxt = list(states)
                        nxt[i], nxt[j] = di, dj
                        out.append((send, tuple(nxt)))
    return out


def _closure(p: Participant, others: tuple[Participant, ...],
             ctx_machines: tuple[Machine, ...], ctx: tuple[str, ...],
             cache: dict) -> dict:
    """Contexts reachable from ctx by atomic exchanges not involving p,
    mapped to the shortest exchange path reaching them (discovery order).
    It keeps its own loop: on `_bfs`, with the paths rebuilt from parents,
    it was longer, and `multiparty_compatible` of ring(16) took 1.03-1.17x
    as long on a 2-core VM."""
    key = (p, ctx)
    if key in cache:
        return cache[key]
    out: dict[tuple[str, ...], tuple[Action, ...]] = {ctx: ()}
    dq = deque([ctx])
    while dq:
        cur = dq.popleft()
        for send, nxt in _exchanges(others, ctx_machines, cur, p):
            if nxt not in out:
                out[nxt] = out[cur] + (send, dual(send))
                dq.append(nxt)
    cache[key] = out
    return out


def _walk(p: Participant, m: Machine, q0: str,
          others: tuple[Participant, ...], ctx_machines: tuple[Machine, ...],
          ctx0: tuple[str, ...], closure_cache: dict) -> list[CompatFailure]:
    """Check p's machine m from state q0 against every context reachable
    from ctx0, the states of the other participants' machines.  It keeps
    its own loop: it records failures as it walks, and each step extends
    the path by a context path and an exchange, not by one label."""
    failures: list[CompatFailure] = []
    visited = {(q0, ctx0)}
    dq = deque([(q0, ctx0, ())])

    def push(q, ctx, path):
        if (q, ctx) not in visited:
            visited.add((q, ctx))
            dq.append((q, ctx, path))

    while dq:
        q, ctx, path = dq.popleft()
        sends, recvs = m._sends(q), m._receives(q)
        if not sends and not recvs:
            continue
        clo = _closure(p, others, ctx_machines, ctx, closure_cache)

        for r, labels in sends.items():
            ri = others.index(r)
            mr = ctx_machines[ri]
            best, best_cover = None, -1
            for ctx2, cpath in clo.items():
                J = mr._receives(ctx2[ri]).get(p, {})
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
            for lbl, targets in labels.items():
                nctx = list(ctx2)
                nctx[ri] = J[lbl][0]
                exchange = (Action(p, r, "!", lbl), Action(p, r, "?", lbl))
                for dst in targets:
                    push(dst, tuple(nctx), path + cpath + exchange)

        # the senders p reads from here: a message from any other one
        # waits in its buffer rather than being refused
        peers = [(ri, r, recvs[r]) for ri, r in enumerate(others)
                 if r in recvs]
        for ctx2, cpath in clo.items() if peers else ():
            for ri, r, accepted in peers:
                offers = ctx_machines[ri]._sends(ctx2[ri]).get(p)
                if not offers:
                    continue
                bad = sorted(offers.keys() - accepted.keys())
                if bad:
                    failures.append(CompatFailure(
                        p, q, "unhandled",
                        f"{r} may send {bad[0]} to {p}, which accepts "
                        f"only {sorted(accepted)} from {r} at state {q}",
                        Action(r, p, "!", bad[0]), path + cpath))
                for lbl, targets in offers.items():
                    if lbl in accepted:
                        a = Action(r, p, "!", lbl)
                        for dv in targets:
                            nctx = list(ctx2)
                            nctx[ri] = dv
                            push(accepted[lbl][0], tuple(nctx),
                                 path + cpath + (a, dual(a)))
        if not sends and not any(
                p in mr._sends(ctx2[ri])
                for ctx2 in clo for ri, mr in enumerate(ctx_machines)):
            failures.append(CompatFailure(
                p, q, "no_dual",
                f"{p} waits at state {q} but no reachable context "
                f"ever sends to {p}", None, path))
    return failures
