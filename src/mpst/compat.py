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
from .syntax import Action, Participant, System


def dual(a: Action) -> Action:
    """The matching receive of a send and vice versa."""
    return Action(a.sender, a.receiver, "?" if a.op == "!" else "!", a.label)


def is_alternation(trace) -> bool:
    """True when the trace is a sequence of send·matching-receive pairs."""
    if len(trace) % 2:
        return False
    for i in range(0, len(trace), 2):
        if trace[i].op != "!" or trace[i + 1] != dual(trace[i]):
            return False
    return True


def depends(t1: Action, t2: Action, phi) -> bool:
    """t1 enables t2 within the trace phi: t1 occurs before t2 and they are
    a matching send/receive pair or share a subject."""
    phi = tuple(phi)
    try:
        i = phi.index(t1)
    except ValueError:
        return False
    if t2 not in phi[i + 1:]:
        return False
    return t1 == dual(t2) or t1.subject == t2.subject


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
    """Decide multiparty compatibility over the 1-bounded reachability set."""
    for p, m in s.machines:
        ok, reasons = is_basic(m)
        if not ok:
            nondet = [r for r in reasons if r.startswith("nondeterministic")]
            if nondet:
                raise NotBasic(f"{p}: {nondet[0]}")
            if not allow_nonbasic:
                raise NotBasic(f"{p}: {reasons[0]}")
    ps = s.participants
    n = len(ps)
    failures: list[CompatFailure] = []
    closure_cache: dict = {}
    # the stable configurations of RS_1, keys whose buffers are all empty:
    # no two of them share their local states
    for key in _explore(s, 1, None)[0]:
        if any(key[n:]):
            continue
        states = key[:n]
        for i, p in enumerate(ps):
            others = tuple(x for x in ps if x != p)
            ctx = tuple(q for x, q in zip(ps, states) if x != p)
            failures.extend(
                _walk(s, p, states[i], others, ctx, closure_cache))
    unique = []
    keys = set()
    for f in failures:
        fkey = (f.participant, f.state, f.kind, f.witness)
        if fkey not in keys:
            keys.add(fkey)
            unique.append(f)
    return CompatReport(not unique, tuple(unique))


def _closure(s: System, p: Participant, others: tuple[Participant, ...],
             ctx: tuple[str, ...], cache: dict) -> dict:
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
        for ui, u in enumerate(others):
            for _, act, du in s.machine(u).outgoing(cur[ui]):
                if act.op != "!" or act.receiver == p:
                    continue
                vi = others.index(act.receiver)
                recv = dual(act)
                for _, act2, dv in s.machine(act.receiver).outgoing(cur[vi]):
                    if act2 == recv:
                        nxt = list(cur)
                        nxt[ui], nxt[vi] = du, dv
                        nxt = tuple(nxt)
                        if nxt not in out:
                            out[nxt] = out[cur] + (act, recv)
                            dq.append(nxt)
    cache[key] = out
    return out


def _walk(s: System, p: Participant, q0: str, others: tuple[Participant, ...],
          ctx0: tuple[str, ...], closure_cache: dict) -> list[CompatFailure]:
    """Check p's behaviour from state q0 against every reachable context.
    It keeps its own loop: it records failures as it walks, and each step
    extends the path by a context path and an exchange, not by one label."""
    m = s.machine(p)
    failures: list[CompatFailure] = []
    visited = {(q0, ctx0)}
    dq = deque([(q0, ctx0, ())])

    def push(q, ctx, path):
        if (q, ctx) not in visited:
            visited.add((q, ctx))
            dq.append((q, ctx, path))

    while dq:
        q, ctx, path = dq.popleft()
        outs = m.outgoing(q)
        if not outs:
            continue
        sends = [e for e in outs if e[1].op == "!"]
        recvs = [e for e in outs if e[1].op == "?"]
        clo = _closure(s, p, others, ctx, closure_cache)

        if sends:
            groups: dict[Participant, list] = {}
            for _, act, dst in sends:
                groups.setdefault(act.receiver, []).append((act.label, dst))
            for r in sorted(groups):
                labels = frozenset(lbl for lbl, _ in groups[r])
                ri = others.index(r)
                mr = s.machine(r)
                found = None
                best = None
                best_cover = -1
                for ctx2, cpath in clo.items():
                    J = {a.label for _, a, _ in mr.outgoing(ctx2[ri])
                         if a.op == "?" and a.sender == p}
                    if labels <= J:
                        found = (ctx2, cpath)
                        break
                    if len(labels & J) > best_cover:
                        best_cover = len(labels & J)
                        best = (ctx2, cpath, J)
                if found is None:
                    ctx2, cpath, J = best
                    missing = sorted(labels - J)
                    failures.append(CompatFailure(
                        p, q, "uncovered",
                        f"{p} offers {sorted(labels)} to {r} but no reachable "
                        f"context of {r} accepts {missing}",
                        Action(p, r, "!", missing[0]), path + cpath))
                    continue
                ctx2, cpath = found
                for lbl, dst in sorted(groups[r]):
                    recv = Action(p, r, "?", lbl)
                    tgt = [dv for _, a2, dv in mr.outgoing(ctx2[ri]) if a2 == recv]
                    nctx = list(ctx2)
                    nctx[ri] = tgt[0]
                    push(dst, tuple(nctx),
                         path + cpath + (Action(p, r, "!", lbl), recv))

        if recvs:
            recvmap: dict[Participant, dict[str, str]] = {}
            for _, act, dst in recvs:
                recvmap.setdefault(act.sender, {})[act.label] = dst
            for ctx2, cpath in clo.items():
                for ri, r in enumerate(others):
                    sendouts = [(a, dv) for _, a, dv in
                                s.machine(r).outgoing(ctx2[ri])
                                if a.op == "!" and a.receiver == p]
                    if not sendouts:
                        continue
                    accepted = recvmap.get(r)
                    if accepted is None:
                        # p is not reading this channel here; the message
                        # waits in its buffer rather than being refused
                        continue
                    bad = sorted({a.label for a, _ in sendouts}
                                 - set(accepted))
                    if bad:
                        have = (f"{sorted(accepted)} from {r}" if accepted
                                else f"nothing from {r}")
                        failures.append(CompatFailure(
                            p, q, "unhandled",
                            f"{r} may send {bad[0]} to {p}, which accepts "
                            f"only {have} at state {q}",
                            Action(r, p, "!", bad[0]), path + cpath))
                    for a, dv in sorted(sendouts):
                        if a.label in accepted:
                            nctx = list(ctx2)
                            nctx[ri] = dv
                            push(accepted[a.label], tuple(nctx),
                                 path + cpath + (a, dual(a)))
            if not sends:
                has_dual = any(
                    a.op == "!" and a.receiver == p
                    for ctx2 in clo
                    for ri in range(len(others))
                    for _, a, _ in s.machine(others[ri]).outgoing(ctx2[ri]))
                if not has_dual:
                    failures.append(CompatFailure(
                        p, q, "no_dual",
                        f"{p} waits at state {q} but no reachable context "
                        f"ever sends to {p}", None, path))
    return failures
