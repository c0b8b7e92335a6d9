"""Translation between local types and communicating machines.

A local type denotes a machine whose states are the occurrences of its
send/receive/end constructors; recursion variables point back at the state
of their binder's body.  The reverse direction decompiles a basic machine
into a local type, introducing one recursion binder per loop entry.
"""

from __future__ import annotations

from .errors import NotBasic
from .syntax import (Action, LEnd, LRec, LRecv, LSend, LVar, Local, Machine,
                     Participant, alpha_canonical)
from .cfsm import _machine, _nondeterminism, is_basic


def to_machine(t: Local, owner: Participant) -> Machine:
    """Build the machine denoted by a closed, guarded local type; raises
    ValueError when the type messages owner itself."""
    # Each send/receive/end occurrence becomes a state keyed by its path in
    # the syntax tree; recursion variables resolve to the state of their
    # binder's unfolding target, which guardedness places strictly below.
    succ: dict[tuple, tuple[tuple[Action, tuple], ...]] = {}

    def denote(u: Local, path: tuple, env: dict[str, tuple]) -> tuple:
        pending = []
        while isinstance(u, LRec):
            pending.append(u.var)
            path = path + ("r",)
            u = u.body
        if isinstance(u, LVar):
            return env[u.var]
        env2 = dict(env)
        for v in pending:
            env2[v] = path
        if isinstance(u, LEnd):
            succ[path] = ()
            return path
        if u.peer == owner:
            raise ValueError(f"participant {owner} cannot message itself")
        if isinstance(u, LSend):
            mk = lambda lbl: Action(owner, u.peer, "!", lbl)
        else:
            mk = lambda lbl: Action(u.peer, owner, "?", lbl)
        edges = []
        for label, cont in u.branches:
            edges.append((mk(label), denote(cont, path + (label,), env2)))
        succ[path] = tuple(edges)
        return path

    init = denote(t, (), {})
    # Rename states q0, q1, ... in BFS order with action-sorted edges.
    return _machine(owner, init, lambda path: sorted(succ[path]),
                    "local type translation", "q")


def to_local(m: Machine) -> Local:
    """Decompile a basic machine into a local type (canonical binders)."""
    ok, reasons = is_basic(m)
    if not ok:
        raise NotBasic("machine is not basic: " + "; ".join(reasons))

    def walk(q: str, stack: tuple[str, ...]) -> tuple[Local, frozenset[str]]:
        """Return the type for q plus the loop states it refers back to."""
        if q in stack:
            return LVar(f"t_{q}"), frozenset({q})
        outs = m.outgoing(q)
        if not outs:
            return LEnd(), frozenset()
        branches = []
        refs: frozenset[str] = frozenset()
        for _, act, dst in sorted(outs, key=lambda e: e[1].label):
            sub, subrefs = walk(dst, stack + (q,))
            branches.append((act.label, sub))
            refs |= subrefs
        op = outs[0][1].op
        peer = outs[0][1].receiver if op == "!" else outs[0][1].sender
        body: Local = (LSend(peer, tuple(branches)) if op == "!"
                       else LRecv(peer, tuple(branches)))
        if q in refs:
            body = LRec(f"t_{q}", body)
            refs -= {q}
        return body, refs

    t, refs = walk(m.initial, ())
    assert not refs, "dangling recursion references"
    return alpha_canonical(t)


def isomorphic(m1: Machine, m2: Machine) -> bool:
    """Graph isomorphism for deterministic machines via canonical renaming."""
    return m1.owner == m2.owner and _canonical(m1) == _canonical(m2)


def _canonical(m: Machine) -> Machine:
    """m with its states renamed q0, q1, ... in BFS order."""
    if _nondeterminism(m):
        raise NotBasic("isomorphism requires deterministic machines")
    # the machine is deterministic, so (action, dst) pairs sort by action
    return _machine(m.owner, m.initial, lambda q: sorted(
        (act, dst) for _, act, dst in m.outgoing(q)),
        "canonical renaming", "q")
