"""Synthesis of a global type from a compatible communicating system.

The synthesiser walks the synchronous execution of the system
(`compat._synchronous`), read off the RS_1 that its compatibility check
explored; the nodes are the stable control tuples.  At each node it picks
a sender/receiver pair with a matched exchange, emits it, and recurses
into every label.  Revisiting a node already on the stack closes a
recursion binder, provided every participant has either moved since that
frame or is finished; otherwise the node is expanded again, preferring
pairs that involve the left-out participants.
"""

from __future__ import annotations

from itertools import count

from .compat import _compatible, _synchronous
from .errors import NotCompatible, SynthesisFailure
from .projection import well_formed
from .semantics import trace_equiv
from .syntax import GBranch, GEnd, Global, GRec, GVar, System, alpha_canonical


def synthesize(s: System) -> Global:
    """Build a global type whose executions match the system's.

    Every label the sender offers on the chosen pair is a branch: the
    receiver's state accepts from the sender, so in a basic machine it
    receives from the sender only, and compatibility's "uncovered" check at
    this stable configuration has found that it accepts all those labels."""
    report, graph = _compatible(s)
    if not report:
        raise NotCompatible(
            "system is not multiparty compatible: "
            + report.failures[0].message)

    nodes, rows = _synchronous(graph)
    fresh = count()
    # a frame is [node, variable, exchange (sender, receiver), used]; the
    # participants moved since frame i are those of the exchanges of
    # frames i and above
    stack: list[list] = []
    snapshots: set[tuple] = set()

    def unfinished(u) -> set:
        return {p for (p, m), q in zip(s.machines, nodes[u]) if m.outgoing(q)}

    def emit(u) -> Global:
        i = next((i for i in range(len(stack) - 1, -1, -1)
                  if stack[i][0] == u), None)
        if i is None:
            return expand(u, set())
        moved = {p for f in stack[i:] for p in f[2]}
        left = unfinished(u) - moved
        if not left:
            stack[i][3] = True
            return GVar(stack[i][1])
        snap = (u, frozenset(moved))
        if snap in snapshots:
            raise SynthesisFailure(
                f"cannot close a loop at {nodes[u]}: participants "
                f"{sorted(left)} never move")
        snapshots.add(snap)
        g = expand(u, left)
        snapshots.discard(snap)
        return g

    def expand(u, prefer: set) -> Global:
        row = rows[u]
        if not row:
            if unfinished(u):
                raise SynthesisFailure(
                    f"no matching sender/receiver pair at control state "
                    f"{dict(zip(s.participants, nodes[u]))}")
            return GEnd()
        ch = max(dict.fromkeys(a.channel for a in row[::2]),
                 key=lambda c: len(prefer.intersection(c)))
        frame = [u, f"t{next(fresh)}", ch, False]
        stack.append(frame)
        branches = tuple((a.label, emit(j))
                         for a, j in zip(row[::2], row[1::2])
                         if a.channel == ch)
        stack.pop()
        body = GBranch(*ch, branches)
        return GRec(frame[1], body) if frame[3] else body

    g = alpha_canonical(emit(0))
    wf = well_formed(g)
    if not wf:
        raise SynthesisFailure(
            "synthesised type is not well-formed: " + wf.failures[0][1])
    return g


def verify_roundtrip(s: System, g: Global | None = None, max_len: int = 10,
                     bounds: tuple[int, ...] = (1, 2, 3)):
    """Check that the (synthesised) global type and the system have the same
    bounded traces; returns (ok, {k: (ok, witness)})."""
    if g is None:
        g = synthesize(s)
    results = {}
    for k in bounds:
        ok, witness = trace_equiv(g, s, max_len, k)
        results[k] = (ok, witness)
    return all(ok for ok, _ in results.values()), results
