"""Synthesis of a global type from a compatible communicating system.

The synthesiser walks stable control tuples under the alternating
discipline: at each tuple it picks a sender/receiver pair whose states
match, emits one exchange, and recurses into every label.  Revisiting a
tuple already on the stack closes a recursion binder, provided every
participant has either moved since that frame or is finished; otherwise the
tuple is expanded again, preferring pairs that involve the left-out
participants.
"""

from __future__ import annotations

from itertools import count

from .compat import multiparty_compatible
from .errors import NotCompatible, SynthesisFailure
from .projection import well_formed
from .semantics import trace_equiv
from .syntax import GBranch, GEnd, Global, GRec, GVar, System, alpha_canonical


def synthesize(s: System) -> Global:
    """Build a global type whose executions match the system's."""
    report = multiparty_compatible(s)
    if not report:
        raise NotCompatible(
            "system is not multiparty compatible: "
            + report.failures[0].message)

    ps = s.participants
    machines = [s.machine(p) for p in ps]
    finals = [m.final_states for m in machines]
    fresh = count()
    stack: list[dict] = []
    snapshots: set[tuple] = set()

    def final_at(tup):
        return {p for p, q, f in zip(ps, tup, finals) if q in f}

    def enabled_pairs(tup):
        """(sender, receiver, offered labels, accepted labels) of each
        channel with a send and a receive at tup, sorted by channel."""
        pairs = []
        for i, p in enumerate(ps):
            for r, offers in machines[i]._sends(tup[i]).items():
                j = ps.index(r)
                J = machines[j]._receives(tup[j]).get(p)
                if J:
                    pairs.append((p, r, frozenset(offers), frozenset(J)))
        return pairs

    def advance(tup, p, r, label):
        i, j = ps.index(p), ps.index(r)
        nxt = list(tup)
        nxt[i] = machines[i]._sends(tup[i])[r][label][0]
        nxt[j] = machines[j]._receives(tup[j])[p][label][0]
        return tuple(nxt)

    def emit(tup) -> Global:
        frame = next((f for f in reversed(stack) if f["tup"] == tup), None)
        if frame is not None:
            if frame["moved"] | final_at(tup) == set(ps):
                frame["used"] = True
                return GVar(frame["var"])
            snap = (tup, frozenset(frame["moved"]))
            if snap in snapshots:
                raise SynthesisFailure(
                    f"cannot close a loop at {tup}: participants "
                    f"{sorted(set(ps) - frame['moved'] - final_at(tup))} "
                    f"never move")
            snapshots.add(snap)
            try:
                return expand(tup, set(ps) - frame["moved"] - final_at(tup))
            finally:
                snapshots.discard(snap)
        return expand(tup, None)

    def expand(tup, prefer) -> Global:
        if final_at(tup) == set(ps):
            return GEnd()
        pairs = enabled_pairs(tup)
        if not pairs:
            raise SynthesisFailure(
                f"no matching sender/receiver pair at control state "
                f"{dict(zip(ps, tup))}")
        if prefer:
            pairs.sort(key=lambda t: -((t[0] in prefer) + (t[1] in prefer)))
        p, r, I, J = pairs[0]
        if not I <= J:
            raise SynthesisFailure(
                f"{p} offers {sorted(I)} but {r} accepts only {sorted(J)} "
                f"at control state {dict(zip(ps, tup))}")
        frame = {"tup": tup, "var": f"t{next(fresh)}", "used": False,
                 "moved": set()}
        stack.append(frame)
        try:
            branches = []
            for label in sorted(I):
                saved = [set(f["moved"]) for f in stack]
                for f in stack:
                    f["moved"].update((p, r))
                branches.append((label, emit(advance(tup, p, r, label))))
                for f, sv in zip(stack, saved):
                    f["moved"] = sv
        finally:
            stack.pop()
        body = GBranch(p, r, tuple(branches))
        return GRec(frame["var"], body) if frame["used"] else body

    g = alpha_canonical(emit(tuple(m.initial for m in machines)))
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
