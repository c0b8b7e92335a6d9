"""Asynchronous semantics of global types and collections of local types.

A global type executes by splitting each exchange into a send and a receive:
the send commits the branch and leaves an in-flight marker on the type, the
receive discharges it.  Execution may also proceed underneath an exchange —
uniformly across uncommitted branches for participants not involved in it,
and inside a committed branch for everyone but its receiver.  Buffer contents
are recoverable from the markers, which is how send bounding works.

A collection of local types runs as the system of its types' machines
(`to_machine`), from its buffers, on the FIFO step and bounding discipline
of `cfsm`, so trace sets of the two sides can be compared, as well as
against the trace sets of machine systems.
"""

from __future__ import annotations

from .cfsm import (Config, _key, _steps, _table, _trie, initial,
                   traces as system_traces)
from .projection import project
from .syntax import (Action, GBranch, GEnd, Global, GRec, GVar, Local,
                     Participant, System, channels, gparticipants,
                     _Record, make_system, unfold)


def step_global(g: Global, k: int | None = None) -> tuple[tuple[Action, Global], ...]:
    """All enabled steps of a global type, k-bounded when k is given."""
    steps = _step(g)
    if k is not None:
        bufs = gbuffers(g)
        steps = tuple(
            (act, g2) for act, g2 in steps
            if act.op == "?" or len(bufs.get(act.channel, ())) < k)
    return steps


def _step(g: Global, blocked: frozenset = frozenset()) -> tuple[tuple[Action, Global], ...]:
    # `blocked` holds participants pinned down by enclosing exchanges; once
    # a subterm involves only blocked participants nothing inside it can
    # surface, which also grounds the recursion on recursive types.
    if isinstance(g, (GEnd, GVar)):
        return ()
    if blocked and gparticipants(g) <= blocked:
        return ()
    if isinstance(g, GRec):
        return _step(unfold(g), blocked)
    assert isinstance(g, GBranch)
    out = []
    if g.mid is None:
        # commit a branch by sending its label
        if g.src not in blocked:
            for j, (label, _) in enumerate(g.branches):
                act = Action(g.src, g.dst, "!", label)
                out.append((act, GBranch(g.src, g.dst, g.branches, j)))
        # step uniformly under every branch for uninvolved participants
        inner = blocked | {g.src, g.dst}
        for act, g0 in _step(g.branches[0][1], inner):
            if act.subject in (g.src, g.dst):
                continue
            newbranches = [(g.branches[0][0], g0)]
            okay = True
            for label, gi in g.branches[1:]:
                succ = [h for a2, h in _step(gi, inner) if a2 == act]
                if not succ:
                    okay = False
                    break
                newbranches.append((label, succ[0]))
            if okay:
                out.append((act, GBranch(g.src, g.dst, tuple(newbranches))))
    else:
        label, cont = g.branches[g.mid]
        if g.dst not in blocked:
            act = Action(g.src, g.dst, "?", label)
            out.append((act, cont))
        # inside the committed branch everyone but the receiver may move
        for a2, c2 in _step(cont, blocked | {g.dst}):
            if a2.subject == g.dst:
                continue
            newbranches = list(g.branches)
            newbranches[g.mid] = (label, c2)
            out.append((a2, GBranch(g.src, g.dst, tuple(newbranches), g.mid)))
    return tuple(out)


def gbuffers(g: Global) -> dict[tuple[Participant, Participant], tuple[str, ...]]:
    """In-flight words per channel, read off the commitment markers."""
    bufs: dict[tuple[Participant, Participant], tuple[str, ...]] = {}

    def go(u: Global) -> None:
        if isinstance(u, GRec):
            go(u.body)
        elif isinstance(u, GBranch):
            if u.mid is None:
                go(u.branches[0][1])
            else:
                ch = (u.src, u.dst)
                bufs[ch] = bufs.get(ch, ()) + (u.branches[u.mid][0],)
                go(u.branches[u.mid][1])

    go(g)
    return bufs


# --------------------------------------------------------------------------
# Collections of local types with explicit buffers

class LocalConfig(_Record):
    """A sorted family of local types, (participant, Local) pairs, plus
    FIFO buffers for every channel."""

    __slots__ = ("types", "buffers")

    @property
    def participants(self) -> tuple[Participant, ...]:
        return tuple(p for p, _ in self.types)

    @property
    def channels(self) -> tuple[tuple[Participant, Participant], ...]:
        return channels(self.participants)


def local_config(types: dict[Participant, Local]) -> LocalConfig:
    items = tuple(sorted(types.items()))
    ps = tuple(p for p, _ in items)
    return LocalConfig(items, tuple(() for _ in channels(ps)))


def project_config(g: Global) -> LocalConfig:
    """Project a (possibly marked) global type to a local configuration,
    buffers included."""
    ps = gparticipants(g)
    types = {p: project(g, p) for p in ps}
    cfg = local_config(types)
    bufs = gbuffers(g)
    chans = cfg.channels
    return LocalConfig(cfg.types,
                       tuple(bufs.get(ch, ()) for ch in chans))


# --------------------------------------------------------------------------
# Trace tries and trace equivalence

def traces_global(g: Global, max_len: int, k: int) -> dict:
    return _trie(g, step_global, max_len, k)


def traces_local(c: LocalConfig, max_len: int, k: int) -> dict:
    """The traces of c's types run as the system of their machines, from
    c's buffers."""
    # imported here: `mpst synth --verify` and `mpst simulate` load this
    # module but never translate a local type
    from .translate import to_machine
    s = make_system([to_machine(t, p) for p, t in c.types])
    start = Config(initial(s).states, c.buffers)
    t = _table(s, k, start)
    return _trie(_key(t, start), lambda key, k: _steps(t, key), max_len, k)


def _as_trie(x, max_len: int, k: int) -> dict:
    if isinstance(x, (GEnd, GVar, GRec, GBranch)):
        return traces_global(x, max_len, k)
    if isinstance(x, LocalConfig):
        return traces_local(x, max_len, k)
    if isinstance(x, System):
        return system_traces(x, max_len, k)
    # Imported here, not at the top, and not for a cycle (generalized does
    # not import this module): generalized is the largest module, and
    # `mpst synth --verify` and `mpst simulate`, which load this one, never
    # see an equation system.
    from .generalized import (GeneralGlobal, GeneralLocal, gtraces_global,
                              gtraces_local)
    if isinstance(x, GeneralGlobal):
        return gtraces_global(x, max_len, k)
    if isinstance(x, dict) and all(isinstance(v, GeneralLocal)
                                   for v in x.values()):
        return gtraces_local(x, max_len, k)
    raise TypeError(f"cannot take traces of {type(x).__name__}")


def trace_equiv(x, y, max_len: int, k: int) -> tuple[bool, tuple[Action, ...] | None]:
    """Compare bounded trace sets; on mismatch return a shortest
    distinguishing trace (ties broken lexicographically)."""
    tx = _as_trie(x, max_len, k)
    ty = _as_trie(y, max_len, k)
    # BFS over the union of both tries for the first point of divergence
    frontier = [((), tx, ty)]
    while frontier:
        nxt = []
        for prefix, a, b in frontier:
            if a.keys() != b.keys():
                return False, prefix + (min(a.keys() ^ b.keys()),)
            for act, sub in sorted(a.items()):
                nxt.append((prefix + (act,), sub, b[act]))
        frontier = nxt
    return True, None
