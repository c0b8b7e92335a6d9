"""Asynchronous semantics of global types and collections of local types.

A global type executes by splitting each exchange into a send and a receive:
the send commits the branch and leaves an in-flight marker on the type, the
receive discharges it.  Execution may also proceed underneath an exchange —
uniformly across uncommitted branches for participants not involved in it,
and inside a committed branch for everyone but its receiver.  Buffer contents
are recoverable from the markers, which is how send bounding works.

Every other view runs as a system of machines on the FIFO step and
bounding discipline of `cfsm`: a machine system itself, a collection of
local types as the system of its types' machines (`to_machine`) from its
buffers, and an equation system as that of its participants' views
(`generalized.gto_machine`).  `traces` is the one function that tells the
views apart: it gives each as the (start, step) pair of the trace trie
`cfsm._trie`, so `trace_equiv` compares any two views.
"""

from __future__ import annotations

from .cfsm import Config, _key, _steps, _table, _trie, initial
from .projection import project
from .syntax import (Action, GBranch, GEnd, Global, GRec, GVar, Local,
                     Participant, System, channels, gparticipants,
                     _Record, make_system, unfold)


def step_global(g: Global, k: int | None = None) -> tuple[tuple[Action, Global], ...]:
    """All enabled steps of a global type, k-bounded when k is given.
    Raises ValueError for k < 1."""
    if k is not None and k < 1:
        raise ValueError("bound k must be >= 1")
    steps = _step(g)
    if k is not None:
        bufs = gbuffers(g)
        steps = tuple(
            (act, g2) for act, g2 in steps
            if act.op == "?" or len(bufs.get(act.channel, ())) < k)
    return steps


def _step(g: Global, blocked: frozenset = frozenset(),
          unfolded: frozenset = frozenset()) -> tuple[tuple[Action, Global], ...]:
    # `blocked` holds participants pinned down by enclosing exchanges; once
    # a subterm involves only blocked participants nothing inside it can
    # surface, which also grounds the recursion on recursive types.
    # `unfolded` holds the (recursion, blocked) pairs unfolded on the way
    # down; a pair met again steps nothing, since any step through it would
    # need a step of the same pair first.
    if isinstance(g, (GEnd, GVar)):
        return ()
    if blocked and gparticipants(g) <= blocked:
        return ()
    if isinstance(g, GRec):
        if (g, blocked) in unfolded:
            return ()
        return _step(unfold(g), blocked, unfolded | {(g, blocked)})
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
        for act, g0 in _step(g.branches[0][1], inner, unfolded):
            if act.subject in (g.src, g.dst):
                continue
            newbranches = [(g.branches[0][0], g0)]
            okay = True
            for label, gi in g.branches[1:]:
                succ = [h for a2, h in _step(gi, inner, unfolded)
                        if a2 == act]
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
        for a2, c2 in _step(cont, blocked | {g.dst}, unfolded):
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

def traces(x, max_len: int, k: int) -> dict:
    """The trace trie (see `cfsm._trie`) of a view: a global type steps by
    `step_global`; every other view runs as a system of machines on the
    FIFO step `_steps`: a `System` itself, a `LocalConfig` as the system of
    its types' `to_machine`s from its buffers, and an equation system (a
    `GeneralGlobal` or a dict of `GeneralLocal`s) as the system of its
    participants' `gto_machine`s.  Raises TypeError for anything else,
    ValueError for k < 1 and ResourceLimit as the searches do."""
    if isinstance(x, (GEnd, GVar, GRec, GBranch)):
        return _trie(x, step_global, max_len, k)
    if isinstance(x, LocalConfig):
        # imported here: `mpst synth --verify` and `mpst simulate` load this
        # module but never translate a local type
        from .translate import to_machine
        s = make_system([to_machine(t, p) for p, t in x.types])
        c = Config(initial(s).states, x.buffers)
    elif isinstance(x, System):
        s, c = x, initial(x)
    else:
        # Imported here, not at the top, and not for a cycle (generalized
        # does not import this module): generalized is the largest module,
        # and `mpst synth --verify` and `mpst simulate`, which load this
        # one, never see an equation system.
        from .generalized import _view_system
        s = _view_system(x)
        c = initial(s)
    t = _table(s, k, c)
    return _trie(_key(t, c), lambda key, k: _steps(t, key), max_len, k)


def trace_equiv(x, y, max_len: int, k: int) -> tuple[bool, tuple[Action, ...] | None]:
    """Compare bounded trace sets; on mismatch return a shortest
    distinguishing trace (ties broken lexicographically)."""
    tx = traces(x, max_len, k)
    ty = traces(y, max_len, k)
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
