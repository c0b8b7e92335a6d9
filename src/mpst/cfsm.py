"""Operational engine for communicating systems.

Configurations pair the joint control state with one FIFO word per ordered
participant pair.  Exploration is k-bounded: a send is enabled only while its
channel holds fewer than k messages, and it carries only the channels that
some transition uses, the only ones that can ever fill.  All iteration orders
are deterministic so reports and golden tests are stable.
"""

from __future__ import annotations

import os
from .errors import ResourceLimit
from .syntax import Action, Machine, System, _Record, _getter

DEFAULT_NODE_CAP = 1_000_000


def node_cap() -> int:
    var = os.environ.get("MPST_NODE_CAP")
    return int(var) if var else DEFAULT_NODE_CAP


def _trie(start, step, max_len: int, k: int) -> dict:
    """The trace trie of every view: a prefix-closed nested dict from Action
    to sub-trie of the runs of at most max_len steps from start, where
    step(state, k) lists the enabled (action, state') pairs.  The walk is
    level-synchronous over (state, trie node) pairs, deduplicated so that
    converging interleavings do not multiply the frontier.  It keeps its own
    loop: `_bfs` interns each state once, whatever its depth.  Raises
    ResourceLimit past `node_cap()` trie nodes."""
    cap = node_cap()
    root: dict = {}
    frontier = {(start, id(root)): (start, root)}
    count = 0
    for _ in range(max_len):
        nxt = {}
        for st, node in frontier.values():
            for act, st2 in step(st, k):
                sub = node.get(act)
                if sub is None:
                    sub = {}
                    node[act] = sub
                    count += 1
                    if count > cap:
                        raise ResourceLimit(
                            f"trace trie exceeded the node cap of {cap}")
                nxt.setdefault((st2, id(sub)), (st2, sub))
        frontier = nxt
        if not frontier:
            break
    return root


def _bfs(start, step, what: str) -> tuple[list, list, list]:
    """Breadth-first search from start, where step(node) lists the
    (label, node') pairs leaving node; each node is interned to its BFS
    index on first sight.

    Returns the nodes in BFS order; the successor row of each, a flat list
    [label, j, label, j, ...] in step order; and the BFS parent (i, label)
    of each, None for start, so that `_path` from node j gives a shortest
    path to it.  Raises ResourceLimit ("<what> exceeded the node cap of
    <cap>") as soon as there are more than `node_cap()` nodes."""
    cap = node_cap()
    nodes = [start]
    index = {start: 0}
    parents: list[tuple[int, object] | None] = [None]
    rows = []
    # nodes grows while it is walked: the walk is the BFS queue
    for i, node in enumerate(nodes):
        row = []
        for label, nxt in step(node):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(nodes)
                nodes.append(nxt)
                parents.append((i, label))
                if len(nodes) > cap:
                    raise ResourceLimit(
                        f"{what} exceeded the node cap of {cap}")
            row.append(label)
            row.append(j)
        rows.append(row)
    return nodes, rows, parents


def _preds(rows: list) -> list[list[int]]:
    """The predecessors of each `_bfs` node, read off its successor rows."""
    preds: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row[1::2]:
            preds[j].append(i)
    return preds


def _can_reach(preds: list, targets) -> bytearray:
    """The one backward search: byte i is 1 when `_bfs` node i can reach
    one of targets (targets included), along the predecessors preds of
    `_preds`."""
    seen = bytearray(len(preds))
    todo = list(targets)
    for i in todo:
        seen[i] = 1
    while todo:
        for j in preds[todo.pop()]:
            if not seen[j]:
                seen[j] = 1
                todo.append(j)
    return seen


def _path(parents: list, i: int) -> tuple:
    """The labels along `_bfs` parents from the start to node i."""
    acc = []
    while (prev := parents[i]) is not None:
        i, label = prev
        acc.append(label)
    return tuple(reversed(acc))


class Config(_Record):
    """Joint control state + buffer contents, aligned with the system's
    sorted participant and channel tuples: states is a tuple of local
    states, buffers a tuple of words, each a tuple of labels."""

    __slots__ = ("states", "buffers")

    def is_stable(self) -> bool:
        return all(not b for b in self.buffers)


def initial(s: System) -> Config:
    return Config(tuple(s.machine(p).initial for p in s.participants),
                  tuple(() for _ in s.channels))


# --------------------------------------------------------------------------
# The exploration kernel.  A system is compiled once into a table; every
# analysis here steps through it with `_steps`, the one FIFO step of the
# toolkit, on flat keys (see `_explore`); `Config` objects are built only
# for callers.  Local-type collections and equation systems run on it too,
# as the machine systems of `to_machine` and `gto_machine`.

class _Table:
    """A system compiled for exploration.  For each participant, in sorted
    order: its moves from each local state, as (is_send, buffer slot in the
    key, label, dst, action) in `Machine.outgoing` order, its final states
    (no moves) and its receiving states.  `n` is the number of participants,
    `chans` the positions in `System.channels` of the channels some move
    uses, in that order, `width` the number of channels and `start` the key
    of the initial configuration.  Raises ValueError when a move is on a
    self-channel, is not its machine owner's own action, or uses a channel
    to a participant that has no machine."""

    __slots__ = ("n", "chans", "width", "start", "moves", "final",
                 "receiving")

    def __init__(self, s: System):
        machines = [s.machine(p) for p in s.participants]
        self.n = n = len(machines)
        for m in machines:
            for _, a, _ in m.transitions:
                if a.sender == a.receiver:
                    raise ValueError(f"machine {m.owner} uses the self-channel "
                                     f"{a.sender}{a.receiver}")
                if a.subject != m.owner:
                    raise ValueError(f"machine {m.owner} holds {a}, an action "
                                     f"of {a.subject}")
        used = {a.channel for m in machines for _, a, _ in m.transitions}
        stray = {q for ch in used for q in ch}.difference(s.participants)
        if stray:
            q = min(stray)
            owner = next(m.owner for m in machines
                         for _, a, _ in m.transitions if q in a.channel)
            raise ValueError(f"machine {owner} talks to {q}, which has no "
                             f"machine in the system")
        self.chans = tuple(i for i, ch in enumerate(s.channels) if ch in used)
        self.width = len(s.channels)
        self.start = _key(self, initial(s))
        slot = {s.channels[i]: j for j, i in enumerate(self.chans, n)}
        self.moves = tuple(
            {q: tuple((a.op == "!", slot[a.channel], a.label, d, a)
                      for _, a, d in m.outgoing(q))
             for q in m.states}
            for m in machines)
        self.final = tuple(m.final_states for m in machines)
        self.receiving = tuple(
            frozenset(q for q in m.states if m.is_receiving(q))
            for m in machines)


def _table(s: System) -> _Table:
    """The compiled table of s, built on first use and kept on the instance
    the way System's cached properties are."""
    t = s.__dict__.get("_table")
    if t is None:
        t = s.__dict__["_table"] = _Table(s)
    return t


def _key(t: _Table, c: Config) -> tuple:
    """The key of c (see `_explore`): its local states, then its buffers on
    the channels of `t.chans`.  Words on other channels are left out."""
    return c.states + tuple(c.buffers[i] for i in t.chans)


def _config(t: _Table, key: tuple, buffers: tuple | None = None) -> Config:
    """The configuration of key, its buffers back in `System.channels`
    order; the channels the key leaves out hold what they hold in buffers
    (by default nothing)."""
    bufs = list(buffers) if buffers else [()] * t.width
    for i, b in zip(t.chans, key[t.n:]):
        bufs[i] = b
    return Config(key[:t.n], tuple(bufs))


def _steps(t: _Table, key: tuple, k: int | None) -> list:
    """Every enabled move from key, as (action, key'), in participant order
    and then `Machine.outgoing` order; a send is enabled only while its
    channel holds fewer than k messages (when k is given).  The buffer rule
    is written inline: a call per move cost 6-7% on `check_safety`."""
    out = []
    for i, moves in enumerate(t.moves):
        for send, slot, label, dst, act in moves.get(key[i], ()):
            b = key[slot]
            if send:
                if k is not None and len(b) >= k:
                    continue
                b = b + (label,)
            elif b and b[0] == label:
                b = b[1:]
            else:
                continue
            nxt = list(key)
            nxt[i] = dst
            nxt[slot] = b
            out.append((act, tuple(nxt)))
    return out


def _explore(s: System, k: int) -> tuple[list, list, list]:
    """`_bfs` over RS_k.  A key is one flat tuple: the local states,
    participants in sorted order, then the buffers of the channels some move
    uses, in `System.channels` order (`_Table.chans`).  The successor rows
    are in `_steps` order, which is the order of `fire` and of `reach`'s
    edges.  Raises ValueError for k < 1, and ResourceLimit as soon as there
    are more than `node_cap()` keys."""
    if k < 1:
        raise ValueError("bound k must be >= 1")
    t = _table(s)
    return _bfs(t.start, lambda key: _steps(t, key, k), "reachability set")


def fire(c: Config, s: System, k: int | None = None) -> tuple[tuple[Action, Config], ...]:
    """All enabled transitions from c (k-bounded when k is given)."""
    t = _table(s)
    return tuple((act, _config(t, key, c.buffers))
                 for act, key in _steps(t, _key(t, c), k))


class ReachSet(_Record):
    """k-bounded reachability set with its transition edges, (Config,
    Action, Config) triples, and BFS parents, a dict from each Config to
    its (Config, Action) parent or None; parents, None by default, is
    left out of equality and hashing."""

    __slots__ = ("k", "initial", "configs", "edges", "parents")
    _defaults = {"parents": None}
    _values = property(_getter(("k", "initial", "configs", "edges")))

    def path_to(self, c: Config) -> tuple[Action, ...]:
        """Shortest action path from the initial configuration to c."""
        acc = []
        while True:
            prev = self.parents[c]
            if prev is None:
                return tuple(reversed(acc))
            c, act = prev[0], prev[1]
            acc.append(act)


def reach(s: System, k: int) -> ReachSet:
    """BFS closure of k-bounded firing from the initial configuration.

    `configs` is in BFS order; `edges` lists each configuration's outgoing
    transitions in `fire` order, configurations in BFS order; `parents`
    gives shortest paths.  Each configuration is one object, built from an
    `_explore` key (local states, then the buffers of the channels some
    move uses) and shared by `configs`, `edges` and `parents`.  Raises
    ValueError for k < 1 and ResourceLimit when more than `node_cap()`
    configurations are found."""
    keys, rows, parents = _explore(s, k)
    t = _table(s)
    configs = tuple(_config(t, key) for key in keys)
    edges = tuple((c, act, configs[j]) for c, row in zip(configs, rows)
                  for act, j in zip(row[::2], row[1::2]))
    parent_of: dict[Config, tuple[Config, Action] | None] = {configs[0]: None}
    for c, (i, act) in zip(configs[1:], parents[1:]):
        parent_of[c] = (configs[i], act)
    return ReachSet(k, configs[0], configs, edges, parent_of)


# The flag sets `_flags` can return, sorted; no other combination holds.
_FINAL = ("final", "stable")
_DEADLOCK = ("deadlock", "stable")
_STABLE = ("stable",)
_ORPHAN = ("orphan",)
_UNSPECIFIED = ("unspecified_reception",)
# all(map(_member, sets, key)) tests each local state without a Python loop
_member = frozenset.__contains__


def _flags(t: _Table, key: tuple) -> tuple[str, ...]:
    """The sorted flags of the configuration of key, with nothing on the
    channels the key leaves out, () when it is intermediate.

    Stable: every buffer is empty.  Final: stable, every participant final.
    Deadlock: stable, every participant receiving.  Orphan: every
    participant final, some buffer non-empty.  Unspecified reception: some
    participant is receiving and every channel it receives on holds another
    label at its head."""
    allfinal = all(map(_member, t.final, key))
    if not any(key[t.n:]):
        if allfinal:
            return _FINAL
        if all(map(_member, t.receiving, key)):
            return _DEADLOCK
        return _STABLE
    if allfinal:
        return _ORPHAN
    for q, moves, receiving in zip(key, t.moves, t.receiving):
        if q in receiving:
            for _, slot, label, _, _ in moves[q]:
                b = key[slot]
                if not b or b[0] == label:
                    break
            else:
                return _UNSPECIFIED
    return ()


def classify(c: Config, s: System) -> frozenset[str]:
    """Configuration flags: stable/final/deadlock/orphan/unspecified_reception,
    or intermediate when none apply.  Multiple flags may hold."""
    t = _table(s)
    flags = _flags(t, _key(t, c))
    if "stable" in flags and not c.is_stable():
        # words wait only on channels that no move uses: nothing takes them
        flags = _ORPHAN if flags == _FINAL else ()
    return frozenset(flags or ("intermediate",))


BAD_FLAGS = frozenset({"deadlock", "orphan", "unspecified_reception"})


class SafetyReport(_Record):
    """Violations are (kind, path, Config) triples; liveness is None when
    no final configuration exists in RS_k; liveness_counterexample is a
    Config, None by default."""

    __slots__ = ("k", "violations", "liveness", "liveness_counterexample")
    _defaults = {"liveness_counterexample": None}

    @property
    def ok(self) -> bool:
        return not self.violations and self.liveness is not False

    def to_json(self) -> dict:
        return {
            "bound": self.k,
            "violations": [
                {"kind": kind,
                 "path": [str(a) for a in path],
                 "configuration": _config_json(cfg)}
                for kind, path, cfg in self.violations
            ],
            "liveness": self.liveness,
        }


def _config_json(c: Config) -> dict:
    return {"states": list(c.states),
            "buffers": [list(b) for b in c.buffers]}


def check_safety(s: System, k: int,
                 check_liveness: bool = True) -> SafetyReport:
    """Scan RS_k for deadlock/orphan/unspecified-reception configurations;
    k-bounded liveness = every configuration can reach a final one in RS_k.

    Violations come in BFS order of their configurations, kinds sorted
    within one configuration, each with a shortest path to it (the path
    `reach(s, k).path_to` gives).  The liveness counterexample is the first
    configuration in BFS order that cannot reach a final one.  Raises
    ValueError for k < 1 and ResourceLimit when more than `node_cap()`
    configurations are found, exactly as `reach` does.  Works
    on the BFS indices of `_explore`'s flat keys (local states, then the
    buffers of the channels some move uses): a `Config` is built only for a
    configuration reported."""
    keys, rows, parents = _explore(s, k)
    t = _table(s)
    violations = []
    finals = []
    for i, key in enumerate(keys):
        flags = _flags(t, key)
        if "final" in flags:
            finals.append(i)
        bad = [kind for kind in flags if kind in BAD_FLAGS]
        if bad:
            c = _config(t, key)
            path = _path(parents, i)
            violations.extend((kind, path, c) for kind in bad)
    liveness: bool | None = None
    counterexample = None
    if check_liveness and finals:
        dead = _can_reach(_preds(rows), finals).find(0)
        liveness = dead < 0
        if not liveness:
            counterexample = _config(t, keys[dead])
    return SafetyReport(k, tuple(violations), liveness, counterexample)


def _nondeterminism(m: Machine) -> list[str]:
    """Why m is nondeterministic, the reasons `is_basic` lists first; empty
    when it is deterministic."""
    reasons = []
    seen: dict[tuple[str, Action], str] = {}
    for src, act, dst in m.transitions:
        if (src, act) in seen and seen[(src, act)] != dst:
            reasons.append(f"nondeterministic: {src} --{act}--> both "
                           f"{seen[(src, act)]} and {dst}")
        seen[(src, act)] = dst
    return reasons


def is_basic(m: Machine) -> tuple[bool, tuple[str, ...]]:
    """Deterministic + directed + no mixed states, with reasons when not."""
    reasons = _nondeterminism(m)
    for q in sorted(m.states):
        peers = m._sends(q).keys() | m._receives(q).keys()
        if len(peers) > 1:
            reasons.append(f"not directed: state {q} talks to {sorted(peers)}")
        if m.is_mixed(q):
            reasons.append(f"mixed state: {q} both sends and receives")
    return (not reasons, tuple(reasons))


# --------------------------------------------------------------------------
# Trace tries (see `_trie`).

def traces(s: System, max_len: int, k: int) -> dict:
    t = _table(s)
    return _trie(t.start, lambda key, k: _steps(t, key, k), max_len, k)


def trie_flatten(trie: dict, prefix: tuple = ()) -> set[tuple]:
    """All traces in the trie (prefix-closed set of action tuples)."""
    out = set()
    todo = [(prefix, trie)]
    while todo:
        pre, node = todo.pop()
        out.add(pre)
        todo.extend((pre + (act,), sub) for act, sub in node.items())
    return out


# --------------------------------------------------------------------------
# DOT export

def dot_machine(m: Machine) -> str:
    lines = [f'digraph "{m.owner}" {{', "  rankdir=LR;",
             f'  "__init" [shape=point, style=invis];']
    for q in sorted(m.states):
        shape = "doublecircle" if q == m.initial else "circle"
        lines.append(f'  "{q}" [shape={shape}];')
    lines.append(f'  "__init" -> "{m.initial}";')
    for src, act, dst in m.transitions:
        lines.append(f'  "{src}" -> "{dst}" [label="{act}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_system(s: System) -> str:
    return "".join(dot_machine(m) for _, m in s.machines)


def dot_reach(rs: ReachSet) -> str:
    names = {c: f"c{i}" for i, c in enumerate(rs.configs)}
    lines = ["digraph reach {", "  rankdir=LR;"]
    for c in rs.configs:
        label = ",".join(c.states)
        shape = "doublecircle" if c == rs.initial else "circle"
        lines.append(f'  "{names[c]}" [shape={shape}, label="{label}"];')
    for a, act, b in rs.edges:
        lines.append(f'  "{names[a]}" -> "{names[b]}" [label="{act}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
