"""Operational engine for communicating systems.

Configurations pair the joint control state with one FIFO word per ordered
participant pair.  Exploration is k-bounded: a send is enabled only while its
channel holds fewer than k messages.  All iteration orders are deterministic
so reports and golden tests are stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ResourceLimit
from .syntax import Action, Machine, System

DEFAULT_NODE_CAP = 1_000_000


def node_cap() -> int:
    var = os.environ.get("MPST_NODE_CAP")
    return int(var) if var else DEFAULT_NODE_CAP


def _trie(start, step, max_len: int, k: int, cap: int | None) -> dict:
    """The trace trie of every view: a prefix-closed nested dict from Action
    to sub-trie of the runs of at most max_len steps from start, where
    step(state, k) lists the enabled (action, state') pairs.  The walk is
    level-synchronous over (state, trie node) pairs, deduplicated so that
    converging interleavings do not multiply the frontier.  It keeps its own
    loop: `_bfs` interns each state once, whatever its depth."""
    cap = cap if cap is not None else node_cap()
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


def _bfs(start, step, cap: int | None, what: str) -> tuple[list, list, list]:
    """Breadth-first search from start, where step(node) lists the
    (label, node') pairs leaving node; each node is interned to its BFS
    index on first sight.

    Returns the nodes in BFS order; the successor row of each, a flat list
    [label, j, label, j, ...] in step order; and the BFS parent (i, label)
    of each, None for start, so that `_path` from node j gives a shortest
    path to it.  Raises ResourceLimit ("<what> exceeded the node cap of
    <cap>") as soon as there are more than cap (default `node_cap()`)
    nodes."""
    cap = cap if cap is not None else node_cap()
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


def _path(parents: list, i: int) -> tuple:
    """The labels along `_bfs` parents from the start to node i."""
    acc = []
    while (prev := parents[i]) is not None:
        i, label = prev
        acc.append(label)
    return tuple(reversed(acc))


@dataclass(frozen=True)
class Config:
    """Joint control state + buffer contents, aligned with the system's
    sorted participant and channel tuples."""

    states: tuple[str, ...]
    buffers: tuple[tuple[str, ...], ...]

    def is_stable(self) -> bool:
        return all(not b for b in self.buffers)


def initial(s: System) -> Config:
    return Config(tuple(s.machine(p).initial for p in s.participants),
                  tuple(() for _ in s.channels))


# --------------------------------------------------------------------------
# The exploration kernel.  A system is compiled once into a table; every
# analysis here steps through it with `_steps`, the FIFO step of machine
# systems (`_fifo` is that of the other views), on flat keys (see
# `_explore`); `Config` objects are built only for callers.

class _Table:
    """A system compiled for exploration.  For each participant, in sorted
    order: its moves from each local state, as (is_send, buffer slot in the
    key, label, dst, action) in `Machine.outgoing` order, its final states
    (no moves) and its receiving states.  `n` is the number of participants
    and `start` the key of the initial configuration."""

    __slots__ = ("n", "start", "moves", "final", "receiving")

    def __init__(self, s: System):
        machines = [s.machine(p) for p in s.participants]
        self.n = n = len(machines)
        self.start = _key(initial(s))
        slot = {ch: n + i for i, ch in enumerate(s.channels)}
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


def _key(c: Config) -> tuple:
    return c.states + c.buffers


def _config(t: _Table, key: tuple) -> Config:
    return Config(key[:t.n], key[t.n:])


def _steps(t: _Table, key: tuple, k: int | None) -> list:
    """Every enabled move from key, as (action, key'), in participant order
    and then `Machine.outgoing` order; a send is enabled only while its
    channel holds fewer than k messages (when k is given).  The buffer rule
    is `_fifo`'s, inlined: calling it per move cost 6-7% on
    `check_safety`."""
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


def _fifo(buffers: tuple, i: int, act: Action, k: int | None) -> tuple | None:
    """The buffers after act on channel i, None when act is not enabled, by
    the rule of `_steps`, which keeps its own inlined copy for speed: the
    FIFO step of local-type collections and equation systems."""
    b = buffers[i]
    if act.op == "!":
        if k is not None and len(b) >= k:
            return None
        b = b + (act.label,)
    elif b and b[0] == act.label:
        b = b[1:]
    else:
        return None
    return buffers[:i] + (b,) + buffers[i + 1:]


def _explore(s: System, k: int, cap: int | None) -> tuple[list, list, list]:
    """`_bfs` over RS_k.  A key is one flat tuple: the local states,
    participants in sorted order, then the buffers, channels in
    `System.channels` order.  The successor rows are in `_steps` order,
    which is the order of `fire` and of `reach`'s edges.  Raises ValueError
    for k < 1, and ResourceLimit as soon as there are more than cap
    (default `node_cap()`) keys."""
    if k < 1:
        raise ValueError("bound k must be >= 1")
    t = _table(s)
    return _bfs(t.start, lambda key: _steps(t, key, k), cap,
                "reachability set")


def fire(c: Config, s: System, k: int | None = None) -> tuple[tuple[Action, Config], ...]:
    """All enabled transitions from c (k-bounded when k is given)."""
    t = _table(s)
    return tuple((act, _config(t, key)) for act, key in _steps(t, _key(c), k))


@dataclass(frozen=True)
class ReachSet:
    """k-bounded reachability set with its transition edges and BFS parents."""

    k: int
    initial: Config
    configs: tuple[Config, ...]
    edges: tuple[tuple[Config, Action, Config], ...]
    parents: dict[Config, tuple[Config, Action] | None] = field(hash=False, compare=False, default=None)

    def path_to(self, c: Config) -> tuple[Action, ...]:
        """Shortest action path from the initial configuration to c."""
        acc = []
        while True:
            prev = self.parents[c]
            if prev is None:
                return tuple(reversed(acc))
            c, act = prev[0], prev[1]
            acc.append(act)


def reach(s: System, k: int, cap: int | None = None) -> ReachSet:
    """BFS closure of k-bounded firing from the initial configuration.

    `configs` is in BFS order; `edges` lists each configuration's outgoing
    transitions in `fire` order, configurations in BFS order; `parents`
    gives shortest paths.  Each configuration is one object, built from an
    `_explore` key (local states, then buffers) and shared by `configs`,
    `edges` and `parents`.  Raises ValueError for k < 1 and
    ResourceLimit when more than cap (default `node_cap()`) configurations
    are found."""
    keys, rows, parents = _explore(s, k, cap)
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
    """The sorted flags of a configuration, () when it is intermediate.

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
    return frozenset(_flags(_table(s), _key(c)) or ("intermediate",))


BAD_FLAGS = frozenset({"deadlock", "orphan", "unspecified_reception"})


@dataclass(frozen=True)
class SafetyReport:
    k: int
    violations: tuple[tuple[str, tuple[Action, ...], Config], ...]
    liveness: bool | None  # None when no final configuration exists in RS_k
    liveness_counterexample: Config | None = None

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


def check_safety(s: System, k: int, check_liveness: bool = True,
                 cap: int | None = None) -> SafetyReport:
    """Scan RS_k for deadlock/orphan/unspecified-reception configurations;
    k-bounded liveness = every configuration can reach a final one in RS_k.

    Violations come in BFS order of their configurations, kinds sorted
    within one configuration, each with a shortest path to it (the path
    `reach(s, k).path_to` gives).  The liveness counterexample is the first
    configuration in BFS order that cannot reach a final one.  Raises
    ValueError for k < 1 and ResourceLimit when more than cap (default
    `node_cap()`) configurations are found, exactly as `reach` does.  Works
    on the BFS indices of `_explore`'s flat keys (local states, then
    buffers): a `Config` is built only for a configuration reported."""
    keys, rows, parents = _explore(s, k, cap)
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
        # backward search from the final configurations
        preds: list[list[int]] = [[] for _ in keys]
        for i, row in enumerate(rows):
            for j in row[1::2]:
                preds[j].append(i)
        live = bytearray(len(keys))
        for i in finals:
            live[i] = 1
        todo = finals
        while todo:
            for j in preds[todo.pop()]:
                if not live[j]:
                    live[j] = 1
                    todo.append(j)
        dead = live.find(0)
        liveness = dead < 0
        if not liveness:
            counterexample = _config(t, keys[dead])
    return SafetyReport(k, tuple(violations), liveness, counterexample)


def is_basic(m: Machine) -> tuple[bool, tuple[str, ...]]:
    """Deterministic + directed + no mixed states, with reasons when not."""
    reasons = []
    seen: dict[tuple[str, Action], str] = {}
    for src, act, dst in m.transitions:
        if (src, act) in seen and seen[(src, act)] != dst:
            reasons.append(f"nondeterministic: {src} --{act}--> both "
                           f"{seen[(src, act)]} and {dst}")
        seen[(src, act)] = dst
    for q in sorted(m.states):
        peers = m._sends(q).keys() | m._receives(q).keys()
        if len(peers) > 1:
            reasons.append(f"not directed: state {q} talks to {sorted(peers)}")
        if m.is_mixed(q):
            reasons.append(f"mixed state: {q} both sends and receives")
    return (not reasons, tuple(reasons))


# --------------------------------------------------------------------------
# Trace tries (see `_trie`).

def traces(s: System, max_len: int, k: int, cap: int | None = None) -> dict:
    t = _table(s)
    return _trie(t.start, lambda key, k: _steps(t, key, k), max_len, k,
                 cap)


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
