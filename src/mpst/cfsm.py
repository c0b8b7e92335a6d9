"""Operational engine for communicating systems.

Configurations pair the joint control state with one FIFO word per ordered
participant pair.  Exploration is k-bounded: a send is enabled only while its
channel holds fewer than k messages.  All iteration orders are deterministic
so reports and golden tests are stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product as iproduct

from .errors import ResourceLimit
from .syntax import Action, Machine, Participant, System

DEFAULT_NODE_CAP = 1_000_000


def node_cap() -> int:
    var = os.environ.get("MPST_NODE_CAP")
    return int(var) if var else DEFAULT_NODE_CAP


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
# analysis here steps through it with `_successors`, the one FIFO step.

class _Table:
    """A system compiled for exploration.  For each participant, in sorted
    order: its moves from each local state, as (is_send, channel index,
    label, dst, action) in `Machine.outgoing` order, and the set of its
    receiving states.  A state with no moves is final."""

    __slots__ = ("moves", "receiving")

    def __init__(self, s: System):
        index = {ch: i for i, ch in enumerate(s.channels)}
        machines = [s.machine(p) for p in s.participants]
        self.moves = tuple(
            {q: tuple((a.op == "!", index[a.channel], a.label, d, a)
                      for _, a, d in m.outgoing(q))
             for q in m.states}
            for m in machines)
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


def _successors(t: _Table, states: tuple, bufs: tuple, k: int | None) -> list:
    """Every enabled (action, states', buffers') from (states, bufs), in
    participant order and then `Machine.outgoing` order; a send is enabled
    only while its channel holds fewer than k messages (when k is given)."""
    out = []
    for i, q in enumerate(states):
        for send, ci, label, dst, act in t.moves[i].get(q, ()):
            b = bufs[ci]
            if send:
                if k is not None and len(b) >= k:
                    continue
                b = b + (label,)
            elif b and b[0] == label:
                b = b[1:]
            else:
                continue
            out.append((act, states[:i] + (dst,) + states[i + 1:],
                        bufs[:ci] + (b,) + bufs[ci + 1:]))
    return out


def _explore(s: System, k: int, cap: int) -> tuple[list, list, list]:
    """BFS over RS_k on plain (states, buffers) keys, each interned to its
    BFS index on first sight.  Returns the keys in BFS order, the successor
    row [(action, j), ...] of each, and the BFS parent (i, action) of each,
    None for the initial one."""
    t = _table(s)
    init = initial(s)
    start = (init.states, init.buffers)
    keys = [start]
    index = {start: 0}
    parents: list[tuple[int, Action] | None] = [None]
    rows = []
    # keys grows while it is walked: the walk is the BFS queue
    for i, (states, bufs) in enumerate(keys):
        row = []
        for act, st, bf in _successors(t, states, bufs, k):
            key = (st, bf)
            j = index.get(key)
            if j is None:
                j = index[key] = len(keys)
                keys.append(key)
                parents.append((i, act))
                if len(keys) > cap:
                    raise ResourceLimit(
                        f"reachability set exceeded the node cap of {cap}")
            row.append((act, j))
        rows.append(row)
    return keys, rows, parents


def fire(c: Config, s: System, k: int | None = None) -> tuple[tuple[Action, Config], ...]:
    """All enabled transitions from c (k-bounded when k is given)."""
    return tuple((act, Config(st, bf)) for act, st, bf
                 in _successors(_table(s), c.states, c.buffers, k))


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

    @property
    def config_set(self) -> frozenset[Config]:
        return frozenset(self.configs)


def reach(s: System, k: int, cap: int | None = None) -> ReachSet:
    """BFS closure of k-bounded firing from the initial configuration.
    Each configuration is one object, shared by `configs`, `edges` and
    `parents`."""
    if k < 1:
        raise ValueError("bound k must be >= 1")
    cap = cap if cap is not None else node_cap()
    keys, rows, parents = _explore(s, k, cap)
    configs = tuple(Config(st, bf) for st, bf in keys)
    edges = tuple((c, act, configs[j])
                  for c, row in zip(configs, rows) for act, j in row)
    parent_of: dict[Config, tuple[Config, Action] | None] = {configs[0]: None}
    for c, (i, act) in zip(configs[1:], parents[1:]):
        parent_of[c] = (configs[i], act)
    return ReachSet(k, configs[0], configs, edges, parent_of)


def classify(c: Config, s: System) -> frozenset[str]:
    """Configuration flags: stable/final/deadlock/orphan/unspecified_reception,
    or intermediate when none apply.  Multiple flags may hold."""
    t = _table(s)
    bufs = c.buffers
    stable = not any(bufs)
    allfinal = allreceiving = True
    unspecified = False
    for moves, receiving, q in zip(t.moves, t.receiving, c.states):
        if moves.get(q):
            allfinal = False
        if q not in receiving:
            allreceiving = False
        elif not (stable or unspecified):
            unspecified = all(bufs[ci] and bufs[ci][0] != label
                              for _, ci, label, _, _ in moves[q])
    flags = set()
    if stable:
        flags.add("stable")
    if stable and allfinal:
        flags.add("final")
    if stable and not allfinal and allreceiving:
        flags.add("deadlock")
    if allfinal and not stable:
        flags.add("orphan")
    if unspecified:
        flags.add("unspecified_reception")
    return frozenset(flags) if flags else frozenset({"intermediate"})


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
    k-bounded liveness = every configuration can reach a final one in RS_k."""
    rs = reach(s, k, cap)
    violations = []
    finals = []
    for i, c in enumerate(rs.configs):
        flags = classify(c, s)
        for kind in sorted(flags & BAD_FLAGS):
            violations.append((kind, rs.path_to(c), c))
        if "final" in flags:
            finals.append(i)
    liveness: bool | None = None
    counterexample = None
    if check_liveness and finals:
        # backward search from the final configurations over BFS indices;
        # reach shares one object per configuration, so ids index them
        index = {id(c): i for i, c in enumerate(rs.configs)}
        preds: list[list[int]] = [[] for _ in rs.configs]
        for a, _, b in rs.edges:
            preds[index[id(b)]].append(index[id(a)])
        live = bytearray(len(rs.configs))
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
            counterexample = rs.configs[dead]
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
        outs = m.outgoing(q)
        peers = {a.receiver if a.op == "!" else a.sender for _, a, _ in outs}
        if len(peers) > 1:
            reasons.append(f"not directed: state {q} talks to {sorted(peers)}")
        if m.is_mixed(q):
            reasons.append(f"mixed state: {q} both sends and receives")
    return (not reasons, tuple(reasons))


# --------------------------------------------------------------------------
# Trace tries.  A trace set is stored as a nested dict mapping Action to
# sub-trie; the set is prefix-closed so every node is accepting.

def traces(s: System, max_len: int, k: int, cap: int | None = None) -> dict:
    cap = cap if cap is not None else node_cap()
    t = _table(s)
    init = initial(s)
    start = (init.states, init.buffers)
    root: dict = {}
    # Level-synchronous walk over (configuration, trie-node) pairs,
    # deduplicated so converging interleavings do not multiply the frontier.
    frontier = {(start, id(root)): (start, root)}
    count = 0
    for _ in range(max_len):
        nxt = {}
        for (states, bufs), node in frontier.values():
            for act, st, bf in _successors(t, states, bufs, k):
                sub = node.get(act)
                if sub is None:
                    sub = {}
                    node[act] = sub
                    count += 1
                    if count > cap:
                        raise ResourceLimit(f"trace trie exceeded the node cap of {cap}")
                key = (st, bf)
                nxt.setdefault((key, id(sub)), (key, sub))
        frontier = nxt
        if not frontier:
            break
    return root


def trie_flatten(trie: dict, prefix: tuple = ()) -> set[tuple]:
    """All traces in the trie (prefix-closed set of action tuples)."""
    out = {prefix}
    for act, sub in trie.items():
        out |= trie_flatten(sub, prefix + (act,))
    return out


# --------------------------------------------------------------------------
# Associated product CFSM

@dataclass(frozen=True)
class ProductMachine:
    """Product of several machines with componentwise transitions.

    States are tuples aligned with `names`; expansion is lazy, `materialize`
    builds the full product space Q1 x ... x Qn.
    """

    names: tuple[Participant, ...]
    machines: tuple[Machine, ...]
    initial: tuple[str, ...]

    def successors(self, state: tuple[str, ...]) -> tuple[tuple[Action, tuple[str, ...]], ...]:
        out = []
        for i, m in enumerate(self.machines):
            for _, act, dst in m.outgoing(state[i]):
                nxt = list(state)
                nxt[i] = dst
                out.append((act, tuple(nxt)))
        return tuple(out)

    def materialize(self) -> tuple[tuple[tuple[str, ...], ...],
                                   tuple[tuple[tuple[str, ...], Action, tuple[str, ...]], ...]]:
        spaces = [sorted(m.states) for m in self.machines]
        states = tuple(iproduct(*spaces))
        edges = []
        for st in states:
            for act, nxt in self.successors(st):
                edges.append((st, act, nxt))
        return states, tuple(edges)


def associated(s: System, minus: Participant | None = None) -> ProductMachine:
    names = tuple(p for p in s.participants if p != minus)
    machines = tuple(s.machine(p) for p in names)
    return ProductMachine(names, machines,
                          tuple(m.initial for m in machines))


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
