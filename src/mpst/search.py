"""The searches that need no configuration, and what reads one machine.

`_bfs` interns the nodes that a step function reaches, up to the cap of
`node_cap()`; `_machine` renames a machine's states over it, `_can_reach`
searches back along its predecessors, and `_parents` and `_path` read
shortest paths off its rows.  `_trie` builds trace tries under the same
cap.  With the checks and drawings of a single machine (`is_basic`,
`dot_machine`), this is all that translation between local types and
machines, and the equation systems of `generalized`, need: neither loads
RS_k (`cfsm`).
"""

from __future__ import annotations

import os
from .errors import ResourceLimit
from .syntax import Action, Machine, System

DEFAULT_NODE_CAP = 1_000_000


def node_cap() -> int:
    """The cap on the nodes of every search: MPST_NODE_CAP, or
    DEFAULT_NODE_CAP when it is unset or empty.  Raises ValueError when it
    is not an integer of at least 1."""
    var = os.environ.get("MPST_NODE_CAP")
    if not var:
        return DEFAULT_NODE_CAP
    try:
        cap = int(var)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MPST_NODE_CAP must be an integer >= 1, not {var!r}")
    return cap


def _trie(start, step, max_len: int, k: int) -> dict:
    """The trace trie of every view: a prefix-closed nested dict from Action
    to sub-trie of the runs of at most max_len steps from start, where
    step(state, k) lists the enabled (action, state') pairs.  The walk is
    level-synchronous over (state, trie node) pairs, deduplicated so that
    converging interleavings do not multiply the frontier.  It keeps its own
    loop: `_bfs` interns each state once, whatever its depth.  Raises
    ValueError for k < 1 and ResourceLimit past `node_cap()` trie nodes."""
    if k < 1:
        raise ValueError("bound k must be >= 1")
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


def _bfs(start, step, what: str) -> tuple[list, list]:
    """Breadth-first search from start, where step(node) lists the
    (label, node') pairs leaving node; each node is interned to its BFS
    index on first sight.

    Returns the nodes in BFS order and the successor row of each, a flat
    list [label, j, label, j, ...] in step order (`_parents` reads the BFS
    tree off the rows).  Raises ResourceLimit ("<what> exceeded the node
    cap of <cap>") as soon as there are more than `node_cap()` nodes."""
    cap = node_cap()
    nodes = [start]
    index = {start: 0}
    rows = []
    # nodes grows while it is walked: the walk is the BFS queue
    for node in nodes:
        row = []
        for label, nxt in step(node):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(nodes)
                nodes.append(nxt)
                if len(nodes) > cap:
                    raise ResourceLimit(
                        f"{what} exceeded the node cap of {cap}")
            row.append(label)
            row.append(j)
        rows.append(row)
    return nodes, rows


def _machine(owner: str, start, step, what: str, prefix: str) -> Machine:
    """The machine of owner over `_bfs(start, step, what)`: the i-th node
    is state prefix + i, and each row entry (action, j) a transition."""
    _, rows = _bfs(start, step, what)
    return Machine(owner, f"{prefix}0", tuple(
        (f"{prefix}{i}", act, f"{prefix}{j}") for i, row in enumerate(rows)
        for act, j in zip(row[::2], row[1::2])))


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


def _parents(rows: list) -> list:
    """The BFS parent (i, label) of each `_bfs` node, None for the start:
    the first entry in row order that reaches it, which is where `_bfs`
    found it, so that `_path` from node j gives a shortest path to it."""
    parents: list = [None] * len(rows)
    for i, row in enumerate(rows):
        for label, j in zip(row[::2], row[1::2]):
            if j and parents[j] is None:
                parents[j] = (i, label)
    return parents


def _path(parents: list, i: int) -> tuple:
    """The labels along `_parents` from the start to node i."""
    acc = []
    while (prev := parents[i]) is not None:
        i, label = prev
        acc.append(label)
    return tuple(reversed(acc))


def _peer(a: Action) -> str:
    return a.receiver if a.op == "!" else a.sender


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
        peers = {_peer(a) for _, a, _ in m.outgoing(q)}
        if len(peers) > 1:
            reasons.append(f"not directed: state {q} talks to {sorted(peers)}")
        if m.is_mixed(q):
            reasons.append(f"mixed state: {q} both sends and receives")
    return (not reasons, tuple(reasons))


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
