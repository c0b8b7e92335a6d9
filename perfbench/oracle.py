"""Brute-force reference computations, written without the toolkit.

These run on the machine model of `families.py` and give the benchmark's
correctness checks an answer that does not come from the code under test:
reachability counts, trace counts, trace membership, the length of the
shortest trace that tells two systems apart, and whether a global type is
projectable onto every participant.
"""

from __future__ import annotations

from collections import deque


class Model:
    """A machine system with k-bounded FIFO channels."""

    def __init__(self, machines: dict, k: int):
        self.k = k
        self.parts = sorted(machines)
        self.out = []
        for p in self.parts:
            init, trans = machines[p]
            table: dict[str, list] = {}
            for s, a, d in trans:
                table.setdefault(s, []).append((a, d))
            self.out.append(table)
        self.initial = (tuple(machines[p][0] for p in self.parts), ())

    def successors(self, config):
        """(action, next config) pairs; buffers are a sorted tuple of
        (channel, word) items with empty words left out."""
        states, bufs = config
        bufd = dict(bufs)
        out = []
        for i, p in enumerate(self.parts):
            for a, d in self.out[i].get(states[i], ()):
                ch = (a[0], a[1])
                word = bufd.get(ch, ())
                if a[2] == "!":
                    if len(word) >= self.k:
                        continue
                    new = word + (a[3],)
                else:
                    if not word or word[0] != a[3]:
                        continue
                    new = word[1:]
                nb = dict(bufd)
                if new:
                    nb[ch] = new
                else:
                    nb.pop(ch, None)
                st = states[:i] + (d,) + states[i + 1:]
                out.append((a, (st, tuple(sorted(nb.items())))))
        return out

    def deterministic_successors(self, config) -> dict:
        succ = self.successors(config)
        table = dict(succ)
        if len(table) != len(succ):
            raise ValueError("oracle expects one successor per action")
        return table


def reach_counts(machines: dict, k: int) -> tuple[int, int]:
    """|RS_k| and its edge count by plain BFS."""
    m = Model(machines, k)
    seen = {m.initial}
    dq = deque([m.initial])
    edges = 0
    while dq:
        c = dq.popleft()
        for _, c2 in m.successors(c):
            edges += 1
            if c2 not in seen:
                seen.add(c2)
                dq.append(c2)
    return len(seen), edges


def trace_count(machines: dict, k: int, max_len: int) -> int:
    """Number of distinct traces of length 0..max_len.  The systems used
    are deterministic (one successor per action), so traces and paths from
    the initial configuration are in one-to-one correspondence."""
    m = Model(machines, k)
    layer = {m.initial: 1}
    total = 1
    for _ in range(max_len):
        nxt: dict = {}
        for c, ways in layer.items():
            for c2 in m.deterministic_successors(c).values():
                nxt[c2] = nxt.get(c2, 0) + ways
        total += sum(nxt.values())
        layer = nxt
    return total


def is_trace(machines: dict, k: int, word) -> bool:
    m = Model(machines, k)
    c = m.initial
    for a in word:
        c = m.deterministic_successors(c).get(a)
        if c is None:
            return False
    return True


def shortest_distinction(m1: dict, m2: dict, k: int, max_len: int) -> int | None:
    """Length of the shortest trace of exactly one of the two systems, or
    None when they agree up to max_len."""
    a, b = Model(m1, k), Model(m2, k)
    frontier = {(a.initial, b.initial)}
    seen = set(frontier)
    for depth in range(1, max_len + 1):
        nxt = set()
        for c1, c2 in frontier:
            s1 = a.deterministic_successors(c1)
            s2 = b.deterministic_successors(c2)
            if s1.keys() != s2.keys():
                return depth
            for act in s1:
                pair = (s1[act], s2[act])
                if pair not in seen:
                    seen.add(pair)
                    nxt.add(pair)
        frontier = nxt
    return None


# --------------------------------------------------------------------------
# Projectability of the global types of `families.py`, following the
# projection equations (Def. 3.1): senders select, receivers branch, third
# parties merge the projections of the branches.  Local types are tuples
# ("end",) | ("var", t) | ("rec", t, body) | (op, peer, ((label, T), ...))
# with op "!" or "?" and the branches sorted by label.

class NotProjectable(Exception):
    pass


def _merge(t1, t2):
    """T merged with T is T; receptions from the same peer merge branch by
    branch; rec is homomorphic; nothing else merges."""
    if t1 == t2:
        return t1
    if t1[0] == t2[0] == "?" and t1[1] == t2[1]:
        left, right = dict(t1[2]), dict(t2[2])
        both = {l: _merge(left[l], right[l]) if l in left and l in right
                else left.get(l, right.get(l)) for l in left.keys() | right.keys()}
        return ("?", t1[1], tuple(sorted(both.items())))
    if t1[0] == t2[0] == "rec" and t1[1] == t2[1]:
        return ("rec", t1[1], _merge(t1[2], t2[2]))
    raise NotProjectable(f"{t1} and {t2}")


def _project(g, p):
    tag = g[0]
    if tag == "end":
        return ("end",)
    if tag == "var":
        return g
    if tag == "rec":
        body = _project(g[2], p)
        return ("end",) if body == ("var", g[1]) else ("rec", g[1], body)
    _, src, dst, branches = g
    if p in (src, dst):
        return ("!" if p == src else "?", dst if p == src else src,
                tuple(sorted((l, _project(c, p)) for l, c in branches)))
    acc = None
    for _, c in branches:
        t = _project(c, p)
        acc = t if acc is None else _merge(acc, t)
    return acc


def _participants(g) -> set:
    if g[0] == "msg":
        return {g[1], g[2]}.union(*(_participants(c) for _, c in g[3]))
    return _participants(g[2]) if g[0] == "rec" else set()


def projectable(g) -> bool:
    """Whether g projects onto every participant that occurs in it."""
    try:
        for p in _participants(g):
            _project(g, p)
    except NotProjectable:
        return False
    return True
