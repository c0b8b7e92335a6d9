"""Operational engine for communicating systems.

Configurations pair the joint control state with one FIFO word per ordered
participant pair.  Exploration is k-bounded: a send is enabled only while its
channel holds fewer than k messages.  It steps int keys (see `_Table`), each
word written out in its channel's field, by adding deltas; a key holds every
channel some transition uses, and a configuration's own table also every
channel it holds a word on.  Iteration orders are deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from .errors import ResourceLimit
from .search import _bfs, _can_reach, _parents, _path, _peer, _preds, node_cap
from .syntax import Action, Machine, System, _Record


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
# The exploration kernel: every analysis steps with `_steps`, the one FIFO
# step of the toolkit, on the int keys of a `_Table`, and builds `Config`s
# only for callers.  Local types and equation systems run on it too, as the
# machine systems of `to_machine` and `gto_machine`.

def _check(s: System) -> dict:
    """The labels sent on each channel used, kept on s.  ValueError: a move
    on a self-channel, of another participant, or to one without a machine."""
    if "_used" in s.__dict__:
        return s.__dict__["_used"]
    used: dict = {}
    for _, m in s.machines:
        for _, a, _ in m.transitions:
            if a.sender == a.receiver:
                raise ValueError(f"machine {m.owner} uses the self-channel "
                                 f"{a.sender}{a.receiver}")
            if a.subject != m.owner:
                raise ValueError(f"machine {m.owner} holds {a}, an action "
                                 f"of {a.subject}")
            used.setdefault(a.channel, set()).update(
                (a.label,) if a.op == "!" else ())
    stray = {q for ch in used for q in ch}.difference(s.participants)
    if stray:
        q = min(stray)
        owner = next(m.owner for _, m in s.machines
                     for _, a, _ in m.transitions if q in a.channel)
        raise ValueError(f"machine {owner} talks to {q}, which has no "
                         f"machine in the system")
    s.__dict__["_used"] = used
    return used


class _Table:
    """A system compiled at the send bound k, each configuration one int:
    from the highest bits down, one region per participant in sorted order,
    its state code (flags final, receiving and has-sends over the index in
    `names`), then the field of each channel that it receives on and that
    some move uses or c holds a word on (`chans`).  A field is the word: m =
    max(k, len of c's word) digits of b bits, head lowest, a digit being a
    label's index in `fields[j]` = (shift, mask, b, length shift, sorted
    labels, words decoded by value), under the length in m.bit_length() bits
    (the channel's bits in `nonempty`).  `at` maps a bit_length to (mask
    under the region, state shift and mask, moves by state index, region
    mask, unspecified reception by region value), a move being (action,
    field shift, field mask, deltas, (is_send, channel, digit, code change)).
    s is checked by `_check`."""

    __slots__ = ("k", "width", "chans", "codes", "names", "at", "fields",
                 "cand", "nonempty", "final", "receiving", "start")

    def __init__(self, s: System, k: int, c: Config | None = None):
        machines = [s.machine(p) for p in s.participants]
        used = _check(s)
        self.k, self.width = k, len(s.channels)
        self.chans = tuple(i for i, ch in enumerate(s.channels)
                           if ch in used or c is not None and c.buffers[i])
        chans = {s.channels[i]: j for j, i in enumerate(self.chans)}
        self.fields = [None] * len(chans)
        self.codes, self.names, self.at, regions = [], [], [None], []
        low = nonempty = final = 0
        digit = {}  # (channel, label): the label's digit on the channel
        for m in reversed(machines):
            base = low
            for ch, j in reversed(chans.items()):
                if ch[1] == m.owner:
                    w = c.buffers[self.chans[j]] if c is not None else ()
                    labels = tuple(sorted(set(w).union(used.get(ch, ()))))
                    digit.update(((ch, x), i) for i, x in enumerate(labels))
                    n = max(k, len(w))
                    b = max(len(labels) - 1, 0).bit_length()
                    lsh, bits = n * b, n * b + n.bit_length()
                    self.fields[j] = (low, (1 << bits) - 1, b, lsh, labels, {})
                    nonempty |= (1 << bits) - (1 << lsh) << low
                    low += bits
            states = sorted(m.states | {m.initial})
            bits = (len(states) - 1).bit_length()
            ops = [{a.op for _, a, _ in m.outgoing(q)} for q in states]
            self.codes.insert(0, {q: ((not o) << 2 | (o == {"?"}) << 1
                                      | ("!" in o)) << bits | x
                                  for x, (q, o) in enumerate(zip(states, ops))})
            self.names.insert(0, (low, (1 << bits) - 1, states))
            final |= 4 << low + bits  # receiving and has sends just under
            low += bits + 3
            regions.append((m, self.codes[0], self.names[0], base, low))
        for m, codes, (sh, mask, states), base, top in regions:
            table = [tuple((a, *self.fields[j][:2], {},
                            (a.op == "!", j, digit.get((a.channel, a.label)),
                             codes[d] - codes[q]))
                           for _, a, d in m.outgoing(q)
                           for j in (chans[a.channel],)) for q in states]
            self.at += [((1 << base) - 1, sh, mask, table,
                         (1 << top) - (1 << base), {})] * (top - base)
        self.cand, self.nonempty = final >> 2 | nonempty, nonempty
        self.final, self.receiving = final, final >> 1
        self.start = _key(self, initial(s))


def _table(s: System, k: int | None, c: Config | None = None) -> _Table:
    """The table of s at bound k (None: the least power of two above c's
    longest word), kept on s.  A c is checked; a word of c longer than k or
    with a label never sent on its channel (any label, on a channel that no
    move uses) gets c a table of its own, so that c has a key."""
    if k is None:
        k = 1 << max(map(len, c.buffers), default=0).bit_length()
    if k < 1:
        raise ValueError("bound k must be >= 1")
    tables = s.__dict__.setdefault("_tables", {})
    t = tables.get(k) or tables.setdefault(k, _Table(s, k))
    if c is None:
        return t
    if len(c.states) != len(t.codes) or len(c.buffers) != t.width:
        raise ValueError(f"a configuration of {len(t.codes)} local states "
                         f"and {t.width} buffers expected, not "
                         f"{len(c.states)} and {len(c.buffers)}")
    for p, q, codes in zip(s.participants, c.states, t.codes):
        if q not in codes:
            raise ValueError(f"{q!r} is not a state of {p}")
    used = _check(s)
    if any(len(w) > k or not used.get(ch, set()).issuperset(w)
           for ch, w in zip(s.channels, c.buffers) if w):
        t = _Table(s, k, c)
    return t


def _key(t: _Table, c: Config) -> int:
    """The key of c, for a t of `_table(s, k, c)`; `_config` inverts it."""
    key = sum(codes[q] << sh for (sh, _, _), codes, q
              in zip(t.names, t.codes, c.states))
    for i, (sh, _, b, lsh, labels, _) in zip(t.chans, t.fields):
        w = c.buffers[i]
        key += (sum(labels.index(x) << y * b for y, x in enumerate(w))
                + (len(w) << lsh)) << sh
    return key


def _states(t: _Table, key: int) -> tuple[str, ...]:
    return tuple(states[key >> sh & mask] for sh, mask, states in t.names)


def _config(t: _Table, key: int) -> Config:
    """The configuration of key, empty words on the channels t leaves out."""
    bufs = [()] * t.width
    for i, (sh, mask, b, lsh, labels, words) in zip(t.chans, t.fields):
        v = key >> sh & mask
        if v not in words:
            words[v] = tuple(labels[v >> y * b & (1 << b) - 1]
                             for y in range(v >> lsh))
        bufs[i] = words[v]
    return Config(_states(t, key), tuple(bufs))


def _delta(t: _Table, deltas: dict, v: int, move: tuple, sh: int):
    """The FIFO rules GGR1/GGR2 on a field holding v: a send below the bound
    puts its label's digit x at the word's length n and adds 1 to n, and a
    receive of x at the head shifts the digits down by b and takes 1 from n.
    The delta of the move (its participant's state at sh), None when it is
    not enabled; kept in deltas."""
    send, j, x, dcode = move
    fsh, _, b, lsh, _, _ = t.fields[j]
    n, d = v >> lsh, None
    if send and n < t.k or not send and n and v & (1 << b) - 1 == x:
        w = v + (1 << lsh | x << n * b) if send \
            else n - 1 << lsh | (v & (1 << lsh) - 1) >> b
        d = (dcode << sh) + (w - v << fsh)
    deltas[v] = d
    return d


def _steps(t: _Table, key: int) -> list:
    """Every enabled move from key, as (action, key'), in participant order
    and then `Machine.outgoing` order.  Only the participants with a set bit
    in key & `cand` (sends or a non-empty channel) are visited, from the
    top; each key' is key plus a delta kept per (move, field value)."""
    out = []
    at = t.at
    todo = key & t.cand
    while todo:
        below, sh, mask, table, _, _ = at[todo.bit_length()]
        todo &= below
        for act, fsh, fmask, deltas, move in table[key >> sh & mask]:
            v = key >> fsh & fmask
            try:
                d = deltas[v]
            except KeyError:
                d = _delta(t, deltas, v, move, sh)
            if d is not None:
                out.append((act, key + d))
    return out


def _explore(s: System, k: int) -> tuple[list, list]:
    """`_bfs` over the keys of RS_k, rows in `_steps` order (that of `fire`
    and `reach`'s edges); ValueError for k < 1, ResourceLimit past the cap."""
    t = _table(s, k)
    return _bfs(t.start, lambda key: _steps(t, key), "reachability set")


def fire(c: Config, s: System, k: int | None = None) -> tuple[tuple[Action, Config], ...]:
    """All enabled transitions from c (k-bounded when k is given).  Raises
    ValueError for k < 1 and for a c that is not a configuration of s."""
    t = _table(s, k, c)
    return tuple((act, _config(t, key)) for act, key in _steps(t, _key(t, c)))


class _Configs(Sequence):
    """RS_k's configurations in BFS order, each decoded from its key by
    `_config` on first use, then one shared object."""

    def __init__(self, t: _Table, keys: list):
        self._t, self._keys, self._seen = t, keys, [None] * len(keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        c = self._seen[i]
        if c is None:
            c = self._seen[i] = _config(self._t, self._keys[i])
        return c


class _Edges:
    """RS_k's transitions, (Config, Action, Config) triples built while
    walking: each configuration's in `fire` order, in BFS order."""

    def __init__(self, configs: _Configs, rows: list):
        self._configs, self._rows = configs, rows

    def __len__(self) -> int:
        return sum(map(len, self._rows)) // 2

    def __iter__(self):
        for c, row in zip(self._configs, self._rows):
            for act, j in zip(row[::2], row[1::2]):
                yield c, act, self._configs[j]


class ReachSet(_Record):
    """RS_k of system, equal and hashed by (system, k), of which it is a
    function.  The constructor explores it (ValueError for k < 1,
    ResourceLimit past `node_cap()` configurations) and keeps `_explore`'s
    keys and rows in the `__dict__`, with the views `configs` and `edges`
    over them; `dot_reach` reads the keys and rows alone."""

    __slots__ = ("system", "k", "__dict__")

    def __init__(self, system: System, k: int):
        super().__init__(system, k)
        keys, rows = _explore(system, k)
        configs = _Configs(_table(system, k), keys)
        self.__dict__.update(_keys=keys, _rows=rows, configs=configs,
                             edges=_Edges(configs, rows))

    @property
    def initial(self) -> Config:
        return self.configs[0]


def reach(s: System, k: int) -> ReachSet:
    """RS_k of s, explored at the call (see `ReachSet`)."""
    return ReachSet(s, k)


# The flag sets `_flags` can return, sorted; no other combination holds.
_FINAL = ("final", "stable")
_DEADLOCK = ("deadlock", "stable")
_STABLE = ("stable",)
_ORPHAN = ("orphan",)
_UNSPECIFIED = ("unspecified_reception",)


def _stable(t: _Table, key: int) -> bool:
    """Whether every buffer of the configuration of key is empty."""
    return not key & t.nonempty


def _flags(t: _Table, key: int) -> tuple[str, ...]:
    """The sorted flags of the configuration of key, () when it is
    intermediate.  Stable: every buffer is empty.  Final: stable, every
    participant final.  Deadlock: stable, every participant receiving.
    Orphan: every participant final, some buffer non-empty.  Unspecified
    reception: a receiving participant finds another label first on every
    channel (checked per region value for the receivers of non-empty
    channels only)."""
    final = t.final
    if _stable(t, key):
        if key & final == final:
            return _FINAL
        if key & t.receiving == t.receiving:
            return _DEADLOCK
        return _STABLE
    if key & final == final:
        return _ORPHAN
    todo = key & t.nonempty
    while todo:
        below, sh, mask, table, region, memo = t.at[todo.bit_length()]
        todo &= below
        u = memo.get(key & region)
        if u is None:
            u = bool(key & region & t.receiving)
            for _, fsh, fmask, _, (_, j, x, _) in table[key >> sh & mask]:
                v = key >> fsh & fmask
                if not v or v & (1 << t.fields[j][2]) - 1 == x:
                    u = False
            memo[key & region] = u
        if u:
            return _UNSPECIFIED
    return ()


def classify(c: Config, s: System) -> frozenset[str]:
    """Configuration flags: stable/final/deadlock/orphan/unspecified_reception,
    or intermediate when none apply.  Multiple flags may hold."""
    t = _table(s, None, c)
    return frozenset(_flags(t, _key(t, c)) or ("intermediate",))


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
    within one configuration, each with a shortest path to it: the one
    along the BFS tree of `_explore` (see `_parents`).  The liveness
    counterexample is the first configuration in BFS order that cannot
    reach a final one.
    Raises ValueError for k < 1 and ResourceLimit when more than
    `node_cap()` configurations are found, exactly as `reach` does.

    Several components of machine factors (see `_components`) are decided
    one by one when the report is clean; otherwise RS_k itself is searched
    (`_product_safety`), and only then is s compiled whole."""
    if k < 1:
        raise ValueError("bound k must be >= 1")
    parts = _components(s)  # checks s as a whole, for every component
    report = parts and _split_safety(parts, k, check_liveness)
    return report or _product_safety(s, _table(s, k), check_liveness)


def _marks(t: _Table, keys: list, rows=None) -> tuple[list, list]:
    """Indices of the final keys, and of the bad or, given rows, stuck ones."""
    finals, bad = [], []
    for i, key in enumerate(keys):
        flags = _flags(t, key)
        if flags is _FINAL:
            finals.append(i)
        elif flags and (flags is not _STABLE or rows and not rows[i]):
            bad.append(i)
    return finals, bad


def _product_safety(s: System, t: _Table,
                    check_liveness: bool) -> SafetyReport:
    """`check_safety` by one search of RS_k, t being s's table at k.  Works
    on the BFS indices of `_explore`'s int keys: a `Config` is decoded, and
    the BFS tree built, only for a configuration reported."""
    keys, rows = _explore(s, t.k)
    finals, bad = _marks(t, keys)
    violations = []
    parents = _parents(rows) if bad else None
    for i in bad:
        c, path = _config(t, keys[i]), _path(parents, i)
        violations.extend((kind, path, c) for kind in _flags(t, keys[i])
                          if kind in BAD_FLAGS)
    liveness: bool | None = None
    counterexample = None
    if check_liveness and finals:
        dead = _can_reach(_preds(rows), finals).find(0)
        liveness = dead < 0
        if not liveness:
            counterexample = _config(t, keys[dead])
    return SafetyReport(t.k, tuple(violations), liveness, counterexample)


def _find(root: dict, x):
    """The representative of x in the union-find root, halving the path."""
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def _factors(m: Machine) -> tuple[dict, list] | None:
    """m's peers by class, {peer: i}, and each class's quotient {state:
    representative} by the moves with the other classes; None when m is
    directed or fails the gate.  Only the states reachable from the
    initial one and their moves count.  Peers share a class when a move
    with one changes the moves with the other.  The gate, which makes m
    the product of the quotients: states map one to one onto their tuples
    of quotient states, each with the same (action, quotient target) moves
    from all."""
    names = sorted(m.states | {m.initial})
    at = {q: i for i, q in enumerate(names)}
    # `_can_reach` along the successors marks what the initial state
    # reaches; uncapped, as m's states are its input, not a search's nodes
    seen = _can_reach([[at[d] for _, _, d in m.outgoing(q)] for q in names],
                      [at[m.initial]])
    states = [q for q, s in zip(names, seen) if s]
    trans = [t for q in states for t in m.outgoing(q)]
    pairs = {(q, _peer(a)) for q, a, _ in trans}
    if len(pairs) == len({q for q, _ in pairs}):
        return None
    acts = {(q, y): {a for _, a, _ in m.outgoing(q) if _peer(a) == y}
            for q, y in pairs}
    root = {y: y for _, y in pairs}
    for q, a, d in trans:
        for y in root:
            if acts.get((q, y)) != acts.get((d, y)):
                root[_find(root, y)] = _find(root, _peer(a))
    roots = sorted({_find(root, y) for y in root})
    index = {y: roots.index(_find(root, y)) for y in root}
    reps = []
    for i in range(len(roots)):
        root = {q: q for q in states}
        for q, a, d in trans:
            if index[_peer(a)] != i:
                root[_find(root, q)] = _find(root, d)
        rep, moves = {q: _find(root, q) for q in states}, {}
        for q in states:
            mv = {(a, rep[d]) for _, a, d in m.outgoing(q)
                  if index[_peer(a)] == i}
            if moves.setdefault(rep[q], mv) != mv:
                return None
        reps.append(rep)
    size = math.prod(len(set(rep.values())) for rep in reps)
    tuples = {tuple(rep[q] for rep in reps) for q in states}
    return (index, reps) if size == len(tuples) == len(states) else None


def _components(s: System) -> tuple[System, ...]:
    """The systems of the components of s, kept on s; () for one.  s is
    checked first.  One union-find over machine factors (p, i), i a class
    of `_factors` or 0 for a p kept whole: a move joins its factor to its
    peer's factor that holds the owner.  A component has each p's quotient
    by its classes in it, and a move; RS_k of s is their product."""
    parts = s.__dict__.get("_parts")
    if parts is None:
        used = _check(s)
        split = {p: _factors(m) or ({}, [None]) for p, m in s.machines}
        root = {(p, i): (p, i) for p, (_, reps) in split.items()
                for i in range(len(reps))}
        for p, q in used:  # every move on the channel pq joins these two
            x, y = (p, split[p][0].get(q, 0)), (q, split[q][0].get(p, 0))
            root[_find(root, x)] = _find(root, y)
        groups: dict = {}  # {p: its classes in the component}
        for p, i in root:
            groups.setdefault(_find(root, (p, i)), {}).setdefault(
                p, set()).add(i)
        groups = [g for g in groups.values()
                  if any(s.machine(p).transitions for p in g)]
        parts = s.__dict__["_parts"] = () if len(groups) < 2 else tuple(
            System(tuple((p, _quotient(s.machine(p), *split[p], c))
                         for p, c in g.items())) for g in groups)
    return parts


def _quotient(m: Machine, index: dict, reps: list, classes: set) -> Machine:
    """m on the classes, over tuples of their `_factors` quotients of the
    states reachable from m's initial one."""
    if len(classes) == len(reps):
        return m
    reps = [reps[i] for i in sorted(classes)]
    name = {q: tuple(rep[q] for rep in reps) for q in reps[0]}
    return Machine(m.owner, name[m.initial], tuple(
        {(name[q], a, name[d]) for q, a, d in m.transitions
         if q in name and index[_peer(a)] in classes}))


def _split_safety(parts: tuple, k: int,
                  check_liveness: bool) -> SafetyReport | None:
    """The clean report of the system of the components parts, None when
    it may not be clean.  A participant is final when its factors all are,
    receiving when they are final or receiving and not all final.  So a
    bad flag of the product shows in a component, but a deadlock only as a
    stuck one (stable, not final, no moves; tests/data/triangle.cfsm).
    Final configurations and liveness compose.  Raises ResourceLimit as
    soon as the product of the sizes exceeds `node_cap()`."""
    cap, size, scans = node_cap(), 1, []
    for part in parts:
        keys, rows = _explore(part, k)
        size *= len(keys)
        if size > cap:
            raise ResourceLimit(
                f"reachability set exceeded the node cap of {cap}")
        finals, bad = _marks(_table(part, k), keys, rows)
        if bad:
            return None
        scans.append((rows, finals))
    if not check_liveness or not all(finals for _, finals in scans):
        return SafetyReport(k, (), None)
    if any(_can_reach(_preds(rows), finals).find(0) >= 0
           for rows, finals in scans):
        return None
    return SafetyReport(k, (), True)


# --------------------------------------------------------------------------
# Trace tries: `search._trie` builds them, `semantics.traces` for all views.

def trie_flatten(trie: dict) -> set[tuple]:
    """All traces in the trie (prefix-closed set of action tuples)."""
    out = set()
    todo = [((), trie)]
    while todo:
        pre, node = todo.pop()
        out.add(pre)
        todo.extend((pre + (act,), sub) for act, sub in node.items())
    return out


# --------------------------------------------------------------------------
# DOT export of RS_k (a machine's: `search.dot_machine`)

def dot_reach(rs: ReachSet) -> str:
    t = _table(rs.system, rs.k)
    lines = ["digraph reach {", "  rankdir=LR;"]
    for i, key in enumerate(rs._keys):
        label = ",".join(_states(t, key))
        shape = "doublecircle" if i == 0 else "circle"
        lines.append(f'  "c{i}" [shape={shape}, label="{label}"];')
    for i, row in enumerate(rs._rows):
        lines.extend(f'  "c{i}" -> "c{j}" [label="{act}"];'
                     for act, j in zip(row[::2], row[1::2]))
    lines.append("}")
    return "\n".join(lines) + "\n"
