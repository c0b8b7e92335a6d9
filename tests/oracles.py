"""Independent brute-force oracles, written before the main engines.

Everything here works on plain tuples/dicts and deliberately imports nothing
from the package under test, except the last two sections: the
compatibility check as first written, which runs on the package's machines
and builds its report records, so that their reprs compare, and the printer
and canonical form of types as first written, on the package's type nodes.
Systems are encoded as

    {participant: (initial_state, ((src, sender, receiver, op, label, dst), ...)), ...}

with op one of "!" / "?".  Actions are 4-tuples (sender, receiver, op, label).
Configurations are ((state, ...) in sorted-participant order,
((label, ...), ...) in sorted-channel order).
"""

import re
from collections import deque
from itertools import count


def participants(sys_enc):
    return tuple(sorted(sys_enc))


def channels(sys_enc):
    ps = participants(sys_enc)
    return tuple((p, q) for p in ps for q in ps if p != q)


def initial_config(sys_enc):
    ps = participants(sys_enc)
    return (tuple(sys_enc[p][0] for p in ps),
            tuple(() for _ in channels(sys_enc)))


def successors(sys_enc, config, k):
    """All k-bounded firings from config, in a fixed deterministic order."""
    ps = participants(sys_enc)
    chs = channels(sys_enc)
    pidx = {p: i for i, p in enumerate(ps)}
    cidx = {c: i for i, c in enumerate(chs)}
    states, bufs = config
    out = []
    for p in ps:
        here = states[pidx[p]]
        edges = sorted(e for e in sys_enc[p][1] if e[0] == here)
        for (_, s, r, op, lbl, dst) in edges:
            ci = cidx[(s, r)]
            if op == "!":
                if len(bufs[ci]) >= k:
                    continue
                nb = list(bufs)
                nb[ci] = nb[ci] + (lbl,)
            else:
                if not bufs[ci] or bufs[ci][0] != lbl:
                    continue
                nb = list(bufs)
                nb[ci] = nb[ci][1:]
            ns = list(states)
            ns[pidx[p]] = dst
            out.append(((s, r, op, lbl), (tuple(ns), tuple(nb))))
    return out


def rs(sys_enc, k, cap=200000):
    """The k-bounded reachability set and its transition edges (BFS)."""
    init = initial_config(sys_enc)
    seen = {init}
    edges = []
    q = deque([init])
    while q:
        c = q.popleft()
        for act, c2 in successors(sys_enc, c, k):
            edges.append((c, act, c2))
            if c2 not in seen:
                seen.add(c2)
                if len(seen) > cap:
                    raise RuntimeError("oracle cap exceeded")
                q.append(c2)
    return seen, edges


def traces(sys_enc, n, k):
    """All action sequences of length <= n over k-bounded executions."""
    init = initial_config(sys_enc)
    out = {()}
    frontier = {((), init)}
    for _ in range(n):
        nxt = set()
        for tr, c in frontier:
            for act, c2 in successors(sys_enc, c, k):
                nxt.add((tr + (act,), c2))
        frontier = nxt
        out |= {tr for tr, _ in frontier}
        if not frontier:
            break
    return frozenset(out)


def is_final_state(sys_enc, p, state):
    return all(e[0] != state for e in sys_enc[p][1])


def classify(sys_enc, config):
    """Set of flags per the configuration taxonomy (literal definitions)."""
    ps = participants(sys_enc)
    states, bufs = config
    flags = set()
    stable = all(not b for b in bufs)
    allfinal = all(is_final_state(sys_enc, p, states[i]) for i, p in enumerate(ps))
    if stable:
        flags.add("stable")
    if stable and allfinal:
        flags.add("final")
    receiving = []
    for i, p in enumerate(ps):
        outs = [e for e in sys_enc[p][1] if e[0] == states[i]]
        receiving.append(bool(outs) and all(e[3] == "?" for e in outs))
    if stable and not allfinal and all(receiving):
        flags.add("deadlock")
    if allfinal and any(bufs):
        flags.add("orphan")
    chs = channels(sys_enc)
    cidx = {c: i for i, c in enumerate(chs)}
    for i, p in enumerate(ps):
        outs = [e for e in sys_enc[p][1] if e[0] == states[i]]
        if not outs or not all(e[3] == "?" for e in outs):
            continue
        blocked = all(
            bufs[cidx[(e[1], e[2])]] and bufs[cidx[(e[1], e[2])]][0] != e[4]
            for e in outs)
        if blocked:
            flags.add("unspecified_reception")
            break
    return flags or {"intermediate"}


# ---------------------------------------------------------------------------
# Corpus encodings (machines written out by hand, independent of the
# package under test).

COMMIT = {
    "A": ("q0", (("q0", "A", "B", "!", "act", "q2"),
                 ("q2", "A", "C", "!", "commit", "q0"),
                 ("q0", "A", "B", "!", "quit", "q1"),
                 ("q1", "A", "C", "!", "finish", "q3"))),
    "B": ("q0", (("q0", "A", "B", "?", "act", "q2"),
                 ("q2", "B", "C", "!", "sig", "q0"),
                 ("q0", "A", "B", "?", "quit", "q1"),
                 ("q1", "B", "C", "!", "save", "q3"))),
    "C": ("q0", (("q0", "B", "C", "?", "sig", "q2"),
                 ("q2", "A", "C", "?", "commit", "q0"),
                 ("q0", "B", "C", "?", "save", "q1"),
                 ("q1", "A", "C", "?", "finish", "q3"))),
}

REMARK_ABC = {
    "A": ("q0", (("q0", "B", "A", "?", "a", "q1"),
                 ("q1", "C", "A", "?", "c", "q3"),
                 ("q0", "B", "A", "?", "b", "q2"),
                 ("q2", "C", "A", "?", "d", "q4"))),
    "B": ("q0", (("q0", "B", "A", "!", "a", "q1"),
                 ("q0", "B", "A", "!", "b", "q2"))),
    "C": ("q0", (("q0", "C", "A", "!", "c", "q1"),
                 ("q0", "C", "A", "!", "d", "q2"))),
}

REMARK_APRIME = {
    "A": ("q0", (("q0", "B", "A", "?", "a", "q1"),
                 ("q0", "B", "A", "?", "b", "q1"),
                 ("q1", "C", "A", "?", "c", "q2"),
                 ("q1", "C", "A", "?", "d", "q3"))),
    "B": REMARK_ABC["B"],
    "C": REMARK_ABC["C"],
}

# Buyer-seller, built from the recursive type and its dual:
# rec t. !title; ?quote; !{ok: !addrs; ?date; end, retry: t}
BUYER_SELLER = {
    "B": ("q0", (("q0", "B", "S", "!", "title", "q1"),
                 ("q1", "S", "B", "?", "quote", "q2"),
                 ("q2", "B", "S", "!", "ok", "q3"),
                 ("q2", "B", "S", "!", "retry", "q0"),
                 ("q3", "B", "S", "!", "addrs", "q4"),
                 ("q4", "S", "B", "?", "date", "q5"))),
    "S": ("q0", (("q0", "B", "S", "?", "title", "q1"),
                 ("q1", "S", "B", "!", "quote", "q2"),
                 ("q2", "B", "S", "?", "ok", "q3"),
                 ("q2", "B", "S", "?", "retry", "q0"),
                 ("q3", "B", "S", "?", "addrs", "q4"),
                 ("q4", "S", "B", "!", "date", "q5"))),
}

# Two machines, both waiting for the other: deadlock at the initial config.
DEADLOCK = {
    "A": ("q0", (("q0", "B", "A", "?", "x", "q1"),)),
    "B": ("q0", (("q0", "A", "B", "?", "y", "q1"),)),
}

# Two independent senders racing into one non-commuting receiver.
RACE = {
    "A": ("q0", (("q0", "B", "A", "?", "x", "q1"),
                 ("q0", "C", "A", "?", "y", "q2"))),
    "B": ("q0", (("q0", "B", "A", "!", "x", "q1"),)),
    "C": ("q0", (("q0", "C", "A", "!", "y", "q1"),)),
}

# A chooses; the left branch never informs C.
UNINFORMED = {
    "A": ("a0", (("a0", "A", "B", "!", "l", "a1"),
                 ("a0", "A", "B", "!", "r", "a2"),
                 ("a2", "A", "C", "!", "m", "a3"))),
    "B": ("b0", (("b0", "A", "B", "?", "l", "b1"),
                 ("b0", "A", "B", "?", "r", "b2"))),
    "C": ("c0", (("c0", "A", "C", "?", "m", "c1"),)),
}

# Data-transfer endpoint machines: A interleaves one log with data*/eof,
# B loops on data until eof, C takes log then save.
DATA_TRANSFER = {
    "A": ("s00", (("s00", "A", "B", "!", "data", "s10"),
                  ("s00", "A", "C", "!", "log", "s01"),
                  ("s10", "A", "B", "!", "data", "s10"),
                  ("s10", "A", "B", "!", "eof", "s20"),
                  ("s10", "A", "C", "!", "log", "s11"),
                  ("s01", "A", "B", "!", "data", "s11"),
                  ("s11", "A", "B", "!", "data", "s11"),
                  ("s11", "A", "B", "!", "eof", "s21"),
                  ("s20", "A", "C", "!", "log", "s21"))),
    "B": ("b0", (("b0", "A", "B", "?", "data", "b0"),
                 ("b0", "A", "B", "?", "eof", "b1"),
                 ("b1", "B", "C", "!", "save", "b2"))),
    "C": ("c0", (("c0", "A", "C", "?", "log", "c1"),
                 ("c1", "B", "C", "?", "save", "c2"))),
}


# ---------------------------------------------------------------------------
# Collections of local types stepped as terms: the reference for running
# them as machine systems.  A type is read by class name and unfolded by
# substitution.  A configuration is (types, buffers): the (participant,
# type) pairs in sorted order and one word per channel in `channels` order.

def _subst(t, var, repl):
    """t with repl for the free occurrences of the recursion variable var;
    repl is closed, so nothing is captured."""
    form = type(t).__name__
    if form == "LVar":
        return repl if t.var == var else t
    if form == "LRec":
        return t if t.var == var else type(t)(t.var,
                                              _subst(t.body, var, repl))
    if form in ("LSend", "LRecv"):
        return type(t)(t.peer, tuple((label, _subst(u, var, repl))
                                     for label, u in t.branches))
    return t


def plain_trie(trie):
    """A trace trie of the package with its actions as 4-tuples."""
    return {(a.sender, a.receiver, a.op, a.label): plain_trie(sub)
            for a, sub in trie.items()}


def local_steps(config, k):
    """The (action, config') steps of a collection of local types: each
    type, its recursion unfolded, sends any of its labels while the channel
    to its peer holds fewer than k words (any number when k is None), or
    receives the label at the head of the channel from its peer."""
    types, buffers = config
    ps = tuple(p for p, _ in types)
    index = {ch: i for i, ch in enumerate(
        (a, b) for a in ps for b in ps if a != b)}
    out = []
    for i, (p, t) in enumerate(types):
        while type(t).__name__ == "LRec":
            t = _subst(t.body, t.var, t)
        form = type(t).__name__
        if form == "LSend":
            ch, op = (p, t.peer), "!"
        elif form == "LRecv":
            ch, op = (t.peer, p), "?"
        else:
            continue
        j = index[ch]
        b = buffers[j]
        for label, cont in t.branches:
            if op == "!":
                if k is not None and len(b) >= k:
                    continue
                word = b + (label,)
            elif b and b[0] == label:
                word = b[1:]
            else:
                continue
            ts = list(types)
            ts[i] = (p, cont)
            bs = list(buffers)
            bs[j] = word
            out.append(((*ch, op, label), (tuple(ts), tuple(bs))))
    return out


# ---------------------------------------------------------------------------
# Equation systems (graph-shaped types): the reference for stepping, subset
# construction and labelled nets, written one form at a time.  An equation
# is any object with the fields of its form, told apart by class name, so
# nothing here imports the package.  Actions are 4-tuples as above; a
# multiset of holes is a sorted tuple of variables.

FORK_CAP = 8


class ForkCap(Exception):
    """A participant would hold more than FORK_CAP parallel holes."""


def _form(eq):
    return type(eq).__name__


def eq_defs(equations):
    """The equation defining each variable."""
    defs = {}
    for eq in equations:
        for v in ((eq.l1, eq.l2) if _form(eq) in ("Join", "Merge")
                  else (eq.lhs,)):
            defs[v] = eq
    return defs


def _put(ps, i, *new):
    return tuple(sorted(ps[:i] + ps[i + 1:] + new))


def gclosure(defs, ps, p):
    """Hole multisets silently reachable from ps; with p given (the global
    reading) exchanges that do not involve p are silent too."""
    seen = {ps}
    todo = deque([ps])
    while todo:
        cur = todo.popleft()
        if len(cur) > FORK_CAP:
            raise ForkCap(cur)
        nxt = []
        for i, x in enumerate(cur):
            eq = defs[x]
            form = _form(eq)
            if form == "Indir":
                nxt.append(_put(cur, i, eq.rhs))
            elif form == "Fork":
                nxt.append(_put(cur, i, eq.left, eq.right))
            elif form in ("GGChoice", "GLIChoice", "GLEChoice"):
                nxt.append(_put(cur, i, eq.left))
                nxt.append(_put(cur, i, eq.right))
            elif form == "Merge":
                nxt.append(_put(cur, i, eq.rhs))
            elif form == "Join":
                other = eq.l2 if x == eq.l1 else eq.l1
                rest = cur[:i] + cur[i + 1:]
                if other in rest:
                    j = rest.index(other)
                    nxt.append(tuple(sorted(rest[:j] + rest[j + 1:]
                                            + (eq.rhs,))))
            elif form == "GGMsg" and p is not None \
                    and p not in (eq.src, eq.dst):
                nxt.append(_put(cur, i, eq.cont))
        for cand in nxt:
            if cand not in seen:
                seen.add(cand)
                todo.append(cand)
    return tuple(sorted(seen))


def gfire(defs, ps, p):
    """The sends and receives of p enabled in ps, as (action, hole index,
    continuation) triples."""
    out = []
    for i, x in enumerate(ps):
        eq = defs[x]
        form = _form(eq)
        if form == "GGMsg":
            if eq.src == p:
                out.append(((p, eq.dst, "!", eq.label), i, eq.cont))
            elif eq.dst == p:
                out.append(((eq.src, p, "?", eq.label), i, eq.cont))
        elif form == "GLSend":
            out.append(((p, eq.peer, "!", eq.label), i, eq.cont))
        elif form == "GLRecv":
            out.append(((eq.peer, p, "?", eq.label), i, eq.cont))
    return out


def gsteps(defs_by, ps, holes, buffers, k, global_view):
    """The sorted, duplicate-free (action, holes', buffers') steps of a
    configuration of equation systems, one defs map per participant."""
    index = {ch: i for i, ch in enumerate(
        (a, b) for a in ps for b in ps if a != b)}
    out = set()
    for i, p in enumerate(ps):
        defs = defs_by[p]
        for elem in gclosure(defs, holes[i], p if global_view else None):
            for act, hi, cont in gfire(defs, elem, p):
                ci = index[(act[0], act[1])]
                b = buffers[ci]
                if act[2] == "!":
                    if k is not None and len(b) >= k:
                        continue
                    b = b + (act[3],)
                elif b and b[0] == act[3]:
                    b = b[1:]
                else:
                    continue
                hs = list(holes)
                hs[i] = _put(elem, hi, cont)
                bs = list(buffers)
                bs[ci] = b
                out.add((act, tuple(hs), tuple(bs)))
    return sorted(out)


def gmachine(defs, entry, owner, global_view):
    """The subset construction of an equation system as (state, action,
    state) triples, state s<i> the i-th set found in breadth-first order
    with actions taken in sorted order; in the global view the exchanges
    that do not involve owner are silent.  Each hole multiset of a set is
    closed on its own."""

    def close(states):
        acc = set()
        for ps in states:
            acc.update(gclosure(defs, ps, owner if global_view else None))
        return frozenset(acc)

    order = [close({(entry,)})]
    index = {order[0]: 0}
    edges = set()
    for i, cur in enumerate(order):
        moves = {}
        for ps in cur:
            for act, hi, cont in gfire(defs, ps, owner):
                moves.setdefault(act, set()).add(_put(ps, hi, cont))
        for act in sorted(moves):
            nxt = close(moves[act])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            edges.add((f"s{i}", act, f"s{index[nxt]}"))
    return edges


def petri(equations, entry, owner=None):
    """The labelled net of an equation system: (places, transitions,
    initial), a transition being (name, label or None, inputs, outputs)."""
    places = tuple(sorted(eq_defs(equations)))
    ts = []

    def add(label, ins, outs):
        ts.append((f"t{len(ts)}", label, ins, outs))

    for eq in equations:
        form = _form(eq)
        if form == "GLSend":
            add(f"{owner}{eq.peer}!{eq.label}" if owner
                else f"{eq.peer}!{eq.label}", (eq.lhs,), (eq.cont,))
        elif form == "GLRecv":
            add(f"{eq.peer}{owner}?{eq.label}" if owner
                else f"{eq.peer}?{eq.label}", (eq.lhs,), (eq.cont,))
        elif form == "GGMsg":
            add(f"{eq.src}->{eq.dst}:{eq.label}", (eq.lhs,), (eq.cont,))
        elif form == "Fork":
            add(None, (eq.lhs,), (eq.left, eq.right))
        elif form == "Join":
            add(None, (eq.l1, eq.l2), (eq.rhs,))
        elif form in ("GGChoice", "GLIChoice", "GLEChoice"):
            add(None, (eq.lhs,), (eq.left,))
            add(None, (eq.lhs,), (eq.right,))
        elif form == "Merge":
            add(None, (eq.l1,), (eq.rhs,))
            add(None, (eq.l2,), (eq.rhs,))
        elif form == "Indir":
            add(None, (eq.lhs,), (eq.rhs,))
    return places, tuple(ts), entry


def is_safe(transitions, initial, cap=200000):
    """(True, None) when no reachable marking puts two tokens on a place,
    else (False, the first such marking found breadth-first as
    {place: tokens})."""
    init = frozenset({(initial, 1)})
    seen = {init}
    todo = deque([init])
    while todo:
        marking = dict(todo.popleft())
        for _, _, ins, outs in transitions:
            if any(marking.get(x, 0) < 1 for x in ins):
                continue
            m2 = dict(marking)
            for x in ins:
                m2[x] -= 1
            for x in outs:
                m2[x] = m2.get(x, 0) + 1
            if any(v > 1 for v in m2.values()):
                return False, {p: v for p, v in sorted(m2.items()) if v}
            key = frozenset((p, v) for p, v in m2.items() if v)
            if key not in seen:
                seen.add(key)
                if len(seen) > cap:
                    raise RuntimeError("oracle cap exceeded")
                todo.append(key)
    return True, None


# ---------------------------------------------------------------------------
# "Can it still reach" questions over RS_k, asked the way the session checks
# first asked them: liveness by a forward search from every configuration,
# the receiver sets of each branch by a search and a fixpoint of their own,
# the order of two receives by forward searches, and subtyping as a
# simulation fixpoint.  Actions are 4-tuples as above.

def rs_graph(sys_enc, k):
    """RS_k laid out breadth-first: the configurations in order of first
    sight, the (action, index) successors of each in `successors` order,
    and the BFS parent (index, action) of each, None for the first."""
    nodes = [initial_config(sys_enc)]
    index = {nodes[0]: 0}
    succ, parents = [], [None]
    for i, c in enumerate(nodes):
        row = []
        for act, c2 in successors(sys_enc, c, k):
            if c2 not in index:
                index[c2] = len(nodes)
                nodes.append(c2)
                parents.append((i, act))
            row.append((act, index[c2]))
        succ.append(row)
    return nodes, succ, parents


def _forward(succ, i):
    """The indices reachable from i, i included."""
    seen = {i}
    todo = [i]
    while todo:
        for _, j in succ[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def liveness(sys_enc, k):
    """(liveness, counterexample): (None, None) when RS_k holds no final
    configuration; otherwise whether every configuration can reach a final
    one, and the first in breadth-first order that cannot."""
    nodes, succ, _ = rs_graph(sys_enc, k)
    can = ["final" in classify(sys_enc, c) for c in nodes]
    if not any(can):
        return None, None
    # the least fixpoint of: can finish = final, or has a successor that
    # can finish; latest first, as successors mostly come later in BFS order
    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(nodes))):
            if not can[i] and any(can[j] for _, j in succ[i]):
                can[i] = changed = True
    if all(can):
        return True, None
    return False, nodes[can.index(False)]


def _moves(sys_enc, p, q, op):
    """p's sends or receives at q as (action, target) pairs, sorted."""
    return [((e[1], e[2], e[3], e[4]), e[5])
            for e in sorted(sys_enc[p][1]) if e[0] == q and e[3] == op]


def complete_receiver_sets(succ, c0):
    """The receiver sets that cannot grow any further from some point
    reachable after configuration c0: a search over (configuration,
    receivers so far), then a fixpoint that marks every node that can
    still reach a larger set through nodes holding its own."""
    nodes = [(c0, frozenset())]
    index = {nodes[0]: 0}
    nexts = []
    for i, r in nodes:
        row = []
        for act, j in succ[i]:
            n = (j, r | {act[1]} if act[2] == "?" else r)
            if n not in index:
                index[n] = len(nodes)
                nodes.append(n)
            row.append(index[n])
        nexts.append(row)
    sets = [r for _, r in nodes]
    can_grow = [any(sets[m] > r for m in ms) for r, ms in zip(sets, nexts)]
    changed = True
    while changed:
        changed = False
        for n, ms in enumerate(nexts):
            if not can_grow[n] and any(
                    can_grow[m] for m in ms if sets[m] == sets[n]):
                can_grow[n] = True
                changed = True
    return frozenset(r for r, grow in zip(sets, can_grow) if not grow)


def receiver_property(sys_enc, k):
    """At every configuration where a participant can take each of its two
    or more sends, the branches share a complete receiver set."""
    ps = participants(sys_enc)
    nodes, succ, _ = rs_graph(sys_enc, k)
    for c, moves in zip(nodes, succ):
        for p, q in zip(ps, c[0]):
            acts = [a for a, _ in _moves(sys_enc, p, q, "!")]
            if len(acts) < 2:
                continue
            succs = dict(moves)
            if any(a not in succs for a in acts):
                continue
            families = [complete_receiver_sets(succ, succs[a]) for a in acts]
            if not frozenset.intersection(*families):
                return False
    return True


def _path(parents, i):
    acc = []
    while parents[i] is not None:
        i, act = parents[i]
        acc.append(act)
    return tuple(reversed(acc))


def _subject(a):
    return a[0] if a[2] == "!" else a[1]


def _decider(phi):
    """Senders in the causal chain of phi's last action with no earlier
    receive of their own in it."""
    if not phi:
        return frozenset()
    chain = [phi[-1]]
    for u in reversed(phi[:-1]):
        dual = (u[0], u[1], "?" if u[2] == "!" else "!", u[3])
        if any(dual == v or _subject(u) == _subject(v) for v in chain):
            chain.insert(0, u)
    return frozenset(
        _subject(t) for i, t in enumerate(chain) if t[2] == "!" and not any(
            v[2] == "?" and _subject(v) == _subject(t) for v in chain[:i]))


def unique_sender(sys_enc, k):
    """Two receives of one participant at one state that do not commute,
    neither able to follow the other, are decided by one participant: the
    same single decider after the longest common prefix of their shortest
    executions."""
    ps = participants(sys_enc)
    nodes, succ, parents = rs_graph(sys_enc, k)
    by_act = {}
    for c, moves in enumerate(succ):
        for act, c2 in moves:
            by_act.setdefault(act, []).append((c, c2))
    for i, p in enumerate(ps):
        init, edges = sys_enc[p]
        states = {init} | {e[0] for e in edges} | {e[5] for e in edges}

        def targets(q, a):
            return {d for b, d in _moves(sys_enc, p, q, a[2]) if b == a}

        for q in sorted(states):
            recvs = _moves(sys_enc, p, q, "?")
            for x, (a1, d1) in enumerate(recvs):
                for a2, d2 in recvs[x + 1:]:
                    if a1 == a2 or targets(d1, a2) & targets(d2, a1):
                        continue
                    inst1 = [(c, c2) for c, c2 in by_act.get(a1, ())
                             if nodes[c][0][i] == q]
                    inst2 = [(c, c2) for c, c2 in by_act.get(a2, ())
                             if nodes[c][0][i] == q]
                    if not inst1 or not inst2:
                        continue
                    starts1 = {c for c, _ in inst1}
                    starts2 = {c for c, _ in inst2}
                    if any(_forward(succ, c2) & starts2 for _, c2 in inst1) \
                            or any(_forward(succ, c2) & starts1
                                   for _, c2 in inst2):
                        continue
                    best = None
                    for w1 in sorted(_path(parents, c) + (a1,)
                                     for c, _ in inst1):
                        for w2 in sorted(_path(parents, c) + (a2,)
                                         for c, _ in inst2):
                            d = 0
                            while d < min(len(w1), len(w2)) \
                                    and w1[d] == w2[d]:
                                d += 1
                            if best is None or d > best[2]:
                                best = (w1, w2, d)
                    w1, w2, d = best
                    s1, s2 = _decider(w1[d:]), _decider(w2[d:])
                    if not (len(s1) == 1 and s1 == s2):
                        return False
    return True


def subtype(t1, t2):
    """Local-type subtyping as a greatest simulation: sends with the same
    peer and label set, receives with the same peer and fewer labels, end
    with end.  Types are read by class name; recursion is unfolded by
    closures, a term paired with the binders in scope, not by
    substitution."""

    def head(t, env):
        while True:
            form = type(t).__name__
            if form == "LRec":
                env = env + ((t.var, (t, env)),)
                t = t.body
            elif form == "LVar" and t.var in dict(env):
                t, env = dict(env)[t.var]
            else:
                return t, env

    def requires(a, b):
        """Whether the heads a and b can match, with the pairs they then
        depend on."""
        (ta, ea), (tb, eb) = a, b
        form = type(ta).__name__
        if form != type(tb).__name__:
            return False, []
        if form == "LEnd":
            return True, []
        if form not in ("LSend", "LRecv") or ta.peer != tb.peer:
            return False, []
        la, lb = dict(ta.branches), dict(tb.branches)
        if set(la) != set(lb) if form == "LSend" else not set(la) <= set(lb):
            return False, []
        return True, [(head(la[l], ea), head(lb[l], eb)) for l in la]

    start = (head(t1, ()), head(t2, ()))
    shape_ok, succ = {}, {}
    pending = [start]
    while pending:
        pair = pending.pop()
        if pair not in succ:
            shape_ok[pair], succ[pair] = requires(*pair)
            pending.extend(succ[pair])
    ok = {pair for pair, good in shape_ok.items() if good}
    changed = True
    while changed:
        changed = False
        for pair in list(ok):
            if any(n not in ok for n in succ[pair]):
                ok.discard(pair)
                changed = True
    return start in ok


if __name__ == "__main__":
    for name, enc in [("commit", COMMIT), ("remark_abc", REMARK_ABC),
                      ("remark_aprime", REMARK_APRIME),
                      ("buyer_seller", BUYER_SELLER),
                      ("data_transfer", DATA_TRANSFER)]:
        for k in (1, 2, 3):
            cfgs, edges = rs(enc, k)
            stables = sum(1 for c in cfgs if all(not b for b in c[1]))
            print(f"{name}: |RS_{k}| = {len(cfgs)}  edges = {len(edges)}  stable = {stables}")
        t2 = traces(enc, 2, 1)
        print(f"{name}: |traces(n=2,k=1)| = {len(t2)}")


# ---------------------------------------------------------------------------
# The token scanner as first written: one match per token, whitespace and
# comments included, each token kept with its line and column.  Lines end
# at "\n" only.

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<op>-->|->|~>|\(\+\)|--|[{}().,;:!?=+|&])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class ScanError(Exception):
    """A character that starts no token: args are (message, line, column)."""


def scan(text):
    """The tokens of text as (kind, text, line, column) tuples, kind "op"
    or "ident", and last ("eof", "", line, column) at the end of input."""
    toks = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ScanError(f"unexpected character {text[pos]!r}",
                            line, pos - linestart + 1)
        kind = m.lastgroup
        val = m.group()
        if kind not in ("ws", "comment"):
            toks.append((kind, val, line, m.start() - linestart + 1))
        line += val.count("\n")
        if "\n" in val:
            linestart = m.start() + val.rindex("\n") + 1
        pos = m.end()
    toks.append(("eof", "", line, pos - linestart + 1))
    return toks


# ---------------------------------------------------------------------------
# Synthesis as first written: it steps the tuple of local states itself,
# pairing each send with a receive, and keeps a set of moved participants
# on every stack frame.  It takes a system in the plain encoding, already
# known to be basic and multiparty compatible, and returns the global type
# as nested tuples: ("end",), ("var", t), ("rec", t, body) or
# ("branch", sender, receiver, ((label, type), ...)).

class SynthesisFailure(Exception):
    """The walk cannot build a type."""


def synthesize(sys_enc):
    ps = participants(sys_enc)
    fresh = count()
    stack = []
    snapshots = set()

    def moves(i, q, op):
        """{peer: {label: target}} of participant i at state q for op."""
        out = {}
        for src, s, r, o, lbl, dst in sorted(sys_enc[ps[i]][1]):
            if src == q and o == op:
                out.setdefault(r if op == "!" else s, {}).setdefault(lbl, dst)
        return out

    def final_at(tup):
        return {p for p, q in zip(ps, tup)
                if not any(e[0] == q for e in sys_enc[p][1])}

    def enabled_pairs(tup):
        pairs = []
        for i, p in enumerate(ps):
            for r, offers in moves(i, tup[i], "!").items():
                j = ps.index(r)
                J = moves(j, tup[j], "?").get(p)
                if J:
                    pairs.append((p, r, frozenset(offers), frozenset(J)))
        return pairs

    def advance(tup, p, r, label):
        i, j = ps.index(p), ps.index(r)
        nxt = list(tup)
        nxt[i] = moves(i, tup[i], "!")[r][label]
        nxt[j] = moves(j, tup[j], "?")[p][label]
        return tuple(nxt)

    def emit(tup):
        frame = next((f for f in reversed(stack) if f["tup"] == tup), None)
        if frame is not None:
            if frame["moved"] | final_at(tup) == set(ps):
                frame["used"] = True
                return ("var", frame["var"])
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

    def expand(tup, prefer):
        if final_at(tup) == set(ps):
            return ("end",)
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
        body = ("branch", p, r, tuple(branches))
        return ("rec", frame["var"], body) if frame["used"] else body

    return emit(tuple(sys_enc[p][0] for p in ps))


# ---------------------------------------------------------------------------
# Compatibility and the synchronous execution as first written: they step
# tuples of local states with their own FIFO-free exchange step,
# `_exchanges`, rather than reading the exchanges off the rows of RS_1.
# They take `System`s of deterministic machines.

from mpst.cfsm import _explore, _stable, _states, _table  # noqa: E402
from mpst.compat import CompatFailure, CompatReport, dual  # noqa: E402
from mpst.errors import NotBasic  # noqa: E402
from mpst.search import _bfs, _nondeterminism, is_basic  # noqa: E402
from mpst.syntax import Action  # noqa: E402


def _by_peer(m, q):
    """The moves of m from q by peer, (sends, receives), each {peer:
    {label: targets}} in `Machine.outgoing` order; every target is kept,
    so a nondeterministic machine loses none."""
    sends, recvs = {}, {}
    for _, a, d in m.outgoing(q):
        if a.op == "!":
            by = sends.setdefault(a.receiver, {})
        else:
            by = recvs.setdefault(a.sender, {})
        by[a.label] = by.get(a.label, ()) + (d,)
    return sends, recvs


def _exchanges(names, machines, states, skip=None):
    """The matched exchanges from states, the local states of machines,
    which belong to the participants names: each send not addressed to
    skip, taken together with each receive of it by its receiver, as
    (send, states'), in participant order and then `Machine.outgoing`
    order."""
    out = []
    for i, (p, m) in enumerate(zip(names, machines)):
        for r, labels in _by_peer(m, states[i])[0].items():
            if r == skip:
                continue
            j = names.index(r)
            accepts = _by_peer(machines[j], states[j])[1].get(p)
            if not accepts:
                continue
            for label, targets in labels.items():
                rtargets = accepts.get(label)
                if not rtargets:
                    continue
                send = Action(p, r, "!", label)
                for di in targets:
                    for dj in rtargets:
                        nxt = list(states)
                        nxt[i], nxt[j] = di, dj
                        out.append((send, tuple(nxt)))
    return out


def synchronous(s):
    """The synchronous execution of s: `_bfs` from the initial states over
    the sorted `_exchanges` of each tuple of local states."""
    ps = s.participants
    machines = tuple(m for _, m in s.machines)
    return _bfs(tuple(m.initial for m in machines),
                lambda tup: sorted(_exchanges(ps, machines, tup)),
                "synchronous execution")


def _closure(p, others, ctx_machines, ctx, cache):
    """Contexts reachable from ctx by atomic exchanges not involving p,
    mapped to the shortest exchange path reaching them (discovery order)."""
    key = (p, ctx)
    if key in cache:
        return cache[key]
    out = {ctx: ()}
    dq = deque([ctx])
    while dq:
        cur = dq.popleft()
        for send, nxt in _exchanges(others, ctx_machines, cur, p):
            if nxt not in out:
                out[nxt] = out[cur] + (send, dual(send))
                dq.append(nxt)
    cache[key] = out
    return out


def _walk(p, m, q0, others, ctx_machines, ctx0, closure_cache, fed_cache):
    """Check p's machine m from state q0 against every context reachable
    from ctx0, the states of the other participants' machines."""
    failures = []
    visited = {(q0, ctx0)}
    dq = deque([(q0, ctx0, ())])

    def push(q, ctx, path):
        if (q, ctx) not in visited:
            visited.add((q, ctx))
            dq.append((q, ctx, path))

    while dq:
        q, ctx, path = dq.popleft()
        sends, recvs = _by_peer(m, q)
        if not sends and not recvs:
            continue
        clo = _closure(p, others, ctx_machines, ctx, closure_cache)

        for r, labels in sends.items():
            ri = others.index(r)
            mr = ctx_machines[ri]
            best, best_cover = None, -1
            for ctx2, cpath in clo.items():
                J = _by_peer(mr, ctx2[ri])[1].get(p, {})
                if labels.keys() <= J.keys():
                    break
                cover = len(labels.keys() & J.keys())
                if cover > best_cover:
                    best, best_cover = (cpath, J), cover
            else:
                cpath, J = best
                missing = sorted(labels.keys() - J.keys())
                failures.append(CompatFailure(
                    p, q, "uncovered",
                    f"{p} offers {sorted(labels)} to {r} but no reachable "
                    f"context of {r} accepts {missing}",
                    Action(p, r, "!", missing[0]), path + cpath))
                continue
            for lbl, targets in labels.items():
                nctx = list(ctx2)
                nctx[ri] = J[lbl][0]
                exchange = (Action(p, r, "!", lbl), Action(p, r, "?", lbl))
                for dst in targets:
                    push(dst, tuple(nctx), path + cpath + exchange)

        peers = [(ri, r, recvs[r]) for ri, r in enumerate(others)
                 if r in recvs]
        for ctx2, cpath in clo.items() if peers else ():
            for ri, r, accepted in peers:
                offers = _by_peer(ctx_machines[ri], ctx2[ri])[0].get(p)
                if not offers:
                    continue
                bad = sorted(offers.keys() - accepted.keys())
                if bad:
                    failures.append(CompatFailure(
                        p, q, "unhandled",
                        f"{r} may send {bad[0]} to {p}, which accepts "
                        f"only {sorted(accepted)} from {r} at state {q}",
                        Action(r, p, "!", bad[0]), path + cpath))
                for lbl, targets in offers.items():
                    if lbl in accepted:
                        a = Action(r, p, "!", lbl)
                        for dv in targets:
                            nctx = list(ctx2)
                            nctx[ri] = dv
                            push(accepted[lbl][0], tuple(nctx),
                                 path + cpath + (a, dual(a)))
        if sends:
            continue
        fed = fed_cache.get((p, ctx))
        if fed is None:
            fed = fed_cache[(p, ctx)] = any(
                p in _by_peer(mr, ctx2[ri])[0]
                for ctx2 in clo for ri, mr in enumerate(ctx_machines))
        if not fed:
            failures.append(CompatFailure(
                p, q, "no_dual",
                f"{p} waits at state {q} but no reachable context "
                f"ever sends to {p}", None, path))
    return failures


def multiparty_compatible(s, allow_nonbasic=False):
    """The compatibility report of s, walking each participant from each
    stable configuration of RS_1 against the closure of its context;
    NotBasic as in the package."""
    for p, m in s.machines:
        reasons = _nondeterminism(m) if allow_nonbasic else is_basic(m)[1]
        if reasons:
            raise NotBasic(f"{p}: {reasons[0]}")
    ps = s.participants
    t = _table(s, 1)
    ms = tuple(m for _, m in s.machines)
    failures = []
    closure_cache = {}
    fed_cache = {}
    for key in _explore(s, 1)[0]:
        if not _stable(t, key):
            continue
        states = _states(t, key)
        for i, p in enumerate(ps):
            failures.extend(_walk(
                p, ms[i], states[i], ps[:i] + ps[i + 1:], ms[:i] + ms[i + 1:],
                states[:i] + states[i + 1:], closure_cache, fed_cache))
    unique = []
    seen = set()
    for f in failures:
        fkey = (f.participant, f.state, f.kind, f.witness)
        if fkey not in seen:
            seen.add(fkey)
            unique.append(f)
    return CompatReport(not unique, tuple(unique))


# ---------------------------------------------------------------------------
# Printing and the canonical form of types as first written: one printing
# case per kind of branching, and a canonical form that sorts every
# branching's branches in a walk of its own before numbering the binders.
# They take the package's global and local type nodes.

from mpst.syntax import (GBranch, GEnd, GRec, GVar, LEnd, LRec,  # noqa: E402
                         LRecv, LSend, LVar, _Branching)


def print_type(t):
    """Canonical text for a global or local type (labels sorted)."""
    if isinstance(t, (GEnd, LEnd)):
        return "end"
    if isinstance(t, (GVar, LVar)):
        return t.var
    if isinstance(t, (GRec, LRec)):
        return f"rec {t.var}. {print_type(t.body)}"
    if isinstance(t, GBranch):
        inner = sorted((l, print_type(b)) for l, b in t.branches)
        if t.mid is not None:
            mid_label = t.branches[t.mid][0]
            body = ", ".join(f"{l}. {s}" for l, s in inner)
            return f"{t.src} ~> {t.dst} : [{mid_label}] {{{body}}}"
        if len(inner) == 1:
            l, s = inner[0]
            return f"{t.src}->{t.dst}:{l}. {s}"
        body = ", ".join(f"{l}. {s}" for l, s in inner)
        return f"{t.src}->{t.dst}:{{{body}}}"
    if isinstance(t, (LSend, LRecv)):
        op = "!" if isinstance(t, LSend) else "?"
        inner = sorted((l, print_type(b)) for l, b in t.branches)
        if len(inner) == 1:
            l, s = inner[0]
            return f"{t.peer}{op}{l}. {s}"
        body = ", ".join(f"{l}. {s}" for l, s in inner)
        return f"{t.peer}{op}{{{body}}}"
    raise TypeError(f"not a type: {t!r}")


def _with_branches(t, branches):
    """The branching node t, global or local, with other branches."""
    if isinstance(t, GBranch):
        return GBranch(t.src, t.dst, branches, t.mid)
    return type(t)(t.peer, branches)


def _sort_branches(t):
    if isinstance(t, (GRec, LRec)):
        return type(t)(t.var, _sort_branches(t.body))
    if not isinstance(t, _Branching):
        return t
    bs = tuple(sorted((l, _sort_branches(b)) for l, b in t.branches))
    if isinstance(t, GBranch) and t.mid is not None:
        # keep mid pointing at the same label after sorting
        mid = [l for l, _ in bs].index(t.branches[t.mid][0])
        return GBranch(t.src, t.dst, bs, mid)
    return _with_branches(t, bs)


def alpha_canonical(t):
    """Branches sorted, binders renamed t0,t1,... in traversal order."""

    def walk(u, env, counter):
        if isinstance(u, (GVar, LVar)):
            return type(u)(env[u.var])
        if isinstance(u, (GRec, LRec)):
            fresh = f"t{counter[0]}"
            counter[0] += 1
            return type(u)(fresh, walk(u.body, {**env, u.var: fresh}, counter))
        if isinstance(u, _Branching):
            return _with_branches(
                u, tuple((l, walk(b, env, counter)) for l, b in u.branches))
        return u

    return walk(_sort_branches(t), {}, [0])
