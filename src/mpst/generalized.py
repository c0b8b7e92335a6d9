"""Graph-shaped protocol types given as systems of equations.

A protocol is a finite set of defining equations over variables: message
exchanges, binary choices, indirections, and — beyond tree-shaped types —
fork/join pairs for parallel regions and merges that let branches share a
continuation.  Global systems describe every participant at once; local
systems describe one endpoint, with internal (+) and external (&) choice.

Each equation form means one thing, stated once in `_transitions`: its
transitions in a labelled net whose places are the variables, each with
its inputs, outputs and the message equation that labels it (None for a
silent move).  A participant's view places holes on the variables as
tokens: it crosses its silent transitions freely, and its sends and
receives are the moves of a machine built by subset construction over
the closures of hole positions (`gto_machine`).  Each hole multiset is
stepped once per system and its projections, in the table of `_net`,
which labels its moves for each participant.  A system, global or a
family of local ones, runs as the machine system of its participants'
views (`_view_system`), on the one FIFO step of `cfsm`; this is how
`semantics.traces` takes its traces.  The same transitions drive
projection's choice of deciding senders and the emitted Petri net with
its safety check.
"""

from __future__ import annotations

from collections import deque

from .cfsm import (_bfs, _can_reach, _explore, _nondeterminism, _parents,
                   _path, _preds, _states, _table, node_cap)
from .compat import (_exchange_graph, _multiparty_compatible, _synchronous,
                     dual, multiparty_compatible)
from .errors import (ChoiceOwnership, NotCompatible,
                     NotSessionCompatible, ParseError, ResourceLimit,
                     SynthesisFailure)
from .syntax import (Action, Machine, Participant, System, Var,
                     _Parser, _Record, make_system)

DEFAULT_FORK_CAP = 8


# --------------------------------------------------------------------------
# Equation forms.  Merge and Join define both their left-hand variables;
# every other form defines its single lhs.

class Fork(_Record):
    __slots__ = ("lhs", "left", "right")


class Join(_Record):
    __slots__ = ("l1", "l2", "rhs")


class Merge(_Record):
    __slots__ = ("l1", "l2", "rhs")


class Indir(_Record):
    __slots__ = ("lhs", "rhs")


class EndEq(_Record):
    __slots__ = ("lhs",)


class GGMsg(_Record):
    __slots__ = ("lhs", "src", "dst", "label", "cont")


class GGChoice(_Record):
    __slots__ = ("lhs", "left", "right")


class GLSend(_Record):
    __slots__ = ("lhs", "peer", "label", "cont")


class GLRecv(_Record):
    __slots__ = ("lhs", "peer", "label", "cont")


class GLIChoice(_Record):
    __slots__ = ("lhs", "left", "right")


class GLEChoice(_Record):
    __slots__ = ("lhs", "left", "right")


GLOBAL_EQS = (Fork, Join, Merge, Indir, EndEq, GGMsg, GGChoice)
LOCAL_EQS = (Fork, Join, Merge, Indir, EndEq, GLSend, GLRecv, GLIChoice,
             GLEChoice)


# the concrete syntax of each form, filled in from its fields
_SYNTAX = {
    GGMsg: "{lhs} = {src} -> {dst} : {label} ; {cont};",
    GGChoice: "{lhs} = {left} + {right};",
    Fork: "{lhs} = {left} | {right};",
    Join: "{l1} | {l2} = {rhs};",
    Merge: "{l1} + {l2} = {rhs};",
    Indir: "{lhs} = {rhs};",
    EndEq: "{lhs} = end;",
    GLSend: "{lhs} = {peer} ! {label} ; {cont};",
    GLRecv: "{lhs} = {peer} ? {label} ; {cont};",
    GLIChoice: "{lhs} = {left} (+) {right};",
    GLEChoice: "{lhs} = {left} & {right};",
}


def _eq_str(eq) -> str:
    if type(eq) not in _SYNTAX:
        raise TypeError(type(eq).__name__)
    return _SYNTAX[type(eq)].format_map(dict(zip(eq._fields, eq._values)))


def _defined_vars(eq) -> tuple[Var, ...]:
    if isinstance(eq, (Join, Merge)):
        return (eq.l1, eq.l2)
    return (eq.lhs,)


def _transitions(eq) -> tuple:
    """The one statement of what each equation form means: its transitions
    in the labelled net over the variables, as (inputs, outputs, message)
    triples, where message is the exchange, send or receive equation that
    labels the transition and None marks a silent move.  The subset
    construction, projection's deciding senders, the emitted net and
    validation all read the forms through it."""
    if isinstance(eq, (GGMsg, GLSend, GLRecv)):
        return (((eq.lhs,), (eq.cont,), eq),)
    if isinstance(eq, (GGChoice, GLIChoice, GLEChoice)):
        return (((eq.lhs,), (eq.left,), None), ((eq.lhs,), (eq.right,), None))
    if isinstance(eq, Fork):
        return (((eq.lhs,), (eq.left, eq.right), None),)
    if isinstance(eq, Join):
        return (((eq.l1, eq.l2), (eq.rhs,), None),)
    if isinstance(eq, Merge):
        return (((eq.l1,), (eq.rhs,), None), ((eq.l2,), (eq.rhs,), None))
    if isinstance(eq, Indir):
        return (((eq.lhs,), (eq.rhs,), None),)
    return ()  # EndEq


def _action(msg, p: Participant) -> Action | None:
    """What p does when the message equation msg fires: a local send or
    receive is p's own (a ValueError if its peer is p); a global exchange
    is p's send or receive, or None when it does not involve p."""
    if isinstance(msg, GLSend | GLRecv) and msg.peer == p:
        raise ValueError(f"participant {p} cannot message itself")
    if isinstance(msg, GLSend):
        return Action(p, msg.peer, "!", msg.label)
    if isinstance(msg, GLRecv):
        return Action(msg.peer, p, "?", msg.label)
    if p == msg.src:
        return Action(p, msg.dst, "!", msg.label)
    if p == msg.dst:
        return Action(msg.src, p, "?", msg.label)
    return None


def _fault(entry: Var, equations, allowed) -> tuple[str, int | None] | None:
    """The first fault of an equation system, as its message and the index
    of the equation that it names (None: the entry), or None."""
    defined: set[Var] = set()
    for n, eq in enumerate(equations):
        if not isinstance(eq, allowed):
            return (f"equation form {type(eq).__name__} does not belong in "
                    f"this kind of system", n)
        for v in _defined_vars(eq):
            if v in defined:
                return f"variable {v} is defined more than once", n
            defined.add(v)
        if isinstance(eq, GGMsg) and eq.src == eq.dst:
            return f"{eq.lhs}: a participant cannot message itself", n
    if entry not in defined:
        return f"entry variable {entry} has no defining equation", None
    for n, eq in enumerate(equations):
        for _, outs, _ in _transitions(eq):
            for v in outs:
                if v not in defined:
                    return f"variable {v} is used but never defined", n
    return None


class _EquationSystem(_Record):
    """Equations and the variable `entry` where execution starts; the
    equations are kept sorted by their printed form.  The `__dict__`
    holds the nets of `_net`, their hole table and deciding senders."""

    __slots__ = ("entry", "equations", "__dict__")

    def __init__(self, entry: Var, equations: tuple):
        equations = tuple(sorted(equations, key=_eq_str))
        fault = _fault(entry, equations, self._forms)
        if fault:
            raise ParseError(fault[0])
        super().__init__(entry, equations)


class GeneralGlobal(_EquationSystem):
    """A global protocol given by equations; `entry` is where it starts."""

    __slots__ = ()
    _forms = GLOBAL_EQS


class GeneralLocal(_EquationSystem):
    """One endpoint of a global protocol, same equation style."""

    __slots__ = ()
    _forms = LOCAL_EQS


def _net(t: GeneralGlobal | GeneralLocal, p: Participant) -> tuple:
    """t's hole table, and p's action on leaving each place x (all moves
    out of x belong to the equation defining x): p's send or receive, or
    None for a move silent for p, the only code that tells the two apart.
    The table, label-free and shared by `gproject` with t's projections,
    holds the transitions (ins, outs) by input place, the hole multisets
    met (id 0: the entry), their ids, and the (x, id') moves of each one
    `_gclosure` stepped.  Both are kept on t, so a system nothing refers
    to any more is freed with them.  Raises ValueError when a local
    system messages p itself."""
    nets = t.__dict__.setdefault("_nets", {})
    net = nets.get(p)
    if net is None:
        if "_holes" not in t.__dict__:
            index: dict = {}
            for eq in t.equations:
                for ins, outs, _ in _transitions(eq):
                    for x in ins:
                        index.setdefault(x, []).append((ins, outs))
            start = (t.entry,)
            t.__dict__["_holes"] = (index, [start], {start: 0}, {})
        net = nets[p] = (t.__dict__["_holes"], {
            x: None if msg is None else _action(msg, p)
            for eq in t.equations for ins, _, msg in _transitions(eq)
            for x in ins})
    return net


def gg_participants(g: GeneralGlobal) -> tuple[Participant, ...]:
    ps = set()
    for eq in g.equations:
        if isinstance(eq, GGMsg):
            ps.add(eq.src)
            ps.add(eq.dst)
    return tuple(sorted(ps))


# --------------------------------------------------------------------------
# Concrete syntax

def print_gglobal(g: GeneralGlobal | GeneralLocal) -> str:
    return f"init {g.entry};\n" + "".join(_eq_str(e) + "\n" for e in g.equations)


def print_glocal(t: GeneralLocal) -> str:
    return print_gglobal(t)


# the forms with two variables around an operator: "v1 + v2 = rhs;" and
# "v1 | v2 = rhs;" on the left, "lhs = left OP right;" on the right
_JOINS = {"+": Merge, "|": Join}
_SPLITS = {"|": Fork, "+": GGChoice, "(+)": GLIChoice, "&": GLEChoice}


def _parse_equations(text: str, local: bool) -> GeneralGlobal | GeneralLocal:
    """The equation system of text.  A fault of the whole system carries
    the position of the equation it names, or of the entry variable."""
    p = _Parser(text)
    if p.ident() != "init":
        raise p.fail("equation systems start with 'init <var>;'", 0)
    entry = p.ident("entry variable")
    p.expect(";")
    kind = GeneralLocal if local else GeneralGlobal
    eqs, starts = [], []  # each equation, and the index of its first token
    while not p.at_end():
        starts.append(p.i)
        v1 = p.ident("variable")
        tok = p.next()
        if tok in _JOINS:
            v2 = p.ident("variable")
            p.expect("=")
            rhs = p.ident("variable")
            p.expect(";")
            eqs.append(_JOINS[tok](v1, v2, rhs))
            continue
        if tok != "=":
            raise p.fail(f"expected '=', '+' or '|', found "
                         f"{tok or 'end of input'!r}", p.i - 1)
        if p.peek() == "end":
            p.next()
            p.expect(";")
            eqs.append(EndEq(v1))
            continue
        u = p.ident("variable or participant")
        tok = p.next()
        split = _SPLITS.get(tok)
        if tok == ";":
            eqs.append(Indir(v1, u))
        elif split in kind._forms:
            r = p.ident("variable")
            p.expect(";")
            eqs.append(split(v1, u, r))
        elif tok == "->" and not local:
            dst = p.ident("participant")
            p.expect(":")
            label = p.ident("label")
            p.expect(";")
            cont = p.ident("variable")
            p.expect(";")
            eqs.append(GGMsg(v1, u, dst, label, cont))
        elif tok in ("!", "?") and local:
            label = p.ident("label")
            p.expect(";")
            cont = p.ident("variable")
            p.expect(";")
            cls = GLSend if tok == "!" else GLRecv
            eqs.append(cls(v1, u, label, cont))
        else:
            raise p.fail(f"unexpected {tok or 'end of input'!r} in equation",
                         p.i - 1)
    try:
        return kind(entry, tuple(eqs))
    except ParseError:
        # the constructor checks the equations in sorted order
        order = sorted(range(len(eqs)), key=lambda n: _eq_str(eqs[n]))
        msg, n = _fault(entry, [eqs[n] for n in order], kind._forms)
        raise p.fail(msg, 1 if n is None else starts[order[n]]) from None


def parse_gglobal(text: str) -> GeneralGlobal:
    return _parse_equations(text, local=False)


def parse_glocal(text: str) -> GeneralLocal:
    return _parse_equations(text, local=True)


# --------------------------------------------------------------------------
# Projection

def _asend(g: GeneralGlobal, x: Var) -> frozenset[Participant]:
    """Participants whose first own action reachable from x is a send,
    after `_bfs` over the moves silent for each; found once per choice x
    and kept on g."""
    deciders = g.__dict__.setdefault("_deciders", {})
    if x not in deciders:
        out = set()
        for p in gg_participants(g):
            (index, *_), acts = _net(g, p)
            vs = _bfs(x, lambda v: [(None, w) for _, outs in index.get(v, ())
                                    if acts[v] is None for w in outs],
                      "deciding-sender search")[0]
            if any(getattr(acts.get(v), "op", None) == "!" for v in vs):
                out.add(p)
        deciders[x] = frozenset(out)
    return deciders[x]


def gproject(g: GeneralGlobal, p: Participant) -> GeneralLocal:
    """Project a global equation system onto one participant."""
    eqs = []
    for eq in g.equations:
        if isinstance(eq, GGMsg):
            if p == eq.src:
                eqs.append(GLSend(eq.lhs, eq.dst, eq.label, eq.cont))
            elif p == eq.dst:
                eqs.append(GLRecv(eq.lhs, eq.src, eq.label, eq.cont))
            else:
                eqs.append(Indir(eq.lhs, eq.cont))
        elif isinstance(eq, GGChoice):
            owners = _asend(g, eq.lhs)
            if len(owners) != 1:
                raise ChoiceOwnership(
                    f"choice {eq.lhs} needs exactly one deciding sender, "
                    f"found {sorted(owners) if owners else 'none'}")
            cls = GLIChoice if p in owners else GLEChoice
            eqs.append(cls(eq.lhs, eq.left, eq.right))
        else:
            eqs.append(eq)
    t = GeneralLocal(g.entry, tuple(eqs))
    t.__dict__["_holes"] = _net(g, p)[0]  # the same net, other labels
    return t


# --------------------------------------------------------------------------
# Execution.  A participant's position in the graph is a multiset of holes,
# forks making it plural; its machine is built over the closures of these
# multisets under its silent moves.

ParState = tuple[Var, ...]  # sorted multiset of hole variables


def _fire(ps: ParState, ins: tuple[Var, ...],
          outs: tuple[Var, ...]) -> ParState | None:
    """The multiset ps after a transition takes a hole (or token) from each
    of its inputs and puts one on each output; None unless every input
    holds one."""
    rest = list(ps)
    for x in ins:
        if x not in rest:
            return None
        rest.remove(x)
    rest.extend(outs)
    rest.sort()
    return tuple(rest)


def _enabled(index: dict, ps: ParState) -> list[tuple]:
    """The (x, holes') pairs of the transitions of index, the first field
    of `_net`'s hole table, enabled in the hole multiset ps, where x is
    the input place by which index lists the transition."""
    out = []
    for i, x in enumerate(ps):
        if i and ps[i - 1] == x:
            continue  # identical hole, identical moves
        for ins, outs in index.get(x, ()):
            nxt = _fire(ps, ins, outs)
            if nxt is not None:
                out.append((x, nxt))
    return out


def _gclosure(net: tuple, seeds) -> frozenset[int]:
    """The ids of the hole positions reachable from any of seeds by the
    moves silent in net (see `_net`); choices branch the closure, not the
    multiset.  The first closure to meet a multiset steps it for the
    table; one of more than DEFAULT_FORK_CAP holes gets no row, so every
    closure that meets it raises ResourceLimit."""
    (index, holes, ids, rows), acts = net
    seen = set(seeds)
    todo = list(seen)
    for i in todo:
        row = rows.get(i)
        if row is None:
            if len(holes[i]) > DEFAULT_FORK_CAP:
                raise ResourceLimit(f"more than {DEFAULT_FORK_CAP} parallel "
                                    f"branches for one participant")
            moves = _enabled(index, holes[i])
            for _, nxt in moves:  # a new multiset takes the next id
                if ids.setdefault(nxt, len(holes)) == len(holes):
                    holes.append(nxt)
            row = rows[i] = [(x, ids[nxt]) for x, nxt in moves]
        for x, j in row:
            if j not in seen and acts[x] is None:
                seen.add(j)
                todo.append(j)
    return frozenset(seen)


# --------------------------------------------------------------------------
# Machines from equation systems: subset construction over hole positions,
# actions resolved against the owner.

def gto_machine(t: GeneralGlobal | GeneralLocal, owner: Participant) -> Machine:
    """The machine of owner's view of t, a local system or a global one
    read from owner's side, where the exchanges that do not involve owner
    are silent (see `_net`): `_bfs` over closed sets of hole positions,
    state s{i} the i-th set found.  Raises ResourceLimit past `node_cap()`
    states or DEFAULT_FORK_CAP holes, ValueError as `_net` does."""
    table, acts = net = _net(t, owner)

    def step(cur: frozenset[int]) -> list:
        moves: dict[Action, set[int]] = {}
        for i in cur:  # a closure has stepped every member
            for x, j in table[3][i]:
                act = acts[x]
                if act is not None:
                    moves.setdefault(act, set()).add(j)
        return [(act, _gclosure(net, moves[act])) for act in sorted(moves)]

    _, rows = _bfs(_gclosure(net, {0}), step, "subset construction")
    return Machine(owner, "s0", tuple(
        (f"s{i}", act, f"s{j}") for i, row in enumerate(rows)
        for act, j in zip(row[::2], row[1::2])))


def _view_system(x) -> System:
    """The system of the machines of an equation system's participants'
    views: a `GeneralGlobal` read from each side, or a dict of
    `GeneralLocal`s by participant.  Raises TypeError for anything else."""
    if isinstance(x, GeneralGlobal):
        return make_system([gto_machine(x, p) for p in gg_participants(x)])
    if isinstance(x, dict) and all(isinstance(v, GeneralLocal)
                                   for v in x.values()):
        return make_system([gto_machine(t, p) for p, t in x.items()])
    raise TypeError(f"cannot take traces of {type(x).__name__}")


# --------------------------------------------------------------------------
# Petri nets

class LabelledNet(_Record):
    """Places are the equation variables; transitions carry an optional
    action label and their input/output places, as (name, label or None,
    inputs, outputs)."""

    __slots__ = ("places", "transitions", "initial")


def to_petri(t, owner: Participant | None = None) -> LabelledNet:
    """Emit the labelled net of an equation system (local or global): the
    `_transitions` of its equations in order, named t0, t1, ..."""
    places = tuple(sorted(v for eq in t.equations for v in _defined_vars(eq)))
    transitions = []
    for eq in t.equations:
        for ins, outs, msg in _transitions(eq):
            transitions.append((f"t{len(transitions)}", _transition_label(msg, owner),
                                ins, outs))
    return LabelledNet(places, tuple(transitions), t.entry)


def _transition_label(msg, owner: Participant | None) -> str | None:
    if msg is None:
        return None
    if isinstance(msg, GGMsg):
        return f"{msg.src}->{msg.dst}:{msg.label}"
    # without an owner the acting side is left blank: "B!data", "A?log"
    return str(_action(msg, owner or ""))


def is_safe(net: LabelledNet) -> tuple[bool, dict | None]:
    """Exhaustively check that no reachable marking puts two tokens on a
    place; returns the offending marking otherwise.  A marking is the
    sorted tuple of its tokens' places, fired by `_fire` as `_enabled`
    fires hole multisets, transitions taken in the net's order.  It keeps
    its own loop, which stops at the first unsafe marking.  Raises
    ResourceLimit past `node_cap()` markings."""
    cap = node_cap()
    init = (net.initial,)
    seen = {init}
    dq = deque([init])
    while dq:
        marking = dq.popleft()
        for _, _, ins, outs in net.transitions:
            m2 = _fire(marking, ins, outs)
            if m2 is None or m2 in seen:
                continue
            if len(set(m2)) < len(m2):
                return False, {x: m2.count(x) for x in sorted(set(m2))}
            seen.add(m2)
            if len(seen) > cap:
                raise ResourceLimit(
                    f"marking graph exceeded the node cap of {cap}")
            dq.append(m2)
    return True, None


def dot_net(net: LabelledNet) -> str:
    lines = ["digraph net {", "  rankdir=LR;"]
    for p in net.places:
        mark = ', style=filled' if p == net.initial else ""
        lines.append(f'  "{p}" [shape=circle{mark}];')
    for name, lbl, ins, outs in net.transitions:
        show = lbl if lbl else ""
        lines.append(f'  "{name}" [shape=box, label="{show}"];')
        for x in ins:
            lines.append(f'  "{x}" -> "{name}";')
        for x in outs:
            lines.append(f'  "{name}" -> "{x}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Session compatibility for systems of (possibly non-basic) machines

def _moves(m: Machine, q: str, op: str) -> list[tuple[Action, str]]:
    """The sends (op "!") or receives (op "?") of m at q as (action,
    target) pairs, one per target, in `Machine.outgoing` order."""
    return [(a, d) for _, a, d in m.outgoing(q) if a.op == op]


def _targets(m: Machine, q: str, a: Action) -> tuple[str, ...]:
    """The states m reaches from q by a."""
    return tuple(d for _, b, d in m.outgoing(q) if b == a)


def _commute(m: Machine, a1: Action, d1: str, a2: Action, d2: str) -> bool:
    """Moves a1 to d1 and a2 to d2 from one state of m commute: some state
    follows both a1 then a2 and a2 then a1."""
    return not set(_targets(m, d1, a2)).isdisjoint(_targets(m, d2, a1))


def mixed_parallel(m: Machine) -> bool:
    """Sends and receives available together always commute."""
    return all(_commute(m, a1, d1, a2, d2) for q in sorted(m.states)
               for a1, d1 in _moves(m, q, "!")
               for a2, d2 in _moves(m, q, "?"))


def _require_compat(s: System) -> None:
    report = multiparty_compatible(s, allow_nonbasic=True)
    if not report:
        raise NotCompatible("system is not multiparty compatible: "
                            + report.failures[0].message)


def _local_states(s: System, k: int, keys: list) -> list[tuple[str, ...]]:
    """The local states of each key of `_explore(s, k)`."""
    t = _table(s, k)
    return [_states(t, key) for key in keys]


def receiver_property(s: System, k: int = 1,
                      require_compatible: bool = True) -> bool:
    """After any internal choice, some common set of receivers can be
    informed of the chosen branch no matter how execution proceeds."""
    if require_compatible:
        _require_compat(s)
    keys, rows = _explore(s, k)
    return _receiver_property(s, _local_states(s, k, keys), rows)


def _receiver_property(s: System, states: list, rows: list) -> bool:
    """`receiver_property` over the local states and rows of RS_k (see
    `_explore` and `_local_states`); it never reads the buffers."""
    # each participant's sends from each of its states, one per target
    sends = [{q: [a for a, _ in _moves(m, q, "!")] for q in m.states}
             for _, m in s.machines]
    choices = []  # the branch successors of every choice point
    for qs, row in zip(states, rows):
        for sends_at, q in zip(sends, qs):
            acts = sends_at[q]
            if len(acts) < 2:
                continue
            succs = dict(zip(row[::2], row[1::2]))
            if any(a not in succs for a in acts):
                continue  # the choice is blocked here, judged elsewhere
            choices.append([succs[a] for a in acts])
    families = _complete_receiver_sets(
        rows, sorted({c for branches in choices for c in branches}))
    return all(frozenset.intersection(*(families[c] for c in branches))
               for branches in choices)


def _complete_receiver_sets(rs_rows: list, starts: list) -> dict:
    """For each configuration c of starts, the receiver sets that cannot
    grow any further from some reachable point after c, along the RS_k
    successor rows rs_rows (see `_explore`).  One `_bfs` over
    (configuration, receivers so far), from a root None that leads to
    each (c, {}), serves every start.  Sets only grow along edges, so a
    node can grow exactly when it can reach an edge that grows its set."""

    def step(node):
        if node is None:
            return [(None, (c, frozenset())) for c in starts]
        i, r = node
        row = rs_rows[i]
        return [(act, (j, r | {act.receiver} if act.op == "?" else r))
                for act, j in zip(row[::2], row[1::2])]

    nodes, rows = _bfs(None, step, "receiver-set search")
    preds = _preds(rows)
    # the root counts as growing: its None differs from each start's set
    sets = [None] + [r for _, r in nodes[1:]]
    grows = _can_reach(preds, [n for n, row in enumerate(rows)
                               if any(sets[m] != sets[n] for m in row[1::2])])
    complete: dict[frozenset, list[int]] = {}  # the nodes holding each set
    for n, r in enumerate(sets):
        if not grows[n]:
            complete.setdefault(r, []).append(n)
    reaches = [(r, _can_reach(preds, held)) for r, held in complete.items()]
    return {c: frozenset(r for r, marks in reaches if marks[n])
            for c, n in zip(starts, rows[0][1::2])}


def unique_sender(s: System, k: int = 1,
                  require_compatible: bool = True) -> bool:
    """Races between non-commuting receives at one machine are always
    decided by a single participant."""
    if require_compatible:
        _require_compat(s)
    keys, rows = _explore(s, k)
    return _unique_sender(s, _local_states(s, k, keys), rows)


def _unique_sender(s: System, states: list, rows: list) -> bool:
    """`unique_sender` over the local states and rows of RS_k (see
    `_explore` and `_local_states`); it never reads the buffers, and
    builds the BFS tree (`_parents`) only for a race it has to judge."""
    by_act: dict[Action, list[tuple[int, int]]] = {}  # edges in BFS order
    for c, row in enumerate(rows):
        for act, c2 in zip(row[::2], row[1::2]):
            by_act.setdefault(act, []).append((c, c2))
    preds = _preds(rows)
    parents = None

    for i, (_, m) in enumerate(s.machines):
        for q in sorted(m.states):
            recvs = _moves(m, q, "?")
            for x in range(len(recvs)):
                for y in range(x + 1, len(recvs)):
                    (a1, d1), (a2, d2) = recvs[x], recvs[y]
                    # commuting receives are not a race
                    if a1 == a2 or _commute(m, a1, d1, a2, d2):
                        continue
                    inst1 = [(c, c2) for c, c2 in by_act.get(a1, ())
                             if states[c][i] == q]
                    inst2 = [(c, c2) for c, c2 in by_act.get(a2, ())
                             if states[c][i] == q]
                    if not inst1 or not inst2:
                        continue
                    # receives one of which can still follow the other are
                    # ordered, not raced
                    reach2 = _can_reach(preds, {c for c, _ in inst2})
                    reach1 = _can_reach(preds, {c for c, _ in inst1})
                    if any(reach2[c2] for _, c2 in inst1) \
                            or any(reach1[c2] for _, c2 in inst2):
                        continue
                    if parents is None:
                        parents = _parents(rows)
                    phi1, phi2, div = _best_witnesses(parents, inst1, inst2,
                                                      a1, a2)
                    s1 = _decider(phi1[div:])
                    s2 = _decider(phi2[div:])
                    if not (len(s1) == 1 and s1 == s2):
                        return False
    return True


def _best_witnesses(parents, inst1, inst2, a1, a2):
    """Shortest executions reaching each receive, maximising their common
    prefix; returns both with the divergence point."""
    paths1 = sorted(_path(parents, c) + (a1,) for c, _ in inst1)
    paths2 = sorted(_path(parents, c) + (a2,) for c, _ in inst2)
    best = None
    for w1 in paths1:
        for w2 in paths2:
            d = 0
            while d < len(w1) and d < len(w2) and w1[d] == w2[d]:
                d += 1
            if best is None or d > best[2]:
                best = (w1, w2, d)
    return best


def _decider(phi: tuple[Action, ...]) -> frozenset[Participant]:
    """Participants that could have decided the branch: senders in the
    causal chain of its last action with no earlier receive of theirs."""
    if not phi:
        return frozenset()
    chain = [phi[-1]]
    for u in reversed(phi[:-1]):
        if any(u == dual(v) or u.subject == v.subject for v in chain):
            chain.insert(0, u)
    out = set()
    for idx, t in enumerate(chain):
        if t.op == "!" and not any(
                v.op == "?" and v.subject == t.subject
                for v in chain[:idx]):
            out.add(t.subject)
    return frozenset(out)


class SessionReport(_Record):
    """items is a tuple of (check name, verdict, detail) triples."""

    __slots__ = ("ok", "items")

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"session_compatible": self.ok,
                "checks": [{"name": n, "ok": v, "detail": d}
                           for n, v, d in self.items]}


def session_compatible(s: System) -> SessionReport:
    """Deterministic machines, multiparty compatible, commuting mixed
    states, unique deciders for races, and informable receivers.  RS_1 is
    explored once, for all three checks that read it."""
    return _session(s)[0]


def _session(s: System) -> tuple[SessionReport, dict | None]:
    """`session_compatible`, and the `_exchange_graph` of RS_1 (None for a
    nondeterministic machine)."""
    nondet = next((f"{p}: {r}" for p, m in s.machines
                   for r in _nondeterminism(m)), None)
    if nondet:
        return SessionReport(False, (("deterministic", False, nondet),)), None
    keys, rows = _explore(s, 1)
    graph = _exchange_graph(s, keys, rows)
    report = _multiparty_compatible(s, graph)
    items = [("deterministic", True, ""),
             ("multiparty_compatible", report.compatible,
              "" if report else report.failures[0].message)]
    mp = all(mixed_parallel(m) for _, m in s.machines)
    items.append(("mixed_parallel", mp,
                  "" if mp else "a mixed state fails to commute"))
    if report:
        states = _local_states(s, 1, keys)
        us = _unique_sender(s, states, rows)
        items.append(("unique_sender", us,
                      "" if us else "a race has no unique decider"))
        rp = _receiver_property(s, states, rows)
        items.append(("receiver_property", rp,
                      "" if rp else "branches inform different receivers"))
    return SessionReport(all(v for _, v, _ in items) and len(items) == 5,
                         tuple(items)), graph


# --------------------------------------------------------------------------
# Synthesis of a general global type from a session-compatible system

def gsynthesize(s: System) -> GeneralGlobal:
    """Fuse the synchronous execution, read off RS_1, into a global
    equation system."""
    report, graph = _session(s)
    if not report:
        bad = next((n, d) for n, v, d in report.items if not v)
        raise NotSessionCompatible(f"{bad[0]} fails: {bad[1]}")
    # vertex x{i} is the i-th joint state found; edges are (i, action, j)
    nodes, rows = _synchronous(graph)
    outgoing = [[(u, a, v) for a, v in zip(row[::2], row[1::2])]
                for u, row in enumerate(rows)]
    edges = [e for outs in outgoing for e in outs]
    incoming: list[list] = [[] for _ in nodes]
    for e in edges:
        incoming[e[2]].append(e)
    counter = iter(range(len(nodes), len(nodes) + 4 * len(edges) + 4))
    eqs = []
    head_var: dict = {}
    # branching points: one head variable per outgoing edge, cascaded
    for u, outs in enumerate(outgoing):
        if len(outs) < 2:
            continue
        heads = []
        for e in outs:
            v = f"x{next(counter)}"
            head_var[e] = v
            heads.append(v)
        left = f"x{u}"
        while len(heads) > 2:
            aux = f"x{next(counter)}"
            eqs.append(GGChoice(left, heads[0], aux))
            left = aux
            heads = heads[1:]
        eqs.append(GGChoice(left, heads[0], heads[1]))
    # shared continuations: one entry variable per incoming edge, merged
    entry_var: dict = {}
    for v, ins in enumerate(incoming):
        if len(ins) < 2:
            continue
        tails = []
        for e in ins:
            w = f"x{next(counter)}"
            entry_var[e] = w
            tails.append(w)
        while len(tails) > 2:
            aux = f"x{next(counter)}"
            eqs.append(Merge(tails[0], tails[1], aux))
            tails = [aux] + tails[2:]
        eqs.append(Merge(tails[0], tails[1], f"x{v}"))
    for e in edges:
        u, a, v = e
        eqs.append(GGMsg(head_var.get(e, f"x{u}"), a.sender, a.receiver,
                         a.label, entry_var.get(e, f"x{v}")))
    for u, tup in enumerate(nodes):
        if not outgoing[u]:
            if not all(m.is_final(q) for (_, m), q in zip(s.machines, tup)):
                raise SynthesisFailure(
                    f"execution stops at {dict(zip(s.participants, tup))} "
                    f"with unfinished machines")
            eqs.append(EndEq(f"x{u}"))
    return GeneralGlobal("x0", tuple(eqs))
