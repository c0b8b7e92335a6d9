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
its safety check.  This module builds these systems without loading
RS_k: the session checks and `gsynthesize`, which read it, are in
`session`.
"""

from __future__ import annotations

from collections import deque

from .errors import ChoiceOwnership, ParseError, ResourceLimit
from .search import _bfs, _machine, node_cap
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
    are silent (see `_net`): `_machine` over closed sets of hole
    positions, state s{i} the i-th set found.  Raises ResourceLimit past
    `node_cap()` states or DEFAULT_FORK_CAP holes, ValueError as `_net`
    does."""
    table, acts = net = _net(t, owner)

    def step(cur: frozenset[int]) -> list:
        moves: dict[Action, set[int]] = {}
        for i in cur:  # a closure has stepped every member
            for x, j in table[3][i]:
                act = acts[x]
                if act is not None:
                    moves.setdefault(act, set()).add(j)
        return [(act, _gclosure(net, moves[act])) for act in sorted(moves)]

    return _machine(owner, _gclosure(net, {0}), step, "subset construction",
                    "s")


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
