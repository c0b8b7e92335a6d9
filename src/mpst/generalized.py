"""Graph-shaped protocol types given as systems of equations.

A protocol is a finite set of defining equations over variables: message
exchanges, binary choices, indirections, and — beyond tree-shaped types —
fork/join pairs for parallel regions and merges that let branches share a
continuation.  Global systems describe every participant at once; local
systems describe one endpoint, with internal (+) and external (&) choice.

Execution places per-participant holes on the variables: structural
equations are crossed silently, sends append to FIFO buffers, receives
consume them.  The same mechanics drive projection to endpoints, subset
translation to machines, and emission of a labelled Petri net.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cfsm import _bfs, _explore, _fifo, _path, _trie, is_basic, node_cap
from .compat import (_exchanges, _multiparty_compatible, dual,
                     multiparty_compatible)
from .errors import (ChoiceOwnership, NotCompatible,
                     NotSessionCompatible, ParseError, ResourceLimit,
                     SynthesisFailure)
from .syntax import (Action, Label, Machine, Participant, System, Var,
                     _Parser, channels)

DEFAULT_FORK_CAP = 8


# --------------------------------------------------------------------------
# Equation forms.  Merge and Join define both their left-hand variables;
# every other form defines its single lhs.

@dataclass(frozen=True)
class Fork:
    lhs: Var
    left: Var
    right: Var


@dataclass(frozen=True)
class Join:
    l1: Var
    l2: Var
    rhs: Var


@dataclass(frozen=True)
class Merge:
    l1: Var
    l2: Var
    rhs: Var


@dataclass(frozen=True)
class Indir:
    lhs: Var
    rhs: Var


@dataclass(frozen=True)
class EndEq:
    lhs: Var


@dataclass(frozen=True)
class GGMsg:
    lhs: Var
    src: Participant
    dst: Participant
    label: Label
    cont: Var


@dataclass(frozen=True)
class GGChoice:
    lhs: Var
    left: Var
    right: Var


@dataclass(frozen=True)
class GLSend:
    lhs: Var
    peer: Participant
    label: Label
    cont: Var


@dataclass(frozen=True)
class GLRecv:
    lhs: Var
    peer: Participant
    label: Label
    cont: Var


@dataclass(frozen=True)
class GLIChoice:
    lhs: Var
    left: Var
    right: Var


@dataclass(frozen=True)
class GLEChoice:
    lhs: Var
    left: Var
    right: Var


GLOBAL_EQS = (Fork, Join, Merge, Indir, EndEq, GGMsg, GGChoice)
LOCAL_EQS = (Fork, Join, Merge, Indir, EndEq, GLSend, GLRecv, GLIChoice,
             GLEChoice)


def _eq_str(eq) -> str:
    if isinstance(eq, GGMsg):
        return f"{eq.lhs} = {eq.src} -> {eq.dst} : {eq.label} ; {eq.cont};"
    if isinstance(eq, GGChoice):
        return f"{eq.lhs} = {eq.left} + {eq.right};"
    if isinstance(eq, Fork):
        return f"{eq.lhs} = {eq.left} | {eq.right};"
    if isinstance(eq, Join):
        return f"{eq.l1} | {eq.l2} = {eq.rhs};"
    if isinstance(eq, Merge):
        return f"{eq.l1} + {eq.l2} = {eq.rhs};"
    if isinstance(eq, Indir):
        return f"{eq.lhs} = {eq.rhs};"
    if isinstance(eq, EndEq):
        return f"{eq.lhs} = end;"
    if isinstance(eq, GLSend):
        return f"{eq.lhs} = {eq.peer} ! {eq.label} ; {eq.cont};"
    if isinstance(eq, GLRecv):
        return f"{eq.lhs} = {eq.peer} ? {eq.label} ; {eq.cont};"
    if isinstance(eq, GLIChoice):
        return f"{eq.lhs} = {eq.left} (+) {eq.right};"
    if isinstance(eq, GLEChoice):
        return f"{eq.lhs} = {eq.left} & {eq.right};"
    raise TypeError(type(eq).__name__)


def _defined_vars(eq) -> tuple[Var, ...]:
    if isinstance(eq, (Join, Merge)):
        return (eq.l1, eq.l2)
    return (eq.lhs,)


def _used_vars(eq) -> tuple[Var, ...]:
    if isinstance(eq, (GGMsg, GLSend, GLRecv)):
        return (eq.cont,)
    if isinstance(eq, (GGChoice, Fork, GLIChoice, GLEChoice)):
        return (eq.left, eq.right)
    if isinstance(eq, (Join, Merge, Indir)):
        return (eq.rhs,)
    return ()


def _validate(entry: Var, equations, allowed) -> None:
    defined: set[Var] = set()
    for eq in equations:
        if not isinstance(eq, allowed):
            raise ParseError(f"equation form {type(eq).__name__} does not "
                             f"belong in this kind of system")
        for v in _defined_vars(eq):
            if v in defined:
                raise ParseError(f"variable {v} is defined more than once")
            defined.add(v)
        if isinstance(eq, GGMsg) and eq.src == eq.dst:
            raise ParseError(f"{eq.lhs}: a participant cannot message itself")
    if entry not in defined:
        raise ParseError(f"entry variable {entry} has no defining equation")
    for eq in equations:
        for v in _used_vars(eq):
            if v not in defined:
                raise ParseError(f"variable {v} is used but never defined")


@dataclass(frozen=True)
class GeneralGlobal:
    """A global protocol given by equations; `entry` is where it starts."""

    entry: Var
    equations: tuple

    def __post_init__(self):
        eqs = tuple(sorted(self.equations, key=_eq_str))
        object.__setattr__(self, "equations", eqs)
        _validate(self.entry, eqs, GLOBAL_EQS)


@dataclass(frozen=True)
class GeneralLocal:
    """One endpoint of a global protocol, same equation style."""

    entry: Var
    equations: tuple

    def __post_init__(self):
        eqs = tuple(sorted(self.equations, key=_eq_str))
        object.__setattr__(self, "equations", eqs)
        _validate(self.entry, eqs, LOCAL_EQS)


def _defs(g: GeneralGlobal | GeneralLocal) -> dict:
    """The equation defining each variable of g, built on first use and kept
    on the instance the way System's cached properties are."""
    out = g.__dict__.get("_defs")
    if out is None:
        out = g.__dict__["_defs"] = {v: eq for eq in g.equations
                                     for v in _defined_vars(eq)}
    return out


def gg_participants(g: GeneralGlobal) -> tuple[Participant, ...]:
    ps = set()
    for eq in g.equations:
        if isinstance(eq, GGMsg):
            ps.add(eq.src)
            ps.add(eq.dst)
    return tuple(sorted(ps))


# --------------------------------------------------------------------------
# Concrete syntax

def print_gglobal(g: GeneralGlobal) -> str:
    return f"init {g.entry};\n" + "".join(_eq_str(e) + "\n" for e in g.equations)


def print_glocal(t: GeneralLocal) -> str:
    return f"init {t.entry};\n" + "".join(_eq_str(e) + "\n" for e in t.equations)


def _parse_equations(text: str, local: bool):
    p = _Parser(text)
    kw = p.ident()
    if kw.text != "init":
        raise ParseError("equation systems start with 'init <var>;'",
                         kw.line, kw.col)
    entry = p.ident("entry variable").text
    p.expect(";")
    eqs = []
    while not p.at_end():
        v1 = p.ident("variable").text
        tok = p.next()
        if tok.text == "+":
            v2 = p.ident("variable").text
            p.expect("=")
            rhs = p.ident("variable").text
            p.expect(";")
            eqs.append(Merge(v1, v2, rhs))
            continue
        if tok.text == "|":
            v2 = p.ident("variable").text
            p.expect("=")
            rhs = p.ident("variable").text
            p.expect(";")
            eqs.append(Join(v1, v2, rhs))
            continue
        if tok.text != "=":
            raise ParseError(f"expected '=', '+' or '|', found {tok.text!r}",
                             tok.line, tok.col)
        if p.peek().text == "end":
            p.next()
            p.expect(";")
            eqs.append(EndEq(v1))
            continue
        u = p.ident("variable or participant").text
        tok = p.next()
        if tok.text == ";":
            eqs.append(Indir(v1, u))
        elif tok.text == "|":
            r = p.ident("variable").text
            p.expect(";")
            eqs.append(Fork(v1, u, r))
        elif tok.text == "->" and not local:
            dst = p.ident("participant").text
            p.expect(":")
            label = p.ident("label").text
            p.expect(";")
            cont = p.ident("variable").text
            p.expect(";")
            eqs.append(GGMsg(v1, u, dst, label, cont))
        elif tok.text == "+" and not local:
            r = p.ident("variable").text
            p.expect(";")
            eqs.append(GGChoice(v1, u, r))
        elif tok.text == "(+)" and local:
            r = p.ident("variable").text
            p.expect(";")
            eqs.append(GLIChoice(v1, u, r))
        elif tok.text == "&" and local:
            r = p.ident("variable").text
            p.expect(";")
            eqs.append(GLEChoice(v1, u, r))
        elif tok.text in ("!", "?") and local:
            label = p.ident("label").text
            p.expect(";")
            cont = p.ident("variable").text
            p.expect(";")
            cls = GLSend if tok.text == "!" else GLRecv
            eqs.append(cls(v1, u, label, cont))
        else:
            raise ParseError(f"unexpected {tok.text!r} in equation",
                             tok.line, tok.col)
    return entry, tuple(eqs)


def parse_gglobal(text: str) -> GeneralGlobal:
    entry, eqs = _parse_equations(text, local=False)
    return GeneralGlobal(entry, eqs)


def parse_glocal(text: str) -> GeneralLocal:
    entry, eqs = _parse_equations(text, local=True)
    return GeneralLocal(entry, eqs)


# --------------------------------------------------------------------------
# Projection

def _asend(g: GeneralGlobal, x: Var) -> frozenset[Participant]:
    """Participants whose first own action reachable from x is a send."""
    defs = _defs(g)
    out = set()
    for p in gg_participants(g):
        seen: set[Var] = set()
        stack = [x]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            eq = defs[v]
            if isinstance(eq, GGMsg):
                if eq.src == p:
                    out.add(p)
                elif eq.dst != p:
                    stack.append(eq.cont)
            elif isinstance(eq, (GGChoice, Fork)):
                stack.extend((eq.left, eq.right))
            elif isinstance(eq, (Join, Merge, Indir)):
                stack.append(eq.rhs)
    return frozenset(out)


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
    return GeneralLocal(g.entry, tuple(eqs))


# --------------------------------------------------------------------------
# Execution.  A configuration places one multiset of holes per participant
# (its position in the graph, forks making it plural) next to the buffers.

ParState = tuple[Var, ...]  # sorted multiset of hole variables


@dataclass(frozen=True)
class GConfig:
    holes: tuple[ParState, ...]
    buffers: tuple[tuple[Label, ...], ...]


def _put(ps: ParState, i: int, *new: Var) -> ParState:
    return tuple(sorted(ps[:i] + ps[i + 1:] + new))


def _gclosure(defs: dict, ps: ParState,
              p: Participant | None) -> tuple[ParState, ...]:
    """Hole positions silently reachable from ps.

    Structural equations are crossed freely; with a participant given (the
    global reading) message equations that do not involve it are crossed
    too.  Choices branch the closure rather than the hole multiset.  It
    keeps its own loop: it returns a sorted set, not a graph, and stops at
    the first multiset of more than DEFAULT_FORK_CAP holes.
    """
    seen = {ps}
    dq = deque([ps])
    while dq:
        cur = dq.popleft()
        if len(cur) > DEFAULT_FORK_CAP:
            raise ResourceLimit(f"more than {DEFAULT_FORK_CAP} parallel "
                                f"branches for one participant")
        nxt: list[ParState] = []
        for i, x in enumerate(cur):
            if i and cur[i - 1] == x:
                continue  # identical hole, identical moves
            eq = defs[x]
            if isinstance(eq, Indir):
                nxt.append(_put(cur, i, eq.rhs))
            elif isinstance(eq, Fork) and x == eq.lhs:
                nxt.append(_put(cur, i, eq.left, eq.right))
            elif isinstance(eq, (GGChoice, GLIChoice, GLEChoice)):
                nxt.append(_put(cur, i, eq.left))
                nxt.append(_put(cur, i, eq.right))
            elif isinstance(eq, Merge):
                nxt.append(_put(cur, i, eq.rhs))
            elif isinstance(eq, Join):
                other = eq.l2 if x == eq.l1 else eq.l1
                rest = cur[:i] + cur[i + 1:]
                if other in rest:
                    j = rest.index(other)
                    nxt.append(tuple(sorted(rest[:j] + rest[j + 1:]
                                            + (eq.rhs,))))
            elif isinstance(eq, GGMsg) and p is not None \
                    and p not in (eq.src, eq.dst):
                nxt.append(_put(cur, i, eq.cont))
        for cand in nxt:
            if cand not in seen:
                seen.add(cand)
                dq.append(cand)
    return tuple(sorted(seen))


def _gfire(defs: dict, ps: ParState, p: Participant):
    """Send/receive firings available in ps for participant p, as
    (action, hole-index, continuation) triples."""
    out = []
    for i, x in enumerate(ps):
        if i and ps[i - 1] == x:
            continue
        eq = defs[x]
        if isinstance(eq, GGMsg):
            if eq.src == p:
                out.append((Action(p, eq.dst, "!", eq.label), i, eq.cont))
            elif eq.dst == p:
                out.append((Action(eq.src, p, "?", eq.label), i, eq.cont))
        elif isinstance(eq, GLSend):
            out.append((Action(p, eq.peer, "!", eq.label), i, eq.cont))
        elif isinstance(eq, GLRecv):
            out.append((Action(eq.peer, p, "?", eq.label), i, eq.cont))
    return out


def ginitial_global(g: GeneralGlobal) -> GConfig:
    ps = gg_participants(g)
    return GConfig(tuple((g.entry,) for _ in ps),
                   tuple(() for _ in channels(ps)))


def gstep_global(g: GeneralGlobal, c: GConfig,
                 k: int | None = None) -> tuple[tuple[Action, GConfig], ...]:
    """Enabled steps of a global equation system (k-bounded sends)."""
    ps = gg_participants(g)
    return _gsteps({p: _defs(g) for p in ps}, ps, c, k, global_view=True)


def ginitial_local(family: dict[Participant, GeneralLocal]) -> GConfig:
    ps = tuple(sorted(family))
    return GConfig(tuple((family[p].entry,) for p in ps),
                   tuple(() for _ in channels(ps)))


def gstep_local(family: dict[Participant, GeneralLocal], c: GConfig,
                k: int | None = None) -> tuple[tuple[Action, GConfig], ...]:
    """Enabled steps of a family of local equation systems."""
    ps = tuple(sorted(family))
    return _gsteps({p: _defs(family[p]) for p in ps}, ps, c, k,
                   global_view=False)


def _gsteps(defs_by: dict, ps: tuple[Participant, ...], c: GConfig,
            k: int | None, global_view: bool):
    index = {ch: i for i, ch in enumerate(channels(ps))}
    out = set()
    for i, p in enumerate(ps):
        defs = defs_by[p]
        for elem in _gclosure(defs, c.holes[i], p if global_view else None):
            for act, hi, cont in _gfire(defs, elem, p):
                bufs = _fifo(c.buffers, index[act.channel], act, k)
                if bufs is None:
                    continue
                holes = list(c.holes)
                holes[i] = _put(elem, hi, cont)
                out.add((act, GConfig(tuple(holes), bufs)))
    return tuple(sorted(out, key=lambda t: (t[0], t[1].holes, t[1].buffers)))


def gtraces_global(g: GeneralGlobal, max_len: int, k: int,
                   cap: int | None = None) -> dict:
    return _trie(ginitial_global(g),
                 lambda c, kk: gstep_global(g, c, kk), max_len, k, cap)


def gtraces_local(family: dict[Participant, GeneralLocal], max_len: int,
                  k: int, cap: int | None = None) -> dict:
    return _trie(ginitial_local(family),
                 lambda c, kk: gstep_local(family, c, kk), max_len, k, cap)


# --------------------------------------------------------------------------
# Machines from local equation systems: subset construction over hole
# positions, actions resolved against the owner.

def gto_machine(t: GeneralLocal, owner: Participant) -> Machine:
    """The machine of t: `_bfs` over closed sets of hole positions, state
    s{i} the i-th set found.  Raises ResourceLimit past `node_cap()`
    states."""
    defs = _defs(t)

    def close(states) -> frozenset[ParState]:
        acc: set[ParState] = set()
        for ps in states:
            acc.update(_gclosure(defs, ps, None))
        return frozenset(acc)

    def step(cur: frozenset[ParState]) -> list:
        moves: dict[Action, set[ParState]] = {}
        for ps in cur:
            for act, hi, cont in _gfire(defs, ps, owner):
                moves.setdefault(act, set()).add(_put(ps, hi, cont))
        return [(act, close(moves[act])) for act in sorted(moves)]

    _, rows, _ = _bfs(close({(t.entry,)}), step, None, "subset construction")
    return Machine(owner, "s0", tuple(
        (f"s{i}", act, f"s{j}") for i, row in enumerate(rows)
        for act, j in zip(row[::2], row[1::2])))


# --------------------------------------------------------------------------
# Petri nets

@dataclass(frozen=True)
class LabelledNet:
    """Places are the equation variables; transitions carry an optional
    action label and their input/output places."""

    places: tuple[str, ...]
    transitions: tuple[tuple[str, str | None, tuple[str, ...], tuple[str, ...]], ...]
    initial: str


def to_petri(t, owner: Participant | None = None) -> LabelledNet:
    """Emit the labelled net of an equation system (local or global)."""
    places = []
    for eq in t.equations:
        places.extend(_defined_vars(eq))
    places = tuple(sorted(places))
    transitions = []
    fresh = iter(f"t{i}" for i in range(10 * len(t.equations) + 10))
    for eq in t.equations:
        if isinstance(eq, GLSend):
            lbl = (str(Action(owner, eq.peer, "!", eq.label)) if owner
                   else f"{eq.peer}!{eq.label}")
            transitions.append((next(fresh), lbl, (eq.lhs,), (eq.cont,)))
        elif isinstance(eq, GLRecv):
            lbl = (str(Action(eq.peer, owner, "?", eq.label)) if owner
                   else f"{eq.peer}?{eq.label}")
            transitions.append((next(fresh), lbl, (eq.lhs,), (eq.cont,)))
        elif isinstance(eq, GGMsg):
            lbl = f"{eq.src}->{eq.dst}:{eq.label}"
            transitions.append((next(fresh), lbl, (eq.lhs,), (eq.cont,)))
        elif isinstance(eq, Fork):
            transitions.append((next(fresh), None, (eq.lhs,),
                                (eq.left, eq.right)))
        elif isinstance(eq, Join):
            transitions.append((next(fresh), None, (eq.l1, eq.l2),
                                (eq.rhs,)))
        elif isinstance(eq, (GGChoice, GLIChoice, GLEChoice)):
            transitions.append((next(fresh), None, (eq.lhs,), (eq.left,)))
            transitions.append((next(fresh), None, (eq.lhs,), (eq.right,)))
        elif isinstance(eq, Merge):
            transitions.append((next(fresh), None, (eq.l1,), (eq.rhs,)))
            transitions.append((next(fresh), None, (eq.l2,), (eq.rhs,)))
        elif isinstance(eq, Indir):
            transitions.append((next(fresh), None, (eq.lhs,), (eq.rhs,)))
    return LabelledNet(places, tuple(transitions), t.entry)


def is_safe(net: LabelledNet, cap: int | None = None) -> tuple[bool, dict | None]:
    """Exhaustively check that no reachable marking puts two tokens on a
    place; returns the offending marking otherwise.  It keeps its own loop,
    which stops at the first unsafe marking."""
    cap = cap if cap is not None else node_cap()
    init = frozenset({(net.initial, 1)})
    seen = {init}
    dq = deque([init])
    while dq:
        marking = dict(dq.popleft())
        for name, _, ins, outs in net.transitions:
            if any(marking.get(x, 0) < 1 for x in ins):
                continue
            m2 = dict(marking)
            for x in ins:
                m2[x] -= 1
            for x in outs:
                m2[x] = m2.get(x, 0) + 1
            if any(v > 1 for v in m2.values()):
                return False, {k: v for k, v in sorted(m2.items()) if v}
            key = frozenset((k, v) for k, v in m2.items() if v)
            if key not in seen:
                seen.add(key)
                if len(seen) > cap:
                    raise ResourceLimit(
                        f"marking graph exceeded the node cap of {cap}")
                dq.append(key)
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
    if op == "!":
        return [(Action(m.owner, r, op, label), d)
                for r, labels in m._sends(q).items()
                for label, targets in labels.items() for d in targets]
    return [(Action(r, m.owner, op, label), d)
            for r, labels in m._receives(q).items()
            for label, targets in labels.items() for d in targets]


def _targets(m: Machine, q: str, a: Action) -> tuple[str, ...]:
    """The states m reaches from q by a."""
    if a.op == "!":
        by_label = m._sends(q).get(a.receiver)
    else:
        by_label = m._receives(q).get(a.sender)
    return by_label.get(a.label, ()) if by_label else ()


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


def receiver_property(s: System, k: int = 1,
                      require_compatible: bool = True) -> bool:
    """After any internal choice, some common set of receivers can be
    informed of the chosen branch no matter how execution proceeds."""
    if require_compatible:
        _require_compat(s)
    keys, rows, _ = _explore(s, k, None)
    return _receiver_property(s, keys, rows)


def _receiver_property(s: System, keys: list, rows: list) -> bool:
    """`receiver_property` over the keys and rows of RS_k (see
    `_explore`).  It reads only the local states of a key, its first
    entries in participant order, never its buffers."""
    succ = [list(zip(row[::2], row[1::2])) for row in rows]
    # each participant's sends from each of its states, one per target
    sends = [{q: [a for a, _ in _moves(m, q, "!")] for q in m.states}
             for _, m in s.machines]
    for key, moves in zip(keys, succ):
        for sends_at, q in zip(sends, key):
            acts = sends_at[q]
            if len(acts) < 2:
                continue
            succs = dict(moves)
            if any(a not in succs for a in acts):
                continue  # the choice is blocked here, judged elsewhere
            families = [_complete_receiver_sets(succ, succs[a])
                        for a in acts]
            common = families[0]
            for fam in families[1:]:
                common = common & fam
            if not common:
                return False
    return True


def _complete_receiver_sets(succ: list, c0: int) -> frozenset[frozenset]:
    """Receiver sets that cannot grow any further from some reachable
    point after configuration c0, along the RS_k edges succ lists by BFS
    index (see `_explore`): `_bfs` over (configuration, receivers so far)."""

    def step(node):
        i, r = node
        return [(act, (j, r | {act.receiver} if act.op == "?" else r))
                for act, j in succ[i]]

    nodes, rows, _ = _bfs((c0, frozenset()), step, None, "receiver-set search")
    sets = [r for _, r in nodes]
    nexts = [row[1::2] for row in rows]
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


def unique_sender(s: System, k: int = 1,
                  require_compatible: bool = True) -> bool:
    """Races between non-commuting receives at one machine are always
    decided by a single participant."""
    if require_compatible:
        _require_compat(s)
    return _unique_sender(s, *_explore(s, k, None))


def _unique_sender(s: System, keys: list, rows: list, parents: list) -> bool:
    """`unique_sender` over the keys, rows and parents of RS_k (see
    `_explore`).  It reads only the local states of a key, its first
    entries in participant order, never its buffers."""
    succ = [list(zip(row[::2], row[1::2])) for row in rows]
    by_act: dict[Action, list[tuple[int, int]]] = {}  # edges in BFS order
    for c, moves in enumerate(succ):
        for act, c2 in moves:
            by_act.setdefault(act, []).append((c, c2))
    reachable_cache: dict[int, set[int]] = {}

    def reachable_from(c: int) -> set[int]:
        if c not in reachable_cache:
            nodes = _bfs(c, lambda i: succ[i], None, "reachability set")[0]
            reachable_cache[c] = set(nodes)
        return reachable_cache[c]

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
                             if keys[c][i] == q]
                    inst2 = [(c, c2) for c, c2 in by_act.get(a2, ())
                             if keys[c][i] == q]
                    if not inst1 or not inst2:
                        continue
                    # receives one of which can still follow the other are
                    # ordered, not raced
                    starts2 = {c for c, _ in inst2}
                    starts1 = {c for c, _ in inst1}
                    if any(reachable_from(c2) & starts2 for _, c2 in inst1) \
                            or any(reachable_from(c2) & starts1 for _, c2 in inst2):
                        continue
                    w1 = _best_witnesses(parents, inst1, inst2, a1, a2)
                    if w1 is None:
                        continue
                    phi1, phi2, div = w1
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


@dataclass(frozen=True)
class SessionReport:
    ok: bool
    items: tuple[tuple[str, bool, str], ...]

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
    nondet = next((f"{p}: {r}" for p, m in s.machines
                   for r in is_basic(m)[1] if r.startswith("nondeterministic")),
                  None)
    if nondet:
        return SessionReport(False, (("deterministic", False, nondet),))
    keys, rows, parents = _explore(s, 1, None)
    report = _multiparty_compatible(s, keys)
    items = [("deterministic", True, ""),
             ("multiparty_compatible", report.compatible,
              "" if report else report.failures[0].message)]
    mp = all(mixed_parallel(m) for _, m in s.machines)
    items.append(("mixed_parallel", mp,
                  "" if mp else "a mixed state fails to commute"))
    if report:
        us = _unique_sender(s, keys, rows, parents)
        items.append(("unique_sender", us,
                      "" if us else "a race has no unique decider"))
        rp = _receiver_property(s, keys, rows)
        items.append(("receiver_property", rp,
                      "" if rp else "branches inform different receivers"))
    return SessionReport(all(v for _, v, _ in items) and len(items) == 5,
                         tuple(items))


# --------------------------------------------------------------------------
# Synthesis of a general global type from a session-compatible system

def gsynthesize(s: System) -> GeneralGlobal:
    """Fuse the 1-bounded execution into a global equation system."""
    report = session_compatible(s)
    if not report:
        bad = next((n, d) for n, v, d in report.items if not v)
        raise NotSessionCompatible(f"{bad[0]} fails: {bad[1]}")
    ps = s.participants
    machines = tuple(m for _, m in s.machines)
    # vertex x{i} is the i-th joint state found; edges are (i, action, j)
    nodes, rows, _ = _bfs(tuple(m.initial for m in machines),
                          lambda tup: sorted(_exchanges(ps, machines, tup)),
                          None, "synchronous execution")
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
            if not all(q in m.final_states
                       for q, m in zip(tup, machines)):
                raise SynthesisFailure(
                    f"execution stops at {dict(zip(ps, tup))} "
                    f"with unfinished machines")
            eqs.append(EndEq(f"x{u}"))
    return GeneralGlobal("x0", tuple(eqs))
