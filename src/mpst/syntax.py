"""Abstract syntax, parsing and printing for global types, local types and CFSMs.

Concrete grammars (whitespace-insensitive, `//` comments):

    global  G ::= "end" | IDENT | "rec" IDENT "." G | PART "->" PART ":" Branches
    local   T ::= "end" | IDENT | "rec" IDENT "." T | PART ("!"|"?") Branches
    Branches ::= Lbl "." G | "{" Lbl "." G ("," Lbl "." G)* "}"
    system  ::= ("machine" PART "{" "init" STATE ";"
                 (STATE "--" PART PART ("!"|"?") Lbl "-->" STATE ";")* "}")+

Branch order is preserved in the AST but all semantic operations are
label-keyed; printing sorts labels for canonical output.  The in-flight
marker (a branching whose message has been sent but not received) is
runtime-only: it prints in debug form `A ~> B : [a] {...}` and is rejected
by the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError

Participant = str
Label = str
Var = str


@dataclass(frozen=True, order=True)
class Action:
    """A send or receive pq!a / pq?a; subject is the acting participant."""

    sender: Participant
    receiver: Participant
    op: str  # "!" or "?"
    label: Label

    @property
    def subject(self) -> Participant:
        return self.sender if self.op == "!" else self.receiver

    @property
    def channel(self) -> tuple[Participant, Participant]:
        return (self.sender, self.receiver)

    def __str__(self) -> str:
        return f"{self.sender}{self.receiver}{self.op}{self.label}"


# --------------------------------------------------------------------------
# Global types


@dataclass(frozen=True)
class GEnd:
    """Terminated protocol."""

    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class GVar:
    """Recursion variable occurrence."""

    var: str

    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class GRec:
    """rec t. body"""

    var: str
    body: "Global"

    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class GBranch:
    """Branched exchange src->dst:{a_i. G_i}; mid marks the in-flight branch."""

    src: Participant
    dst: Participant
    branches: tuple[tuple[Label, "Global"], ...]
    mid: int | None = None

    def labels(self) -> tuple[Label, ...]:
        return tuple(l for l, _ in self.branches)

    def branch(self, label: Label) -> "Global":
        for l, g in self.branches:
            if l == label:
                return g
        raise KeyError(label)

    def __str__(self):
        return print_type(self)


Global = GEnd | GVar | GRec | GBranch


# --------------------------------------------------------------------------
# Local types


@dataclass(frozen=True)
class LEnd:
    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class LVar:
    var: str

    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class LRec:
    var: str
    body: "Local"

    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class LSend:
    """Selection: peer!{a_i. T_i}"""

    peer: Participant
    branches: tuple[tuple[Label, "Local"], ...]

    def labels(self) -> tuple[Label, ...]:
        return tuple(l for l, _ in self.branches)

    def branch(self, label: Label) -> "Local":
        for l, t in self.branches:
            if l == label:
                return t
        raise KeyError(label)

    def __str__(self):
        return print_type(self)


@dataclass(frozen=True)
class LRecv:
    """Branching: peer?{a_i. T_i}"""

    peer: Participant
    branches: tuple[tuple[Label, "Local"], ...]

    def labels(self) -> tuple[Label, ...]:
        return tuple(l for l, _ in self.branches)

    def branch(self, label: Label) -> "Local":
        for l, t in self.branches:
            if l == label:
                return t
        raise KeyError(label)

    def __str__(self):
        return print_type(self)


Local = LEnd | LVar | LRec | LSend | LRecv


# --------------------------------------------------------------------------
# Machines and systems


@dataclass(frozen=True)
class Machine:
    """CFSM: finite control, transitions labelled with send/receive actions."""

    owner: Participant
    initial: str
    transitions: tuple[tuple[str, Action, str], ...]
    states: frozenset[str] = field(default=frozenset())

    def __post_init__(self):
        if not self.states:
            sts = {self.initial}
            for s, _, d in self.transitions:
                sts.add(s)
                sts.add(d)
            object.__setattr__(self, "states", frozenset(sts))
        object.__setattr__(
            self, "transitions",
            tuple(sorted(self.transitions, key=lambda e: (e[0], e[1], e[2]))))

    @cached_property
    def _out(self) -> dict[str, tuple[tuple[str, Action, str], ...]]:
        d: dict[str, list] = {q: [] for q in self.states}
        for e in self.transitions:
            d[e[0]].append(e)
        return {q: tuple(es) for q, es in d.items()}

    def outgoing(self, q: str) -> tuple[tuple[str, Action, str], ...]:
        return self._out.get(q, ())

    def is_final(self, q: str) -> bool:
        return not self.outgoing(q)

    def is_sending(self, q: str) -> bool:
        outs = self.outgoing(q)
        return bool(outs) and all(e[1].op == "!" for e in outs)

    def is_receiving(self, q: str) -> bool:
        outs = self.outgoing(q)
        return bool(outs) and all(e[1].op == "?" for e in outs)

    def is_mixed(self, q: str) -> bool:
        outs = self.outgoing(q)
        return any(e[1].op == "!" for e in outs) and any(e[1].op == "?" for e in outs)

    @cached_property
    def final_states(self) -> frozenset[str]:
        return frozenset(q for q in self.states if self.is_final(q))


@dataclass(frozen=True)
class System:
    """One machine per participant, sharing the channel set."""

    machines: tuple[tuple[Participant, Machine], ...]

    def __post_init__(self):
        object.__setattr__(self, "machines",
                           tuple(sorted(self.machines, key=lambda kv: kv[0])))

    @cached_property
    def by_owner(self) -> dict[Participant, Machine]:
        return dict(self.machines)

    @cached_property
    def participants(self) -> tuple[Participant, ...]:
        return tuple(p for p, _ in self.machines)

    @cached_property
    def channels(self) -> tuple[tuple[Participant, Participant], ...]:
        return channels(self.participants)

    @cached_property
    def alphabet(self) -> frozenset[Label]:
        return frozenset(e[1].label for _, m in self.machines for e in m.transitions)

    def machine(self, p: Participant) -> Machine:
        return self.by_owner[p]


def channels(ps: tuple[Participant, ...]) -> tuple[tuple[Participant, Participant], ...]:
    """The ordered pairs of distinct participants: the buffer order of
    every kind of configuration."""
    return tuple((p, q) for p in ps for q in ps if p != q)


def make_system(machines) -> System:
    return System(tuple((m.owner, m) for m in machines))


# --------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<op>-->|->|~>|\(\+\)|--|[{}().,;:!?=+|&])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "op", "ident", "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1)
        kind = m.lastgroup
        val = m.group()
        if kind not in ("ws", "comment"):
            toks.append(Token(kind, val, line, m.start() - linestart + 1))
        line += val.count("\n")
        if "\n" in val:
            linestart = m.start() + val.rindex("\n") + 1
        pos = m.end()
    toks.append(Token("eof", "", line, pos - linestart + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def ident(self, what="identifier") -> Token:
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def at_end(self) -> bool:
        return self.peek().kind == "eof"


# --------------------------------------------------------------------------
# Type parsing

_KEYWORDS = {"end", "rec", "machine", "init"}


def _parse_branches(p: _Parser, sub):
    if p.peek().text == "{":
        p.next()
        branches = [_parse_one_branch(p, sub)]
        while p.peek().text == ",":
            p.next()
            branches.append(_parse_one_branch(p, sub))
        p.expect("}")
    else:
        branches = [_parse_one_branch(p, sub)]
    labels = [l for l, _ in branches]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        t = p.peek()
        raise ParseError(f"duplicate branch label {dup!r}", t.line, t.col)
    return tuple(branches)


def _parse_one_branch(p: _Parser, sub):
    lbl = p.ident("message label")
    p.expect(".")
    return (lbl.text, sub(p))


def _parse_global(p: _Parser, env: tuple[str, ...]) -> Global:
    t = p.peek()
    if t.text == "end":
        p.next()
        return GEnd()
    if t.text == "rec":
        p.next()
        var = p.ident("recursion variable")
        if var.text in env:
            raise ParseError(f"recursion variable {var.text!r} shadows an outer binding",
                             var.line, var.col)
        p.expect(".")
        body = _parse_global(p, env + (var.text,))
        if not _guarded_global(body, var.text):
            raise ParseError(f"unguarded recursion on {var.text!r}", var.line, var.col)
        return GRec(var.text, body)
    if t.kind != "ident":
        raise ParseError(f"expected a global type, found {t.text or 'end of input'!r}",
                         t.line, t.col)
    name = p.next()
    nxt = p.peek()
    if nxt.text == "->" or nxt.text == "~>":
        if nxt.text == "~>":
            raise ParseError("the in-flight marker ~> is runtime-only",
                             nxt.line, nxt.col)
        p.next()
        dst = p.ident("participant")
        if dst.text == name.text:
            raise ParseError(f"self-message {name.text}->{dst.text}",
                             dst.line, dst.col)
        p.expect(":")
        branches = _parse_branches(p, lambda q: _parse_global(q, env))
        return GBranch(name.text, dst.text, branches)
    if name.text in env:
        return GVar(name.text)
    raise ParseError(f"unbound recursion variable {name.text!r}", name.line, name.col)


def _parse_local(p: _Parser, env: tuple[str, ...]) -> Local:
    t = p.peek()
    if t.text == "end":
        p.next()
        return LEnd()
    if t.text == "rec":
        p.next()
        var = p.ident("recursion variable")
        if var.text in env:
            raise ParseError(f"recursion variable {var.text!r} shadows an outer binding",
                             var.line, var.col)
        p.expect(".")
        body = _parse_local(p, env + (var.text,))
        if not _guarded_local(body, var.text):
            raise ParseError(f"unguarded recursion on {var.text!r}", var.line, var.col)
        return LRec(var.text, body)
    if t.kind != "ident":
        raise ParseError(f"expected a local type, found {t.text or 'end of input'!r}",
                         t.line, t.col)
    name = p.next()
    nxt = p.peek()
    if nxt.text in ("!", "?"):
        p.next()
        branches = _parse_branches(p, lambda q: _parse_local(q, env))
        cls = LSend if nxt.text == "!" else LRecv
        return cls(name.text, branches)
    if name.text in env:
        return LVar(name.text)
    raise ParseError(f"unbound recursion variable {name.text!r}", name.line, name.col)


def _guarded_global(g: Global, var: str) -> bool:
    """var only occurs under a branching prefix within g."""
    if isinstance(g, GVar):
        return g.var != var
    if isinstance(g, GRec):
        return _guarded_global(g.body, var)
    return True  # GEnd, or GBranch: everything below is guarded


def _guarded_local(t: Local, var: str) -> bool:
    if isinstance(t, LVar):
        return t.var != var
    if isinstance(t, LRec):
        return _guarded_local(t.body, var)
    return True


def parse_global(text: str) -> Global:
    p = _Parser(text)
    g = _parse_global(p, ())
    if not p.at_end():
        t = p.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return g


def parse_local(text: str) -> Local:
    p = _Parser(text)
    t = _parse_local(p, ())
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t


# --------------------------------------------------------------------------
# System parsing

def parse_system(text: str) -> System:
    p = _Parser(text)
    blocks = []
    while not p.at_end():
        p.expect("machine")
        owner = p.ident("participant")
        p.expect("{")
        p.expect("init")
        init = p.ident("state")
        p.expect(";")
        edges = []
        while p.peek().text != "}":
            src = p.ident("state")
            p.expect("--")
            snd = p.ident("participant")
            rcv = p.ident("participant")
            op = p.next()
            if op.text not in ("!", "?"):
                raise ParseError(f"expected '!' or '?', found {op.text!r}",
                                 op.line, op.col)
            lbl = p.ident("message label")
            p.expect("-->")
            dst = p.ident("state")
            p.expect(";")
            if snd.text == rcv.text:
                raise ParseError(f"self-channel {snd.text}{rcv.text}",
                                 snd.line, snd.col)
            act = Action(snd.text, rcv.text, op.text, lbl.text)
            if act.subject != owner.text:
                raise ParseError(
                    f"subject of {act} is {act.subject}, not machine owner {owner.text}",
                    src.line, src.col)
            edges.append((src.text, act, dst.text))
        p.expect("}")
        blocks.append((owner, init, edges))

    owners = [b[0].text for b in blocks]
    if len(set(owners)) != len(owners):
        dup = next(o for o in owners if owners.count(o) > 1)
        raise ParseError(f"duplicate machine block for {dup!r}")
    known = set(owners)
    machines = []
    for owner, init, edges in blocks:
        for _, act, _ in edges:
            for part in (act.sender, act.receiver):
                if part not in known:
                    raise ParseError(f"unknown participant {part!r} in machine {owner.text}",
                                     owner.line, owner.col)
        m = Machine(owner.text, init.text, tuple(edges))
        # connectedness: every state reachable from the initial one
        seen, todo = {m.initial}, [m.initial]
        while todo:
            q = todo.pop()
            for _, _, d in m.outgoing(q):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        missing = m.states - seen
        if missing:
            raise ParseError(
                f"disconnected state {sorted(missing)[0]!r} in machine {owner.text}",
                owner.line, owner.col)
        machines.append(m)
    return make_system(machines)


# --------------------------------------------------------------------------
# Unfolding and substitution

def _subst_global(g: Global, var: str, repl: Global) -> Global:
    if isinstance(g, GVar):
        return repl if g.var == var else g
    if isinstance(g, GRec):
        if g.var == var:  # shadowed (rejected at parse time, kept for safety)
            return g
        return GRec(g.var, _subst_global(g.body, var, repl))
    if isinstance(g, GBranch):
        return GBranch(g.src, g.dst,
                       tuple((l, _subst_global(b, var, repl)) for l, b in g.branches),
                       g.mid)
    return g


def _subst_local(t: Local, var: str, repl: Local) -> Local:
    if isinstance(t, LVar):
        return repl if t.var == var else t
    if isinstance(t, LRec):
        if t.var == var:
            return t
        return LRec(t.var, _subst_local(t.body, var, repl))
    if isinstance(t, (LSend, LRecv)):
        return type(t)(t.peer,
                       tuple((l, _subst_local(b, var, repl)) for l, b in t.branches))
    return t


def unfold(t):
    """One-step unfolding of a recursive type; identity on anything else."""
    if isinstance(t, GRec):
        return _subst_global(t.body, t.var, t)
    if isinstance(t, LRec):
        return _subst_local(t.body, t.var, t)
    return t


# --------------------------------------------------------------------------
# Printing

def print_type(t) -> str:
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


def print_system(s: System) -> str:
    lines = []
    for p, m in s.machines:
        lines.append(f"machine {p} {{")
        lines.append(f"  init {m.initial};")
        for src, act, dst in m.transitions:
            lines.append(f"  {src} -- {act.sender} {act.receiver} {act.op} "
                         f"{act.label} --> {dst};")
        lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Structural helpers

def gparticipants(g: Global) -> frozenset[Participant]:
    if isinstance(g, GBranch):
        out = {g.src, g.dst}
        for _, b in g.branches:
            out |= gparticipants(b)
        return frozenset(out)
    if isinstance(g, GRec):
        return gparticipants(g.body)
    return frozenset()


def glabels(g: Global) -> frozenset[Label]:
    if isinstance(g, GBranch):
        out = set(g.labels())
        for _, b in g.branches:
            out |= glabels(b)
        return frozenset(out)
    if isinstance(g, GRec):
        return glabels(g.body)
    return frozenset()


def llabels(t: Local) -> frozenset[Label]:
    if isinstance(t, (LSend, LRecv)):
        out = set(t.labels())
        for _, b in t.branches:
            out |= llabels(b)
        return frozenset(out)
    if isinstance(t, LRec):
        return llabels(t.body)
    return frozenset()


def _sort_branches(t):
    if isinstance(t, GBranch):
        if t.mid is not None:
            # keep mid pointing at the same label after sorting
            mid_label = t.branches[t.mid][0]
            bs = tuple(sorted((l, _sort_branches(b)) for l, b in t.branches))
            mid = next(i for i, (l, _) in enumerate(bs) if l == mid_label)
            return GBranch(t.src, t.dst, bs, mid)
        return GBranch(t.src, t.dst,
                       tuple(sorted((l, _sort_branches(b)) for l, b in t.branches)))
    if isinstance(t, (LSend, LRecv)):
        return type(t)(t.peer,
                       tuple(sorted((l, _sort_branches(b)) for l, b in t.branches)))
    if isinstance(t, GRec):
        return GRec(t.var, _sort_branches(t.body))
    if isinstance(t, LRec):
        return LRec(t.var, _sort_branches(t.body))
    return t


def alpha_canonical(t):
    """Branches sorted, binders renamed t0,t1,... in traversal order."""

    def walk(u, env, counter):
        if isinstance(u, (GVar, LVar)):
            return type(u)(env[u.var])
        if isinstance(u, (GRec, LRec)):
            fresh = f"t{counter[0]}"
            counter[0] += 1
            return type(u)(fresh, walk(u.body, {**env, u.var: fresh}, counter))
        if isinstance(u, GBranch):
            return GBranch(u.src, u.dst,
                           tuple((l, walk(b, env, counter)) for l, b in u.branches),
                           u.mid)
        if isinstance(u, (LSend, LRecv)):
            return type(u)(u.peer,
                           tuple((l, walk(b, env, counter)) for l, b in u.branches))
        return u

    return walk(_sort_branches(t), {}, [0])


def alpha_equiv(t1, t2) -> bool:
    """Structural equality up to branch order and recursion-variable names."""
    return alpha_canonical(t1) == alpha_canonical(t2)
