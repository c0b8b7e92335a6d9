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

Global and local types share one core.  Their node classes share printing
(`_Type`) and branch lookup (`_Branching`); one parser, `_parse_type`,
reads both grammars, which differ only in the exchange after a
participant name; `_guarded`, `_subst`, `print_type` and `glabels` each
serve both languages.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter

from .errors import ParseError

Participant = str
Label = str
Var = str


class _Record:
    """The base of every value type of the toolkit: an immutable record
    whose fields are the public names of the `__slots__` of its classes,
    base first.

    It is built by position or by keyword, with the defaults in
    `_defaults`.  It equals only a record of the same class with equal
    fields, and hashes as the tuple of its fields, a hash computed once;
    both read `_values`, that tuple.  A class that normalises its fields
    does so in its own `__init__` before calling this one.  Assigning to a
    record raises AttributeError."""

    __slots__ = ("_hash", "__weakref__")
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()  # the slot setter of each field
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in c.__dict__.get("__slots__", ())
                            if not f.startswith("_"))
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)
        cls._values = property(_getter(cls._fields))

    def __init__(self, *args, **kw):
        if kw or len(args) != len(self._fields):
            args = self._bind(args, kw)
        _set_hash(self, None)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kw: dict) -> tuple:
        """The field values of a call with keywords or defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for f in cls._fields[len(args):]:
            if f in kw:
                values.append(kw.pop(f))
            elif f in cls._defaults:
                values.append(cls._defaults[f])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {f!r}")
        if kw:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {min(kw)!r}")
        return tuple(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values)
            _set_hash(self, h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


_set_hash = _Record._hash.__set__


def _getter(fields: tuple[str, ...]):
    """The function from a record to the tuple of its fields named."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:  # an attrgetter of one name returns the bare value
        get = attrgetter(*fields)
        return lambda r: (get(r),)
    return lambda r: ()


class Action(_Record):
    """A send or receive pq!a / pq?a; subject is the acting participant.
    Actions are ordered as the tuples of their fields."""

    __slots__ = ("sender", "receiver", "op", "label")  # op is "!" or "?"

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._values <= other._values
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._values > other._values
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._values >= other._values
        return NotImplemented

    @property
    def subject(self) -> Participant:
        return self.sender if self.op == "!" else self.receiver

    @property
    def channel(self) -> tuple[Participant, Participant]:
        return (self.sender, self.receiver)

    def __str__(self) -> str:
        return f"{self.sender}{self.receiver}{self.op}{self.label}"


# --------------------------------------------------------------------------
# Global and local types


class _Type(_Record):
    """A global or local type node; it prints as `print_type` renders it."""

    __slots__ = ()

    def __str__(self):
        return print_type(self)


class _Branching(_Type):
    """A node with labelled continuations: GBranch, LSend or LRecv."""

    __slots__ = ()

    def labels(self) -> tuple[Label, ...]:
        return tuple(l for l, _ in self.branches)

    def branch(self, label: Label):
        for l, t in self.branches:
            if l == label:
                return t
        raise KeyError(label)


class GEnd(_Type):
    """Terminated protocol."""

    __slots__ = ()


class GVar(_Type):
    """Recursion variable occurrence."""

    __slots__ = ("var",)


class GRec(_Type):
    """rec t. body"""

    __slots__ = ("var", "body")


class GBranch(_Branching):
    """Branched exchange src->dst:{a_i. G_i}, the branches a tuple of
    (label, Global) pairs; mid, None by default, is the index of the
    in-flight branch."""

    __slots__ = ("src", "dst", "branches", "mid")
    _defaults = {"mid": None}


Global = GEnd | GVar | GRec | GBranch


class LEnd(_Type):
    """Terminated endpoint."""

    __slots__ = ()


class LVar(_Type):
    __slots__ = ("var",)


class LRec(_Type):
    __slots__ = ("var", "body")


class _LBranching(_Branching):
    """A local branching, LSend or LRecv: the class tells which.  The
    branches are a tuple of (label, Local) pairs."""

    __slots__ = ("peer", "branches")


class LSend(_LBranching):
    """Selection: peer!{a_i. T_i}"""

    __slots__ = ()


class LRecv(_LBranching):
    """Branching: peer?{a_i. T_i}"""

    __slots__ = ()


Local = LEnd | LVar | LRec | LSend | LRecv


# --------------------------------------------------------------------------
# Machines and systems


_NO_MOVES: tuple[dict, dict] = ({}, {})  # a state that is not in the machine


class Machine(_Record):
    """CFSM: finite control, transitions labelled with send/receive actions.
    The transitions, (source, Action, target) triples, are kept sorted;
    states defaults to the initial state and every endpoint of a
    transition.  The `__dict__` holds the cached properties."""

    __slots__ = ("owner", "initial", "transitions", "states", "__dict__")

    def __init__(self, owner: Participant, initial: str,
                 transitions: tuple[tuple[str, Action, str], ...],
                 states: frozenset[str] = frozenset()):
        if not states:
            sts = {initial}
            for s, _, d in transitions:
                sts.add(s)
                sts.add(d)
            states = frozenset(sts)
        transitions = tuple(sorted(transitions,
                                   key=lambda e: (e[0], e[1], e[2])))
        super().__init__(owner, initial, transitions, states)

    @cached_property
    def _out(self) -> dict[str, tuple[tuple[str, Action, str], ...]]:
        d: dict[str, list] = {q: [] for q in self.states}
        for e in self.transitions:
            d[e[0]].append(e)
        return {q: tuple(es) for q, es in d.items()}

    def outgoing(self, q: str) -> tuple[tuple[str, Action, str], ...]:
        return self._out.get(q, ())

    @cached_property
    def _by_peer(self) -> dict[str, tuple[dict, dict]]:
        """The moves from each state by peer: (sends, receives), each
        {peer: {label: targets}} in `outgoing` order, that is sorted by
        peer, label and target.  Every target is kept, so a
        nondeterministic machine loses none."""
        out = {}
        for q, es in self._out.items():
            sends: dict = {}
            recvs: dict = {}
            for _, a, d in es:
                if a.op == "!":
                    by = sends.setdefault(a.receiver, {})
                else:
                    by = recvs.setdefault(a.sender, {})
                by[a.label] = by.get(a.label, ()) + (d,)
            out[q] = (sends, recvs)
        return out

    def _sends(self, q: str) -> dict:
        """What q sends to each receiver: {receiver: {label: targets}}."""
        return self._by_peer.get(q, _NO_MOVES)[0]

    def _receives(self, q: str) -> dict:
        """What q accepts from each sender: {sender: {label: targets}}."""
        return self._by_peer.get(q, _NO_MOVES)[1]

    def is_final(self, q: str) -> bool:
        return not self.outgoing(q)

    def is_sending(self, q: str) -> bool:
        outs = self.outgoing(q)
        return bool(outs) and all(e[1].op == "!" for e in outs)

    def is_receiving(self, q: str) -> bool:
        outs = self.outgoing(q)
        return bool(outs) and all(e[1].op == "?" for e in outs)

    def is_mixed(self, q: str) -> bool:
        return bool(self._sends(q) and self._receives(q))

    @cached_property
    def final_states(self) -> frozenset[str]:
        return frozenset(q for q in self.states if self.is_final(q))


class System(_Record):
    """One machine per participant, sharing the channel set: machines is
    a tuple of (participant, Machine) pairs, kept sorted by participant.
    The `__dict__` holds the cached properties and the compiled tables and
    connected components of `cfsm`."""

    __slots__ = ("machines", "__dict__")

    def __init__(self, machines: tuple[tuple[Participant, Machine], ...]):
        super().__init__(tuple(sorted(machines, key=lambda kv: kv[0])))

    @cached_property
    def by_owner(self) -> dict[Participant, Machine]:
        return dict(self.machines)

    @cached_property
    def participants(self) -> tuple[Participant, ...]:
        return tuple(p for p, _ in self.machines)

    @cached_property
    def channels(self) -> tuple[tuple[Participant, Participant], ...]:
        return channels(self.participants)

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


class Token(_Record):
    __slots__ = ("kind", "text", "line", "col")  # kind: "op", "ident", "eof"


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


# the node classes and the name of each type language, by `local`
_NODES = {False: ("global", GEnd, GVar, GRec), True: ("local", LEnd, LVar, LRec)}


def _name(p: _Parser, what: str) -> Token:
    """An identifier that is not a keyword, so the type prints back."""
    t = p.ident(what)
    if t.text in ("end", "rec"):
        raise ParseError(f"expected {what}, found keyword {t.text!r}",
                         t.line, t.col)
    return t


def _parse_type(p: _Parser, env: tuple[str, ...], local: bool):
    """A global type, or with local set a local type: the two grammars
    differ only in the exchange after a participant name."""
    what, end, var_, rec = _NODES[local]
    t = p.peek()
    if t.text == "end":
        p.next()
        return end()
    if t.text == "rec":
        p.next()
        var = _name(p, "recursion variable")
        if var.text in env:
            raise ParseError(f"recursion variable {var.text!r} shadows an outer binding",
                             var.line, var.col)
        p.expect(".")
        body = _parse_type(p, env + (var.text,), local)
        if not _guarded(body, var.text):
            raise ParseError(f"unguarded recursion on {var.text!r}", var.line, var.col)
        return rec(var.text, body)
    if t.kind != "ident":
        raise ParseError(f"expected a {what} type, found {t.text or 'end of input'!r}",
                         t.line, t.col)
    name = p.next()
    nxt = p.peek()
    sub = lambda q: _parse_type(q, env, local)
    if local and nxt.text in ("!", "?"):
        p.next()
        cls = LSend if nxt.text == "!" else LRecv
        return cls(name.text, _parse_branches(p, sub))
    if not local and nxt.text == "~>":
        raise ParseError("the in-flight marker ~> is runtime-only",
                         nxt.line, nxt.col)
    if not local and nxt.text == "->":
        p.next()
        dst = _name(p, "participant")
        if dst.text == name.text:
            raise ParseError(f"self-message {name.text}->{dst.text}",
                             dst.line, dst.col)
        p.expect(":")
        return GBranch(name.text, dst.text, _parse_branches(p, sub))
    if name.text in env:
        return var_(name.text)
    raise ParseError(f"unbound recursion variable {name.text!r}", name.line, name.col)


def _guarded(t, var: str) -> bool:
    """var occurs in the global or local type t only under a branching
    prefix: t is not var itself, nor var under recursion binders."""
    while isinstance(t, (GRec, LRec)):
        t = t.body
    return not (isinstance(t, (GVar, LVar)) and t.var == var)


def _parse_whole(text: str, local: bool):
    p = _Parser(text)
    t = _parse_type(p, (), local)
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return t


def parse_global(text: str) -> Global:
    return _parse_whole(text, local=False)


def parse_local(text: str) -> Local:
    return _parse_whole(text, local=True)


# --------------------------------------------------------------------------
# System parsing

def parse_system(text: str) -> System:
    p = _Parser(text)
    blocks = []
    while not blocks or not p.at_end():  # at least one machine block
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

def _with_branches(t: _Branching, branches) -> _Branching:
    """The branching node t, global or local, with other branches."""
    if isinstance(t, GBranch):
        return GBranch(t.src, t.dst, branches, t.mid)
    return type(t)(t.peer, branches)


def _subst(t, var: str, repl):
    """t, global or local, with repl for the free occurrences of var."""
    if isinstance(t, (GVar, LVar)):
        return repl if t.var == var else t
    if isinstance(t, (GRec, LRec)):
        if t.var == var:  # shadowed (rejected at parse time, kept for safety)
            return t
        return type(t)(t.var, _subst(t.body, var, repl))
    # the branchings are rebuilt inline: unfolding is on the stepping path
    if isinstance(t, GBranch):
        return GBranch(t.src, t.dst,
                       tuple((l, _subst(b, var, repl)) for l, b in t.branches),
                       t.mid)
    if isinstance(t, _LBranching):
        return type(t)(t.peer,
                       tuple((l, _subst(b, var, repl)) for l, b in t.branches))
    return t


def unfold(t):
    """One-step unfolding of a recursive type; identity on anything else."""
    if isinstance(t, (GRec, LRec)):
        return _subst(t.body, t.var, t)
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
    """The labels of every exchange in a global or local type."""
    if isinstance(g, _Branching):
        out = set(g.labels())
        for _, b in g.branches:
            out |= glabels(b)
        return frozenset(out)
    if isinstance(g, (GRec, LRec)):
        return glabels(g.body)
    return frozenset()


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


def alpha_equiv(t1, t2) -> bool:
    """Structural equality up to branch order and recursion-variable names."""
    return alpha_canonical(t1) == alpha_canonical(t2)
