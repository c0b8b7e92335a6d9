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
(`_Type`), and `_Branching` marks the nodes with labelled branches; one
parser, `_parse_type`, reads both grammars, which differ only in the
exchange after a participant name; `_guarded`, `_subst`, `print_type`,
`glabels` and `alpha_canonical` each serve both languages.
"""

from __future__ import annotations

import re
from functools import cached_property, total_ordering
from itertools import count
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


@total_ordering
class Action(_Record):
    """A send or receive pq!a / pq?a; subject is the acting participant.
    Actions are ordered as the tuples of their fields."""

    __slots__ = ("sender", "receiver", "op", "label")  # op is "!" or "?"

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
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


class Machine(_Record):
    """CFSM: finite control, transitions labelled with send/receive actions.
    The transitions, (source, Action, target) triples, are kept sorted,
    each transition once; `outgoing` lists a state's moves, and every
    reading of them filters it.  states defaults to the initial state and
    every endpoint of a transition.  The `__dict__` holds the cached
    properties."""

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
        transitions = tuple(sorted(set(transitions)))
        super().__init__(owner, initial, transitions, states)

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

    def is_mixed(self, q: str) -> bool:
        return len({a.op for _, a, _ in self.outgoing(q)}) == 2

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

# Every token, a `//` comment, and last any other non-space character: one
# `findall` yields every token, as no character but whitespace is skipped.
_TOKEN_RE = re.compile(
    r"//[^\n]*|-->|->|~>|\(\+\)|--|[A-Za-z_][A-Za-z0-9_]*|\S")

# the tokens of one character: the operators, and identifiers of one letter
_ONE_CHAR = frozenset("{}().,;:!?=+|&_abcdefghijklmnopqrstuvwxyz"
                      "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _position(text: str, at: int) -> tuple[int, int]:
    """The line and column of offset `at` in text; only "\n" ends a line."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def tokenize(text: str) -> list[str]:
    """The tokens of text, comments left out, and "" for the end of input.
    A character that starts no token is a ParseError at its position."""
    toks = _TOKEN_RE.findall(text)
    # the catch-all yields the only tokens of one character not allowed
    if not _ONE_CHAR.issuperset(t for t in set(toks) if len(t) == 1):
        for m in _TOKEN_RE.finditer(text):
            c = m.group()
            if c not in _ONE_CHAR and len(c) == 1:
                raise ParseError(f"unexpected character {c!r}",
                                 *_position(text, m.start()))
    if "//" in text:
        toks = [t for t in toks if not t.startswith("//")]
    toks.append("")
    return toks


class _Parser:
    """A cursor over the tokens of text.  A token is an identifier when it
    starts with a letter or "_", which for a token is `isidentifier`."""

    def __init__(self, text: str):
        self.source = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> str:
        t = self.next()
        if t != text:
            raise self.fail(f"expected {text!r}, found {t or 'end of input'!r}",
                            self.i - 1)
        return t

    def ident(self, what="identifier") -> str:
        t = self.next()
        if not t.isidentifier():
            raise self.fail(f"expected {what}, found {t or 'end of input'!r}",
                            self.i - 1)
        return t

    def at_end(self) -> bool:
        return not self.toks[self.i]

    def fail(self, msg: str, i: int) -> ParseError:
        """The ParseError msg at token i.  Only an error needs a position,
        so the text is scanned again for it here."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.source)
                  if not m.group().startswith("//")]
        starts.append(len(self.source))
        return ParseError(msg, *_position(self.source, starts[i]))


# --------------------------------------------------------------------------
# Type parsing

def _parse_branches(p: _Parser, sub):
    if p.peek() == "{":
        p.next()
        branches = [_parse_one_branch(p, sub)]
        while p.peek() == ",":
            p.next()
            branches.append(_parse_one_branch(p, sub))
        p.expect("}")
    else:
        branches = [_parse_one_branch(p, sub)]
    labels = [l for l, _ in branches]
    if len(set(labels)) != len(labels):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise p.fail(f"duplicate branch label {dup!r}", p.i)
    return tuple(branches)


def _parse_one_branch(p: _Parser, sub):
    lbl = p.ident("message label")
    p.expect(".")
    return (lbl, sub(p))


# the node classes and the name of each type language, by `local`
_NODES = {False: ("global", GEnd, GVar, GRec), True: ("local", LEnd, LVar, LRec)}


def _name(p: _Parser, what: str) -> str:
    """An identifier that is not a keyword, so the type prints back."""
    t = p.ident(what)
    if t in ("end", "rec"):
        raise p.fail(f"expected {what}, found keyword {t!r}", p.i - 1)
    return t


def _parse_type(p: _Parser, env: tuple[str, ...], local: bool):
    """A global type, or with local set a local type: the two grammars
    differ only in the exchange after a participant name."""
    what, end, var_, rec = _NODES[local]
    t = p.next()
    if t == "end":
        return end()
    if t == "rec":
        at = p.i
        var = _name(p, "recursion variable")
        if var in env:
            raise p.fail(f"recursion variable {var!r} shadows an outer binding",
                         at)
        p.expect(".")
        body = _parse_type(p, env + (var,), local)
        if not _guarded(body, var):
            raise p.fail(f"unguarded recursion on {var!r}", at)
        return rec(var, body)
    if not t.isidentifier():
        raise p.fail(f"expected a {what} type, found {t or 'end of input'!r}",
                     p.i - 1)
    nxt = p.peek()
    sub = lambda q: _parse_type(q, env, local)
    if local and nxt in ("!", "?"):
        p.next()
        cls = LSend if nxt == "!" else LRecv
        return cls(t, _parse_branches(p, sub))
    if not local and nxt == "~>":
        raise p.fail("the in-flight marker ~> is runtime-only", p.i)
    if not local and nxt == "->":
        p.next()
        dst = _name(p, "participant")
        if dst == t:
            raise p.fail(f"self-message {t}->{dst}", p.i - 1)
        p.expect(":")
        return GBranch(t, dst, _parse_branches(p, sub))
    if t in env:
        return var_(t)
    raise p.fail(f"unbound recursion variable {t!r}", p.i - 1)


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
        raise p.fail(f"trailing input {p.peek()!r}", p.i)
    return t


def parse_global(text: str) -> Global:
    return _parse_whole(text, local=False)


def parse_local(text: str) -> Local:
    return _parse_whole(text, local=True)


# --------------------------------------------------------------------------
# System parsing

def parse_system(text: str) -> System:
    p = _Parser(text)
    blocks = []  # (owner, its token index, initial state, edges)
    while not blocks or not p.at_end():  # at least one machine block
        p.expect("machine")
        owner = p.ident("participant")
        owner_at = p.i - 1
        p.expect("{")
        p.expect("init")
        init = p.ident("state")
        p.expect(";")
        edges = []
        while p.peek() != "}":
            src_at = p.i
            src = p.ident("state")
            p.expect("--")
            snd = p.ident("participant")
            rcv = p.ident("participant")
            op = p.next()
            if op not in ("!", "?"):
                raise p.fail(f"expected '!' or '?', found {op!r}", p.i - 1)
            lbl = p.ident("message label")
            p.expect("-->")
            dst = p.ident("state")
            p.expect(";")
            if snd == rcv:
                raise p.fail(f"self-channel {snd}{rcv}", src_at + 2)  # at snd
            act = Action(snd, rcv, op, lbl)
            if act.subject != owner:
                raise p.fail(
                    f"subject of {act} is {act.subject}, not machine owner {owner}",
                    src_at)
            edges.append((src, act, dst))
        p.expect("}")
        blocks.append((owner, owner_at, init, edges))

    owners = [b[0] for b in blocks]
    if len(set(owners)) != len(owners):
        dup = next(o for o in owners if owners.count(o) > 1)
        second = [at for o, at, _, _ in blocks if o == dup][1]
        raise p.fail(f"duplicate machine block for {dup!r}", second)
    known = set(owners)
    machines = []
    for owner, owner_at, init, edges in blocks:
        for _, act, _ in edges:
            for part in (act.sender, act.receiver):
                if part not in known:
                    raise p.fail(f"unknown participant {part!r} in machine {owner}",
                                 owner_at)
        m = Machine(owner, init, tuple(edges))
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
            raise p.fail(
                f"disconnected state {sorted(missing)[0]!r} in machine {owner}",
                owner_at)
        machines.append(m)
    return make_system(machines)


# --------------------------------------------------------------------------
# Unfolding and substitution

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
    if not isinstance(t, _Branching):
        raise TypeError(f"not a type: {t!r}")
    inner = sorted((l, print_type(b)) for l, b in t.branches)
    body = ", ".join(f"{l}. {s}" for l, s in inner)
    if not isinstance(t, GBranch):
        head = t.peer + ("!" if isinstance(t, LSend) else "?")
    elif t.mid is None:
        head = f"{t.src}->{t.dst}:"
    else:
        return f"{t.src} ~> {t.dst} : [{t.branches[t.mid][0]}] {{{body}}}"
    return head + (body if len(t.branches) == 1 else f"{{{body}}}")


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
        out = {l for l, _ in g.branches}
        for _, b in g.branches:
            out |= glabels(b)
        return frozenset(out)
    if isinstance(g, (GRec, LRec)):
        return glabels(g.body)
    return frozenset()


def alpha_canonical(t):
    """Branches sorted by label, binders renamed t0,t1,... in the traversal
    order of the sorted tree; an in-flight mark stays on its label."""
    fresh = (f"t{i}" for i in count())

    def walk(u, env):
        if isinstance(u, (GVar, LVar)):
            return type(u)(env[u.var])
        if isinstance(u, (GRec, LRec)):
            var = next(fresh)
            return type(u)(var, walk(u.body, {**env, u.var: var}))
        if not isinstance(u, _Branching):
            return u
        order = sorted(range(len(u.branches)), key=lambda i: u.branches[i][0])
        bs = tuple((u.branches[i][0], walk(u.branches[i][1], env))
                   for i in order)
        if not isinstance(u, GBranch):
            return type(u)(u.peer, bs)
        return GBranch(u.src, u.dst, bs,
                       None if u.mid is None else order.index(u.mid))

    return walk(t, {})


def alpha_equiv(t1, t2) -> bool:
    """Structural equality up to branch order and recursion-variable names."""
    return alpha_canonical(t1) == alpha_canonical(t2)
