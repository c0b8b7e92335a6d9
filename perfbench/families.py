"""Seeded generators for the benchmark's input families.

Every input is built here as text in the toolkit's own formats, so the
program under test only ever sees generated files.  A `Names` object, drawn
from the seed, renames participants and labels and shuffles the order of
machine blocks, transitions and equations.  None of that may
change a verdict or a work count; the workloads check that it does not by
comparing every count with a closed form that knows nothing of the names.

Machines are kept in a small model of their own, `{owner: (initial,
[(src, (sender, receiver, op, label), dst), ...])}`, which `oracle.py`
explores without the toolkit.
"""

from __future__ import annotations

import random
import string

import oracle


class Names:
    """Seeded renaming of participants and labels, plus seeded shuffles.

    Without an rng the names are returned unchanged and nothing is shuffled;
    the inputs of the known faults use that, so they do not depend on the
    seed.
    """

    def __init__(self, rng: random.Random | None):
        self.rng = rng
        self._map: dict[tuple[str, str], str] = {}

    def _fresh(self, kind: str, name: str) -> str:
        key = (kind, name)
        if key not in self._map:
            if self.rng is None:
                self._map[key] = name
            else:
                stem = "".join(self.rng.choice(string.ascii_lowercase)
                               for _ in range(self.rng.randint(1, 3)))
                if kind == "p":
                    stem = stem.capitalize()
                # the counter keeps names distinct; the stem moves them
                # around in sorted order
                self._map[key] = f"{stem}{len(self._map)}"
        return self._map[key]

    def p(self, name: str) -> str:
        return self._fresh("p", name)

    def l(self, name: str) -> str:
        return self._fresh("l", name)

    def shuffled(self, items) -> list:
        items = list(items)
        if self.rng is not None:
            self.rng.shuffle(items)
        return items


CANONICAL = Names(None)


# --------------------------------------------------------------------------
# Global types as nested tuples:
#   ("msg", src, dst, ((label, cont), ...)) | ("rec", var, body)
#   | ("var", var) | ("end",)

def gt_text(g, names: Names) -> str:
    tag = g[0]
    if tag == "end":
        return "end"
    if tag == "var":
        return g[1]
    if tag == "rec":
        return f"rec {g[1]}. {gt_text(g[2], names)}"
    _, src, dst, branches = g
    # Branch order is kept: `merge` compares sends order-sensitively, so
    # shuffled branches can make a well-formed type fail projection.
    body = ", ".join(f"{names.l(l)}. {gt_text(c, names)}"
                     for l, c in branches)
    return f"{names.p(src)} -> {names.p(dst)} : {{ {body} }}"


def msg(src, dst, *branches):
    return ("msg", src, dst, tuple(branches))


def ring_type(n: int):
    """rec t. P0->P1:{go. P1->P2:go. ... P(n-1)->P0:ack. t,
                      stop. P1->P2:stop. ... end}"""
    go = msg(f"P{n - 1}", "P0", ("ack", ("var", "t")))
    for i in range(n - 2, 0, -1):
        go = msg(f"P{i}", f"P{i + 1}", ("go", go))
    stop = ("end",)
    for i in range(n - 2, 0, -1):
        stop = msg(f"P{i}", f"P{i + 1}", ("stop", stop))
    return ("rec", "t", msg("P0", "P1", ("go", go), ("stop", stop)))


def chain_text(n: int) -> str:
    """A->B:m0. ... A->B:m(n-1). end, written flat (it is too deep for a
    recursive printer)."""
    return "".join(f"A->B:m{i}. " for i in range(n)) + "end\n"


def indep_type(n: int, mutate: int | None = None):
    """A0->B0:m. ... A(n-1)->B(n-1):m. end; `mutate` renames the label of
    that one exchange."""
    g = ("end",)
    for i in range(n - 1, -1, -1):
        g = msg(f"A{i}", f"B{i}", ("w" if i == mutate else "m", g))
    return g


def pairs2_type(zlabel: str = "z"):
    """The two-pair type rec t. A0->B0:{x. G1, y. A0->B0:z. G1} with
    G1 = A1->B1:{x. t, y. A1->B1:<zlabel>. t}."""
    g1 = msg("A1", "B1", ("x", ("var", "t")),
             ("y", msg("A1", "B1", (zlabel, ("var", "t")))))
    return ("rec", "t", msg("A0", "B0", ("x", g1),
                            ("y", msg("A0", "B0", ("z", g1)))))


# --------------------------------------------------------------------------
# Machine systems

def send(p, q, label):
    return (p, q, "!", label)


def recv(p, q, label):
    return (p, q, "?", label)


def pair_machines(a: str, b: str, labels=("x", "y", "z"), blabels=None):
    """A sends x (loop) or y then z (loop) to B; B mirrors A.  `blabels`
    lets B expect other labels than A sends."""
    x, y, z = labels
    bx, by, bz = blabels or labels
    return {
        a: ("q0", [("q0", send(a, b, x), "q0"), ("q0", send(a, b, y), "q1"),
                   ("q1", send(a, b, z), "q0")]),
        b: ("q0", [("q0", recv(a, b, bx), "q0"), ("q0", recv(a, b, by), "q1"),
                   ("q1", recv(a, b, bz), "q0")]),
    }


def pairs_machines(n: int, mismatch: bool = False, zlabel: str = "z"):
    """n independent looping pairs A_i/B_i.  With `mismatch`, B_0 expects a
    label A_0 never sends: an unspecified reception by construction.
    `zlabel` renames z in the last pair, both sides."""
    out = {}
    for i in range(n):
        labels = ("x", "y", zlabel if i == n - 1 else "z")
        bl = ("v", "y", "z") if mismatch and i == 0 else None
        out.update(pair_machines(f"A{i}", f"B{i}", labels, bl))
    return out


def loop_machines(a: str, b: str):
    """One data+.eof loop of fj(n): a sends data, more data or eof to b,
    and b mirrors a."""
    return {
        a: ("q0", [("q0", send(a, b, "data"), "q1"),
                   ("q1", send(a, b, "data"), "q1"),
                   ("q1", send(a, b, "eof"), "q2")]),
        b: ("q0", [("q0", recv(a, b, "data"), "q1"),
                   ("q1", recv(a, b, "data"), "q1"),
                   ("q1", recv(a, b, "eof"), "q2")]),
    }


def ring_machines(n: int, variant: str | None = None):
    """Machines of ring(n), written by hand.

    variant "cyclic": every P_i first waits for its predecessor, so the
    initial configuration is a deadlock.  variant "dropstop": P1 no longer
    accepts stop, which breaks compatibility and leaves an unspecified
    reception.
    """
    ps = [f"P{i}" for i in range(n)]
    nxt = {ps[i]: ps[(i + 1) % n] for i in range(n)}
    prv = {ps[i]: ps[(i - 1) % n] for i in range(n)}
    out = {}
    if variant == "cyclic":
        for p in ps:
            out[p] = ("q0", [("q0", recv(prv[p], p, "go"), "q1"),
                             ("q1", send(p, nxt[p], "go"), "q0")])
        return out
    p0, last = ps[0], ps[-1]
    out[p0] = ("q0", [("q0", send(p0, nxt[p0], "go"), "q1"),
                      ("q1", recv(last, p0, "ack"), "q0"),
                      ("q0", send(p0, nxt[p0], "stop"), "q2")])
    for p in ps[1:]:
        if p == last:
            tr = [("q0", recv(prv[p], p, "go"), "q1"),
                  ("q1", send(p, p0, "ack"), "q0"),
                  ("q0", recv(prv[p], p, "stop"), "q2")]
        else:
            tr = [("q0", recv(prv[p], p, "go"), "q1"),
                  ("q1", send(p, nxt[p], "go"), "q0"),
                  ("q0", recv(prv[p], p, "stop"), "q2"),
                  ("q2", send(p, nxt[p], "stop"), "q3")]
        if variant == "dropstop" and p == ps[1]:
            tr = [t for t in tr if t[1][3] != "stop"]
        out[p] = ("q0", tr)
    return out


def indep_machines(n: int, mutate: int | None = None):
    out = {}
    for i in range(n):
        a, b, lbl = f"A{i}", f"B{i}", "w" if i == mutate else "m"
        out[a] = ("q0", [("q0", send(a, b, lbl), "q1")])
        out[b] = ("q0", [("q0", recv(a, b, lbl), "q1")])
    return out


def rename_machines(machines: dict, names: Names) -> dict:
    """The same system under `names`; states keep their names."""
    out = {}
    for owner, (init, trans) in machines.items():
        out[names.p(owner)] = (init, [
            (s, (names.p(a[0]), names.p(a[1]), a[2], names.l(a[3])), d)
            for s, a, d in trans])
    return out


def cfsm_text(machines: dict, names: Names) -> str:
    """Renamed, shuffled .cfsm text of a machine system."""
    blocks = []
    for owner, (init, trans) in names.shuffled(machines.items()):
        lines = [f"machine {names.p(owner)} {{", f"  init {init};"]
        for s, a, d in names.shuffled(trans):
            lines.append(f"  {s} -- {names.p(a[0])} {names.p(a[1])} {a[2]} "
                         f"{names.l(a[3])} --> {d};")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


# --------------------------------------------------------------------------
# Fork/join equation systems

def fj_text(n: int, shared: bool, names: Names) -> str:
    """n parallel data*.eof loops under binary forks and joins, then end.

    With `shared` every loop is sent by one participant S to its own B_i;
    otherwise loop i has its own sender A_i.
    """
    counter = iter(range(10_000))
    eqs = []

    def var():
        return f"x{next(counter)}"

    def region(lo: int, hi: int):
        """Entry and exit variables of the loops lo..hi-1."""
        if hi - lo == 1:
            i = lo
            src = "S" if shared else f"A{i}"
            dst = f"B{i}"
            entry, head, dec, back, eof, out = (var() for _ in range(6))
            eqs.append(f"{entry} + {back} = {head};")
            eqs.append(f"{head} = {names.p(src)} -> {names.p(dst)} : "
                       f"{names.l('data')} ; {dec};")
            eqs.append(f"{dec} = {back} + {eof};")
            eqs.append(f"{eof} = {names.p(src)} -> {names.p(dst)} : "
                       f"{names.l('eof')} ; {out};")
            return entry, out
        mid = (lo + hi) // 2
        l_in, l_out = region(lo, mid)
        r_in, r_out = region(mid, hi)
        entry, out = var(), var()
        eqs.append(f"{entry} = {l_in} | {r_in};")
        eqs.append(f"{l_out} | {r_out} = {out};")
        return entry, out

    entry, out = region(0, n)
    eqs.append(f"{out} = end;")
    return f"init {entry};\n" + "".join(e + "\n" for e in names.shuffled(eqs))


def fj_places(n: int) -> int:
    """Places of the net of fj(n): one per variable, six per loop and two
    per fork/join pair."""
    return 6 * n + 2 * (n - 1)


# --------------------------------------------------------------------------
# Random small well-formed global types, drawn like the acceptance suite's
# fuzz types but stratified by participant count and size, so that the
# mix of sizes is the same for every seed.  Each exchange, including the
# one a loop returns to, is sent by a participant of the exchange just
# before it, so no two exchanges can run concurrently: `synthesize` fails
# on some concurrent loops (see CHANGES.md), and sequential types also keep
# the cost of a job close to the same for every seed.

LABELS = ["a", "b", "c", "d", "e", "f"]


def random_type(rng: random.Random, nparts: int, budget: int):
    parts = ["A", "B", "C", "D"][:nparts]
    var = "t" if rng.random() < 0.5 else None
    top = rng.sample(parts, 2)

    def exchange(b, src, dst):
        nb = 1 if b <= 1 or rng.random() < 0.6 else 2
        labels = sorted(rng.sample(LABELS, nb))
        share = (b - 1) // nb
        return ("msg", src, dst,
                tuple((l, body(share, (src, dst))) for l in labels))

    def body(b, above):
        if b <= 0:
            if var is not None and top[0] in above and rng.random() < 0.5:
                return ("var", var)
            return ("end",)
        src = rng.choice(above)
        dst = rng.choice([p for p in parts if p != src])
        return exchange(b, src, dst)

    core = exchange(budget, *top)
    return ("rec", "t", core) if var else core


def random_types(rng: random.Random, per_stratum: int) -> list:
    """`per_stratum` types for each participant count 2..4 and size 1..6,
    kept when `oracle.projectable` says they are well-formed."""
    out = []
    for nparts in (2, 3, 4):
        for budget in range(1, 7):
            got = 0
            while got < per_stratum:
                g = random_type(rng, nparts, budget)
                if oracle.projectable(g):
                    out.append(g)
                    got += 1
    return out
