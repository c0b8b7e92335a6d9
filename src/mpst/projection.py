"""Projection of global types onto participants, merge, well-formedness."""

from __future__ import annotations

from .errors import MergeFailure
from .syntax import (
    GBranch, GEnd, GRec, GVar, Global,
    LEnd, LRec, LRecv, LSend, LVar, Local,
    Participant, _Record, gparticipants,
)


def merge(t1: Local, t2: Local, _path: tuple[str, ...] = ()) -> Local:
    """The partial commutative merge ⊔.

    T ⊔ T = T, up to the order of branches; receive branchings from the
    same peer union their branches, recursing on shared labels; homomorphic
    on rec; undefined elsewhere.
    """
    if t1 == t2:
        return t1
    if isinstance(t1, LRecv) and isinstance(t2, LRecv) and t1.peer == t2.peer:
        left, right = dict(t1.branches), dict(t2.branches)
        out = []
        for lbl in sorted(left.keys() | right.keys()):
            if lbl in left and lbl in right:
                out.append((lbl, merge(left[lbl], right[lbl], _path + (lbl,))))
            else:
                out.append((lbl, left.get(lbl, right.get(lbl))))
        return LRecv(t1.peer, tuple(out))
    if isinstance(t1, LRec) and isinstance(t2, LRec) and t1.var == t2.var:
        return LRec(t1.var, merge(t1.body, t2.body, _path))
    if _same(t1, t2):
        return t1
    raise MergeFailure(f"cannot merge {t1} with {t2}", _path)


def _same(t1: Local, t2: Local) -> bool:
    """t1 and t2 are equal up to the order of their branches."""
    if isinstance(t1, (LSend, LRecv)):
        if type(t1) is not type(t2) or t1.peer != t2.peer:
            return False
        b1 = sorted(t1.branches, key=lambda br: br[0])
        b2 = sorted(t2.branches, key=lambda br: br[0])
        return len(b1) == len(b2) and all(
            l1 == l2 and _same(u1, u2) for (l1, u1), (l2, u2) in zip(b1, b2))
    if isinstance(t1, LRec):
        return (isinstance(t2, LRec) and t1.var == t2.var
                and _same(t1.body, t2.body))
    return t1 == t2


def project(g: Global, p: Participant,
            _memo: dict | None = None) -> Local:
    """Project a global type onto one participant (Def-3.1 equations).

    Senders see a selection, receivers a branching, third parties the merge
    of the branch projections.  An in-flight branching (mid set) projects
    with the receiver still seeing the full branching while everyone else
    sees the chosen branch.
    """
    memo = _memo if _memo is not None else {}
    key = (g, p)
    if key in memo:
        return memo[key]
    out = _project(g, p, memo)
    memo[key] = out
    return out


def _project(g: Global, p: Participant, memo) -> Local:
    if isinstance(g, GEnd):
        return LEnd()
    if isinstance(g, GVar):
        return LVar(g.var)
    if isinstance(g, GRec):
        body = project(g.body, p, memo)
        if body == LVar(g.var):
            return LEnd()
        return LRec(g.var, body)
    assert isinstance(g, GBranch)
    if g.mid is not None:
        chosen = g.branches[g.mid][1]
        if p == g.dst:
            return LRecv(g.src, tuple((l, project(b, p, memo)) for l, b in g.branches))
        return project(chosen, p, memo)
    if p == g.src:
        return LSend(g.dst, tuple((l, project(b, p, memo)) for l, b in g.branches))
    if p == g.dst:
        return LRecv(g.src, tuple((l, project(b, p, memo)) for l, b in g.branches))
    acc = None
    for l, b in g.branches:
        t = project(b, p, memo)
        acc = t if acc is None else merge(acc, t, (l,))
    return acc


class WellFormedReport(_Record):
    """failures is a tuple of (participant, reason) pairs."""

    __slots__ = ("ok", "failures")

    def __bool__(self):
        return self.ok


def well_formed(g: Global) -> WellFormedReport:
    """True iff every participant of g is projectable."""
    failures = []
    for p in sorted(gparticipants(g)):
        try:
            project(g, p)
        except MergeFailure as e:
            failures.append((p, str(e)))
    return WellFormedReport(not failures, tuple(failures))
