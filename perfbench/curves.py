"""Scaling curves of the benchmark's families, for reference.

    python3 perfbench/curves.py

Prints one markdown table per family: the size, the work count, and the
median wall time of three calls (one call for calls over five seconds).
The README's reference figures come from this command.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import families as fam  # noqa: E402
from families import CANONICAL  # noqa: E402
from tracer import trie_nodes  # noqa: E402

import mpst  # noqa: E402


def timed(fn):
    times, out = [], None
    while len(times) < 3 and sum(times) < 5:
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
    return out, statistics.median(times)


def table(title: str, header: str, rows) -> None:
    print(f"\n{title}\n\n| {header} |")
    print("|" + " --- |" * (header.count("|") + 1))
    for row in rows:
        print("| " + " | ".join(row) + " |")
        sys.stdout.flush()


def system(machines):
    return mpst.parse_system(fam.cfsm_text(machines, CANONICAL))


def pairs_rows():
    for k in (1, 2, 3):
        for n in (1, 2, 3, 4):
            s = system(fam.pairs_machines(n))
            rs, _ = timed(lambda: mpst.reach(s, k))
            _, t = timed(lambda: mpst.check_safety(s, k))
            yield (str(n), str(k), str(len(rs.configs)), str(len(rs.edges)),
                   f"{t:.4f}")


def ring_rows():
    for n in (4, 8, 12, 16, 20, 24, 28):
        s = system(fam.ring_machines(n))
        _, tc = timed(lambda: mpst.multiparty_compatible(s))
        _, ts = timed(lambda: mpst.synthesize(s))
        _, tk = timed(lambda: mpst.check_safety(s, 2))
        yield (str(n), str(len(mpst.reach(s, 2).configs)), f"{tk:.4f}",
               f"{tc:.4f}", f"{ts:.4f}")


def fj_rows():
    for n in (1, 2, 3, 4):
        g = mpst.parse_gglobal(fam.fj_text(n, True, CANONICAL))
        s = mpst.make_system([mpst.gto_machine(mpst.gproject(g, p), p)
                              for p in mpst.gg_participants(g)])
        states = sum(len(m.states) for _, m in s.machines)
        _, t = timed(lambda: mpst.session_compatible(s))
        yield (str(n), "session_compatible", f"{states} machine states",
               f"{t:.4f}")
    for n in (2, 3, 4, 5, 6):
        net = mpst.to_petri(mpst.parse_gglobal(
            fam.fj_text(n, True, CANONICAL)))
        _, t = timed(lambda: mpst.is_safe(net))
        yield (str(n), "is_safe", f"{len(net.places)} places", f"{t:.4f}")


def indep_rows():
    for n in (2, 3, 4, 5):
        g = mpst.parse_global(fam.gt_text(fam.indep_type(n), CANONICAL))
        s = system(fam.indep_machines(n))
        _, t = timed(lambda: mpst.trace_equiv(g, s, 2 * n, 1))
        traces = trie_nodes(mpst.traces(s, 2 * n, 1)) + 1
        yield (str(n), str(2 * n), str(traces), f"{t:.4f}")


def main() -> None:
    table("pairs(n): reach and check_safety at bound k",
          "n | k | configs | edges | check_safety s", pairs_rows())
    table("ring(n): RS_2, safety, compatibility and synthesis",
          "n | configs | check_safety k=2 s | multiparty_compatible s | "
          "synthesize s", ring_rows())
    table("fj(n), one shared sender", "n | call | size | s", fj_rows())
    table("indep(n): trace_equiv of the type against its machines, k=1",
          "n | length | traces | s", indep_rows())


if __name__ == "__main__":
    main()
