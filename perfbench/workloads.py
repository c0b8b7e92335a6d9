"""The four workloads: their job lists and the checks on every verdict.

`build_<workload>(seed)` returns the jobs of one round, in order; a job may
appear more than once.  A job is one timed call sequence into the toolkit
plus a check of what it returned.  Checks compare
with closed forms, with the brute-force `oracle`, or with properties the
paper guarantees; none compares with a stored copy of earlier output.

Three operations fail today because of known faults in the toolkit.  Each
is kept as a job with inputs that do not depend on the seed, and `fault`
recognises its failure, which is then counted as failed rather than wrong:

  (a) `synthesize` on the pairs(2) machines raises "cannot close a loop"
      (choreography, and `mpst synth` in cli);
  (b) `session_compatible` rejects ring(3) on the receiver property
      (general, and `mpst session` in cli);
  (c) `mpst wf` on chain(400) ends in a RecursionError traceback (cli).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import families as fam
import oracle
from families import CANONICAL, Names
from tracer import trie_nodes

import mpst


class Wrong(Exception):
    """A verdict or a count that disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # Recognises the outcome of a known fault: (output, exception) -> bool.
    fault: Callable[[Any, BaseException | None], bool] | None = None


def once(fn):
    """Memoise a reference computation for the life of one job list."""
    cache: list = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def act(a) -> tuple:
    return (a.sender, a.receiver, a.op, a.label)


def type_rng(seed: int) -> random.Random:
    """The random types' own rng, so that which types are drawn does not
    move the renaming drawn from the seed's main rng."""
    return random.Random(f"types:{seed}")


def interleave(small: list, large: list, passes: int) -> list:
    """The small jobs `passes` times, with the large jobs shared out
    between the passes, so that each small job, whose best time feeds
    job_p50_ms, is timed at moments seconds apart within a round."""
    out = []
    per_pass = -(-len(large) // passes)
    for i in range(passes):
        out += small + large[i * per_pass:(i + 1) * per_pass]
    return out


def fj_system(text: str):
    """The machines of an fj(n) equation system, through gproject and
    gto_machine."""
    g = mpst.parse_gglobal(text)
    return mpst.make_system([mpst.gto_machine(mpst.gproject(g, p), p)
                             for p in mpst.gg_participants(g)])


def fj_states(n: int, shared: bool) -> list[int]:
    """Sorted state counts of fj(n)'s machines: every loop machine has 3
    states, and a shared sender runs the n loops at once, 3^n states."""
    return sorted([3] * n + ([3 ** n] if shared else [3] * n))


def projected_system(g):
    ps = sorted(mpst.gparticipants(g))
    return mpst.make_system([mpst.to_machine(mpst.project(g, p), p)
                             for p in ps])


# --------------------------------------------------------------------------
# rsk: bounded model checking

PAIRS_GRID = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
              (3, 3), (4, 1), (4, 2)]
RING_SIZES = (4, 8, 16, 24, 32)
FJ_SIZES = (2, 3)
RSK_RANDOM = 10  # types per stratum


@once
def pair_counts() -> dict[int, tuple[int, int]]:
    """c_k and e_k: configurations and edges of one pair's RS_k."""
    one = fam.pair_machines("A", "B")
    return {k: oracle.reach_counts(one, k) for k in (1, 2, 3)}


@once
def loop_counts() -> dict[int, tuple[int, int]]:
    """The same for one loop of fj(n)."""
    one = fam.loop_machines("A", "B")
    return {k: oracle.reach_counts(one, k) for k in (1, 2, 3)}


def safety_job(name, s, k, check_report, counts=None) -> Job:
    def reach_counts():
        rs = mpst.reach(s, k)
        return len(rs.configs), len(rs.edges)

    reach_once = once(reach_counts)

    def check(report):
        check_report(report)
        if counts is not None:
            got = reach_once()
            expect(got == counts, f"{name}: |RS_{k}| and edges {got}, "
                                  f"expected {counts}")

    return Job(name, lambda: mpst.check_safety(s, k, check_liveness=True),
               check)


def safe_and(liveness_ok):
    def check(report):
        expect(report.violations == (), f"violation {report.violations[:1]}")
        expect(liveness_ok(report.liveness), f"liveness {report.liveness}")
    return check


def fj_safe(label, states, want):
    """Safe, every configuration can finish, and the machines have the
    states fj(n) asks for."""
    safe = safe_and(lambda v: v is True)

    def check(report):
        expect(states == want, f"{label}: machine states {states}, "
                               f"expected {want}")
        safe(report)
    return check


def planted(kind):
    def check(report):
        kinds = {v[0] for v in report.violations}
        expect(kinds == {kind}, f"expected only {kind}, got {sorted(kinds)}")
    return check


def build_rsk(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, k in PAIRS_GRID:
        names = Names(rng)
        s = mpst.parse_system(fam.cfsm_text(fam.pairs_machines(n), names))
        c, e = pair_counts()[k]
        # pairs never reach a final configuration, so liveness is vacuous
        jobs.append(safety_job(f"pairs({n}) k={k}", s, k,
                               safe_and(lambda v: v is None),
                               (c ** n, n * e * c ** (n - 1))))
    for n in RING_SIZES:
        names = Names(rng)
        s = mpst.parse_system(fam.cfsm_text(fam.ring_machines(n), names))
        for k in (1, 2, 3):
            # one message is in flight at a time, so RS_k is the same cycle
            # of 4n-2 configurations for every k
            jobs.append(safety_job(f"ring({n}) k={k}", s, k,
                                   safe_and(lambda v: v is True),
                                   (4 * n - 2, 4 * n - 2)))
    # fj(n) runs its n loops independently, with one sender or with n, so
    # its RS_k is the product of n copies of one loop's
    for n in FJ_SIZES:
        for shared in (True, False):
            s = fj_system(fam.fj_text(n, shared, Names(rng)))
            label = f"fj({n}) {'shared' if shared else 'per-branch'}"
            states = sorted(len(m.states) for _, m in s.machines)
            for k in (1, 2, 3):
                c, e = loop_counts()[k]
                jobs.append(safety_job(
                    f"{label} k={k}", s, k,
                    fj_safe(label, states, fj_states(n, shared)),
                    (c ** n, n * e * c ** (n - 1))))
    for n, k in ((2, 2), (3, 1), (3, 2)):
        s = mpst.parse_system(fam.cfsm_text(
            fam.pairs_machines(n, mismatch=True), Names(rng)))
        jobs.append(safety_job(f"pairs({n}) mismatch k={k}", s, k,
                               planted("unspecified_reception")))
    for variant, kind in (("cyclic", "deadlock"),
                          ("dropstop", "unspecified_reception")):
        for n in (8, 16):
            s = mpst.parse_system(fam.cfsm_text(
                fam.ring_machines(n, variant), Names(rng)))
            jobs.append(safety_job(f"ring({n}) {variant} k=2", s, 2,
                                   planted(kind)))
    # projections of well-formed types are safe; with a final state in
    # reach every configuration must be able to reach one
    for i, g in enumerate(fam.random_types(type_rng(seed), RSK_RANDOM)):
        s = projected_system(mpst.parse_global(fam.gt_text(g, Names(rng))))
        for k in (1, 2):
            jobs.append(safety_job(f"random#{i} k={k}", s, k,
                                   safe_and(lambda v: v is not False)))
    return jobs


# --------------------------------------------------------------------------
# choreography: the library pipeline, compatibility, synthesis, traces

def pipeline(text: str):
    """parse -> well_formed -> project -> to_machine -> multiparty_compatible
    -> synthesize, then the round trip of the synthesised type."""
    g = mpst.parse_global(text)
    wf = mpst.well_formed(g)
    s = projected_system(g)
    compat = mpst.multiparty_compatible(s)
    g2 = mpst.synthesize(s)
    wf2 = mpst.well_formed(g2)
    back = {p: mpst.to_machine(mpst.project(g2, p), p) for p in s.participants}
    iso = all(mpst.isomorphic(back[p], s.machine(p)) for p in s.participants)
    return wf.ok, compat.compatible, wf2.ok, iso


def check_pipeline(out) -> None:
    wf, compat, wf2, iso = out
    expect(wf, "input type not well-formed")
    expect(compat, "projection of a well-formed type not compatible")
    expect(wf2, "synthesised type not well-formed")
    expect(iso, "projections of the synthesised type are not isomorphic "
                "to the input machines")


def synthesis_fault(out, err) -> bool:
    return (isinstance(err, mpst.SynthesisFailure)
            and "cannot close a loop" in str(err))


def compat_negative(text: str):
    return mpst.multiparty_compatible(mpst.parse_system(text))


def check_incompatible(report) -> None:
    expect(not report.compatible, "planted incompatibility not reported")


def teq_jobs(label, type_text, cfsm_text, machines, mut_text, mut_machines,
             length, k) -> list[Job]:
    """trace_equiv of a type against its machines, and of a type with one
    label mutated against the same machines."""
    s = mpst.parse_system(cfsm_text)
    count = once(lambda: oracle.trace_count(machines, k, length))
    program_count = once(lambda: trie_nodes(mpst.traces(s, length, k)) + 1)

    def check_pos(out):
        ok, witness = out
        expect(ok, f"{label}: equivalent sides diverge at {witness}")
        expect(program_count() == count(),
               f"{label}: {program_count()} traces, brute force "
               f"counts {count()}")

    shortest = once(lambda: oracle.shortest_distinction(
        machines, mut_machines, k, length))

    def check_neg(out):
        ok, witness = out
        expect(not ok and witness, f"{label}: mutated type not told apart")
        w = [act(a) for a in witness]
        sides = (oracle.is_trace(machines, k, w)
                 + oracle.is_trace(mut_machines, k, w))
        expect(sides == 1, f"{label}: witness is a trace of {sides} sides")
        expect(len(w) == shortest(),
               f"{label}: witness of length {len(w)}, shortest is "
               f"{shortest()}")

    return [
        Job(f"trace_equiv {label}",
            lambda: mpst.trace_equiv(mpst.parse_global(type_text), s,
                                     length, k), check_pos),
        Job(f"trace_equiv {label} mutated",
            lambda: mpst.trace_equiv(mpst.parse_global(mut_text), s,
                                     length, k), check_neg),
    ]


CHOREO_RINGS = (4, 8, 12, 16, 24)
INDEP_RENAMINGS = 4
CHOREO_RANDOM = 10  # types per stratum


def build_choreography(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in CHOREO_RINGS:
        text = fam.gt_text(fam.ring_type(n), Names(rng))
        jobs.append(Job(f"pipeline ring({n})",
                        lambda text=text: pipeline(text), check_pipeline))
    small = []
    for i, g in enumerate(fam.random_types(type_rng(seed), CHOREO_RANDOM)):
        text = fam.gt_text(g, Names(rng))
        small.append(Job(f"pipeline random#{i}",
                         lambda text=text: pipeline(text), check_pipeline))
    names = Names(rng)
    jobs += teq_jobs(
        "pairs(2)", fam.gt_text(fam.pairs2_type(), names),
        fam.cfsm_text(fam.pairs_machines(2), names),
        fam.rename_machines(fam.pairs_machines(2), names),
        fam.gt_text(fam.pairs2_type("w"), names),
        fam.rename_machines(fam.pairs_machines(2, zlabel="w"), names), 8, 1)
    for _ in range(INDEP_RENAMINGS):
        names = Names(rng)
        jobs += teq_jobs(
            "indep(4)", fam.gt_text(fam.indep_type(4), names),
            fam.cfsm_text(fam.indep_machines(4), names),
            fam.rename_machines(fam.indep_machines(4), names),
            fam.gt_text(fam.indep_type(4, mutate=2), names),
            fam.rename_machines(fam.indep_machines(4, mutate=2), names), 8, 1)
    for label, machines in (
            ("pairs(2) mismatch", fam.pairs_machines(2, mismatch=True)),
            ("ring(6) dropstop", fam.ring_machines(6, "dropstop")),
            ("ring(6) cyclic", fam.ring_machines(6, "cyclic"))):
        text = fam.cfsm_text(machines, Names(rng))
        small.append(Job(f"compat {label}",
                         lambda text=text: compat_negative(text),
                         check_incompatible))
    jobs = interleave(small, jobs, 3)
    # (a): fixed names, so the failure does not depend on the seed
    jobs.append(Job("pipeline pairs(2)",
                    lambda t=fam.gt_text(fam.pairs2_type(), CANONICAL):
                    pipeline(t), check_pipeline, synthesis_fault))
    return jobs


# --------------------------------------------------------------------------
# general: equation systems, session compatibility, Petri nets

GENERAL_RENAMINGS = 8
# fj(5) per-branch has the same net as fj(5) shared up to labels
PETRI_JOBS = ((2, True), (2, False), (3, True), (3, False), (4, True),
              (4, False), (5, True))


def gpipeline(text: str, length: int):
    """parse_gglobal -> gproject -> gto_machine -> session_compatible ->
    gsynthesize, then the synthesised system's traces against the
    machines' up to `length`."""
    s = fj_system(text)
    report = mpst.session_compatible(s)
    gg = mpst.gsynthesize(s)
    return s, report, mpst.trace_equiv(gg, s, length, 1)


def gpipeline_job(n: int, shared: bool, names: Names) -> Job:
    text = fam.fj_text(n, shared, names)
    label = f"fj({n}) {'shared' if shared else 'per-branch'}"
    # traces grow fast with n; length 2 already interleaves two loops
    length = 3 if n < 3 else 2

    def check(out):
        s, report, (ok, witness) = out
        expect(report.ok, f"{label}: not session compatible: {report.items}")
        states = sorted(len(m.states) for _, m in s.machines)
        want = fj_states(n, shared)
        expect(states == want, f"{label}: machine states {states}, "
                               f"expected {want}")
        expect(ok, f"{label}: gsynthesize output diverges at {witness}")

    return Job(f"gpipeline {label}", lambda: gpipeline(text, length), check)


def petri_job(n: int, shared: bool, names: Names) -> Job:
    text = fam.fj_text(n, shared, names)

    def run():
        net = mpst.to_petri(mpst.parse_gglobal(text))
        return net, mpst.is_safe(net)

    def check(out):
        net, (safe, witness) = out
        expect(safe, f"fj({n}) net unsafe at {witness}")
        expect(len(net.places) == fam.fj_places(n),
               f"fj({n}) net has {len(net.places)} places, expected "
               f"{fam.fj_places(n)}")

    return Job(f"petri fj({n}) {'shared' if shared else 'per-branch'}",
               run, check)


def session_job(label: str, s, fault=None) -> Job:
    def check(report):
        expect(report.ok, f"{label}: rejected: {report.items}")
    return Job(f"session {label}", lambda: mpst.session_compatible(s), check,
               fault)


def receiver_fault(report, err) -> bool:
    return (err is None and not report.ok
            and [n for n, ok, _ in report.items if not ok]
            == ["receiver_property"])


def build_general(seed: int) -> list[Job]:
    rng = random.Random(seed)
    large = []
    for n, shared in ((2, True), (2, False), (3, True), (3, False)):
        large.append(gpipeline_job(n, shared, Names(rng)))
    for n, shared in PETRI_JOBS:
        large.append(petri_job(n, shared, Names(rng)))
    large.append(session_job("pairs(3)", mpst.parse_system(
        fam.cfsm_text(fam.pairs_machines(3), Names(rng)))))
    small = []
    for _ in range(GENERAL_RENAMINGS):
        small.append(gpipeline_job(1, True, Names(rng)))
        small.append(gpipeline_job(2, True, Names(rng)))
        small.append(gpipeline_job(2, False, Names(rng)))
        small.append(session_job("pairs(2)", mpst.parse_system(
            fam.cfsm_text(fam.pairs_machines(2), Names(rng)))))
    jobs = interleave(small, large, 2)
    # (b): fixed names, so the failure does not depend on the seed
    jobs.append(session_job("ring(3)", mpst.parse_system(
        fam.cfsm_text(fam.ring_machines(3), CANONICAL)), receiver_fault))
    return jobs


# --------------------------------------------------------------------------
# cli: one `mpst` process at a time over every verb

class Launcher:
    """Starts `mpst` processes from the checkout's sources.  With a trace
    directory set, each process runs under the tracer instead and leaves
    its spans there."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.trace_dir: Path | None = None
        self._n = 0

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "mpst.cli", *argv]
        else:
            self._n += 1
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                   str(self.trace_dir / f"{self._n}.json"), *argv]
        p = subprocess.run(cmd, env=self.env, cwd=self.root,
                           capture_output=True, text=True, timeout=120)
        return p.returncode, p.stdout, p.stderr


def _render(obj) -> str:
    if isinstance(obj, mpst.System):
        return mpst.print_system(obj)
    if isinstance(obj, mpst.GeneralGlobal):
        return mpst.print_gglobal(obj)
    if isinstance(obj, mpst.GeneralLocal):
        return mpst.print_glocal(obj)
    return mpst.print_type(obj) + "\n"


def _load(path: Path):
    parse = {".gt": mpst.parse_global, ".lt": mpst.parse_local,
             ".cfsm": mpst.parse_system, ".ggt": mpst.parse_gglobal,
             ".glt": mpst.parse_glocal}[path.suffix]
    return parse(path.read_text())


def _simulate(obj, steps: int, k: int) -> str:
    out = []
    if isinstance(obj, mpst.System):
        c = mpst.initial(obj)
        for _ in range(steps):
            succ = sorted(mpst.fire(c, obj, k), key=lambda t: t[0])
            if not succ:
                break
            a, c = succ[0]
            out.append(f"{a}\n")
        out.append(f"// {','.join(sorted(mpst.classify(c, obj)))}\n")
    else:
        g = obj
        for _ in range(steps):
            succ = sorted(mpst.step_global(g, k), key=lambda t: t[0])
            if not succ:
                break
            a, g = succ[0]
            out.append(f"{a}\n")
    return "".join(out)


def library_answer(verb: str, path: Path, opt: str | None):
    """(exit code, stdout text or parsed JSON) the library gives for what
    `mpst <verb>` is asked on the same input; a negative verdict raised as
    an error is exit 1 with nothing on stdout, as the CLI documents."""
    try:
        return _answer(verb, _load(path), opt)
    except (mpst.MergeFailure, mpst.NotBasic, mpst.NotCompatible,
            mpst.NotSessionCompatible, mpst.SynthesisFailure,
            mpst.ChoiceOwnership):
        return 1, ""


def _answer(verb: str, obj, opt: str | None):
    if verb == "parse":
        return 0, _render(obj)
    if verb == "project":
        return 0, mpst.print_type(mpst.project(obj, opt)) + "\n"
    if verb == "wf":
        r = mpst.well_formed(obj)
        return int(not r.ok), {"well_formed": r.ok, "failures": [
            {"participant": p, "reason": why} for p, why in r.failures]}
    if verb == "translate":
        if isinstance(obj, mpst.System):
            return 0, "".join(f"{p}: {mpst.print_type(mpst.to_local(m))}\n"
                              for p, m in obj.machines)
        return 0, mpst.print_system(mpst.make_system(
            [mpst.to_machine(obj, opt)]))
    if verb == "compat":
        r = mpst.multiparty_compatible(obj)
        return int(not r.compatible), r.to_json()
    if verb == "synth":
        g = mpst.synthesize(obj)
        ok, _ = mpst.verify_roundtrip(obj, g, max_len=6, bounds=(1, 2))
        return int(not ok), mpst.print_type(g) + "\n"
    if verb == "gsynth":
        return 0, mpst.print_gglobal(mpst.gsynthesize(obj))
    if verb == "check":
        r = mpst.check_safety(obj, 2, check_liveness=True)
        return int(not r.ok), r.to_json()
    if verb == "simulate":
        return 0, _simulate(obj, 12, 1)
    if verb == "gproject":
        return 0, mpst.print_glocal(mpst.gproject(obj, opt))
    if verb == "session":
        r = mpst.session_compatible(obj)
        return int(not r.ok), r.to_json()
    if verb == "petri":
        net = mpst.to_petri(obj, owner=opt)
        safe, _ = mpst.is_safe(net)
        return int(not safe), {"safe": safe, "places": list(net.places),
                               "initial": net.initial}
    if verb == "dot":
        if isinstance(obj, mpst.System):
            return 0, mpst.dot_system(obj)
        if isinstance(obj, mpst.Local):
            return 0, mpst.dot_machine(mpst.to_machine(obj, opt))
        return 0, mpst.dot_net(mpst.to_petri(obj, owner=opt))
    raise ValueError(verb)


FLAGS = {"synth": ["--verify", "6,2"], "check": ["--bound", "2", "--liveness"],
         "simulate": ["--steps", "12", "--bound", "1"], "compat": ["--json"]}
OPT_FLAG = {"project": "-p", "translate": "-p", "gproject": "-p",
            "dot": "-p"}

# (verb, file, participant) over tests/data and the generated files: every
# verb, forty processes, and three more for the faults, few enough for
# several rounds a run
CLI_CASES = [
    ("parse", "commit.gt", None), ("parse", "commit_c.lt", None),
    ("parse", "buyer_seller.cfsm", None), ("parse", "data_transfer.ggt", None),
    ("parse", "data_transfer_a.glt", None), ("parse", "ring.gt", None),
    ("project", "commit.gt", "C"), ("project", "ring.gt", "P1"),
    ("wf", "commit.gt", None), ("wf", "remark_bad.gt", None),
    ("wf", "ring.gt", None),
    ("translate", "commit_c.lt", "C"), ("translate", "commit.cfsm", None),
    ("compat", "commit.cfsm", None), ("compat", "remark_abc.cfsm", None),
    ("compat", "remark_aprime.cfsm", None), ("compat", "deadlock.cfsm", None),
    ("compat", "ring.cfsm", None), ("compat", "pairs.cfsm", None),
    ("synth", "commit.cfsm", None), ("synth", "buyer_seller.cfsm", None),
    ("synth", "ring.cfsm", None),
    ("check", "commit.cfsm", None), ("check", "deadlock.cfsm", None),
    ("check", "race.cfsm", None), ("check", "pairs.cfsm", None),
    ("simulate", "commit.gt", None), ("simulate", "commit.cfsm", None),
    ("gproject", "data_transfer.ggt", "A"), ("gproject", "fj.ggt", "S"),
    ("gsynth", "commit.cfsm", None), ("gsynth", "pairs.cfsm", None),
    ("session", "race.cfsm", None), ("session", "uninformed.cfsm", None),
    ("session", "pairs.cfsm", None),
    ("petri", "data_transfer.ggt", None), ("petri", "fj.ggt", None),
    ("dot", "commit.cfsm", None), ("dot", "commit_c.lt", "C"),
    ("dot", "data_transfer.ggt", None),
]


def write_cli_inputs(seed: int, work: Path) -> tuple[dict[str, Path], Names]:
    """Generated inputs, renamed by the seed, and the renaming of ring.gt
    and fj.ggt; the faults' inputs are not renamed."""
    rng = random.Random(seed)
    names = Names(rng)
    ring_text = fam.gt_text(fam.ring_type(4), names)
    ring_sys = projected_system(mpst.parse_global(ring_text))
    files = {
        "ring.gt": ring_text + "\n",
        "ring.cfsm": mpst.print_system(ring_sys),
        "pairs.cfsm": fam.cfsm_text(fam.pairs_machines(2), Names(rng)),
        "fj.ggt": fam.fj_text(2, True, names),
        "chain400.gt": fam.chain_text(400),
        "pairs2.cfsm": mpst.print_system(projected_system(mpst.parse_global(
            fam.gt_text(fam.pairs2_type(), CANONICAL)))),
        "ring3.cfsm": mpst.print_system(projected_system(mpst.parse_global(
            fam.gt_text(fam.ring_type(3), CANONICAL)))),
    }
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, text in files.items():
        (work / name).write_text(text)
        out[name] = work / name
    return out, names


def cli_job(launch: Launcher, verb: str, path: Path, opt: str | None,
            answer: Callable[[], tuple]) -> Job:
    argv = [verb, str(path), *FLAGS.get(verb, [])]
    if opt is not None:
        argv += [OPT_FLAG[verb], opt]
    first: list[str] = []  # stdout of the first round
    name = " ".join([verb, path.name] + ([opt] if opt else []))

    def check(out):
        code, stdout, stderr = out
        want_code, want = answer()
        expect(code == want_code, f"{name}: exit {code}, library says "
                                  f"{want_code}; {stderr.strip()[-200:]}")
        if isinstance(want, str):
            expect(stdout == want, f"{name}: stdout differs from the library")
        else:
            got = json.loads(stdout)
            expect({k: got.get(k) for k in want} == want,
                   f"{name}: JSON differs from the library")
        if not first:
            first.append(stdout)
        expect(stdout == first[0], f"{name}: stdout changed between calls")

    return Job(name, lambda: launch(argv), check)


def wf_fault(out, err) -> bool:
    return err is None and out[0] == 1 and "RecursionError" in out[2]


def cli_synthesis_fault(out, err) -> bool:
    return err is None and out[0] == 1 and "cannot close a loop" in out[2]


def cli_receiver_fault(out, err) -> bool:
    if err is not None or out[0] != 1:
        return False
    checks = json.loads(out[1])["checks"]
    return [c["name"] for c in checks if not c["ok"]] == ["receiver_property"]


def build_cli(seed: int, launch: Launcher, work: Path) -> list[Job]:
    data = launch.root / "tests" / "data"
    generated, names = write_cli_inputs(seed, work)
    jobs = []
    for verb, fname, opt in CLI_CASES:
        path = data / fname
        if fname in generated:
            path = generated[fname]
            opt = opt and names.p(opt)
        jobs.append(cli_job(launch, verb, path, opt,
                            once(lambda v=verb, p=path, o=opt:
                                 library_answer(v, p, o))))
    # (c): chain(n) is well-formed for every n, by construction
    jobs.append(Job("wf chain400.gt",
                    lambda: launch(["wf", str(generated["chain400.gt"])]),
                    lambda out: expect(
                        out[0] == 0 and json.loads(out[1])["well_formed"],
                        "chain(400) not reported well-formed"),
                    wf_fault))
    # (a) and (b): both inputs are projections of well-formed types, so
    # synthesis must succeed and round-trip, and the machines must be
    # session compatible
    jobs.append(Job("synth pairs2.cfsm",
                    lambda: launch(["synth", str(generated["pairs2.cfsm"]),
                                    *FLAGS["synth"]]),
                    lambda out: expect(out[0] == 0,
                                       "pairs(2) not synthesised"),
                    cli_synthesis_fault))
    jobs.append(Job("session ring3.cfsm",
                    lambda: launch(["session", str(generated["ring3.cfsm"])]),
                    lambda out: expect(
                        out[0] == 0
                        and json.loads(out[1])["session_compatible"],
                        "ring(3) not session compatible"),
                    cli_receiver_fault))
    return jobs
