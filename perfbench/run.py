"""The toolkit's benchmark: one workload, checked, timed, in one process.

    python3 perfbench/run.py --workload rsk|choreography|general|cli
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the toolkit is imported from `src/`.  The
workload's inputs are generated from the seed (set-up), then its job list
runs in whole rounds for up to S seconds, at least twice.  Every
verdict of every round is checked.  Times are the best of the rounds: the
fastest round for wall_s, each job's fastest run for the job times.  The
set-up is repeated between rounds, and setup_s is the median of all of its
repetitions, so that it samples the same stretch of time as the rounds.
The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and the metrics.  With --trace 0
they are the end-to-end metrics; with --trace 1 the run then repeats one
round under the tracer and reports the per-layer metrics instead, writing
the spans to perfbench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("rsk", "choreography", "general", "cli")
MIN_ROUNDS = 2
# set-up repetitions after each round take at least this share of its time
SETUP_SHARE = 0.05
START_REPS = 7

# name -> unit, in the order the per-layer table lists them
PER_LAYER = {
    "syntax.self_s": "s", "syntax.calls": "count", "syntax.tokens": "count",
    "projection.self_s": "s", "projection.calls": "count",
    "translate.self_s": "s", "translate.calls": "count",
    "translate.states": "count",
    "cfsm.self_s": "s", "cfsm.reach_calls": "count",
    "cfsm.fire_calls": "count", "cfsm.configs": "count",
    "cfsm.edges": "count", "cfsm.configs_per_s": "1/s",
    "cfsm.trie_nodes": "count",
    "semantics.self_s": "s", "semantics.step_calls": "count",
    "semantics.trie_nodes": "count",
    "compat.self_s": "s", "compat.calls": "count",
    "synthesis.self_s": "s", "synthesis.calls": "count",
    "synthesis.type_nodes": "count",
    "generalized.self_s": "s", "generalized.gto_machine_s": "s",
    "generalized.machine_states": "count", "generalized.session_s": "s",
    "generalized.unique_sender_s": "s",
    "generalized.receiver_property_s": "s", "generalized.is_safe_s": "s",
    "generalized.net_places": "count", "generalized.gsynthesize_s": "s",
    "generalized.equations": "count", "generalized.gstep_calls": "count",
    "cli.interp_ms": "ms", "cli.import_ms": "ms",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def python_wall(code: str) -> float:
    """Wall time of `python3 -c code` with the checkout's sources."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                   check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


def import_seconds() -> float:
    """Time of `import mpst` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mpst; "
            "print(time.perf_counter() - t)")
    p = subprocess.run([sys.executable, "-c", code], env=child_env(),
                       cwd=ROOT, check=True, capture_output=True, text=True,
                       timeout=60)
    return float(p.stdout)


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.jobs: list = []
        self.setups: list[float] = []
        self.work = OUT / f"cli-inputs-{seed}"

    def setup(self) -> None:
        python_wall("import mpst")  # compiles the sources once, untimed
        import workloads
        self.launch = workloads.Launcher(ROOT)
        self.jobs = self.set_up_once()

    def set_up_once(self) -> list:
        """One set-up, timed into `setups`: the import of a fresh
        interpreter plus building the job list in process."""
        import_s = import_seconds()
        gc.collect()
        t0 = perf_counter()
        jobs = self.build()
        self.setups.append(import_s + perf_counter() - t0)
        return jobs

    def build(self) -> list:
        import workloads
        if self.workload == "cli":
            return workloads.build_cli(self.seed, self.launch, self.work)
        return getattr(workloads, f"build_{self.workload}")(self.seed)

    def round(self) -> tuple[float, list[float], list]:
        """Run every job once: wall time, job times and outcomes."""
        # the benchmark's own data stays out of the collector's way; what
        # the toolkit allocates is collected as usual
        gc.collect()
        gc.freeze()
        times, outcomes = [], []
        start = perf_counter()
        for job in self.jobs:
            t0 = perf_counter()
            try:
                out, err = job.run(), None
            except Exception as e:  # judged later, with the job's check
                out, err = None, e
            times.append(perf_counter() - t0)
            outcomes.append((out, err))
        return perf_counter() - start, times, outcomes

    def judge(self, outcomes) -> None:
        from workloads import Wrong
        self.attempted += len(outcomes)
        for job, (out, err) in zip(self.jobs, outcomes):
            if job.fault is not None and job.fault(out, err):
                self.failed += 1
            elif err is not None:
                self.wrong.append(f"{job.name}: {type(err).__name__}: {err}")
            else:
                try:
                    job.check(out)
                except Wrong as e:
                    self.wrong.append(f"{job.name}: {e}")

    def measure(self, seconds: float) -> list[tuple[float, list[float]]]:
        """Whole rounds, at least MIN_ROUNDS, and then no more of them
        than fit in `seconds` at the pace of the last one."""
        rounds = []
        start = perf_counter()
        last = 0.0
        while (len(rounds) < MIN_ROUNDS
               or perf_counter() - start + last <= seconds):
            t0 = perf_counter()
            wall, times, outcomes = self.round()
            self.judge(outcomes)
            rounds.append((wall, times))
            # the jobs built here are dropped; only their set-up time counts
            gap = perf_counter()
            self.set_up_once()
            while perf_counter() - gap < SETUP_SHARE * wall:
                self.set_up_once()
            last = perf_counter() - t0
        return rounds

    def traced_round(self) -> tuple[float, dict]:
        """One set-up and one round under the tracer.  In the cli workload
        each `mpst` process traces itself and leaves its spans in a file."""
        from tracer import Tracer, layer_metrics
        OUT.mkdir(exist_ok=True)
        tdir = OUT / f"cli-spans-{self.seed}"
        if self.workload == "cli":
            tdir.mkdir(exist_ok=True)
            self.launch.trace_dir = tdir
        tracer = Tracer()
        tracer.install()
        try:
            self.build()
            wall, _, outcomes = self.round()
        finally:
            tracer.uninstall()
            self.launch.trace_dir = None
        self.judge(outcomes)
        traces = [tracer.export()]
        if self.workload == "cli":
            files = sorted(tdir.glob("*.json"), key=lambda p: int(p.stem))
            traces += [json.loads(p.read_text()) for p in files]
            shutil.rmtree(tdir)
        with open(OUT / f"trace-{self.workload}.json", "w") as f:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns"],
                       "processes": traces}, f, separators=(",", ":"))
        return wall, layer_metrics(traces)

    def cleanup(self) -> None:
        if self.workload == "cli":
            shutil.rmtree(self.work, ignore_errors=True)


def best_times(jobs, rounds) -> list[float]:
    """Each job's best time over all its runs in the run's rounds."""
    best: dict[int, float] = {}
    for _, times in rounds:
        for job, t in zip(jobs, times):
            best[id(job)] = min(t, best.get(id(job), t))
    return list(best.values())


def tail(times: list[float]) -> float:
    """The highest percentile with at least ten jobs beyond it: the
    eleventh largest job time."""
    return sorted(times)[-11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mpst" / "__init__.py").is_file():
        print(f"perfbench: no toolkit sources under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    bench = Bench(args.workload, args.seed)
    try:
        bench.setup()
        rounds = bench.measure(args.seconds)
        walls = [w for w, _ in rounds]
        if args.trace:
            traced_wall, layers = bench.traced_round()
            bare = statistics.median(python_wall("pass")
                                     for _ in range(START_REPS))
            imp = statistics.median(python_wall("import mpst")
                                    for _ in range(START_REPS))
            layers["cli.interp_ms"] = bare * 1e3
            layers["cli.import_ms"] = (imp - bare) * 1e3
            layers["trace.overhead_s"] = traced_wall - min(walls)
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in PER_LAYER.items()}
        else:
            best = best_times(bench.jobs, rounds)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
                   else resource.RUSAGE_SELF)
            metrics = {
                "setup_s": {"value": statistics.median(bench.setups),
                            "unit": "s"},
                "wall_s": {"value": min(walls), "unit": "s"},
                "job_p50_ms": {"value": statistics.median(best) * 1e3,
                               "unit": "ms"},
                "job_tail_ms": {"value": tail(best) * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss
                                / 1024, "unit": "MB"},
            }
    finally:
        bench.cleanup()
    for line in bench.wrong[:20]:
        print(f"perfbench: wrong: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {len(bench.jobs)} jobs a round, "
          f"{len(rounds)} rounds, {len(bench.setups)} set-ups",
          file=sys.stderr)
    print(json.dumps({"correct": not bench.wrong, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
