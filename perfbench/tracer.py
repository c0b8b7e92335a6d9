"""Spans around the toolkit's public functions, installed from outside.

`Tracer.install()` wraps every public function of the package's modules,
in its own module and at every alias another module imported by name
(`compat.reach`, `generalized.fire`, `semantics.system_traces`, ...), so
calls between layers are seen wherever they are made.  Nothing under `src/`
changes.  Spans (function, parent, start, end) are kept in memory and
written to one JSON file at the end; the per-layer figures are derived from
them.  A recursive call inside a span of the same function gets no span of
its own.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

LAYERS = ("syntax", "projection", "translate", "cfsm", "semantics", "compat",
          "synthesis", "generalized", "cli")

# Helpers that run in the innermost loops and cost less than a span; a span
# on them would measure the tracer, not the layer.
UNTRACED = {"unfold", "gparticipants", "glabels", "llabels", "dual",
            "node_cap", "initial", "gg_participants"}

MEASURE = "bench.measure"


def trie_nodes(trie: dict) -> int:
    """Nodes of a trace trie, the root left out."""
    count, stack = 0, [trie]
    while stack:
        node = stack.pop()
        count += len(node)
        stack.extend(node.values())
    return count


def _type_nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        u = stack.pop()
        count += 1
        if hasattr(u, "branches"):
            stack.extend(b for _, b in u.branches)
        elif hasattr(u, "body"):
            stack.append(u.body)
    return count


# Work counts read off what a function returns: name -> (counter, measure).
WORK = {
    "syntax.tokenize": ("syntax.tokens", len),
    "translate.to_machine": ("translate.states", lambda m: len(m.states)),
    "cfsm.reach": (("cfsm.configs", "cfsm.edges"),
                   lambda rs: (len(rs.configs), len(rs.edges))),
    "cfsm.traces": ("cfsm.trie_nodes", trie_nodes),
    "semantics.traces_global": ("semantics.trie_nodes", trie_nodes),
    "semantics.traces_local": ("semantics.trie_nodes", trie_nodes),
    "synthesis.synthesize": ("synthesis.type_nodes", _type_nodes),
    "generalized.gto_machine": ("generalized.machine_states",
                                lambda m: len(m.states)),
    "generalized.to_petri": ("generalized.net_places",
                             lambda n: len(n.places)),
    "generalized.gsynthesize": ("generalized.equations",
                                lambda g: len(g.equations)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [MEASURE]
        self.spans: list = []  # (name index, parent index, start ns, end ns)
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list = []  # (module, attribute, original)

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "mpst" or name.startswith("mpst."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"mpst.{layer}")
            if mod is None:
                continue
            for attr, fn in sorted(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        spans, stack = self.spans, self._stack
        active = [0]

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[0] = 1
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                active[0] = 0
                stack.pop()
                spans[idx] = (fid, parent, start, end)
            if work is not None:
                keys, measure = work
                values = measure(out)
                if isinstance(keys, str):
                    keys, values = (keys,), (values,)
                for key, v in zip(keys, values):
                    self.counts[key] = self.counts.get(key, 0) + v
                # counting is the benchmark's work, not the caller's
                spans.append((0, parent, end, perf_counter_ns()))
            return out

        traced.__wrapped__ = fn
        return traced

    def export(self) -> dict:
        """Spans and counts in a form another process can merge."""
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer figures from one or more exported traces (one per
    process)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for tr in traces:
        names, spans = tr["names"], tr["spans"]
        child = [0] * len(spans)
        for fid, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, parent, start, end) in enumerate(spans):
            name = names[fid]
            if name == MEASURE:
                continue
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start - child[i]) / 1e9
            out[f"{layer}.calls"] += 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e9
            calls[name] = calls.get(name, 0) + 1
        for key, v in tr["counts"].items():
            out[key] = out.get(key, 0) + v
    for key in ("syntax.tokens", "translate.states", "cfsm.configs",
                "cfsm.edges", "cfsm.trie_nodes", "semantics.trie_nodes",
                "synthesis.type_nodes", "generalized.machine_states",
                "generalized.net_places", "generalized.equations"):
        out.setdefault(key, 0)
    out["cfsm.reach_calls"] = calls.get("cfsm.reach", 0)
    out["cfsm.fire_calls"] = calls.get("cfsm.fire", 0)
    reach_s = inclusive.get("cfsm.reach", 0.0)
    out["cfsm.configs_per_s"] = out["cfsm.configs"] / reach_s if reach_s else 0.0
    out["semantics.step_calls"] = (calls.get("semantics.step_global", 0)
                                   + calls.get("semantics.step_local", 0))
    out["generalized.gstep_calls"] = (calls.get("generalized.gstep_global", 0)
                                      + calls.get("generalized.gstep_local", 0))
    for fn in ("gto_machine", "session_compatible", "unique_sender",
               "receiver_property", "is_safe", "gsynthesize"):
        key = "session" if fn == "session_compatible" else fn
        out[f"generalized.{key}_s"] = inclusive.get(f"generalized.{fn}", 0.0)
    return out
