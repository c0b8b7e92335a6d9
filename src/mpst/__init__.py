"""Multiparty session types and communicating machines.

Global types describe a protocol between several participants at once;
local types describe one endpoint; communicating machines give the same
endpoint operationally.  This package converts between the three views,
executes them under bounded asynchrony, decides compatibility of machine
systems, and reconstructs global descriptions from compatible systems —
including a generalised, graph-shaped flavour of types with fork/join
parallelism and shared continuations.
"""

from importlib import import_module as _import_module

# submodule -> its public names.  `import mpst` loads no submodule: the
# first lookup of a name imports the submodule that owns it (PEP 562), so a
# process pays only for the modules it uses.
_EXPORTS = {
    "errors": (
        "ChoiceOwnership", "MPSTError", "MergeFailure", "NotBasic",
        "NotCompatible", "NotSessionCompatible", "ParseError",
        "ResourceLimit", "SynthesisFailure"),
    "syntax": (
        "Action", "GBranch", "GEnd", "GRec", "GVar", "Global", "LEnd", "LRec",
        "LRecv", "LSend", "LVar", "Local", "Machine", "System",
        "alpha_canonical", "alpha_equiv", "glabels", "gparticipants",
        "make_system", "parse_global", "parse_local", "parse_system",
        "print_system", "print_type", "unfold"),
    "projection": (
        "WellFormedReport", "merge", "project", "well_formed"),
    "cfsm": (
        "BAD_FLAGS", "Config", "ReachSet", "SafetyReport", "check_safety",
        "classify", "dot_machine", "dot_reach", "dot_system", "fire",
        "initial", "is_basic", "reach", "traces", "trie_flatten"),
    "translate": ("isomorphic", "to_local", "to_machine"),
    "semantics": (
        "LocalConfig", "gbuffers", "local_config", "project_config",
        "step_global", "trace_equiv", "traces_global", "traces_local"),
    "compat": ("CompatFailure", "CompatReport", "dual",
               "multiparty_compatible"),
    "synthesis": ("synthesize", "verify_roundtrip"),
    "generalized": (
        "EndEq", "Fork", "GGChoice", "GGMsg", "GLEChoice", "GLIChoice",
        "GLRecv", "GLSend", "GeneralGlobal", "GeneralLocal", "Indir", "Join",
        "LabelledNet", "Merge", "SessionReport", "dot_net",
        "gg_participants", "gproject", "gsynthesize", "gto_machine",
        "gtraces_global", "gtraces_local", "is_safe", "mixed_parallel",
        "parse_gglobal", "parse_glocal", "print_gglobal", "print_glocal",
        "receiver_property", "session_compatible", "to_petri",
        "unique_sender"),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # `mpst.cfsm` after a bare `import mpst`
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
