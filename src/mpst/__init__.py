"""Multiparty session types and communicating machines.

Global types describe a protocol between several participants at once;
local types describe one endpoint; communicating machines give the same
endpoint operationally.  This package converts between the three views,
executes them under bounded asynchrony, decides compatibility of machine
systems, and reconstructs global descriptions from compatible systems —
including a generalised, graph-shaped flavour of types with fork/join
parallelism and shared continuations.
"""

from types import ModuleType as _ModuleType

from .errors import (ChoiceOwnership, MergeFailure, MPSTError, NotBasic,
                     NotCompatible, NotSessionCompatible, ParseError,
                     ResourceLimit, SynthesisFailure)
from .syntax import (Action, GBranch, GEnd, Global, GRec, GVar, LEnd, LRec,
                     LRecv, LSend, LVar, Local, Machine, System,
                     alpha_canonical, alpha_equiv, glabels, gparticipants,
                     llabels, make_system, parse_global, parse_local,
                     parse_system, print_system, print_type, unfold)
from .projection import WellFormedReport, merge, project, subtype, well_formed
from .cfsm import (BAD_FLAGS, Config, ProductMachine, ReachSet, SafetyReport,
                   associated, check_safety, classify, dot_machine, dot_reach,
                   dot_system, fire, initial, is_basic, reach, traces,
                   trie_flatten)
from .translate import isomorphic, to_local, to_machine
from .semantics import (LocalConfig, gbuffers, local_config, project_config,
                        step_global, step_local, trace_equiv, traces_global,
                        traces_local)
from .compat import (CompatFailure, CompatReport, depends, dual,
                     is_alternation, multiparty_compatible)
from .synthesis import synthesize, verify_roundtrip
from .generalized import (EndEq, Fork, GConfig, GeneralGlobal, GeneralLocal,
                          GGChoice, GGMsg, GLEChoice, GLIChoice, GLRecv,
                          GLSend, Indir, Join, LabelledNet, Merge, gg_participants,
                          SessionReport, dot_net, ginitial_global,
                          ginitial_local, gproject, gstep_global, gstep_local,
                          gsynthesize, gto_machine, gtraces_global,
                          gtraces_local, is_safe, mixed_parallel,
                          parse_gglobal, parse_glocal, print_gglobal,
                          print_glocal, receiver_property, session_compatible,
                          to_petri, unique_sender)

# the public names, without the submodules that importing them binds here
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
