"""Command-line interface.

Verdict-style commands exit 0 when the property holds and 1 when it does
not; malformed input or usage exits 2; blown resource caps exit 3.  All
output is deterministic: rerunning a command on the same input produces
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cfsm import (check_safety, classify, dot_machine, dot_reach,
                   dot_system, initial, fire, reach)
from .compat import multiparty_compatible
from .errors import (ChoiceOwnership, MergeFailure, MPSTError, NotBasic,
                     NotCompatible, NotSessionCompatible, ParseError,
                     ResourceLimit, SynthesisFailure)
from .generalized import (GeneralGlobal, GeneralLocal, dot_net,
                          gg_participants, gproject, gsynthesize, is_safe,
                          parse_gglobal, parse_glocal, print_gglobal,
                          print_glocal, session_compatible, to_petri)
from .projection import project, well_formed
from .semantics import step_global
from .synthesis import synthesize, verify_roundtrip
from .syntax import (Global, Local, System, gparticipants, make_system,
                     parse_global, parse_local, parse_system, print_system,
                     print_type)
from .translate import to_local, to_machine


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e
    if path.endswith(".gt"):
        return parse_global(text)
    if path.endswith(".lt"):
        return parse_local(text)
    if path.endswith(".cfsm"):
        return parse_system(text)
    if path.endswith(".ggt"):
        return parse_gglobal(text)
    if path.endswith(".glt"):
        return parse_glocal(text)
    raise ParseError(f"cannot tell what {path} holds: expected a .gt, .lt, "
                     f".cfsm, .ggt or .glt suffix")


def _render(obj) -> str:
    if isinstance(obj, System):
        return print_system(obj)
    if isinstance(obj, GeneralGlobal):
        return print_gglobal(obj)
    if isinstance(obj, GeneralLocal):
        return print_glocal(obj)
    return print_type(obj) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json(data) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _cmd_parse(args) -> int:
    _emit(_render(_load(args.file)), args.output)
    return 0


def _cmd_project(args) -> int:
    g = _load(args.file)
    if not isinstance(g, Global):
        raise ParseError("project expects a global type (.gt)")
    if args.participant not in gparticipants(g):
        raise ParseError(f"no participant {args.participant} in the type")
    _emit(print_type(project(g, args.participant)) + "\n", args.output)
    return 0


def _cmd_wf(args) -> int:
    g = _load(args.file)
    if not isinstance(g, Global):
        raise ParseError("wf expects a global type (.gt)")
    report = well_formed(g)
    _json({"well_formed": report.ok,
           "failures": [{"participant": p, "reason": r}
                        for p, r in report.failures]})
    return 0 if report.ok else 1


def _cmd_translate(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, Local):
        if not args.participant:
            raise ParseError("translating a local type needs -p OWNER")
        m = to_machine(obj, args.participant)
        _emit(print_system(make_system([m])), args.output)
        return 0
    if isinstance(obj, System):
        if args.participant:
            if args.participant not in obj.participants:
                raise ParseError(
                    f"no machine for participant {args.participant}")
            t = to_local(obj.machine(args.participant))
            _emit(print_type(t) + "\n", args.output)
        else:
            lines = [f"{p}: {print_type(to_local(m))}\n"
                     for p, m in obj.machines]
            _emit("".join(lines), args.output)
        return 0
    raise ParseError("translate expects a local type (.lt) or machines (.cfsm)")


def _cmd_compat(args) -> int:
    s = _load(args.file)
    if not isinstance(s, System):
        raise ParseError("compat expects machines (.cfsm)")
    report = multiparty_compatible(s)
    if args.json:
        _json(report.to_json())
    else:
        _json({"compatible": report.compatible})
    return 0 if report.compatible else 1


def _cmd_synth(args) -> int:
    s = _load(args.file)
    if not isinstance(s, System):
        raise ParseError("synth expects machines (.cfsm)")
    g = synthesize(s)
    _emit(print_type(g) + "\n", args.output)
    if args.verify:
        n, kmax = args.verify
        ok, results = verify_roundtrip(s, g, max_len=n,
                                       bounds=tuple(range(1, kmax + 1)))
        for k in sorted(results):
            good, witness = results[k]
            if not good:
                print(f"mpst: traces diverge at bound {k}: "
                      + "·".join(str(a) for a in witness), file=sys.stderr)
        if not ok:
            return 1
        print(f"mpst: traces agree up to length {n} for bounds 1..{kmax}",
              file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    s = _load(args.file)
    if not isinstance(s, System):
        raise ParseError("check expects machines (.cfsm)")
    report = check_safety(s, args.bound, check_liveness=args.liveness)
    _json(report.to_json())
    return 0 if report.ok else 1


def _cmd_simulate(args) -> int:
    if args.bound < 1:
        raise ValueError("bound k must be >= 1")
    if args.steps < 0:
        raise ValueError("steps must be >= 0")
    obj = _load(args.file)
    if isinstance(obj, Global):
        state = obj
        for _ in range(args.steps):
            steps = sorted(step_global(state, args.bound), key=lambda t: t[0])
            if not steps:
                break
            act, state = steps[0]
            sys.stdout.write(str(act) + "\n")
        return 0
    if isinstance(obj, System):
        c = initial(obj)
        for _ in range(args.steps):
            steps = sorted(fire(c, obj, args.bound), key=lambda t: t[0])
            if not steps:
                break
            act, c = steps[0]
            sys.stdout.write(str(act) + "\n")
        flags = ",".join(sorted(classify(c, obj)))
        sys.stdout.write(f"// {flags}\n")
        return 0
    raise ParseError("simulate expects a global type (.gt) or machines (.cfsm)")


def _cmd_gproject(args) -> int:
    g = _load(args.file)
    if not isinstance(g, GeneralGlobal):
        raise ParseError("gproject expects a global equation system (.ggt)")
    if args.participant not in gg_participants(g):
        raise ParseError(f"no participant {args.participant} in the system")
    _emit(print_glocal(gproject(g, args.participant)), args.output)
    return 0


def _cmd_gsynth(args) -> int:
    s = _load(args.file)
    if not isinstance(s, System):
        raise ParseError("gsynth expects machines (.cfsm)")
    _emit(print_gglobal(gsynthesize(s)), args.output)
    return 0


def _cmd_session(args) -> int:
    s = _load(args.file)
    if not isinstance(s, System):
        raise ParseError("session expects machines (.cfsm)")
    report = session_compatible(s)
    _json(report.to_json())
    return 0 if report.ok else 1


def _cmd_petri(args) -> int:
    t = _load(args.file)
    if not isinstance(t, (GeneralLocal, GeneralGlobal)):
        raise ParseError("petri expects an equation system (.glt or .ggt)")
    net = to_petri(t, owner=args.participant)
    if args.dot:
        sys.stdout.write(dot_net(net))
        return 0
    safe, witness = is_safe(net)
    _json({"initial": net.initial,
           "places": list(net.places),
           "transitions": [{"name": n, "label": lbl,
                            "inputs": list(i), "outputs": list(o)}
                           for n, lbl, i, o in net.transitions],
           "safe": safe,
           "unsafe_marking": witness})
    return 0 if safe else 1


def _cmd_dot(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, System):
        if args.bound is not None:
            sys.stdout.write(dot_reach(reach(obj, args.bound)))
        else:
            sys.stdout.write(dot_system(obj))
        return 0
    if isinstance(obj, Local):
        if not args.participant:
            raise ParseError("drawing a local type needs -p OWNER")
        sys.stdout.write(dot_machine(to_machine(obj, args.participant)))
        return 0
    if isinstance(obj, (GeneralLocal, GeneralGlobal)):
        sys.stdout.write(dot_net(to_petri(obj, owner=args.participant)))
        return 0
    raise ParseError("dot expects machines, a local type, or an equation system")


def _verify_arg(text: str) -> tuple[int, int]:
    try:
        n, k = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected N,K (e.g. 10,3)")
    if n < 1 or k < 1:
        raise argparse.ArgumentTypeError("N and K must be at least 1")
    return n, k


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mpst",
        description="Work with global/local session types and "
                    "communicating machines.")
    ap.add_argument("--version", action="version",
                    version=f"mpst {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("file", help="input file")
        return p

    p = add("parse", _cmd_parse, "parse a file and reprint it canonically")
    p.add_argument("-o", "--output")

    p = add("project", _cmd_project, "project a global type onto a participant")
    p.add_argument("-p", "--participant", required=True)
    p.add_argument("-o", "--output")

    add("wf", _cmd_wf, "check that a global type projects everywhere")

    p = add("translate", _cmd_translate,
            "turn a local type into a machine or machines into local types")
    p.add_argument("-p", "--participant")
    p.add_argument("-o", "--output")

    p = add("compat", _cmd_compat, "decide multiparty compatibility")
    p.add_argument("--json", action="store_true",
                   help="include the failure details")

    p = add("synth", _cmd_synth, "synthesise a global type from machines")
    p.add_argument("-o", "--output")
    p.add_argument("--verify", type=_verify_arg, metavar="N,K",
                   help="compare traces up to length N for bounds 1..K")

    p = add("check", _cmd_check, "scan bounded executions for errors")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--liveness", action="store_true")

    p = add("simulate", _cmd_simulate, "run one deterministic execution")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add("gproject", _cmd_gproject,
            "project a global equation system onto a participant")
    p.add_argument("-p", "--participant", required=True)
    p.add_argument("-o", "--output")

    p = add("gsynth", _cmd_gsynth,
            "synthesise a global equation system from machines")
    p.add_argument("-o", "--output")

    add("session", _cmd_session, "run the session-compatibility checks")

    p = add("petri", _cmd_petri, "emit the labelled net of an equation system")
    p.add_argument("-p", "--participant")
    p.add_argument("--dot", action="store_true")

    p = add("dot", _cmd_dot, "draw machines, types, or nets as graphviz")
    p.add_argument("-p", "--participant")
    p.add_argument("--bound", type=int)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValueError) as e:
        # ValueError: an argument out of range, such as a bound below 1
        print(f"mpst: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"mpst: {e}", file=sys.stderr)
        return 3
    except (MergeFailure, NotBasic, NotCompatible, NotSessionCompatible,
            SynthesisFailure, ChoiceOwnership) as e:
        print(f"mpst: {e}", file=sys.stderr)
        return 1
    except MPSTError as e:  # pragma: no cover - catch-all for subclasses
        print(f"mpst: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
