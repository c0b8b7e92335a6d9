"""Command-line interface.

Verdict-style commands exit 0 when the property holds and 1 when it does
not; malformed input or usage exits 2; blown resource caps exit 3.  All
output is deterministic: rerunning a command on the same input produces
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Each command imports the modules it runs inside its own body: a process
# starts for one command, and loading the others (above all RS_k, `compat`
# and `session`) would cost more than most commands spend on their input.
from . import __version__
from .errors import MPSTError, ParseError
from .syntax import (gparticipants, make_system, parse_global, parse_local,
                     parse_system, print_system, print_type)

_SUFFIXES = (".gt", ".lt", ".cfsm", ".ggt", ".glt")


def _syntax(path: str):
    """The parser and canonical printer of the input path's suffix names."""
    if path.endswith((".gt", ".lt")):
        parse = parse_global if path.endswith(".gt") else parse_local
        return parse, lambda t: print_type(t) + "\n"
    if path.endswith(".cfsm"):
        return parse_system, print_system
    if path.endswith((".ggt", ".glt")):
        from .generalized import parse_gglobal, parse_glocal, print_gglobal
        parse = parse_gglobal if path.endswith(".ggt") else parse_glocal
        return parse, print_gglobal
    raise ParseError(f"cannot tell what {path} holds: expected a .gt, .lt, "
                     f".cfsm, .ggt or .glt suffix")


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return _syntax(path)[0](text)


def _emit(text: str, out: str | None) -> int:
    """Write text to the file out, or to stdout without one; exit 0."""
    if out:
        try:
            Path(out).write_text(text)
        except OSError as e:
            raise ParseError(f"cannot write {out}: {e.strerror}") from e
    else:
        sys.stdout.write(text)
    return 0


def _verdict(ok: bool, data) -> int:
    """Write data as JSON; exit 0 when ok, else 1."""
    import json
    sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def _cmd_parse(args, obj) -> int:
    return _emit(_syntax(args.file)[1](obj), args.output)


def _cmd_project(args, g) -> int:
    from .projection import project
    if args.participant not in gparticipants(g):
        raise ParseError(f"no participant {args.participant} in the type")
    return _emit(print_type(project(g, args.participant)) + "\n", args.output)


def _cmd_wf(args, g) -> int:
    from .projection import well_formed
    report = well_formed(g)
    return _verdict(report.ok, {"well_formed": report.ok,
                                "failures": [{"participant": p, "reason": r}
                                             for p, r in report.failures]})


def _cmd_translate(args, obj) -> int:
    from .translate import to_local, to_machine
    if args.file.endswith(".lt"):
        if not args.participant:
            raise ParseError("translating a local type needs -p OWNER")
        m = to_machine(obj, args.participant)
        return _emit(print_system(make_system([m])), args.output)
    if args.participant:
        if args.participant not in obj.participants:
            raise ParseError(f"no machine for participant {args.participant}")
        t = to_local(obj.machine(args.participant))
        return _emit(print_type(t) + "\n", args.output)
    return _emit("".join(f"{p}: {print_type(to_local(m))}\n"
                         for p, m in obj.machines), args.output)


def _cmd_compat(args, s) -> int:
    from .compat import multiparty_compatible
    report = multiparty_compatible(s)
    return _verdict(report.compatible, report.to_json() if args.json
                    else {"compatible": report.compatible})


def _cmd_synth(args, s) -> int:
    from .synthesis import synthesize, verify_roundtrip
    g = synthesize(s)
    _emit(print_type(g) + "\n", args.output)
    if args.verify:
        n, kmax = args.verify
        ok, results = verify_roundtrip(s, g, max_len=n,
                                       bounds=tuple(range(1, kmax + 1)))
        for k, (good, witness) in sorted(results.items()):
            if not good:
                print(f"mpst: traces diverge at bound {k}: "
                      + "·".join(str(a) for a in witness), file=sys.stderr)
        if not ok:
            return 1
        print(f"mpst: traces agree up to length {n} for bounds 1..{kmax}",
              file=sys.stderr)
    return 0


def _cmd_check(args, s) -> int:
    from .cfsm import check_safety
    report = check_safety(s, args.bound, check_liveness=args.liveness)
    return _verdict(report.ok, report.to_json())


def _cmd_simulate(args, obj) -> int:
    if args.bound < 1:
        raise ValueError("bound k must be >= 1")
    if args.steps < 0:
        raise ValueError("steps must be >= 0")
    machines = args.file.endswith(".cfsm")
    if machines:
        from .cfsm import classify, fire, initial
        state, step = initial(obj), lambda c, k: fire(c, obj, k)
    else:
        from .semantics import step_global
        state, step = obj, step_global
    for _ in range(args.steps):
        steps = sorted(step(state, args.bound), key=lambda t: t[0])
        if not steps:
            break
        act, state = steps[0]
        sys.stdout.write(str(act) + "\n")
    if machines:
        sys.stdout.write(f"// {','.join(sorted(classify(state, obj)))}\n")
    return 0


def _cmd_gproject(args, g) -> int:
    from .generalized import gg_participants, gproject, print_glocal
    if args.participant not in gg_participants(g):
        raise ParseError(f"no participant {args.participant} in the system")
    return _emit(print_glocal(gproject(g, args.participant)), args.output)


def _cmd_gsynth(args, s) -> int:
    from .generalized import print_gglobal
    from .session import gsynthesize
    return _emit(print_gglobal(gsynthesize(s)), args.output)


def _cmd_session(args, s) -> int:
    from .session import session_compatible
    report = session_compatible(s)
    return _verdict(report.ok, report.to_json())


def _cmd_petri(args, t) -> int:
    from .generalized import dot_net, is_safe, to_petri
    if args.participant and args.file.endswith(".ggt"):
        raise ParseError("a global equation system (.ggt) takes no -p")
    net = to_petri(t, owner=args.participant)
    if args.dot:
        sys.stdout.write(dot_net(net))
        return 0
    safe, witness = is_safe(net)
    return _verdict(safe, {
        "initial": net.initial,
        "places": list(net.places),
        "transitions": [{"name": n, "label": lbl,
                         "inputs": list(i), "outputs": list(o)}
                        for n, lbl, i, o in net.transitions],
        "safe": safe,
        "unsafe_marking": witness})


def _cmd_dot(args, obj) -> int:
    p = args.participant
    if args.bound is not None and (p or not args.file.endswith(".cfsm")):
        raise ParseError("dot --bound draws the reachability set of "
                         "machines (.cfsm), and takes no -p")
    if args.file.endswith((".glt", ".ggt")):
        args.dot = True  # a net is drawn as `petri --dot` draws it
        return _cmd_petri(args, obj)
    from .search import dot_machine, dot_system
    if args.file.endswith(".lt"):
        if not p:
            raise ParseError("drawing a local type needs -p OWNER")
        from .translate import to_machine
        sys.stdout.write(dot_machine(to_machine(obj, p)))
    elif p:
        if p not in obj.participants:
            raise ParseError(f"no machine for participant {p}")
        sys.stdout.write(dot_machine(obj.machine(p)))
    elif args.bound is None:
        sys.stdout.write(dot_system(obj))
    else:
        from .cfsm import dot_reach, reach
        sys.stdout.write(dot_reach(reach(obj, args.bound)))
    return 0


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

    def add(name, fn, help_, suffixes=_SUFFIXES, expects=None):
        # main reads the file and refuses a suffix not in suffixes
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn, suffixes=suffixes, expects=expects)
        p.add_argument("file", help="input file")
        return p

    p = add("parse", _cmd_parse, "parse a file and reprint it canonically")
    p.add_argument("-o", "--output")

    p = add("project", _cmd_project, "project a global type onto a participant",
            (".gt",), "a global type (.gt)")
    p.add_argument("-p", "--participant", required=True)
    p.add_argument("-o", "--output")

    add("wf", _cmd_wf, "check that a global type projects everywhere",
        (".gt",), "a global type (.gt)")

    p = add("translate", _cmd_translate,
            "turn a local type into a machine or machines into local types",
            (".lt", ".cfsm"), "a local type (.lt) or machines (.cfsm)")
    p.add_argument("-p", "--participant")
    p.add_argument("-o", "--output")

    p = add("compat", _cmd_compat, "decide multiparty compatibility",
            (".cfsm",), "machines (.cfsm)")
    p.add_argument("--json", action="store_true",
                   help="include the failure details")

    p = add("synth", _cmd_synth, "synthesise a global type from machines",
            (".cfsm",), "machines (.cfsm)")
    p.add_argument("-o", "--output")
    p.add_argument("--verify", type=_verify_arg, metavar="N,K",
                   help="compare traces up to length N for bounds 1..K")

    p = add("check", _cmd_check, "scan bounded executions for errors",
            (".cfsm",), "machines (.cfsm)")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--liveness", action="store_true")

    p = add("simulate", _cmd_simulate, "run one deterministic execution",
            (".gt", ".cfsm"), "a global type (.gt) or machines (.cfsm)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = add("gproject", _cmd_gproject,
            "project a global equation system onto a participant",
            (".ggt",), "a global equation system (.ggt)")
    p.add_argument("-p", "--participant", required=True)
    p.add_argument("-o", "--output")

    p = add("gsynth", _cmd_gsynth,
            "synthesise a global equation system from machines",
            (".cfsm",), "machines (.cfsm)")
    p.add_argument("-o", "--output")

    add("session", _cmd_session, "run the session-compatibility checks",
        (".cfsm",), "machines (.cfsm)")

    p = add("petri", _cmd_petri, "emit the labelled net of an equation system",
            (".glt", ".ggt"), "an equation system (.glt or .ggt)")
    p.add_argument("-p", "--participant")
    p.add_argument("--dot", action="store_true")

    p = add("dot", _cmd_dot, "draw machines, types, or nets as graphviz",
            (".cfsm", ".lt", ".glt", ".ggt"),
            "machines, a local type, or an equation system")
    p.add_argument("-p", "--participant")
    p.add_argument("--bound", type=int)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = _load(args.file)
        if not args.file.endswith(args.suffixes):
            raise ParseError(f"{args.command} expects {args.expects}")
        return args.fn(args, obj)
    except (MPSTError, ValueError) as e:
        # ValueError: an argument out of range, such as a bound below 1
        print(f"mpst: {e}", file=sys.stderr)
        return e._exit_code if isinstance(e, MPSTError) else 2


if __name__ == "__main__":
    sys.exit(main())
