"""Command line interface: output text and exit codes."""
import errno
import json
import os
import subprocess
import sys

import pytest
from conftest import DATA

from mpst.cli import main


def run(*args):
    cmd = [sys.executable, "-c",
           "from mpst.cli import main; raise SystemExit(main())"]
    r = subprocess.run(cmd + [str(a) for a in args],
                       capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def test_version():
    rc, out, _ = run("--version")
    assert rc == 0 and out.strip() == "mpst 0.1.0"


def test_missing_subcommand_is_usage_error():
    rc, _, err = run()
    assert rc == 2 and "usage" in err


def test_parse_reprints_canonically():
    rc, out, _ = run("parse", DATA / "commit.gt")
    assert rc == 0
    assert out.strip() == ("rec t. A->B:{act. B->C:sig. A->C:commit. t, "
                           "quit. B->C:save. A->C:finish. end}")


def test_parse_handles_machines():
    rc, out, _ = run("parse", DATA / "remark_abc.cfsm")
    assert rc == 0
    assert out.startswith("machine A {\n  init q0;\n")


def test_missing_file_is_reported():
    rc, _, err = run("parse", DATA / "no_such_file.gt")
    assert rc == 2 and "cannot read" in err


def test_file_that_is_not_utf8_is_reported_with_its_path(tmp_path):
    bad = tmp_path / "latin1.gt"
    bad.write_bytes(b"A -> B : caf\xe9. end")
    rc, out, err = run("parse", bad)
    assert (rc, out) == (2, "")
    assert err.startswith(f"mpst: cannot read {bad}: 'utf-8' codec can't "
                          f"decode byte 0xe9")


def test_unwritable_output_is_reported(tmp_path):
    target = tmp_path / "no_such_dir" / "x.gt"
    rc, out, err = run("parse", DATA / "commit.gt", "-o", target)
    assert (rc, out, err) == (
        2, "", f"mpst: cannot write {target}: {os.strerror(errno.ENOENT)}\n")


def test_project():
    rc, out, _ = run("project", DATA / "commit.gt", "-p", "C")
    assert rc == 0
    assert out.strip() == "rec t. B?{save. A?finish. end, sig. A?commit. t}"


def test_wf_verdicts():
    rc, out, _ = run("wf", DATA / "commit.gt")
    assert rc == 0 and json.loads(out) == {"failures": [],
                                           "well_formed": True}
    rc, out, _ = run("wf", DATA / "remark_bad.gt")
    assert rc == 1
    j = json.loads(out)
    assert not j["well_formed"]
    assert j["failures"][0]["participant"] == "C"


def test_translate_local_type_to_machine():
    rc, out, _ = run("translate", DATA / "commit_c.lt", "-p", "C")
    assert rc == 0
    assert out.startswith("machine C {\n  init q0;\n")
    assert "q2 -- A C ? commit --> q0;" in out


def test_compat_verdicts():
    rc, out, _ = run("compat", DATA / "commit.cfsm")
    assert rc == 0 and json.loads(out) == {"compatible": True}
    rc, out, _ = run("compat", DATA / "remark_abc.cfsm")
    assert rc == 1 and json.loads(out) == {"compatible": False}
    rc, out, _ = run("compat", DATA / "remark_abc.cfsm", "--json")
    assert rc == 1
    j = json.loads(out)
    assert len(j["failures"]) == 4
    assert {f["kind"] for f in j["failures"]} == {"unhandled", "uncovered"}


def test_synth_with_verification():
    rc, out, err = run("synth", DATA / "commit.cfsm", "--verify", "8,2")
    assert rc == 0
    assert out.strip() == ("rec t0. A->B:{act. B->C:sig. A->C:commit. t0, "
                           "quit. B->C:save. A->C:finish. end}")
    assert "traces agree up to length 8 for bounds 1..2" in err


def test_synth_verifies_deep_traces(tmp_path):
    # a trace trie 1200 levels deep: nothing may recurse once per level
    f = tmp_path / "loop.cfsm"
    f.write_text("machine A { init q0; q0 -- A B ! x --> q0; }\n"
                 "machine B { init q0; q0 -- A B ? x --> q0; }\n")
    rc, out, err = run("synth", f, "--verify", "1200,1")
    assert rc == 0, err
    assert "traces agree up to length 1200 for bounds 1..1" in err


def test_synth_refuses_incompatible_machines():
    rc, out, err = run("synth", DATA / "remark_abc.cfsm")
    assert rc == 1 and out == ""
    assert "not multiparty compatible" in err


def test_check_verdicts():
    rc, out, _ = run("check", DATA / "commit.cfsm",
                     "--bound", "1", "--liveness")
    assert rc == 0
    assert json.loads(out) == {"bound": 1, "liveness": True,
                               "violations": []}
    rc, out, _ = run("check", DATA / "deadlock.cfsm", "--bound", "1")
    assert rc == 1
    j = json.loads(out)
    assert j["violations"] and j["liveness"] is None
    rc, out, _ = run("check", DATA / "uninformed.cfsm",
                     "--bound", "1", "--liveness")
    assert rc == 1
    j = json.loads(out)
    assert j["violations"] == [] and j["liveness"] is False


def test_simulate_is_deterministic():
    rc, out, _ = run("simulate", DATA / "commit.cfsm",
                     "--steps", "6", "--bound", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:3] == ["AB!act", "AB?act", "AC!commit"]
    assert lines[-1] == "// intermediate"
    again = run("simulate", DATA / "commit.cfsm", "--steps", "6",
                "--bound", "1")
    assert again == (rc, out, "")


def test_gproject():
    rc, out, _ = run("gproject", DATA / "data_transfer.ggt", "-p", "A")
    assert rc == 0
    assert out == (DATA / "data_transfer_a.glt").read_text()


def test_gsynth():
    rc, out, _ = run("gsynth", DATA / "commit.cfsm")
    assert rc == 0
    assert out.startswith("init x0;\nx0 = x6 + x7;\n")
    assert "x7 = A -> B : quit ; x2;" in out


def test_session_verdicts():
    rc, out, _ = run("session", DATA / "commit.cfsm")
    assert rc == 0
    j = json.loads(out)
    assert j["session_compatible"] and len(j["checks"]) == 5
    rc, out, _ = run("session", DATA / "race.cfsm")
    assert rc == 1
    j = json.loads(out)
    failed = {c["name"] for c in j["checks"] if not c["ok"]}
    assert "multiparty_compatible" in failed
    rc, _, err = run("session", DATA / "data_transfer.ggt")
    assert rc == 2 and "expects machines" in err


def test_petri():
    rc, out, _ = run("petri", DATA / "data_transfer.ggt")
    assert rc == 0
    j = json.loads(out)
    assert j["safe"] and len(j["places"]) == 11
    assert len(j["transitions"]) == 10
    rc, out, _ = run("petri", DATA / "data_transfer.ggt", "--dot")
    assert rc == 0 and out.startswith("digraph net {")


def test_dot():
    rc, out, _ = run("dot", DATA / "commit.cfsm", "-p", "A")
    assert rc == 0
    assert out.startswith('digraph "A" {') and "doublecircle" in out
    rc, _, err = run("dot", DATA / "commit.gt")
    assert rc == 2 and "dot expects" in err


@pytest.mark.parametrize("args,message", [
    (("check", "commit.cfsm", "--bound", "0"), "bound k must be >= 1"),
    (("check", "commit.cfsm", "--bound", "-2"), "bound k must be >= 1"),
    (("dot", "commit.cfsm", "--bound", "-1"), "bound k must be >= 1"),
    (("dot", "commit.cfsm", "--bound", "0"), "bound k must be >= 1"),
    (("simulate", "commit.cfsm", "--steps", "4", "--bound", "0"),
     "bound k must be >= 1"),
    (("simulate", "commit.cfsm", "--steps", "4", "--bound", "-1"),
     "bound k must be >= 1"),
    (("simulate", "commit.cfsm", "--steps", "-3", "--bound", "1"),
     "steps must be >= 0"),
    (("translate", "commit.cfsm", "-p", "Z"), "no machine for participant Z"),
], ids=["check-bound-0", "check-bound-minus-2", "dot-bound-minus-1",
        "dot-bound-0", "simulate-bound-0", "simulate-bound-minus-1",
        "simulate-steps-minus-3", "translate-unknown-participant"])
def test_bad_arguments_are_one_line_usage_errors(args, message):
    cmd, name, *rest = args
    rc, out, err = run(cmd, DATA / name, *rest)
    assert (rc, out, err) == (2, "", f"mpst: {message}\n")


@pytest.mark.parametrize("cmd", ["translate", "dot"])
def test_a_self_message_in_a_local_type_is_a_usage_error(tmp_path, cmd):
    # not a machine that `mpst parse` would then reject
    path = tmp_path / "self.lt"
    path.write_text("A!a. end\n")
    rc, out, err = run(cmd, path, "-p", "A")
    assert (rc, out) == (2, "")
    assert err == "mpst: participant A cannot message itself\n"


@pytest.mark.parametrize("spec", ["0,0", "0,2", "6,0", "6,-1"])
def test_synth_verify_bounds_must_be_positive(spec):
    rc, out, err = run("synth", DATA / "commit.cfsm", "--verify", spec)
    assert rc == 2 and out == ""
    assert "N and K must be at least 1" in err


@pytest.mark.parametrize("cmd,name,message", [
    ("project", "commit.gt", "no participant Z in the type"),
    ("gproject", "data_transfer.ggt", "no participant Z in the system"),
])
def test_unknown_participant_is_a_usage_error(cmd, name, message):
    # not a negative verdict (exit 1), nor a projection onto no one (exit 0)
    rc, out, err = run(cmd, DATA / name, "-p", "Z")
    assert (rc, out, err) == (2, "", f"mpst: {message}\n")


@pytest.mark.parametrize("cap", ["0", "-5", "abc", "1e3", "2.5"])
def test_invalid_node_cap_is_a_usage_error(monkeypatch, capsys, cap):
    monkeypatch.setenv("MPST_NODE_CAP", cap)
    assert main(["check", str(DATA / "commit.cfsm"), "--bound", "1"]) == 2
    assert capsys.readouterr().err == \
        f"mpst: MPST_NODE_CAP must be an integer >= 1, not {cap!r}\n"
