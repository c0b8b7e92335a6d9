"""Command line interface: output text and exit codes."""
import errno
import json
import os
import random
import re
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


def test_a_byte_order_mark_is_read_past(tmp_path):
    bom = tmp_path / "commit.gt"
    bom.write_bytes(b"\xef\xbb\xbf" + (DATA / "commit.gt").read_bytes())
    want = run("parse", DATA / "commit.gt")
    assert want[0] == 0 and run("parse", bom) == want


def test_a_bad_character_is_reported_at_its_position(tmp_path):
    bad = tmp_path / "bad.gt"
    bad.write_text("A -> B : x @ end\n")
    assert run("parse", bad) == (
        2, "", "mpst: 1:12: unexpected character '@'\n")


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


PRODUCER = """machine A {
  init q0;
  q0 -- A B ! x --> q0;
}
machine B {
  init q0;
  q0 -- A B ? x --> q0;
}
"""


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS bounds the child's memory on Linux only")
def test_a_long_producer_loop_is_checked_within_a_gigabyte(tmp_path):
    # a one-label channel's field is its length alone, so RS_k of the loop,
    # 20,001 configurations at k = 20,000, takes memory linear in k
    path = tmp_path / "producer.cfsm"
    path.write_text(PRODUCER)
    cmd = [sys.executable, "-c",
           "from mpst.cli import main; raise SystemExit(main())",
           "check", str(path), "--bound", "20000"]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       preexec_fn=_limit_address_space)
    if r.returncode:
        pytest.fail(f"exit {r.returncode}:\n{r.stderr[-300:]}")
    assert json.loads(r.stdout)["violations"] == []


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
    assert out.count("digraph") == 1  # A's machine alone
    rc, _, err = run("dot", DATA / "commit.gt")
    assert rc == 2 and "dot expects" in err


@pytest.mark.parametrize("args,message", [
    (("dot", "commit_c.lt", "-p", "C", "--bound", "0"),
     "dot --bound draws the reachability set of machines (.cfsm), and "
     "takes no -p"),
    (("dot", "data_transfer.ggt", "--bound", "1"),
     "dot --bound draws the reachability set of machines (.cfsm), and "
     "takes no -p"),
    (("dot", "commit.cfsm", "-p", "A", "--bound", "1"),
     "dot --bound draws the reachability set of machines (.cfsm), and "
     "takes no -p"),
    (("dot", "commit.cfsm", "-p", "Z"), "no machine for participant Z"),
    (("dot", "data_transfer.ggt", "-p", "Z"),
     "a global equation system (.ggt) takes no -p"),
    (("petri", "data_transfer.ggt", "-p", "Z"),
     "a global equation system (.ggt) takes no -p"),
], ids=["dot-lt-bound", "dot-ggt-bound", "dot-cfsm-p-bound", "dot-cfsm-p-Z",
        "dot-ggt-p", "petri-ggt-p"])
def test_an_option_a_verb_cannot_use_is_a_usage_error(capsys, args, message):
    # not drawn as if it had not been given
    cmd, name, *rest = args
    rc = main([cmd, str(DATA / name), *rest])
    assert (rc, *capsys.readouterr()) == (2, "", f"mpst: {message}\n")


REPEATED = """machine A {
  init q0;
  q0 -- A B ! x --> q1;
  q0 -- A B ! x --> q1;
  q1 -- A B ! y --> q0;
}
machine B {
  init q0;
  q0 -- A B ? x --> q1;
  q1 -- A B ? y --> q0;
}
"""


def test_a_repeated_transition_is_kept_once(tmp_path, capsys):
    # once as a branch of the synthesised type, which then projects, once as
    # an equation, and once as a move
    path, gt = tmp_path / "repeated.cfsm", tmp_path / "repeated.gt"
    path.write_text(REPEATED)
    assert main(["synth", str(path), "-o", str(gt)]) == 0
    assert gt.read_text() == "rec t0. A->B:x. A->B:y. t0\n"
    assert main(["wf", str(gt)]) == 0
    assert main(["gsynth", str(path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(path), "--steps", "0", "--bound", "1"]) == 0
    assert main(["dot", str(path), "--bound", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count('"c0" -> "c1" [label="AB!x"]') == 1


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


@pytest.mark.parametrize("cmd,name,text", [
    ("translate", "self.lt", "A!a. end\n"),
    ("dot", "self.lt", "A!a. end\n"),
    ("petri", "self.glt", "init x0; x0 = A ! a ; x1; x1 = end;\n"),
    ("dot", "self.glt", "init x0; x0 = A ! a ; x1; x1 = end;\n"),
], ids=["translate", "dot", "petri-glt", "dot-glt"])
def test_a_self_message_in_a_local_type_is_a_usage_error(tmp_path, cmd, name,
                                                         text):
    # not a machine that `mpst parse` would then reject, nor a net whose
    # transitions read "AA!a"
    path = tmp_path / name
    path.write_text(text)
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


# one file of each kind of input, by suffix
KIND_FILES = {".gt": "commit.gt", ".lt": "commit_c.lt", ".cfsm": "commit.cfsm",
              ".ggt": "data_transfer.ggt", ".glt": "data_transfer_a.glt"}
# each verb but parse: the suffixes it reads, what it says it expects on any
# other, and the options it needs
READS = [
    ("project", ".gt", "a global type (.gt)", ["-p", "A"]),
    ("wf", ".gt", "a global type (.gt)", []),
    ("translate", ".lt .cfsm", "a local type (.lt) or machines (.cfsm)", []),
    ("compat", ".cfsm", "machines (.cfsm)", []),
    ("synth", ".cfsm", "machines (.cfsm)", []),
    ("check", ".cfsm", "machines (.cfsm)", ["--bound", "1"]),
    ("simulate", ".gt .cfsm", "a global type (.gt) or machines (.cfsm)",
     ["--steps", "2", "--bound", "1"]),
    ("gproject", ".ggt", "a global equation system (.ggt)", ["-p", "A"]),
    ("gsynth", ".cfsm", "machines (.cfsm)", []),
    ("session", ".cfsm", "machines (.cfsm)", []),
    ("petri", ".glt .ggt", "an equation system (.glt or .ggt)", []),
    ("dot", ".cfsm .lt .glt .ggt",
     "machines, a local type, or an equation system", []),
]
WRONG_KINDS = [(verb, suffix, expects, opts)
               for verb, reads, expects, opts in READS
               for suffix in KIND_FILES if suffix not in reads.split()]


@pytest.mark.parametrize("verb,suffix,expects,opts", WRONG_KINDS,
                         ids=[f"{v}-{s[1:]}" for v, s, _, _ in WRONG_KINDS])
def test_a_verb_refuses_every_kind_of_input_it_does_not_read(
        capsys, verb, suffix, expects, opts):
    rc = main([verb, str(DATA / KIND_FILES[suffix]), *opts])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", f"mpst: {verb} expects {expects}\n")


FUZZ_OPTIONS = {
    "parse": [[]],
    "project": [["-p", "A"], ["-p", "C"]],
    "wf": [[]],
    "translate": [[], ["-p", "A"]],
    "compat": [[], ["--json"]],
    "synth": [[], ["--verify", "4,2"]],
    "check": [["--bound", "1"], ["--bound", "2", "--liveness"]],
    "simulate": [["--steps", "5", "--bound", "1"]],
    "gproject": [["-p", "A"]],
    "gsynth": [[]],
    "session": [[]],
    "petri": [[], ["-p", "B", "--dot"]],
    "dot": [[], ["-p", "A"], ["--bound", "1"]],
}
# pieces of the five input languages, spliced into the corpus
FUZZ_TOKENS = [b"->", b":", b";", b".", b",", b"{", b"}", b"!", b"?", b"+",
               b"|", b"(+)", b"=", b"-->", b"rec t.", b"end", b"init", b"\xff"]
KEYWORDS = {b"machine", b"init", b"rec", b"end"}


def _mutants(rng, corpus, n):
    """n corpus files, each with one or two of: a name renamed to another
    name of the file (participants to participants), a line dropped, doubled
    or replaced by another, the text cut short, a token spliced in; or
    random bytes.  Each keeps its file's suffix or, now and then, takes
    another one.  None nests deeply."""
    for _ in range(n):
        name, data = rng.choice(corpus)
        suffix = "." + name.rsplit(".", 1)[1]
        for _ in range(rng.randint(1, 2)):
            roll, i = rng.random(), rng.randrange(len(data) + 1)
            lines = data.splitlines(True)
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            names = [m for m in re.finditer(rb"\w+", data)
                     if m[0] not in KEYWORDS]
            if roll < 0.5 and names:
                m = rng.choice(names)
                data = data[:m.start()] + rng.choice(
                    [x[0] for x in names
                     if x[0][:1].isupper() == m[0][:1].isupper()]
                ) + data[m.end():]
            elif roll < 0.75:  # the line formats mostly still parse
                lines[j:j + 1] = rng.choice(([], [lines[j]] * 2, [lines[k]]))
                data = b"".join(lines) or data
            elif roll < 0.85:
                data = data[:i]
            else:
                data = data[:i] + rng.choice(FUZZ_TOKENS) + data[i:]
            if not data:
                break
        if rng.random() < 0.05:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(60)))
        if rng.random() < 0.1:
            suffix = rng.choice(list(KIND_FILES))
        yield suffix, data


def test_every_input_ends_in_an_exit_code(tmp_path, monkeypatch, capsys):
    # whatever the file holds, main answers 0-3 and lets no error escape;
    # small caps keep each search short, and the smaller one is blown (3)
    rng = random.Random(19)
    corpus = sorted((p.name, p.read_bytes()) for p in DATA.iterdir())
    for n, (suffix, data) in enumerate(_mutants(rng, corpus, 60)):
        monkeypatch.setenv("MPST_NODE_CAP", rng.choice(["20", "2000"]))
        path = tmp_path / f"in{n}{suffix}"
        path.write_bytes(data)
        for verb, option_sets in FUZZ_OPTIONS.items():
            for opts in option_sets:
                argv = [verb, str(path), *opts]
                try:
                    rc = main(argv)
                except Exception as e:  # the failure names the input
                    pytest.fail(f"{argv} on {data!r} raised {e!r}")
                assert rc in (0, 1, 2, 3), (argv, data)
        capsys.readouterr()
