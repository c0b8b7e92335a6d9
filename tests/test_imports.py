"""What importing the package and running each command loads.

`import mpst` binds its public names lazily, and each `mpst` command
imports only the modules it runs; both are checked in fresh interpreters,
where nothing has been loaded yet.
"""
import subprocess
import sys

import pytest
from conftest import DATA

import mpst

SUBMODULES = ("errors", "syntax", "projection", "search", "cfsm",
              "translate", "semantics", "compat", "synthesis", "generalized",
              "session")

REPORT = ("import sys\n"
          "print(' '.join(sorted(m[5:] for m in sys.modules"
          " if m.startswith('mpst.'))))\n")


def fresh(code: str) -> str:
    """Last line of stdout of `code` in a new interpreter."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def loaded_by(*argv, report: str = REPORT) -> set[str]:
    """The `mpst.*` submodules that one command loads, or what else report
    prints, after checking that it ran to a verdict."""
    code = ("import contextlib, io\n"
            "from mpst.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({[str(a) for a in argv]!r})\n"
            "assert rc in (0, 1), rc\n" + report)
    return set(fresh(code).split())


def test_import_mpst_loads_no_submodule():
    assert fresh("import mpst\n" + REPORT) == ""


def test_import_cli_loads_errors_and_syntax_only():
    assert fresh("import mpst.cli\n" + REPORT) == "cli errors syntax"


@pytest.mark.parametrize("argv", [
    ("parse", "commit.gt"),
    ("wf", "commit.gt"),
    ("check", "commit.cfsm", "--bound", "2"),
    ("compat", "commit.cfsm"),
    ("synth", "commit.cfsm", "--verify", "6,2"),
    ("simulate", "commit.gt", "--steps", "6", "--bound", "1"),
    ("dot", "commit_c.lt", "-p", "C"),
], ids=lambda argv: argv[0])
def test_commands_without_equation_systems_skip_generalized(argv):
    verb, name, *rest = argv
    assert "generalized" not in loaded_by(verb, DATA / name, *rest)


def test_parse_of_a_global_type_needs_only_syntax():
    assert loaded_by("parse", DATA / "commit.gt") == {"cli", "errors",
                                                      "syntax"}


@pytest.mark.parametrize("argv", [
    ("wf", "commit.gt"), ("project", "commit.gt", "-p", "A"),
], ids=lambda argv: argv[0])
def test_projection_verbs_load_projection_only(argv):
    verb, name, *rest = argv
    assert loaded_by(verb, DATA / name, *rest) == {"cli", "errors", "syntax",
                                                   "projection"}


# RS_k and the compatibility check, and the session checks that read them
RS_K = {"cfsm", "compat", "session"}


@pytest.mark.parametrize("argv", [
    ("parse", "data_transfer.ggt"),
    ("parse", "data_transfer_a.glt"),
    ("gproject", "data_transfer.ggt", "-p", "A"),
    ("petri", "data_transfer.ggt"),
    ("petri", "data_transfer_a.glt", "-p", "A"),
    ("dot", "data_transfer.ggt"),
    ("dot", "data_transfer_a.glt"),
], ids=lambda argv: "-".join(argv[:2]))
def test_equation_system_verbs_load_no_rs_k(argv):
    verb, name, *rest = argv
    loaded = loaded_by(verb, DATA / name, *rest)
    assert "generalized" in loaded
    assert not loaded & RS_K


@pytest.mark.parametrize("argv", [
    ("translate", "commit_c.lt", "-p", "C"),
    ("translate", "commit.cfsm"),
    ("dot", "commit.cfsm"),
    ("dot", "commit.cfsm", "-p", "C"),
    ("dot", "commit_c.lt", "-p", "C"),
], ids=lambda argv: "-".join(argv[:2]) + "-p" * ("-p" in argv))
def test_translation_verbs_load_no_rs_k(argv):
    verb, name, *rest = argv
    loaded = loaded_by(verb, DATA / name, *rest)
    assert "search" in loaded
    assert not loaded & RS_K


def test_dot_loads_rs_k_only_under_a_bound():
    loaded = loaded_by("dot", DATA / "commit.cfsm", "--bound", "2")
    assert "cfsm" in loaded
    assert not loaded & {"compat", "session", "generalized"}


def test_check_loads_no_later_layer():
    loaded = loaded_by("check", DATA / "commit.cfsm", "--bound", "2")
    assert not loaded & {"compat", "semantics", "synthesis"}
    assert "cfsm" in loaded


# the value types are `syntax._Record`s: no module loads `dataclasses`,
# which brings `inspect` (and `ast`, `dis`, `tokenize`) with it
HEAVY = ("dataclasses", "inspect")
HEAVY_REPORT = ("import sys\n"
                f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n")


@pytest.mark.parametrize("argv", [
    ("parse", "commit.gt"),
    ("wf", "commit.gt"),
    ("check", "commit.cfsm", "--bound", "2"),
    ("compat", "commit.cfsm"),
    ("session", "commit.cfsm"),
], ids=lambda argv: argv[0])
def test_commands_load_no_dataclasses(argv):
    verb, name, *rest = argv
    assert loaded_by(verb, DATA / name, *rest, report=HEAVY_REPORT) == set()


def test_submodules_load_no_dataclasses():
    code = "".join(f"import mpst.{m}\n" for m in SUBMODULES)
    assert fresh(code + HEAVY_REPORT) == ""
    # the control: the report sees the module when it is loaded
    assert fresh("import dataclasses\n" + HEAVY_REPORT) == "dataclasses inspect"


@pytest.mark.parametrize("verb", ["session", "gsynth"])
def test_session_verbs_load_rs_k_and_generalized(verb):
    # the control for the tests above: loading is seen when it happens
    assert RS_K | {"generalized"} <= loaded_by(verb, DATA / "commit.cfsm")


def test_all_is_sorted_and_complete():
    assert len(mpst.__all__) == 98
    assert mpst.__all__ == sorted(set(mpst.__all__))


def test_lazy_names_are_the_submodules_objects():
    # in a fresh interpreter, so that every name goes through the lazy
    # lookup; the star import binds all of them
    code = ("import importlib, mpst\n"
            "ns = {}\n"
            "exec('from mpst import *', ns)\n"
            "missing = sorted(set(mpst.__all__) - set(ns))\n"
            "other = sorted(n for n in mpst.__all__ if n in ns and not any(\n"
            "    ns[n] is getattr(importlib.import_module('mpst.' + m), n,\n"
            "                     None)\n"
            f"    for m in {SUBMODULES!r}))\n"
            "print(missing, other)\n")
    assert fresh(code) == "[] []"


def test_submodules_stay_attributes_of_the_package():
    assert fresh("import mpst\nprint(mpst.generalized.__name__)") == \
        "mpst.generalized"


def test_dir_lists_every_public_name():
    assert set(mpst.__all__) <= set(dir(mpst))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mpst.no_such_name  # noqa: B018
    assert not hasattr(mpst, "no_such_name")
