"""Golden CLI output for the type and equation-system files: the exact
stdout, stderr and exit code of every verb that reads a .gt, .lt, .ggt or
.glt file in tests/data.  A local file names its owner after its last
underscore (commit_c.lt is C's type).  After a deliberate change of
output, rewrite the tests/golden/*.{gt,lt,ggt,glt}.txt files with
`PYTHONPATH=src python tests/test_cli_golden_types.py`."""
import contextlib
import io
from pathlib import Path

import pytest

from mpst import gg_participants, gparticipants, parse_gglobal, parse_global
from mpst.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SUFFIXES = (".gt", ".lt", ".ggt", ".glt")
FILES = sorted(p.name for p in DATA.iterdir() if p.suffix in SUFFIXES)


def commands(name: str) -> list[tuple[str, ...]]:
    """The verbs, with their options, run on tests/data/name."""
    path = DATA / name
    suffix = path.suffix
    if suffix == ".gt":
        ps = sorted(gparticipants(parse_global(path.read_text())))
        return [("parse",), ("wf",), *(("project", "-p", p) for p in ps),
                ("simulate", "--steps", "12", "--bound", "1"), ("dot",)]
    if suffix == ".ggt":
        ps = gg_participants(parse_gglobal(path.read_text()))
        return [("parse",), *(("gproject", "-p", p) for p in ps),
                ("petri",), ("petri", "--dot"), ("dot",)]
    owner = path.stem.rsplit("_", 1)[-1].upper()
    if suffix == ".lt":
        return [("parse",), ("translate", "-p", owner),
                ("simulate", "--steps", "12", "--bound", "1"),
                ("dot", "-p", owner)]
    return [("parse",), ("petri",), ("petri", "--dot"),
            ("petri", "-p", owner), ("dot",), ("dot", "-p", owner)]


def render(name: str) -> str:
    """Each command's exit code, stdout and stderr on tests/data/name."""
    parts = []
    for cmd, *opts in commands(name):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([cmd, str(DATA / name), *opts])
        parts.append(f"$ mpst {' '.join([cmd, name, *opts])}\nexit {rc}\n"
                     f"--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("name", FILES)
def test_type_verbs_match_golden_bytes(name):
    want = (GOLDEN / f"{name}.txt").read_bytes()
    assert render(name).encode() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in FILES:
        (GOLDEN / f"{name}.txt").write_bytes(render(name).encode())
