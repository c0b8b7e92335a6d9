"""Golden CLI output for the type and equation-system files: the exact
stdout, stderr and exit code of every verb that reads a .gt, .lt, .ggt or
.glt file in tests/data.  A local file names its owner after its last
underscore (commit_c.lt is C's type).  After a deliberate change of
output, rewrite the tests/golden/*.{gt,lt,ggt,glt}.txt files with
`PYTHONPATH=src python tests/test_cli_golden_types.py`."""
import pytest
from cli_golden import DATA, GOLDEN, render, rewrite

from mpst import gg_participants, gparticipants, parse_gglobal, parse_global

SUFFIXES = (".gt", ".lt", ".ggt", ".glt")
FILES = sorted(p.name for p in DATA.iterdir() if p.suffix in SUFFIXES)


def commands(name: str) -> list[tuple[str, ...]]:
    """The verbs, with their options, run on tests/data/name."""
    path = DATA / name
    suffix = path.suffix
    if suffix == ".gt":
        ps = sorted(gparticipants(parse_global(path.read_text())))
        return [("parse",), ("wf",), *(("project", "-p", p) for p in ps),
                ("simulate", "--steps", "12", "--bound", "1"),
                ("simulate", "--steps", "12", "--bound", "2"), ("dot",)]
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


def golden(name: str):
    return GOLDEN / f"{name}.txt"


@pytest.mark.parametrize("name", FILES)
def test_type_verbs_match_golden_bytes(name):
    assert render(name, commands(name)).encode() == golden(name).read_bytes()


if __name__ == "__main__":
    rewrite(FILES, golden, commands)
