"""Golden output of the machine verbs that read a system and print it, its
local types, a run or a graph: `parse`, `translate` (bare and with each
`-p`), `simulate --steps 12 --bound 2`, `dot`, `dot --bound 1` and `dot
--bound 2` on every machine file in tests/data, exit code, stdout and
stderr byte for byte.
They run `fire`, `classify` and `reach`.  After a deliberate change of
output, rewrite the tests/golden/*.cfsm.verbs.txt files with
`PYTHONPATH=src python tests/test_cli_golden_machines.py`."""
import pytest
from cli_golden import DATA, GOLDEN, render, rewrite

from mpst import parse_system

FILES = sorted(p.name for p in DATA.glob("*.cfsm"))


def commands(name: str) -> list[tuple[str, ...]]:
    """The verbs, with their options, run on tests/data/name."""
    ps = parse_system((DATA / name).read_text()).participants
    return [("parse",), ("translate",),
            *(("translate", "-p", p) for p in ps),
            ("simulate", "--steps", "12", "--bound", "2"),
            ("dot",), ("dot", "--bound", "1"), ("dot", "--bound", "2")]


def golden(name: str):
    return GOLDEN / f"{name}.verbs.txt"


@pytest.mark.parametrize("name", FILES)
def test_machine_verbs_match_golden_bytes(name):
    assert render(name, commands(name)).encode() == golden(name).read_bytes()


if __name__ == "__main__":
    rewrite(FILES, golden, commands)
