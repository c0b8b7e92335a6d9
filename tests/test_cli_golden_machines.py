"""Golden output of the machine verbs that read a system and print it, its
local types, a run or a graph: `parse`, `translate` (bare and with each
`-p`), `simulate --steps 12 --bound 2`, `dot` and `dot --bound 2` on every
machine file in tests/data, exit code, stdout and stderr byte for byte.
They run `fire`, `classify` and `reach`.  After a deliberate change of
output, rewrite the tests/golden/*.cfsm.verbs.txt files with
`PYTHONPATH=src python tests/test_cli_golden_machines.py`."""
import contextlib
import io
from pathlib import Path

import pytest

from mpst import parse_system
from mpst.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
FILES = sorted(p.name for p in DATA.glob("*.cfsm"))


def commands(name: str) -> list[tuple[str, ...]]:
    """The verbs, with their options, run on tests/data/name."""
    ps = parse_system((DATA / name).read_text()).participants
    return [("parse",), ("translate",),
            *(("translate", "-p", p) for p in ps),
            ("simulate", "--steps", "12", "--bound", "2"),
            ("dot",), ("dot", "--bound", "2")]


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
def test_machine_verbs_match_golden_bytes(name):
    want = (GOLDEN / f"{name}.verbs.txt").read_bytes()
    assert render(name).encode() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in FILES:
        (GOLDEN / f"{name}.verbs.txt").write_bytes(render(name).encode())
