"""Golden CLI output: the exact stdout, stderr and exit code of the
compatibility, session and synthesis commands on every machine file in
tests/data.  After a deliberate change of output, rewrite tests/golden/
with `PYTHONPATH=src python tests/test_cli_golden.py`."""
import contextlib
import io
from pathlib import Path

import pytest

from mpst.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
COMMANDS = (("compat", "--json"), ("session",), ("synth", "--verify", "6,2"),
            ("gsynth",))
FILES = sorted(p.name for p in DATA.glob("*.cfsm"))


def render(name: str) -> str:
    """Each command's exit code, stdout and stderr on tests/data/name."""
    parts = []
    for cmd, *opts in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([cmd, str(DATA / name), *opts])
        parts.append(f"$ mpst {' '.join([cmd, name, *opts])}\nexit {rc}\n"
                     f"--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("name", FILES)
def test_cli_output_matches_golden_bytes(name):
    want = (GOLDEN / name).with_suffix(".txt").read_bytes()
    assert render(name).encode() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in FILES:
        (GOLDEN / name).with_suffix(".txt").write_bytes(render(name).encode())
