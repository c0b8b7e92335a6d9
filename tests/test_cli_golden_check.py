"""Golden output of `mpst check FILE --bound 2 --liveness` on every machine
file in tests/data: the exact exit code, stdout and stderr, so the shortest
path reported for each violation is pinned byte for byte.  After a
deliberate change of output, rewrite the tests/golden/*.cfsm.check.txt
files with `PYTHONPATH=src python tests/test_cli_golden_check.py`."""
import contextlib
import io
from pathlib import Path

import pytest

from mpst.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
OPTS = ("--bound", "2", "--liveness")
FILES = sorted(p.name for p in DATA.glob("*.cfsm"))


def render(name: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["check", str(DATA / name), *OPTS])
    return (f"$ mpst {' '.join(['check', name, *OPTS])}\nexit {rc}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


@pytest.mark.parametrize("name", FILES)
def test_check_output_matches_golden_bytes(name):
    want = (GOLDEN / f"{name}.check.txt").read_bytes()
    assert render(name).encode() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in FILES:
        (GOLDEN / f"{name}.check.txt").write_bytes(render(name).encode())
