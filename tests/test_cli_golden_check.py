"""Golden output of `mpst check FILE --bound 2 --liveness` on every machine
file in tests/data: the exact exit code, stdout and stderr, so the shortest
path reported for each violation is pinned byte for byte.  After a
deliberate change of output, rewrite the tests/golden/*.cfsm.check.txt
files with `PYTHONPATH=src python tests/test_cli_golden_check.py`."""
import pytest
from cli_golden import DATA, GOLDEN, render, rewrite

COMMANDS = (("check", "--bound", "2", "--liveness"),)
FILES = sorted(p.name for p in DATA.glob("*.cfsm"))


def golden(name: str):
    return GOLDEN / f"{name}.check.txt"


@pytest.mark.parametrize("name", FILES)
def test_check_output_matches_golden_bytes(name):
    assert render(name, COMMANDS).encode() == golden(name).read_bytes()


if __name__ == "__main__":
    rewrite(FILES, golden, lambda name: COMMANDS)
