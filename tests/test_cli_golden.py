"""Golden CLI output: the exact stdout, stderr and exit code of the
compatibility, session and synthesis commands on every machine file in
tests/data.  After a deliberate change of output, rewrite tests/golden/
with `PYTHONPATH=src python tests/test_cli_golden.py`."""
import pytest
from cli_golden import DATA, GOLDEN, render, rewrite

COMMANDS = (("compat", "--json"), ("session",), ("synth", "--verify", "6,2"),
            ("gsynth",))
FILES = sorted(p.name for p in DATA.glob("*.cfsm"))


def golden(name: str):
    return (GOLDEN / name).with_suffix(".txt")


@pytest.mark.parametrize("name", FILES)
def test_cli_output_matches_golden_bytes(name):
    assert render(name, COMMANDS).encode() == golden(name).read_bytes()


if __name__ == "__main__":
    rewrite(FILES, golden, lambda name: COMMANDS)
