"""What the golden CLI tests share: the exact exit code, stdout and stderr
of mpst commands on a file of tests/data, and the rewriting of the files of
tests/golden/ that pin them."""
import contextlib
import io
from pathlib import Path

from mpst.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def render(name: str, commands) -> str:
    """Each command's exit code, stdout and stderr on tests/data/name, a
    command being a verb and its options."""
    parts = []
    for cmd, *opts in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([cmd, str(DATA / name), *opts])
        parts.append(f"$ mpst {' '.join([cmd, name, *opts])}\nexit {rc}\n"
                     f"--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


def rewrite(files, golden, commands) -> None:
    """Write `render` of commands(name) to the golden file golden(name),
    for each name in files."""
    GOLDEN.mkdir(exist_ok=True)
    for name in files:
        golden(name).write_bytes(render(name, commands(name)).encode())
