"""Run one `mpst` command under the tracer and leave its spans in a file.

    python3 perfbench/cli_child.py SPANS.json <mpst arguments...>

Used by the traced round of the cli workload; the process behaves as
`mpst` does, exit code and tracebacks included.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpst.cli  # noqa: E402  (the tracer wraps what is loaded)
from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = mpst.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    Path(sys.argv[1]).write_text(json.dumps(tracer.export()))
sys.exit(code)
