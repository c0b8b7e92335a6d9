"""The README's library example runs, and every name it gives as a main
entry point is public."""
import re
from pathlib import Path

import mpst

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_library_example_runs():
    block, = re.findall(r"^## Library\n\n```python\n(.*?)^```", README,
                        re.M | re.S)
    exec(block, {})


def test_main_entry_points_are_public():
    para, = re.findall(r"^The main entry points:(.*?)(?:\n\n|\Z)", README,
                       re.M | re.S)
    names = re.findall(r"`(\w+)`", para)
    assert len(names) >= 30
    assert sorted(set(names) - set(mpst.__all__)) == []
