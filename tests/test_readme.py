"""README's code runs as written, so the documented API cannot drift from the code."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(block, "README.md: Library usage", "exec"), names)
    assert len(names["approx"]) == len(names["exact"]) == 5
