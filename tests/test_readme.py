"""README.md's Python snippets run, in order, as one session."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_execute_in_order():
    blocks = re.findall(
        r"^```python\n(.*?)^```", README.read_text(), re.S | re.M
    )
    assert blocks, "README.md has no python blocks"
    namespace: dict = {"__name__": "__readme__"}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            code = compile(block, f"README.md python block {index}", "exec")
            exec(code, namespace)
