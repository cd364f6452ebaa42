"""Every ```python block of README.md runs as written, each in a fresh
namespace, so the README's examples keep matching the library."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (first line number, code) of each ```python block
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m[1]) for m in
          re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)]


def test_readme_has_python_examples():
    assert BLOCKS


# ids by ordinal, so that editing the README above a block keeps its name
@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(line, code):
    # padded so that a traceback names the README's own line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"),
         {"__name__": "readme"})
