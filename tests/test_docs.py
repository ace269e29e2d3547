"""The documentation's code runs.

Every ``python`` fence of ``README.md`` and ``docs/api_guide.md`` is
executed in document order, one namespace per document, so a block may
use what an earlier block of the same document defined.  Each document
runs in a fresh interpreter inside a temporary working directory: the
blocks set process-wide defaults and write files, and neither may leak
into the rest of the suite.  Pseudo-code and shell are fenced as
``text`` or ``bash`` and are not run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", "docs/api_guide.md")

_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

#: Runs the ``(line, source)`` blocks read from stdin in one namespace
#: and names the first block that raises.
_RUNNER = """
import json, sys
namespace = {"__name__": "__docs__"}
for line, source in json.load(sys.stdin):
    try:
        exec(compile(source, f"{sys.argv[1]}:{line}", "exec"), namespace)
    except BaseException as error:
        print(f"block at line {line} raised {type(error).__name__}: {error}")
        sys.exit(1)
"""


def python_blocks(text: str) -> list[tuple[int, str]]:
    """``(line number, source)`` of each python fence in ``text``."""
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in _FENCE.finditer(text)
    ]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_python_blocks_run_in_order(document, tmp_path):
    blocks = python_blocks((ROOT / document).read_text())
    assert blocks, f"{document} has no python blocks"
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _RUNNER, document],
        input=json.dumps(blocks),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{document}: {result.stdout.strip()[-500:]}\n{result.stderr[-3000:]}"
    )


def test_fences_are_found():
    text = (
        "x\n```python\na = 1\n```\n```bash\nls\n```\n"
        "```python\nb = 2\n```\n"
    )
    assert python_blocks(text) == [(2, "a = 1\n"), (8, "b = 2\n")]
