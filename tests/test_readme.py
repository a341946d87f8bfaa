"""The README's library quick start runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code():
    """The first ```python block under "## Library quick start"."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    residual, l2 = map(float, capsys.readouterr().out.split())
    assert residual <= 1e-9
    assert l2 >= 0.0
