"""The README's documented library API, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    exec(compile(block, f"{README}:Library use", "exec"), {"__name__": "readme"})
    assert "DimPair(" in capsys.readouterr().out
