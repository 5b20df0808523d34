"""The README's documented library API, run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: The names the "Library use" block imports from the top level, plus the version.
DOCUMENTED = ("GridSpec", "HERMITE", "SelectionConfig", "explanatory_by_name", "generate_sample",
              "make_model", "select_adaptive", "__version__")


def test_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    exec(compile(block, f"{README}:Library use", "exec"), {"__name__": "readme"})
    assert "DimPair(" in capsys.readouterr().out


def test_import_reaches_only_the_documented_api():
    # A fresh interpreter, as this one has loaded every module for the tests:
    # `import cpls` resolves the documented names and loads neither the
    # Monte-Carlo harness nor the command line.
    env = dict(os.environ)
    src = str(README.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (f"import sys, cpls; [getattr(cpls, name) for name in {DOCUMENTED!r}]; "
            "print(sorted({'cpls.experiments', 'cpls.cli'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
