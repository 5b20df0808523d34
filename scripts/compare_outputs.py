"""Run the same cpls commands in two checkouts and compare what they write.

Usage::

    python scripts/compare_outputs.py <parent-dir> <change-dir> [--work DIR]

Each command runs once per checkout, with that checkout's ``src`` first on
``PYTHONPATH`` and its own output directory under ``--work`` (default: a new
temporary directory):

* ``cpls table1 --reps 2 --threads 2 --seed 7``
* ``cpls experiment --model 2 --y A --n 400 --reps 4 --seed 3 --curves 2``
* ``cpls fit --model 3 --y B --n 400 --seed 2 --dump-design``

Every CSV (the tables, the beams and the dumped design) and
``fit_meta.json`` must be byte-identical. The other meta JSON files must be
equal apart from ``wall_s``, the one timing they hold. The script prints
one line per file and exits with status 1 if any file differs or is written
by one checkout only. It checks a change that claims to keep every output
byte; it is not a test, because a change may instead state a tolerance.
Given one checkout twice (``python scripts/compare_outputs.py . .``), it
checks that reruns write the same bytes, as CI does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "table1": ["table1", "--reps", "2", "--threads", "2", "--seed", "7"],
    "experiment": ["experiment", "--model", "2", "--y", "A", "--n", "400", "--reps", "4",
                   "--seed", "3", "--curves", "2"],
    "fit": ["fit", "--model", "3", "--y", "B", "--n", "400", "--seed", "2", "--dump-design"],
}

#: Keys of a meta JSON that hold timings, not results.
TIMING_KEYS = ("wall_s",)


def run(checkout: Path, args: list[str], out: Path) -> None:
    env = dict(os.environ)
    src = str(checkout.resolve() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out.mkdir(parents=True)
    subprocess.run([sys.executable, "-m", "cpls.cli", *args, "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def compare(a: Path, b: Path) -> tuple[bool, str]:
    """Whether the two files agree, and how."""
    if a.suffix == ".json" and a.name != "fit_meta.json":
        meta_a, meta_b = (json.loads(p.read_text()) for p in (a, b))
        for meta in (meta_a, meta_b):
            for key in TIMING_KEYS:
                meta.pop(key, None)
        keys = sorted(k for k in meta_a.keys() | meta_b.keys() if meta_a.get(k) != meta_b.get(k))
        return (False, f"keys {keys} differ") if keys else (True, f"equal apart from {', '.join(TIMING_KEYS)}")
    if a.read_bytes() == b.read_bytes():
        return True, "byte-identical"
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    for n, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return False, f"line {n}: {x!r} != {y!r}"
    return False, f"{len(lines_a)} lines against {len(lines_b)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, help="directory for the outputs (default: a new temporary one)")
    args = parser.parse_args()
    work = args.work or Path(tempfile.mkdtemp(prefix="cpls-compare-"))
    bad = 0
    for name, command in COMMANDS.items():
        dirs = [work / side / name for side in ("parent", "change")]
        for checkout, out in zip((args.parent, args.change), dirs):
            run(checkout, command, out)
        files = sorted({p.name for d in dirs for p in d.iterdir()})
        for file in files:
            a, b = (d / file for d in dirs)
            if a.exists() and b.exists():
                ok, how = compare(a, b)
            else:
                ok, how = False, f"written by the {'parent' if a.exists() else 'change'} only"
            bad += not ok
            print(f"{name}/{file}: {how}")
    print(f"{bad} file(s) differ; outputs in {work}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
