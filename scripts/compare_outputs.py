"""Run the same cpls commands in two checkouts and compare what they write.

Usage::

    python scripts/compare_outputs.py <parent-dir> <change-dir> [--work DIR]

Each command runs once per checkout, with that checkout's ``src`` first on
``PYTHONPATH`` and its own output directory under ``--work`` (default: a new
temporary directory):

* ``cpls table1 --reps 2 --threads 2 --seed 7``
* ``cpls experiment --model 2 --y A --n 400 --reps 4 --seed 3 --curves 2``
* ``cpls experiment --model 3 --y B --n 200 --reps 3 --seed 3 --cutoff 1e-30
  --curves 1``
* ``cpls experiment --model 3 --y B --n 1000 --reps 2 --seed 5 --curves 1``
* ``cpls experiment --model 1 --y A --n 300 --reps 2 --seed 3``
* ``cpls fit --model 3 --y B --n 400 --seed 2 --dump-design``
* ``cpls fit --model 3 --y B --n 400 --seed 2 --basis-phi laguerre
  --basis-psi trig-noconst --stability theoretical --r 0.1 --dump-design``

The second experiment admits no pair, so every repetition is truncated and
its MSE columns are the zero fit's box errors. The third scans designs that
the pass trimmed to the rows its admissible pairs reach (see
``cpls.design``), and writes their MSE columns, oracle choices and beams,
which ``table1`` only summarizes. The fourth streams N = 300 paths,
a multiple of neither the 16-path block nor the 256-path chunk of
``cpls.simulate.PathStream``, so its design pass crosses a chunk edge
and ends in a short block of a short chunk. The last command runs what
the protocol never does: the theoretical stability event, with the sup-norm
bounds of both families, at every step of the staircase walk, the Laguerre
rows and a zero constraint vector.

Every CSV (the tables, the beams and the dumped design) must be
byte-identical, and every meta JSON file equal apart from ``wall_s``, the
one timing they hold. The script prints one line per file and exits with
status 1 if any file differs or is written by one checkout only. For a file
that differs it also prints two figures over its differing float cells
(JSON values, lists and objects unpacked): the largest relative difference,
and the largest difference scaled by the largest |value| in the cell's
column (for JSON, in its top-level key). The second has the column's scale
as its floor, so a coefficient that is 0 in exact arithmetic, printed as 0
by one side and 1e-18 by the other, reads as 1e-18 of its column and not
as 1 relative. It then lists every other differing cell (value): a
dimension, ``failed`` or ``truncated`` cell, a NaN against a number, or a
key that one side lacks. So a change that states a tolerance instead of
keeping every byte reads that tolerance off this script. Given one checkout
twice (``python scripts/compare_outputs.py . .``), it checks that reruns
write the same bytes, as CI does.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "table1": ["table1", "--reps", "2", "--threads", "2", "--seed", "7"],
    "experiment": ["experiment", "--model", "2", "--y", "A", "--n", "400", "--reps", "4",
                   "--seed", "3", "--curves", "2"],
    "experiment-truncated": ["experiment", "--model", "3", "--y", "B", "--n", "200", "--reps", "3",
                             "--seed", "3", "--cutoff", "1e-30", "--curves", "1"],
    "experiment-trimmed": ["experiment", "--model", "3", "--y", "B", "--n", "1000", "--reps", "2",
                           "--seed", "5", "--curves", "1"],
    "experiment-chunked": ["experiment", "--model", "1", "--y", "A", "--n", "300", "--reps", "2",
                           "--seed", "3"],
    "fit": ["fit", "--model", "3", "--y", "B", "--n", "400", "--seed", "2", "--dump-design"],
    "fit-theoretical": ["fit", "--model", "3", "--y", "B", "--n", "400", "--seed", "2",
                        "--basis-phi", "laguerre", "--basis-psi", "trig-noconst",
                        "--stability", "theoretical", "--r", "0.1", "--dump-design"],
}

#: Keys of a meta JSON that hold timings, not results.
TIMING_KEYS = ("wall_s",)
#: The value of a key that one meta JSON lacks.
ABSENT = "<absent>"


def run(checkout: Path, args: list[str], out: Path) -> None:
    env = dict(os.environ)
    src = str(checkout.resolve() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out.mkdir(parents=True)
    subprocess.run([sys.executable, "-m", "cpls.cli", *args, "--out", str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def _is_integer(value) -> bool:
    if isinstance(value, str):
        try:
            int(value)
            return True
        except ValueError:
            return False
    return isinstance(value, int)


def _float(value) -> float | None:
    """The value as a finite float, or None for a bool, a NaN or a non-number."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        return None
    return float(value)


def _column_scales(cells) -> dict:
    """The largest |value| over the finite float cells of each column, from
    ``(column, value)`` pairs."""
    scales: dict = {}
    for column, value in cells:
        f = _float(value)
        if f is not None:
            scales[column] = max(scales.get(column, 0.0), abs(f))
    return scales


def _differences(pairs, scales: dict) -> str:
    """How the differing ``(where, column, x, y)`` pairs differ: over those
    that are both finite floats, the largest relative difference and the
    largest difference scaled by ``scales[column]``; then the others."""
    rel = col = (0.0, None)
    others = []
    for where, column, x, y in pairs:
        fx, fy = _float(x), _float(y)
        if fx is None or fy is None or (_is_integer(x) and _is_integer(y)):
            others.append(f"\n    {where}: {x!r} != {y!r}")
            continue
        diff = abs(fx - fy)
        # scales[column] >= max(|fx|, |fy|), so neither scale is 0 when diff is not.
        sizes = (diff / max(abs(fx), abs(fy)), diff / scales[column]) if diff else (0.0, 0.0)
        if rel[1] is None or sizes[0] > rel[0]:
            rel = (sizes[0], where)
        if col[1] is None or sizes[1] > col[0]:
            col = (sizes[1], where)
    how = f"{len(pairs)} value(s) differ"
    if rel[1] is not None:
        how += (f"; float values by at most {rel[0]:.2g} relative ({rel[1]}) and "
                f"{col[0]:.2g} of their column's largest |value| ({col[1]})")
    if others:
        how += f"; {len(others)} other(s):" + "".join(others)
    return how


def _leaves(value, where: str):
    """``(where, value)`` of every scalar in a JSON value, lists and objects unpacked."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def compare(a: Path, b: Path) -> tuple[bool, str]:
    """Whether the two files agree, and how."""
    if a.suffix == ".json":
        meta_a, meta_b = (json.loads(p.read_text()) for p in (a, b))
        for meta in (meta_a, meta_b):
            for key in TIMING_KEYS:
                meta.pop(key, None)
        pairs, cells = [], []
        for key in sorted(meta_a.keys() | meta_b.keys()):
            leaves_a, leaves_b = (dict(_leaves(meta.get(key, ABSENT), key)) for meta in (meta_a, meta_b))
            cells += [(key, value) for leaves in (leaves_a, leaves_b) for value in leaves.values()]
            pairs += [(where, key, leaves_a.get(where, ABSENT), leaves_b.get(where, ABSENT))
                      for where in [*leaves_a, *(w for w in leaves_b if w not in leaves_a)]]
        pairs = [pair for pair in pairs if pair[2] != pair[3]]
        if not pairs:
            return True, f"equal apart from {', '.join(TIMING_KEYS)}"
        return False, _differences(pairs, _column_scales(cells))
    if a.read_bytes() == b.read_bytes():
        return True, "byte-identical"
    rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return False, f"{len(rows_a)} rows against {len(rows_b)}, or rows of other lengths"
    header = rows_a[0] if all(_float(c) is None for c in rows_a[0]) and rows_a[0] == rows_b[0] else None
    pairs = [
        (f"line {n}, {header[j] if header else f'column {j + 1}'}", j, x, y)
        for n, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1)
        for j, (x, y) in enumerate(zip(row_a, row_b))
        if x != y
    ]
    scales = _column_scales((j, cell) for row in rows_a + rows_b for j, cell in enumerate(row))
    return False, _differences(pairs, scales)


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
