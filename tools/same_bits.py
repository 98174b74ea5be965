#!/usr/bin/env python3
"""Check that a change computes the same bits as its parent.

    python3 tools/same_bits.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts; each runs with its own
``src/`` on the path.  Three comparisons:

- Every ``configs/*.ini`` that both checkouts have is run by each with
  ``tamedspde run CONFIG --output DIR``, and once more by CHANGE on two
  worker threads.  The exit codes, the stdout and every output file of each
  CHANGE run must be byte-identical to PARENT's, once the output directory's
  path is replaced by one placeholder (``resolved_config.ini`` and stdout may
  name it).  A CSV that differs is reported with the largest relative
  difference over its numeric fields, or with its row or column counts
  when those differ.  A config that only one checkout has is listed as
  skipped.
- Rounds 0 and 1 of every benchmark workload, at the benchmark's default
  seed, are run by each through its own ``perfbench/workloads.py`` (imported,
  not edited).  The SHA-256 of each round's payload, as sorted JSON, must
  be equal.
- ``tamedspde list-presets``, the one CLI output no config run covers: its
  exit code and stdout must be byte-identical.

Both run at one BLAS thread and, but for the second CHANGE run of each
config, one worker.  Everything is written to a
temporary directory, which is removed at the end.  Exit 0 when every
comparison matched, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PLACEHOLDER = b"<OUTPUT>"

# Runs inside a checkout; prints one "workload round digest" line per round.
PAYLOAD_DIGESTS = """
import hashlib, json
import settings, workloads
for name in sorted(settings.WORKLOADS):
    work = workloads.build(name, settings.DEFAULT_SEED)
    for i in (0, 1):
        payload = work.run_round(i).payload
        blob = json.dumps(payload, sort_keys=True).encode()
        print(name, i, hashlib.sha256(blob).hexdigest(), flush=True)
"""


def child_env(root: Path, workers: int = 1) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave both checkouts as they are
    env["TAMEDSPDE_WORKERS"] = str(workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_config(root: Path, config: Path, out: Path, workers: int):
    """(exit code, stdout with the output path replaced) of one CLI run."""
    proc = subprocess.run(
        [sys.executable, "-m", "tamedspde.cli", "run", str(config), "--output", str(out)],
        cwd=out.parent, env=child_env(root, workers), capture_output=True,
    )
    return proc.returncode, proc.stdout.replace(str(out).encode(), PLACEHOLDER)


def output_files(out: Path) -> dict:
    """{relative path: bytes with the output path replaced} under ``out``."""
    if not out.is_dir():
        return {}
    return {
        str(p.relative_to(out)): p.read_bytes().replace(str(out).encode(), PLACEHOLDER)
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def relative_difference(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def csv_shift(a: bytes, b: bytes) -> str:
    """How two CSV files differ: their row or column counts, else the largest
    relative difference over the numeric fields (and a count of the other
    fields that differ)."""
    rows_a = list(csv.reader(io.StringIO(a.decode())))
    rows_b = list(csv.reader(io.StringIO(b.decode())))
    if len(rows_a) != len(rows_b):
        return f"row count {len(rows_a)} != {len(rows_b)}"
    worst, other = 0.0, 0
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        if len(row_a) != len(row_b):
            return f"column count {len(row_a)} != {len(row_b)} in row {i}"
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                worst = max(worst, relative_difference(float(x), float(y)))
            except ValueError:
                other += 1
    return f"max relative difference {worst:.3g}" + (
        f", {other} non-numeric fields differ" if other else "")


def compare_configs(parent: Path, change: Path, tmp: Path) -> int:
    mismatches = 0
    have = {side: {p.name for p in (root / "configs").glob("*.ini")}
            for side, root in (("parent", parent), ("change", change))}
    for name in sorted(have["parent"] ^ have["change"]):
        print(f"skip  {name}: only in {'parent' if name in have['parent'] else 'change'}")
    names = sorted(have["parent"] & have["change"])
    sides = (("parent", parent, 1), ("change", change, 1), ("change-2-workers", change, 2))
    for name in names:
        runs = {}
        for side, root, workers in sides:
            out = tmp / side / Path(name).stem
            out.parent.mkdir(parents=True, exist_ok=True)
            code, stdout = run_config(root, root / "configs" / name, out, workers)
            runs[side] = (code, stdout, output_files(out))
        code_a, out_a, files_a = runs.pop("parent")
        for side, (code_b, out_b, files_b) in runs.items():
            label = name if side == "change" else f"{name} ({side})"
            if code_a != code_b:
                print(f"DIFF  {label}: exit {code_a} != {code_b}")
                mismatches += 1
            if out_a != out_b:
                print(f"DIFF  {label}: stdout")
                mismatches += 1
            for rel in sorted(set(files_a) | set(files_b)):
                a, b = files_a.get(rel), files_b.get(rel)
                if a == b:
                    print(f"same  {label}: {rel}")
                    continue
                detail = f" ({csv_shift(a, b)})" if rel.endswith(".csv") and a and b else ""
                print(f"DIFF  {label}: {rel}{detail}")
                mismatches += 1
    return mismatches


def compare_list_presets(parent: Path, change: Path, tmp: Path) -> int:
    a, b = (subprocess.run([sys.executable, "-m", "tamedspde.cli", "list-presets"], cwd=tmp,
                           env=child_env(root), capture_output=True)
            for root in (parent, change))
    same = (a.returncode, a.stdout) == (b.returncode, b.stdout)
    print(f"{'same' if same else 'DIFF'}  list-presets")
    return int(not same)


def payload_digests(root: Path, tmp: Path) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", PAYLOAD_DIGESTS], cwd=tmp, env=child_env(root),
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"payload run in {root} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout.split("\n")[:-1]


def compare_payloads(parent: Path, change: Path, tmp: Path) -> int:
    a, b = payload_digests(parent, tmp), payload_digests(change, tmp)
    mismatches = 0
    for line_a, line_b in zip(a, b):
        name, i, digest = line_b.split()
        same = line_a == line_b
        print(f"{'same' if same else 'DIFF'}  payload {name} round {i}: {digest[:16]}")
        mismatches += not same
    return mismatches + (len(a) != len(b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        tmp = Path(tmp)
        mismatches = compare_configs(parent, change, tmp)
        mismatches += compare_payloads(parent, change, tmp)
        mismatches += compare_list_presets(parent, change, tmp)
    print("same bits" if mismatches == 0 else f"{mismatches} mismatches")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
