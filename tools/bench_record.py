#!/usr/bin/env python3
"""Write the checked-in perf record of one checkout.

    python3 tools/bench_record.py OUT.json

Run from the root of a checkout.  Per benchmark workload it runs
``perfbench/run.py`` ``RUNS`` times at ``--trace 0`` and once at
``--trace 1``, each for ``SECONDS``, then runs
``pytest tests/test_acceptance.py --durations=0`` once.  The run count and
length are fixed so that records of different revisions compare by diff.
OUT then holds:

- per workload, the median and interquartile range over the untraced runs
  of each end-to-end metric, with every run's value and whether every run's
  check passed;
- the per-layer metrics of the traced run, with the known distortions of
  some of them noted next to their names (``LAYER_NOTES``);
- the host stamp (revision, CPU count, versions, worker and BLAS threads),
  copied from the stamped result file that ``perfbench/run.py`` writes into
  ``.bench_results/``, and whether ``src/`` and ``perfbench/`` matched that
  revision (``committed``; false means the numbers are of uncommitted code);
- the seconds of each acceptance criterion (setup, call and teardown).

Nothing under ``perfbench/`` is edited.  On a 2-vCPU host the whole record
takes about 10 minutes.  Exit 0 when every run's check
passed and every acceptance criterion passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS, SECONDS = 3, 30  # untraced runs per workload; seconds per run
WORKLOADS = ("ladder-tau", "ladder-h-fine", "longrun-ensemble")
STAMP_KEYS = ("git_revision", "source_sha256", "nproc", "versions", "TAMEDSPDE_WORKERS",
              "blas_threads", "seed")

# Per-layer metrics whose figures do not read as their names say.
LAYER_NOTES = {
    "engine.advance_us_per_row": "a stacked ladder row (all chains of one ratio, e.g. "
                                 "4338 nodes on ladder-h-fine) counts as one row",
    "coefficients.eval_us_per_row": "a stacked ladder row counts as one row",
    "fem.resolvent_us_per_row": "a stacked ladder row counts as one row",
    "engine.step_overhead_us_per_row": "a stacked ladder row counts as one row",
    "engine.norms_us_per_call": "per call, not per path; a call reduces a whole block",
    "noise.synth_us_per_row": "per block step, not per row: on longrun-ensemble a call "
                              "synthesizes a block of 8 steps of a slice's rows; a "
                              "ladder's own synthesis is not spanned: it lands in "
                              "convergence.self_s, and this reads 0 on the ladders",
    "noise.draw_calls": "on longrun-ensemble, one call per 8-step block of a slice's "
                        "rows, as on the ladders",
    "noise.draw_us_per_call": "on longrun-ensemble, one call draws an 8-step block of "
                              "a slice's rows",
    "parallel.chunks": "on a ladder, counts path slices, not 25-path chunks",
}


def quartiles(values: list) -> tuple:
    """(median, interquartile range)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def bench_run(workload: str, trace: int) -> tuple:
    """(result, stamp) of one ``perfbench/run.py`` run: its JSON line, and
    the stamped copy it wrote, found by the run's process id."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"perfbench/run.py --workload {workload} exited {proc.returncode}")
    stamps = sorted((ROOT / ".bench_results").glob(
        f"{workload}_seed*_trace{trace}_*_{proc.pid}.json"))
    stamp = json.loads(stamps[-1].read_text())
    return json.loads(out.strip().splitlines()[-1]), stamp


def acceptance_seconds() -> tuple:
    """({criterion test: seconds}, passed) of one acceptance run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "--durations=0"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    seconds = {}
    for m in re.finditer(r"^([\d.]+)s (?:setup|call|teardown)\s+\S+::(\w+)", proc.stdout, re.M):
        seconds[m.group(2)] = round(seconds.get(m.group(2), 0.0) + float(m.group(1)), 2)
    return dict(sorted(seconds.items())), proc.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="the record to write, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    committed = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src", "perfbench"],
                               cwd=ROOT).returncode == 0
    record, ok = {"seconds_per_run": SECONDS, "workloads": {}}, True
    for workload in WORKLOADS:
        runs = [bench_run(workload, 0) for _ in range(RUNS)]
        traced, stamp = bench_run(workload, 1)
        record.setdefault("host", dict({k: stamp[k] for k in STAMP_KEYS}, committed=committed))
        end_to_end = {}
        for name, metric in runs[0][0]["metrics"].items():
            values = [result["metrics"][name]["value"] for result, _ in runs]
            median, iqr = quartiles(values)
            end_to_end[name] = {"median": median, "iqr": iqr, "unit": metric["unit"],
                                "runs": values}
        correct = [result["correct"] for result, _ in runs] + [traced["correct"]]
        ok &= all(correct)
        record["workloads"][workload] = {
            "correct": correct,
            "end_to_end": end_to_end,
            "per_layer": {name: dict(metric, **({"note": LAYER_NOTES[name]}
                                                if name in LAYER_NOTES else {}))
                          for name, metric in traced["metrics"].items()},
        }
        print(workload, {k: round(v["median"], 4) for k, v in end_to_end.items()}, flush=True)
    record["acceptance_seconds"], passed = acceptance_seconds()
    record["acceptance_passed"] = passed
    ok &= passed
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
