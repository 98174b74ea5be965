"""Benchmark of the tamedspde solvers: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout; nothing is installed.  Each run starts fresh interpreters:
``SETUP_SAMPLES - 1`` that only set up (for the median ``setup_s``), then
one that sets up and runs whole rounds of the workload for ``S`` seconds
and checks what they computed.  ``--trace 0`` prints the end-to-end
metrics, with times scaled to the reference machine's speed by the
calibration kernel timed between rounds (``calibrate.py``), ``--trace 1`` the per-layer ones.  The last line of stdout is one
JSON object; a stamped copy, and the spans of a traced run, go to
``.bench_results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
import settings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_results")
CHILD_TIMEOUT_S = 150  # a run must end within 180 s


def child_env(workers: int, blas_threads: int) -> dict:
    env = dict(os.environ)
    env["TAMEDSPDE_WORKERS"] = str(workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_child(extra: list, env: dict, timeout: float) -> dict:
    """Start measure.py, wait for it, and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), *extra]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """SHA-256 over src/ — identifies the code measured when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(child: dict, setup_samples: list, setup_cals: list) -> dict:
    """The end-to-end metrics; times are at the reference machine's speed.

    See calibrate.py: each round's wall time, and each set-up time, is scaled
    by the reference time of the calibration kernel over its time around it.
    """
    walls = calibrate.normalised_rounds(child["walls"], child["cals"])
    setups = [calibrate.at_reference_speed(s, c) for s, c in zip(setup_samples, setup_cals)]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "path_steps_per_s": (child["path_steps_per_round"] / statistics.median(walls), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(settings.WORKLOADS))
    ap.add_argument("--seed", type=int, default=settings.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--workers", type=int, default=None,
        help="override the workload's TAMEDSPDE_WORKERS (for a scaling baseline)",
    )
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "tamedspde", "__init__.py")):
        print(f"no package source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    spec = settings.WORKLOADS[args.workload]
    workers = spec["workers"] if args.workers is None else max(1, args.workers)
    env = child_env(workers, spec["blas_threads"])
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS,
        f"{args.workload}_seed{args.seed}_trace{args.trace}_"
        f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}_{os.getpid()}",
    )

    setup_samples, setup_cals = [], []
    if not args.trace:
        for _ in range(settings.SETUP_SAMPLES - 1):
            child = run_child([*common, "--seconds", "0", "--setup-only"], env, 60)
            setup_samples.append(child["setup_s"])
            setup_cals.append(child["setup_cal"])
    extra = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", stem + ".spans.npz"]
    child = run_child(extra, env, CHILD_TIMEOUT_S)
    setup_samples.append(child["setup_s"])
    setup_cals.append(child["setup_cal"])

    if args.trace:
        metrics = child["layer"]
    else:
        metrics = {
            k: {"value": v, "unit": u}
            for k, (v, u) in end_to_end(child, setup_samples, setup_cals).items()
        }
    correct = not child["check_failures"]
    result = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "versions": child["versions"],
        "TAMEDSPDE_WORKERS": workers,
        "blas_threads": spec["blas_threads"],
        "rounds": len(child["walls"]),
        "round_walls_s": child["walls"],
        "round_cpu_s": child["cpus"],
        "calibration_s": child["cals"],
        "setup_calibration_s": setup_cals,
        "round_traced": child["traced"],
        "setup_samples_s": setup_samples,
        "paths_attempted": child["attempted"],
        "paths_failed": child["failed"],
        "check": child["check"],
        "check_failures": child["check_failures"],
        "spans": child.get("spans"),
        "result": result,
    }
    with open(stem + ".json", "w") as f:
        json.dump(stamp, f, indent=1)
    for msg in child["check_failures"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
