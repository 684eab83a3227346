"""Run one fctk benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig1|zeros|spectra|oracles
        --seed N --seconds S --trace 0|1 [--quick]

Run it from anywhere inside a checkout of the repository; it measures the
fctk under src/ of that checkout.  The workload runs in its own process
(perfbench/workload.py), one caller, items one after another.  With
--trace 0 the last line of standard output carries the end-to-end
metrics: wall_s (median time of a whole round, the workload's fixed item
set), item_ms_p50 (median item time), setup_s (median, over the measured
process and SETUP_PROBES processes that stop after set-up, of the time
from process start to the first timed item) and peak_rss_mb (of the
measured process).  With --trace 1 it carries the per-layer metrics of a
traced run instead.  Details of every run, work counts included, go to
perfbench/out/.  The exit code is 0 when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("fig1", "zeros", "spectra", "oracles")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)  # workload.py puts this checkout's src/ first
    return env


def _spawn(args, deadline: float, setup_only: bool):
    """Run workload.py once; return (its JSON result, monotonic start time)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="one small round, no set-up probes")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "fctk" / "__init__.py").is_file():
        sys.stderr.write(f"no fctk sources under {ROOT / 'src'}\n")
        return 2
    try:
        result, started = _spawn(args, deadline, setup_only=False)
        setups = [result["first_item_at"] - started]
        problems = list(result["problems"])
        for _ in range(0 if args.trace or args.quick else SETUP_PROBES):
            probe, started = _spawn(args, deadline, setup_only=True)
            setups.append(probe["first_item_at"] - started)
            problems += probe["problems"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    plain = [r["wall_s"] for r in result["rounds"] if not r["traced"]]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "item_ms_p50": {"value": statistics.median(result["item_ms"]), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    if not result["work_repeats"]:
        problems.append("work counts differ between rounds of one run")
    correct = not problems
    for text in problems:
        sys.stderr.write(f"check failed: {text}\n")

    OUT.mkdir(exist_ok=True)
    record = dict(result, setups_s=setups, metrics=metrics, correct=correct,
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, quick=args.quick, nproc=os.cpu_count(),
                  blas_threads=int(BLAS_THREADS))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"work per round: {json.dumps(result['rounds'][0]['work'])}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
