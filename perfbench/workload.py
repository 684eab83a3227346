"""One workload in one process: set-up, then a closed loop of timed rounds.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 [--quick] [--setup-only]

perfbench/run.py starts this process and reads the JSON object it prints
as its last line.  Set-up is everything before the first timed item:
interpreter start, imports, input generation and one untimed warm-up
item; the process reports the CLOCK_MONOTONIC time at which it ended.
One caller runs the items one after another, in whole rounds, until
less than half a round of --seconds is left.  With --trace 1 the rounds alternate between
untraced and traced, so the tracing overhead compares rounds of one
process.  Spans are written to perfbench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _run_item(item, tracer, item_id):
    """(output or None, seconds, error text or None) of one item."""
    tracer.item = item_id
    t0 = time.perf_counter()
    try:
        out = item.run()
        err = None
    except Exception:  # a failed item is counted; the loop keeps going
        out, err = None, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    tracer.item = None
    return out, elapsed, err


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one small round (tests)")
    ap.add_argument("--setup-only", action="store_true", help="stop before the first timed item")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import fctk

    if Path(fctk.__file__).resolve().parent != SRC / "fctk":
        raise SystemExit(f"fctk imported from {fctk.__file__}, not from {SRC}")
    import mpmath
    import numpy
    import scipy

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    tracer = tracing.Tracer()
    problems: list[str] = []
    out, _, err = _run_item(wl.warmup, tracer, None)
    if err:
        problems.append(f"warm-up item failed:\n{err}")
    else:
        problems += wl.warmup.check(out)
    first_item_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_item_at": first_item_at, "problems": problems}))
        return 0

    kinds = [item.kind for item in wl.items]
    item_kinds: dict[str, str] = {}
    rounds = []  # {"wall_s", "traced", "work"}
    item_s: list[float] = []  # untraced items only
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        first_span = len(tracer.spans)
        tracer.counted.clear()
        tracer.install(timing=traced)
        outs = []
        t_round = time.perf_counter()
        try:
            for k, item in enumerate(wl.items):
                item_id = f"{index}:{k}"
                item_kinds[item_id] = item.kind
                out, elapsed, err = _run_item(item, tracer, item_id)
                attempted += 1
                if err:
                    failed += 1
                    sys.stderr.write(f"item {item_id} ({item.kind}) failed:\n{err}")
                elif not traced:
                    item_s.append(elapsed)
                outs.append(out)
            wall = time.perf_counter() - t_round
            if traced:
                for k, (label, run) in enumerate(wl.after_traced_round):
                    item_kinds[f"{index}:{label}:{k}"] = label
                    tracer.item = f"{index}:{label}:{k}"
                    run()
                    tracer.item = None
        finally:
            tracer.uninstall()
        for item, out in zip(wl.items, outs):
            if out is not None:
                problems += item.check(out)
        problems += wl.round_check(outs)
        work: dict = {}
        for item in wl.items:
            for key, value in item.work.items():
                work[key] = work.get(key, 0) + value
        calls = tracer.counted if not traced else [
            (s[0], s[5]) for s in tracer.spans[first_span:]
            if not item_kinds[s[4]].startswith("extra.")
        ]
        work.update(tracing.call_counts(calls))
        rounds.append({"wall_s": wall, "traced": traced, "work": work})
        # a round that would end more than half its length past the deadline
        # is not started, so a run measures about --seconds, in whole rounds
        if time.perf_counter() + wall / 2 >= deadline and (not args.trace or len(rounds) >= 2):
            break

    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    result = {
        "first_item_at": first_item_at,
        "rounds": rounds,
        "item_ms": [s * 1e3 for s in item_s],
        "item_kinds": sorted(set(kinds)),
        "items_per_round": len(kinds),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
        },
        "work_repeats": all(r["work"] == rounds[0]["work"] for r in rounds),
    }
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        layers = tracing.layer_metrics(tracer.spans, len(traced_rounds), item_kinds)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["wall_s"] for r in traced_rounds) / statistics.median(plain) - 1.0
        )
        result["per_layer"] = {
            name: {"value": value, "unit": tracing.UNITS[name]} for name, value in layers.items()
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "attrs"],
                       "item_kinds": item_kinds, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
