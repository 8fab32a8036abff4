"""One measured process of the benchmark; `run.py` starts it with a pinned environment.

    child.py --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR [--probe] [--cpu K]
             [--start I]

It imports isacsim, resolves the workload's inputs and records the moment it
is ready for the first trial.  With --probe it then computes the workload's
fingerprint output and prints its digest, so the parent can time set-up in
fresh processes and compare output bytes across them.  Otherwise it runs the timed
loop (or, with --trace 1, an untraced half and a traced replay of the same
invocations), checks the outputs and prints one JSON line.  The timed loop
starts at invocation --start, so a run split over several processes keeps
cycling through its inputs where the previous process stopped.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads  # imports isacsim: part of set-up


def timed_loop(work, seconds: float, count=None, start: int = 0) -> list:
    """Invoke from `start` until `seconds` of timed work (or `count` invocations) are done.

    Only the first output of each input is kept whole; later ones keep their digest.
    """
    outcomes, seen, total, index = [], set(), 0.0, start
    while (total < seconds) if count is None else (index < start + count):
        outcome = work.invoke(index)
        outcome.digest = workloads.sha256(outcome.text)
        if outcome.input in seen:
            outcome.text = ""
        seen.add(outcome.input)
        outcomes.append(outcome)
        total += outcome.elapsed
        index += 1
    return outcomes


def repeats_agree(outcomes: list) -> bool:
    """True when every repeat of an input wrote the same bytes."""
    digests = {}
    return all(digests.setdefault(o.input, o.digest) == o.digest for o in outcomes)


def layer_metrics(tracer, traced: list, untraced: list, wall_s: float, threads: int) -> dict:
    from tracing import layer_totals, union_length

    totals = layer_totals(tracer.spans)
    metrics = {}
    for name in workloads.SPEC["predictions"]:
        if name == "cli.pool_busy_frac":
            continue
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = self_s * 1e3
    pool_s = sum(s.end - s.start for s in tracer.spans if s.name == "cli.run_scenario")
    busy_s = sum(sum(o.trial_s) for o in traced)
    metrics["cli.pool_busy_frac"] = busy_s / (pool_s * threads) if pool_s and threads else 0.0
    untraced_s = sum(o.elapsed for o in untraced)
    metrics["trace.overhead"] = sum(o.elapsed for o in traced) / untraced_s - 1.0
    metrics["trace.coverage"] = union_length((s.start, s.end) for s in tracer.spans) / wall_s
    metrics["trace.wall_ms"] = wall_s * 1e3
    metrics["trace.trials"] = sum(o.attempted for o in traced)
    return metrics


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict mode
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    parser.add_argument("--start", type=int, default=0, help="first invocation of the timed loop")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    work = workloads.make(args.workload, args.seed, out_dir)
    ready = time.perf_counter()
    if args.probe:
        print(json.dumps({"ready": ready, "sha": workloads.sha256(work.fingerprint())}))
        return 0

    layers = None
    traced_equal = None
    if args.trace:
        untraced = timed_loop(work, args.seconds / 2)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            outcomes = timed_loop(work, 0.0, count=len(untraced))
        finally:
            wall_s = time.perf_counter() - start
            tracer.uninstall()
        traced_equal = all(a.digest == b.digest for a, b in zip(untraced, outcomes))
        layers = layer_metrics(tracer, outcomes, untraced, wall_s, work.threads)
        tracer.write(out_dir / f"{args.workload}.spans.csv")
    else:
        outcomes = timed_loop(work, args.seconds, start=args.start)

    fingerprint = work.fingerprint()
    reference = work.reference_check(fingerprint, outcomes)
    reference["sha"] = workloads.sha256(fingerprint)
    repeat_equal = repeats_agree(outcomes) and work.repeat_digest(args.start) == outcomes[0].digest
    result = {
        "ready": ready,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
        "windows": [(o.input, o.elapsed, o.trial_s) for o in outcomes],
        "reference": reference,
        "repeat_equal": repeat_equal,
        "traced_equal": traced_equal,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
