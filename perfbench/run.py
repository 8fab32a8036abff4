"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.json, or `all` to run
each in turn.  Every measured process is a fresh child (child.py) with BLAS
and OpenMP pinned to one thread and isacsim imported from ./src.  With
--trace 0 the last line of standard output is one JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics from a traced run.  The lines before it give the environment, every
metric with its unit and the result of each output check.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
TIME_LIMIT_S = 170.0  # the whole run, set-up probes included, stays under three minutes
REPLICAS = 2


class BenchError(Exception):
    """The benchmark could not produce a result."""


def metric_units(trace: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SPEC["pinned_env"])
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_children(arg_lists: list, deadline: float) -> list:
    """Run child.py once per argument list, all at once, and parse each result.

    Set-up time is counted from just before the spawn to the child's ready mark.
    """
    start = time.perf_counter()
    if deadline <= start:
        raise BenchError("time limit reached before all processes ran")
    procs = [subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], env=child_env(),
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for args in arg_lists]
    try:
        outputs = [p.communicate(timeout=max(deadline - time.perf_counter(), 0.01)) for p in procs]
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured process exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()
    results = []
    for p, (stdout, stderr) in zip(procs, outputs):
        if p.returncode != 0:
            tail = (stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError(f"measured process exited with code {p.returncode}: {tail}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["setup_s"] = out["ready"] - start
        results.append(out)
    return results


def cpu_list() -> list:
    return sorted(os.sched_getaffinity(0))[:REPLICAS] if hasattr(os, "sched_getaffinity") else []


def pin(cpu) -> list:
    return [] if cpu is None else ["--cpu", str(cpu)]


def replica_cpus(trace: int) -> list:
    """CPUs for concurrent replicas of a timed run; [None] for one unpinned run.

    Each CPU of a shared host is slowed by other tenants for seconds at a time.
    Replicas run the same inputs, and their repeats are pooled before the
    fastest are taken, so one slowed CPU does not set the figures.  Over five
    seeds per workload, two pinned replicas gave IQR/median spreads of 0.05 to
    0.13 against 0.05 to 0.24 for one unpinned process.
    """
    cpus = cpu_list()
    return [None] if trace or len(cpus) < 2 else cpus


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float):
    """Measure one workload; return (lines to print, result object).

    A timed run is split into segments of equal length, each a fresh set of
    replicas that carries on through the inputs where its predecessor stopped.
    Set-up probes run one at a time before every segment and after the last,
    alternating CPUs, so their median spans the whole run: the host's speed
    drifts by a fifth over tens of seconds, and probes taken at one moment
    followed it.
    """
    common = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    cpus = cpu_list() or [None]
    segments = 1 if trace else SPEC["segments"]
    replicas = replica_cpus(trace)
    starts = [0] * len(replicas)
    probes, mains = [], []

    def probe_round():
        for _ in range(0 if trace else SPEC["setup_probes"]):
            probes.append(run_children([[*common, "--seconds", str(seconds), "--out-dir",
                                         str(OUT_DIR / "probe"), "--probe",
                                         *pin(cpus[len(probes) % len(cpus)])]], deadline)[0])

    for _ in range(segments):
        probe_round()
        batch = run_children(
            [[*common, "--seconds", str(seconds / segments), "--start", str(starts[i]),
              "--out-dir", str(OUT_DIR / f"replica{i}"), *pin(cpu)]
             for i, cpu in enumerate(replicas)], deadline)
        starts = [start + len(m["windows"]) for start, m in zip(starts, batch)]
        mains.extend(batch)
    probe_round()
    refs = [m["reference"] for m in mains]

    digests = {p["sha"] for p in probes} | {r["sha"] for r in refs}
    checks = {
        "stored reference has the same records":
            all(r["missing"] == 0 and not r["summary_failed"] for r in refs),
        "same bytes in every process": len(digests) == 1,
        "same bytes on a repeat": all(m["repeat_equal"] for m in mains),
    }
    if trace:
        checks["traced bytes equal untraced bytes"] = mains[0]["traced_equal"]
    attempted = sum(m["attempted"] + m["reference"]["attempted"] for m in mains)
    failed = sum(m["failed"] + m["reference"]["failed"] for m in mains)
    if not all(checks.values()):
        failed = attempted  # a run-level failure fails every trial of the run

    if trace:
        values, summaries = mains[0]["layers"], ()
    else:
        windows = [w for m in mains for w in m["windows"]]
        fast = stats.summarize([stats.best_per_input(windows)])
        whole = stats.summarize([(elapsed, times) for _, elapsed, times in windows])
        summaries = (("fastest repeats", fast), ("whole run", whole))
        values = {
            "trials_per_s": fast["trials_per_s"],
            "trial_ms_p50": fast["trial_ms_p50"],
            "trial_ms_p90": fast["trial_ms_p90"],
            "setup_s": stats.median([p["setup_s"] for p in probes]),
            "peak_rss_mb": max(m["peak_rss_mb"] for m in mains),
        }
    units = metric_units(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"measured process did not report {missing}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}

    env = dict(mains[0]["env"], nproc=os.cpu_count(), pinned=SPEC["pinned_env"],
               replicas=len(replicas), segments=segments, setup_probes=len(probes))
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}",
             f"  environment {json.dumps(env, sort_keys=True)}"]
    for key, metric in metrics.items():
        lines.append(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    lines.append(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ({failed}/{attempted} trials)")
    for label, part in summaries:
        lines.append(
            f"  {label}: {part['samples']} trials, {part['trials_per_s']:.6g} trials/s, "
            f"p50 {part['trial_ms_p50']:.6g} ms, p90 {part['trial_ms_p90']:.6g} ms "
            f"({part['beyond_p90']} trials beyond p90)")
    if probes:
        setups = sorted(p["setup_s"] for p in probes)
        lines.append(f"  set-up probes: {len(setups)}, fastest {setups[0]:.6g} s, "
                     f"slowest {setups[-1]:.6g} s")
    for check, ok in checks.items():
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    ref = refs[0]
    if ref["bytes_equal"]:
        lines.append("  bytes equal to the stored reference")
    else:
        lines.append(f"  bytes differ from the stored reference; {ref['failed']} trials outside "
                     f"tolerance, largest relative difference {ref['max_rel_diff']:.3e}")
    lines.extend(f"  error {err}" for m in mains for err in m["errors"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    names = sorted(SPEC["workloads"])
    parser = argparse.ArgumentParser(description="isacsim benchmark")
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "isacsim" / "__init__.py").is_file():
        print(f"error: no isacsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in chosen:
            deadline = time.perf_counter() + TIME_LIMIT_S
            lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
