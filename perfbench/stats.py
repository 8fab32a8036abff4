"""Pure-Python helpers of the benchmark: percentiles, fastest repeats, reference comparison.

Nothing here imports NumPy or isacsim, so the parent process and the helper
tests stay light.
"""

import csv
import io
import json
import math

# The tail percentile reported, and the samples it needs beyond it.
TAIL_PERCENTILE = 90.0
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0..100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Number of the n samples that lie above the q-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def best_per_input(windows) -> tuple:
    """One window built from the fastest repeat of each part of each input.

    `windows` holds (input, elapsed seconds, trial times) triples; every window
    of an input runs the same trials in the same order.  Per input, only the
    windows holding all its trials count (a failed trial is left out of its
    window).  The trial times are each trial's fastest time; the elapsed time
    adds to them, per input, the fastest time spent outside its trials
    (config resolution, scheduling, aggregation, output emission).
    """
    by_input = {}
    for key, elapsed, times in windows:
        by_input.setdefault(key, []).append((elapsed, times))
    total, best = 0.0, []
    for repeats in by_input.values():
        n = max(len(times) for _, times in repeats)
        if n == 0:
            continue  # every repeat failed: no trial of this input is timed
        full = [(elapsed, times) for elapsed, times in repeats if len(times) == n]
        fastest = [min(column) for column in zip(*(times for _, times in full))]
        total += sum(fastest) + min(elapsed - sum(times) for elapsed, times in full)
        best.extend(fastest)
    return (total, best)


def median(values) -> float:
    return percentile(values, 50.0)


def summarize(windows) -> dict:
    """Throughput and per-trial percentiles over (elapsed seconds, trial times) windows."""
    trial_ms = [t * 1e3 for _, times in windows for t in times]
    elapsed = sum(e for e, _ in windows)
    return {
        "windows": len(windows),
        "samples": len(trial_ms),
        "trials_per_s": len(trial_ms) / elapsed if elapsed else 0.0,
        "trial_ms_p50": percentile(trial_ms, 50.0) if trial_ms else 0.0,
        "trial_ms_p90": percentile(trial_ms, TAIL_PERCENTILE) if trial_ms else 0.0,
        "beyond_p90": samples_beyond(len(trial_ms), TAIL_PERCENTILE),
    }


def parse_records(text: str, fmt: str) -> dict:
    """Map (param_value, trial, metric) to value for CLI output in `fmt`."""
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    elif fmt == "json":
        rows = json.loads(text)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    records = {}
    for row in rows:
        key = (float(row["param_value"]), str(row["trial"]), row["metric"])
        if key in records:
            raise ValueError(f"duplicate output record {key}")
        records[key] = float(row["value"])
    return records


def within(value: float, ref: float, rtol: float, atol: float) -> bool:
    """True when value is finite and within atol + rtol*|ref| of ref."""
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def relative_difference(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / max(abs(ref), 1e-300)


def compare_records(ref: dict, new: dict, rtol: float, atol: float) -> dict:
    """Compare two record maps keyed by (point, trial, metric).

    Returns the keys missing on either side, the trial keys (point, trial)
    holding a value outside tolerance, whether a summary row (a key whose trial
    is not a number, such as mean or std) is outside tolerance, and the largest
    relative difference over all shared keys.
    """
    missing = sorted(set(ref) ^ set(new), key=repr)
    failed_trials = set()
    summary_failed = False
    max_rel = 0.0
    for key in set(ref) & set(new):
        max_rel = max(max_rel, relative_difference(new[key], ref[key]))
        if not within(new[key], ref[key], rtol, atol):
            if key[1].isdigit():
                failed_trials.add(key[:2])
            else:
                summary_failed = True
    return {
        "missing": missing,
        "failed_trials": failed_trials,
        "summary_failed": summary_failed,
        "max_rel_diff": max_rel,
    }
