"""Command-line scenario runner: Monte-Carlo sweeps with machine-readable output.

A scenario is described by a JSON config (fields of ScenarioConfig) which
individual CLI flags may override.  Each trial draws its instance once from a
counter-based (seed, trial) stream and evaluates every sweep point on it, so
outputs are byte-identical across runs and thread counts.
"""

import argparse
import contextlib
import json
import math
import numbers
import os
import re
import sys
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .capacity import _mi_bits, comm_capacity
from .channel import ArrayGeometry, NoiseSpec, build_dictionary
from .estimation import (GridPath, _add_noise, _estimate_paths, _probe_gains, _scratch, random_probes,
                         synthesize_observations, write_observations)
from .precoding import shift_schedule, zf_scanning_precoder
from .rng import complex_normals, philox_stream
from .sensing import optimal_sensing_waveform, sensing_capacity
from .waveform import ConvergenceError, _pareto_scorer

MAX_THREADS = 256  # the pool starts up to this many OS threads
BLOCK_TRIALS = 64  # trials per pool task: the unit of work and of timing


def _is_number(value) -> bool:
    """A finite real number; bool is excluded even though it subclasses int."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    m: int = 2
    n_c: int = 2
    n_s: int = 2
    k: int = 2
    t: int = 8
    n_sc: int = 16
    d: int = 4
    l: int = 1
    p_t: float = 1.0
    noise_var: float = 1.0
    rho_list: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    snr_db_list: tuple = (0.0, 10.0, 20.0, 30.0)
    power_list: tuple = (1.0, 2.0, 4.0)
    trials: int = 1
    seed: int = 0
    out_path: str = ""
    obs_path: str = field(default="", metadata={
        "help": "also dump one observation tensor (mmwave_estimation only)"})
    threads: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose one of {SCENARIOS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is str and not isinstance(value, str):
                raise ValueError(f"config field {f.name} must be a string")
            if f.type is int and (not isinstance(value, numbers.Integral) or isinstance(value, bool)):
                raise ValueError(f"config field {f.name} must be an integer, not {value!r}")
            if f.type is float and not _is_number(value):
                raise ValueError(f"config field {f.name} must be a finite number, not {value!r}")
            if f.type is tuple:
                if not isinstance(value, (list, tuple)) or not all(_is_number(v) for v in value):
                    raise ValueError(f"config field {f.name} must be a list of finite numbers")
                object.__setattr__(self, f.name, tuple(float(v) for v in value))
        for name in ("m", "n_c", "n_s", "k", "t", "n_sc", "d", "trials", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be positive")
        if self.threads > MAX_THREADS:
            raise ValueError(f"config field threads must be at most {MAX_THREADS}")
        if self.l < 0:
            raise ValueError("path count l must be >= 0")
        if self.p_t <= 0 or self.noise_var <= 0:
            raise ValueError("power budget and noise variance must be positive")
        for rho in self.rho_list:
            if not 0.0 <= rho <= 1.0:
                raise ValueError("rho values must lie in [0, 1]")
        if any(power <= 0 for power in self.power_list):
            raise ValueError("power values must be > 0")
        scenario = _SCENARIO_TABLE[self.scenario]
        for holds, message in scenario.requires:
            if not holds(self):
                raise ValueError(message)
        if not scenario.points(self):
            raise ValueError("scenario has no parameter points to sweep")
        if self.obs_path and self.scenario != "mmwave_estimation":
            raise ValueError("observation dumps are only produced by mmwave_estimation")


class TrialResult(NamedTuple):
    """One trial's metrics at one sweep point, or a point's mean/std row (wall time 0).

    A row is an immutable named tuple of its six fields, in this order, with `wall_time_s`
    defaulting to 0.0; a run builds one per (point, trial) pair.  A block of consecutive trials
    is the unit of work and of timing: `wall_time_s` is the block's evaluation of that point
    divided by the trials in the block, including any draw of the point's own.  The block's
    instance draw, which holds the work all points share, is not timed.
    """

    scenario: str
    param_name: str
    param_value: float
    trial: str
    metrics: dict
    wall_time_s: float = 0.0


def config_from_dict(data: dict) -> ScenarioConfig:
    unknown = set(data) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "scenario" not in data:
        raise ValueError("config must name a scenario")
    return ScenarioConfig(**data)


def _covariance(a):
    """A A^H / n for a stack of m x n draws A, divided in place."""
    qh = a @ a.conj().swapaxes(-2, -1)
    qh /= a.shape[-1]
    return qh


def _capacity_trial(cfg: ScenarioConfig, block: range, gens):
    (hs,) = complex_normals(gens, [(cfg.n_c, cfg.m)])
    noise = NoiseSpec(cfg.noise_var)

    def evaluate(pi, power) -> list:
        res = comm_capacity(hs, power, noise)
        mi = _mi_bits(hs @ res.factor / np.sqrt(noise.variance))  # Q = F F^H at comm_capacity's own F
        return [{"comm_bits": c, "mi_bits": i, "water_level": w} for c, i, w in
                zip(res.bits_per_symbol.tolist(), mi.tolist(), res.allocation.water_level.tolist())]

    return evaluate


def _sensing_trial(cfg: ScenarioConfig, block: range, gens):
    qh = _covariance(complex_normals(gens, [(cfg.m, max(cfg.m, cfg.n_s))])[0])
    noise = NoiseSpec(cfg.noise_var)

    def evaluate(pi, power) -> list:
        bits = sensing_capacity(qh, cfg.n_s, cfg.t, power, noise).bits_per_transmission
        return [{"sensing_bits": b} for b in bits.tolist()]

    return evaluate


def _tradeoff_trial(cfg: ScenarioConfig, block: range, gens):
    """A block of trials as stacks: each generator draws its Hc, C and A in one call, one
    stacked eigh serves the Q_h checks and sensing waveforms, one the Hc^H Hc bases, and each
    rho scores every lane at once."""
    draws = complex_normals(gens, [(cfg.k, cfg.m), (cfg.k, cfg.t), (cfg.m, cfg.m)])
    # A and Q_h = A A^H / m go unnamed, so each is freed once used: fewer large arrays alive at once
    xs = optimal_sensing_waveform(_covariance(draws.pop()), cfg.t, cfg.p_t,
                                  NoiseSpec(cfg.noise_var)).block.swapaxes(-2, -1)
    hc, c = draws
    score = _pareto_scorer(hc, c, xs, cfg.t * cfg.p_t)  # each rho from the block's per-mode scalars

    def evaluate(pi, rho) -> list:
        interference, distance = score(rho)
        objective = rho * interference + (1.0 - rho) * distance
        return [{"interference_power": i, "waveform_distance": d, "objective": o}
                for i, d, o in zip(interference.tolist(), distance.tolist(), objective.tolist())]

    return evaluate


def _noise_variance(cfg: ScenarioConfig, snr_db: float) -> float:
    """Per-cell noise variance at one SNR, as the mean signal power per cell of unit-magnitude
    paths, l / n_rx, over 10^(snr/10); nan where a step overflows or divides by zero."""
    try:
        return cfg.l / cfg.n_s / 10 ** (snr_db / 10)
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _estimation_trial(cfg: ScenarioConfig, block: range, gens):
    dict_tx = build_dictionary(ArrayGeometry(cfg.m), cfg.d)
    dict_rx = build_dictionary(ArrayGeometry(cfg.n_s), cfg.d)
    probes = random_probes(cfg.m, cfg.t, cfg.seed, stream=1)
    prepared = _probe_gains(dict_tx, probes, cfg.t)
    scratch = _scratch((cfg.n_sc, cfg.t, cfg.n_s), cfg.d)  # every trial's noise and search at every point
    lanes = []
    for gen in gens:
        # distinct grid cells on both sides keep the paths resolvable
        picks_p = gen.choice(cfg.d, size=cfg.l, replace=False)
        picks_q = gen.choice(cfg.d, size=cfg.l, replace=False)
        paths = [
            GridPath(
                aoa_index=int(p),
                aod_index=int(q),
                doppler_bin=int(gen.integers(cfg.t)),
                delay_bin=int(gen.integers(cfg.n_sc)),
                magnitude=1.0,
                phase=float(gen.uniform(-np.pi, np.pi)),
            )
            for p, q in zip(picks_p, picks_q)
        ]
        lanes.append((paths, synthesize_observations(dict_rx, dict_tx, paths, probes, cfg.n_sc, 15e3, 1e-4, 28e9)))

    def evaluate(pi, snr_db) -> list:
        noise_var = _noise_variance(cfg, snr_db)
        metrics = []
        for trial, (paths, clean) in zip(block, lanes):
            # the (seed, point, trial) stream seeds this lane's noise at this point
            seed = int(philox_stream(cfg.seed, (pi + 1) * 1_000_003 + trial).integers(1 << 32))
            obs = _add_noise(clean, noise_var, seed, 2, scratch)
            if cfg.obs_path and pi == trial == 0:  # the dump is of the first point's first trial
                write_observations(obs, cfg.obs_path)
            _, estimates, _ = _estimate_paths(obs, dict_rx, cfg.l, prepared, scratch=scratch)
            matched = {(est.aoa_index, est.aod_index): est for est in estimates}
            # a missed (AoA, AoD) pair counts as an error in every bin
            missed = doppler = delay = 0
            gain_sq = 0.0
            for path in paths:
                est = matched.get((path.aoa_index, path.aod_index))
                if est is None:
                    missed += 1
                    gain_sq += path.magnitude**2
                    continue
                doppler += int(est.doppler_bin != path.doppler_bin)
                delay += int(est.delay_bin != path.delay_bin)
                truth = path.magnitude * np.exp(1j * path.phase)
                gain_sq += abs(est.gain - truth) ** 2
            count = max(1, len(paths))
            metrics.append({
                "aoa_bin_error": missed / count,
                "aod_bin_error": missed / count,
                "doppler_bin_error": (missed + doppler) / count,
                "delay_bin_error": (missed + delay) / count,
                "gain_rmse": float(np.sqrt(gain_sq / count)),
            })
        return metrics

    return evaluate


def _beam_scan_trial(cfg: ScenarioConfig, block: range, gens):
    geom = ArrayGeometry(cfg.m)
    dictionary = build_dictionary(geom, cfg.d)
    base_idx = cfg.d // 2  # broadside grid cell
    desired = np.zeros((cfg.d, 1), dtype=complex)
    desired[base_idx, 0] = 1.0
    base = zf_scanning_precoder(dictionary, desired)
    residual = float(np.linalg.norm(dictionary.matrix.T @ base - desired, "fro"))
    step = 1.0 / cfg.d

    def evaluate(pi, interval) -> list:
        # wrap the accumulated shift into the arcsin domain before applying it once
        shift = (int(interval) * step + 0.5) % 1.0 - 0.5
        shifted = shift_schedule(base, geom, shift, 1)
        response = dictionary.matrix.T @ shifted
        peak = int(np.argmax(np.abs(response[:, 0])))
        # the diagonal map subtracts the shift from the beam's normalized angle
        wrapped = (dictionary.grid_normalized[base_idx] - shift + 0.5) % 1.0 - 0.5
        expected = int(np.argmin(np.abs(dictionary.grid_normalized - wrapped)))
        norm_dev = float(abs(np.linalg.norm(shifted[:, 0]) - np.linalg.norm(base[:, 0])))
        row = {
            "zf_residual": residual,
            "peak_index": float(peak),
            "peak_match": float(peak == expected),
            "column_norm_drift": norm_dev,
        }
        return [row] * len(block)  # no trial draws anything, so all share the row

    return evaluate


# One record per scenario.  trial(cfg, block, gens) draws the instances of a block of trials,
# one generator each, builds once what they share (such as the estimation dictionaries and
# probes) and returns evaluate(pi, point) -> one metrics dict per trial of the block at the
# pi-th point; requires holds the (condition on cfg, message) pairs that ScenarioConfig checks.
Scenario = namedtuple("Scenario", "param_name points trial requires", defaults=((),))

_PROBES_FIT = (lambda cfg: cfg.t >= cfg.m,
               "block length t must be >= m to fit orthogonal probing columns")

_SCENARIO_TABLE = {
    "capacity_sweep": Scenario("power", lambda cfg: cfg.power_list, _capacity_trial),
    "sensing_sweep": Scenario("power", lambda cfg: cfg.power_list, _sensing_trial, (
        _PROBES_FIT, (lambda cfg: all(math.isfinite(cfg.t * power) for power in cfg.power_list),
                      "block energy t * power overflows"))),
    "isac_tradeoff": Scenario("rho", lambda cfg: cfg.rho_list, _tradeoff_trial, (
        _PROBES_FIT, (lambda cfg: cfg.k <= cfg.m, "cannot serve more symbol streams than transmit antennas"),
        (lambda cfg: math.isfinite(cfg.t * cfg.p_t), "block energy t * p_t overflows"))),
    "mmwave_estimation": Scenario("snr_db", lambda cfg: cfg.snr_db_list, _estimation_trial, (
        (lambda cfg: cfg.d >= max(cfg.m, cfg.n_s), "dictionary size d must be >= both array sizes"),
        (lambda cfg: cfg.l <= cfg.d, "cannot draw more resolvable paths than grid cells per side"),
        # every receive atom of one element is [1]: the first deflation leaves a zero residual
        (lambda cfg: cfg.n_s > 1 or cfg.l <= 1, "one receive element (n_s = 1) resolves at most one path (l <= 1)"),
        (lambda cfg: all(math.isfinite(_noise_variance(cfg, snr)) for snr in cfg.snr_db_list),
         "each SNR must give a finite 10^(snr/10) > 0 and a finite noise variance l / n_s / 10^(snr/10)"),
    )),
    "beam_scan": Scenario("interval", lambda cfg: tuple(float(j) for j in range(cfg.d)),
                          _beam_scan_trial,
                          ((lambda cfg: cfg.d >= cfg.m, "dictionary size d must be >= m"),
                           (lambda cfg: cfg.m > 1, "one antenna (m = 1) has a flat beam response with no peak"))),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute every (parameter point, trial) pair and append mean/std rows per point.

    One task per block of at most BLOCK_TRIALS consecutive trials draws the block's
    instances, trial i from the (seed, i) stream, and evaluates each point on them.
    Blocks depend on the trial index alone, and rows are merged point-major in trial
    order, so the output does not depend on the thread count.
    """
    scenario = _SCENARIO_TABLE[cfg.scenario]
    points = scenario.points(cfg)

    def task(block: range) -> list:
        evaluate = scenario.trial(cfg, block, [philox_stream(cfg.seed, stream=trial) for trial in block])
        timed = []
        for pi, point in enumerate(points):
            start = time.perf_counter()
            metrics = evaluate(pi, point)
            timed.append((metrics, (time.perf_counter() - start) / len(block)))
        return timed

    blocks = [range(lo, min(lo + BLOCK_TRIALS, cfg.trials)) for lo in range(0, cfg.trials, BLOCK_TRIALS)]
    # tasks draw their instances when they start, so at most `threads` blocks are alive at once
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        by_block = list(pool.map(task, blocks))
    # trial rows point-major, in trial order (a repeated point value stays a separate point)
    name, trials = scenario.param_name, [str(trial) for trial in range(cfg.trials)]
    results, metrics = [], []
    for pi, point in enumerate(points):
        for block, timed in zip(blocks, by_block):
            rows, share = timed[pi]
            metrics += rows
            results += map(TrialResult._make, zip(repeat(cfg.scenario), repeat(name), repeat(point),
                                                  trials[block.start:block.stop], rows, repeat(share)))
    # one (point, metric, trial) table: each row reduces along its contiguous axis, in the 1-D sum's order
    keys = sorted(metrics[0])
    table = np.array(list(map(itemgetter(*keys), metrics)), dtype=float).reshape(len(points), cfg.trials, len(keys))
    table = np.ascontiguousarray(table.transpose(0, 2, 1))
    with np.errstate(over="ignore"):  # squares above the largest float: those rows are rescaled below
        std = np.std(table, axis=-1)
    over = np.isinf(std)  # not nan: a row holding inf or nan gives nan either way
    if over.any():
        scale = np.max(np.abs(table[over]), axis=-1, keepdims=True)
        std[over] = scale[:, 0] * np.std(table[over] / scale, axis=-1)
    for point, mean_row, std_row in zip(points, np.mean(table, axis=-1).tolist(), std.tolist()):
        results += (TrialResult(cfg.scenario, name, point, "mean", dict(zip(keys, mean_row))),
                    TrialResult(cfg.scenario, name, point, "std", dict(zip(keys, std_row))))
    return results


def emit_results(results, fmt: str, path=None) -> str:
    """Render results as CSV or JSON; write to `path` when given.

    CSV columns: scenario,param_name,param_value,trial,metric,value - one row
    per metric, newline-terminated UTF-8.  JSON holds the same records as
    json.dumps(records, sort_keys=True) writes them; neither builds the records.
    Each metric key set is sorted (and quoted) once per call, and a point's scenario,
    parameter name and value are formatted once for each run of rows that hold those very
    objects, so equal floats of other signs or types (0.0 and -0.0, 1.0 and np.float64(1.0))
    and NaN keep their own text; a record then costs one value repr and one string build.
    """
    if not results:
        raise ValueError("no results to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    csv = fmt == "csv"
    quote, finite, dumps, text = json.encoder.encode_basestring_ascii, math.isfinite, json.dumps, float.__repr__

    def number(value) -> str:  # json.dumps' text of a float: its repr, or NaN, Infinity, -Infinity
        return text(value) if finite(value) else dumps(value)

    key_sets, lines = {}, ["scenario,param_name,param_value,trial,metric,value"] if csv else []
    scenario = name = value = prefix = None
    for r in results:
        metrics = r.metrics
        key_set = frozenset(metrics)
        keys = key_sets.get(key_set)
        if keys is None:  # sorted as sort_keys writes them, each with its JSON record's opening
            keys = key_sets[key_set] = [(k, '{"metric": ' + quote(k)) for k in sorted(metrics)]
        if r.param_value is not value or r.scenario is not scenario or r.param_name is not name:
            scenario, name, value = r.scenario, r.param_name, r.param_value
            prefix = (f"{scenario},{name},{value!r}," if csv else
                      f', "param_name": {quote(name)}, "param_value": {number(value)}, '
                      f'"scenario": {quote(scenario)}, "trial": ')
        if csv:
            head = f"{prefix}{r.trial},"
            lines += [f"{head}{k},{metrics[k]!r}" for k, _ in keys]
        else:
            tail = f'{prefix}{quote(r.trial)}, "value": '
            lines += [f"{opening}{tail}{number(metrics[k])}}}" for k, opening in keys]
    out = "\n".join(lines) + "\n" if csv else "[" + ", ".join(lines) + "]\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    return out


_FLAG_NAMES = {"out_path": "out", "obs_path": "obs-out", "snr_db_list": "snr-list"}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # a minus sign before a digit starts a value, as from Python 3.13: "--snr-list -10,0,30"
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    for f in fields(ScenarioConfig)[1:]:  # all but scenario, which is the subcommand
        flag = "--" + _FLAG_NAMES.get(f.name, f.name.replace("_", "-"))
        # list flags stay strings: build_config splits them, so a bad value exits 1, not 2
        kind = f.type if f.type in (int, float) else None
        helptext = "comma-separated values" if f.type is tuple else f.metadata.get("help")
        parser.add_argument(flag, dest=f.name, type=kind, help=helptext)


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:  # the decoder recurses once per nesting level
                raise ValueError("config file nests too deeply to decode") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    data["scenario"] = args.command
    for f in fields(ScenarioConfig)[1:]:  # all but scenario, which is the subcommand
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = tuple(float(v) for v in value.split(",") if v) if f.type is tuple else value
    return config_from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="isacsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        _add_common_flags(sub.add_parser(name, help=f"run the {name} scenario"))
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        text = emit_results(run_scenario(cfg), args.format, cfg.out_path or None)
        if not cfg.out_path:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError:  # stdout keeps the unwritten bytes, and the interpreter flushes it again at exit
                with contextlib.suppress(OSError), open(os.devnull, "wb") as null:  # so send them to the null device
                    os.dup2(null.fileno(), sys.stdout.fileno())
                raise
    except (ValueError, OSError, ConvergenceError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
