"""Command-line scenario runner: Monte-Carlo sweeps with machine-readable output.

A scenario is described by a JSON config (fields of ScenarioConfig) which
individual CLI flags may override.  Trials run on per-trial counter-based
streams derived from (seed, point, trial), so outputs are byte-identical
across runs and thread counts.
"""

import argparse
import json
import math
import numbers
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .capacity import comm_capacity, mutual_information_comm
from .channel import ArrayGeometry, NoiseSpec, build_dictionary
from .estimation import GridPath, estimate_paths, random_probes, synthesize_observations
from .precoding import shift_schedule, zf_scanning_precoder
from .rng import philox_stream
from .sensing import optimal_sensing_waveform, sensing_capacity
from .waveform import solve_pareto_tradeoff

SCENARIOS = ("capacity_sweep", "sensing_sweep", "isac_tradeoff", "mmwave_estimation", "beam_scan")
_INT_FIELDS = ("m", "n_c", "n_s", "k", "t", "n_sc", "d", "l", "trials", "seed", "threads")


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
    obs_path: str = ""
    threads: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose one of {SCENARIOS}")
        for name in ("out_path", "obs_path"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"config field {name} must be a string")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"config field {name} must be an integer, not {value!r}")
        for name in ("p_t", "noise_var"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"config field {name} must be a finite number, not {value!r}")
        for name in ("rho_list", "snr_db_list", "power_list"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not all(_is_number(v) for v in values):
                raise ValueError(f"config field {name} must be a list of finite numbers")
        for name in ("m", "n_c", "n_s", "k", "t", "n_sc", "d", "trials", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be positive")
        if self.l < 0:
            raise ValueError("path count l must be >= 0")
        if self.p_t <= 0 or self.noise_var <= 0:
            raise ValueError("power budget and noise variance must be positive")
        for rho in self.rho_list:
            if not 0.0 <= rho <= 1.0:
                raise ValueError("rho values must lie in [0, 1]")
        for lst in ("rho_list", "snr_db_list", "power_list"):
            object.__setattr__(self, lst, tuple(float(v) for v in getattr(self, lst)))


@dataclass(frozen=True)
class TrialResult:
    scenario: str
    param_name: str
    param_value: float
    trial: str
    metrics: dict
    wall_time_s: float = 0.0


def config_from_dict(data: dict) -> ScenarioConfig:
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "scenario" not in data:
        raise ValueError("config must name a scenario")
    return ScenarioConfig(**data)


def _run_capacity(cfg: ScenarioConfig, power: float, gen, aux_gen) -> dict:
    from .rng import complex_normal

    h = complex_normal(gen, (cfg.n_c, cfg.m))
    noise = NoiseSpec(cfg.noise_var)
    res = comm_capacity(h, power, noise)
    return {
        "comm_bits": res.bits_per_symbol,
        "mi_bits": mutual_information_comm(h, res.covariance, noise),
        "water_level": res.allocation.water_level,
    }


def _run_sensing(cfg: ScenarioConfig, power: float, gen, aux_gen) -> dict:
    from .rng import complex_normal

    a = complex_normal(gen, (cfg.m, max(cfg.m, cfg.n_s)))
    qh = a @ a.conj().T / a.shape[1]
    res = sensing_capacity(qh, cfg.n_s, cfg.t, power, NoiseSpec(cfg.noise_var))
    return {"sensing_bits": res.bits_per_transmission}


def _run_tradeoff(cfg: ScenarioConfig, rho: float, gen, aux_gen) -> dict:
    from .rng import complex_normal

    noise = NoiseSpec(cfg.noise_var)
    hc = complex_normal(gen, (cfg.k, cfg.m))
    c = complex_normal(gen, (cfg.k, cfg.t))
    a = complex_normal(gen, (cfg.m, cfg.m))
    qh = a @ a.conj().T / cfg.m
    xs = optimal_sensing_waveform(qh, cfg.t, cfg.p_t, noise).block.T
    x = solve_pareto_tradeoff(hc, c, xs, rho, cfg.t * cfg.p_t)
    interference = float(np.linalg.norm(hc @ x - c, "fro") ** 2)
    distance = float(np.linalg.norm(x - xs, "fro") ** 2)
    return {
        "interference_power": interference,
        "waveform_distance": distance,
        "objective": rho * interference + (1.0 - rho) * distance,
    }


def _estimation_instance(cfg: ScenarioConfig, snr_db: float, gen, aux_gen):
    dict_tx = build_dictionary(ArrayGeometry(cfg.m), cfg.d)
    dict_rx = build_dictionary(ArrayGeometry(cfg.n_s), cfg.d)
    # distinct grid cells on both sides keep the paths resolvable
    picks_p = gen.choice(cfg.d, size=cfg.l, replace=False)
    picks_q = gen.choice(cfg.d, size=cfg.l, replace=False)
    paths = []
    for p, q in zip(picks_p, picks_q):
        paths.append(
            GridPath(
                aoa_index=int(p),
                aod_index=int(q),
                doppler_bin=int(gen.integers(cfg.t)),
                delay_bin=int(gen.integers(cfg.n_sc)),
                magnitude=1.0,
                phase=float(gen.uniform(-np.pi, np.pi)),
            )
        )
    probes = random_probes(cfg.m, cfg.t, cfg.seed, stream=1)
    # per-cell mean signal power is L / n_rx for unit-magnitude paths
    noise_var = cfg.l / cfg.n_s / 10 ** (snr_db / 10)
    noise_seed = int(aux_gen.integers(1 << 32))
    obs = synthesize_observations(
        dict_rx, dict_tx, paths, probes, cfg.n_sc, 15e3, 1e-4, 28e9,
        noise_variance=noise_var, seed=noise_seed, stream=2,
    )
    return dict_tx, dict_rx, paths, probes, obs


def _run_estimation(cfg: ScenarioConfig, snr_db: float, gen, aux_gen) -> dict:
    dict_tx, dict_rx, paths, probes, obs = _estimation_instance(cfg, snr_db, gen, aux_gen)
    report = estimate_paths(obs, dict_tx, dict_rx, cfg.l, probes)
    matched = {(est.aoa_index, est.aod_index): est for est in report.paths}
    errors = {"aoa": 0, "aod": 0, "doppler": 0, "delay": 0}
    gain_sq = 0.0
    for path in paths:
        est = matched.get((path.aoa_index, path.aod_index))
        if est is None:
            for key in errors:
                errors[key] += 1
            gain_sq += path.magnitude**2
            continue
        errors["doppler"] += int(est.doppler_bin != path.doppler_bin)
        errors["delay"] += int(est.delay_bin != path.delay_bin)
        truth = path.magnitude * np.exp(1j * path.phase)
        gain_sq += abs(est.gain - truth) ** 2
    count = max(1, len(paths))
    return {
        "aoa_bin_error": errors["aoa"] / count,
        "aod_bin_error": errors["aod"] / count,
        "doppler_bin_error": errors["doppler"] / count,
        "delay_bin_error": errors["delay"] / count,
        "gain_rmse": float(np.sqrt(gain_sq / count)),
    }


def _run_beam_scan(cfg: ScenarioConfig, interval: float, gen, aux_gen) -> dict:
    j = int(interval)
    geom = ArrayGeometry(cfg.m)
    dictionary = build_dictionary(geom, cfg.d)
    base_idx = cfg.d // 2  # broadside grid cell
    desired = np.zeros((cfg.d, 1), dtype=complex)
    desired[base_idx, 0] = 1.0
    base = zf_scanning_precoder(dictionary, desired)
    step = 1.0 / cfg.d
    # wrap the accumulated shift into the arcsin domain before applying it once
    shift = (j * step + 0.5) % 1.0 - 0.5
    shifted = shift_schedule(base, geom, shift, 1)
    response = dictionary.matrix.T @ shifted
    peak = int(np.argmax(np.abs(response[:, 0])))
    # the diagonal map subtracts the shift from the beam's normalized angle
    wrapped = (dictionary.grid_normalized[base_idx] - shift + 0.5) % 1.0 - 0.5
    expected = int(np.argmin(np.abs(dictionary.grid_normalized - wrapped)))
    residual = float(np.linalg.norm(dictionary.matrix.T @ base - desired, "fro"))
    norm_dev = float(abs(np.linalg.norm(shifted[:, 0]) - np.linalg.norm(base[:, 0])))
    return {
        "zf_residual": residual,
        "peak_index": float(peak),
        "peak_match": float(peak == expected),
        "column_norm_drift": norm_dev,
    }


_RUNNERS = {
    "capacity_sweep": ("power", _run_capacity),
    "sensing_sweep": ("power", _run_sensing),
    "isac_tradeoff": ("rho", _run_tradeoff),
    "mmwave_estimation": ("snr_db", _run_estimation),
    "beam_scan": ("interval", _run_beam_scan),
}


def _points(cfg: ScenarioConfig):
    if cfg.scenario in ("capacity_sweep", "sensing_sweep"):
        return cfg.power_list
    if cfg.scenario == "isac_tradeoff":
        return cfg.rho_list
    if cfg.scenario == "mmwave_estimation":
        return cfg.snr_db_list
    return tuple(float(j) for j in range(cfg.d))


def _validate_scenario(cfg: ScenarioConfig) -> None:
    if cfg.scenario in ("sensing_sweep", "isac_tradeoff") and cfg.t < cfg.m:
        raise ValueError("block length t must be >= m to fit orthogonal probing columns")
    if cfg.scenario == "mmwave_estimation":
        if cfg.d < max(cfg.m, cfg.n_s):
            raise ValueError("dictionary size d must be >= both array sizes")
        if cfg.l > cfg.d:
            raise ValueError("cannot draw more resolvable paths than grid cells per side")
    if cfg.scenario == "beam_scan" and cfg.d < cfg.m:
        raise ValueError("dictionary size d must be >= m")


def run_scenario(cfg: ScenarioConfig) -> list:
    """Execute every (parameter point, trial) pair and append mean/std rows.

    Each trial runs on its own (seed, point, trial) counter-based stream and
    results are merged in submission order, so the output is independent of
    the thread count.
    """
    _validate_scenario(cfg)
    param_name, runner = _RUNNERS[cfg.scenario]
    points = _points(cfg)
    if not points:
        raise ValueError("scenario has no parameter points to sweep")
    if cfg.obs_path:
        if cfg.scenario != "mmwave_estimation":
            raise ValueError("observation dumps are only produced by mmwave_estimation")
        from .estimation import write_observations

        *_, obs = _estimation_instance(
            cfg, points[0], philox_stream(cfg.seed, stream=0),
            philox_stream(cfg.seed, stream=1_000_003),
        )
        write_observations(obs, cfg.obs_path)

    def task(point_idx: int, trial: int):
        # the trial instance is shared across parameter points (same stream);
        # point-specific draws such as noise come from the auxiliary stream
        gen = philox_stream(cfg.seed, stream=trial)
        aux_gen = philox_stream(cfg.seed, stream=(point_idx + 1) * 1_000_003 + trial)
        start = time.perf_counter()
        metrics = runner(cfg, points[point_idx], gen, aux_gen)
        return metrics, time.perf_counter() - start

    jobs = [(pi, tr) for pi in range(len(points)) for tr in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        outcomes = list(pool.map(lambda args: task(*args), jobs))
    results = [
        TrialResult(cfg.scenario, param_name, points[pi], str(tr), metrics, elapsed)
        for (pi, tr), (metrics, elapsed) in zip(jobs, outcomes)
    ]
    # aggregate rows per parameter point: jobs are point-major, so point pi
    # owns one contiguous slice (repeated point values stay separate)
    for pi, point in enumerate(points):
        rows = results[pi * cfg.trials:(pi + 1) * cfg.trials]
        keys = sorted(rows[0].metrics)
        stacked = {k: np.array([r.metrics[k] for r in rows], dtype=float) for k in keys}
        results.append(TrialResult(cfg.scenario, param_name, point, "mean",
                                   {k: float(np.mean(v)) for k, v in stacked.items()}))
        results.append(TrialResult(cfg.scenario, param_name, point, "std",
                                   {k: float(np.std(v)) for k, v in stacked.items()}))
    return results


def emit_results(results, fmt: str, path=None) -> str:
    """Render results as CSV or JSON; write to `path` when given.

    CSV columns: scenario,param_name,param_value,trial,metric,value - one row
    per metric, newline-terminated UTF-8.  JSON mirrors the same records.
    """
    if not results:
        raise ValueError("no results to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    records = [
        {
            "scenario": r.scenario,
            "param_name": r.param_name,
            "param_value": r.param_value,
            "trial": r.trial,
            "metric": metric,
            "value": r.metrics[metric],
        }
        for r in results
        for metric in sorted(r.metrics)
    ]
    if fmt == "csv":
        lines = ["scenario,param_name,param_value,trial,metric,value"]
        for rec in records:
            lines.append(
                f"{rec['scenario']},{rec['param_name']},{rec['param_value']!r},"
                f"{rec['trial']},{rec['metric']},{rec['value']!r}"
            )
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(records, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out", dest="out_path")
    parser.add_argument("--obs-out", dest="obs_path",
                        help="also dump one observation tensor (mmwave_estimation only)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int)
    for name in ("m", "n-c", "n-s", "k", "t", "n-sc", "d", "l"):
        parser.add_argument(f"--{name}", type=int, dest=name.replace("-", "_"))
    parser.add_argument("--p-t", type=float, dest="p_t")
    parser.add_argument("--noise-var", type=float, dest="noise_var")
    for name in ("rho-list", "snr-list", "power-list"):
        parser.add_argument(f"--{name}", dest=name.replace("-", "_"),
                            help="comma-separated values")


_LIST_FLAGS = {"rho_list": "rho_list", "snr_list": "snr_db_list", "power_list": "power_list"}


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    data = {"scenario": args.command}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data.update(json.load(fh))
        data["scenario"] = args.command
    for name in ("seed", "trials", "out_path", "obs_path", "threads", "m", "n_c", "n_s",
                 "k", "t", "n_sc", "d", "l", "p_t", "noise_var"):
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    for flag, field_name in _LIST_FLAGS.items():
        raw = getattr(args, flag, None)
        if raw is not None:
            data[field_name] = tuple(float(v) for v in str(raw).split(",") if v)
    return config_from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="isacsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        _add_common_flags(sub.add_parser(name, help=f"run the {name} scenario"))
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        results = run_scenario(cfg)
        text = emit_results(results, args.format, cfg.out_path or None)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not cfg.out_path:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
