"""The benchmark's workloads: inputs from a seed, timed calls, output checks.

Every call goes through a module attribute (`cli.run_scenario`, not a name
bound at import), so the tracer's wrappers see it.  Importing this module
imports isacsim, which is part of the measured set-up.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from isacsim import channel, cli, precoding, sensing, waveform

import stats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def invocation_seed(seed: int, index: int) -> int:
    """Config seed of the index-th input of a run with --seed seed."""
    return seed * 100_000 + index


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """One timed invocation: its input, wall time, trials and output text."""

    input: int
    elapsed: float
    attempted: int
    failed: int
    trial_s: list = field(default_factory=list)
    text: str = ""
    error: str = ""
    digest: str = ""


class CliWorkload:
    """CLI scenario runs (config resolution, run_scenario, emit_results) cycling over inputs.

    Invocation i runs input i mod `inputs`, so every input repeats through the
    run and each of its trials keeps its fastest time.
    """

    def __init__(self, name: str, record: dict, seed: int, out_dir: Path):
        self.name = name
        self.record = record
        self.seed = seed
        self.fmt = record["format"]
        self.out_path = out_dir / f"{name}.{self.fmt}"
        self.threads = record["config"]["threads"]
        self.config(0)  # config resolution belongs to set-up

    def config(self, index: int, **overrides):
        data = dict(self.record["config"],
                    seed=invocation_seed(self.seed, index % self.record["inputs"]),
                    out_path=str(self.out_path))
        data.update(overrides)
        return cli.config_from_dict(data)

    def expected_trials(self, cfg) -> int:
        return len(getattr(cfg, self.record["sweep"])) * cfg.trials

    def run(self, cfg, index: int = 0) -> Outcome:
        start = time.perf_counter()
        try:
            results = cli.run_scenario(cfg)
            text = cli.emit_results(results, self.fmt, cfg.out_path)
        except Exception as exc:  # a raising run fails every trial it held
            n = self.expected_trials(cfg)
            return Outcome(index, time.perf_counter() - start, n, n, error=repr(exc))
        elapsed = time.perf_counter() - start
        trials = [r for r in results if r.trial.isdigit()]
        good = [r.wall_time_s for r in trials if all(math.isfinite(v) for v in r.metrics.values())]
        return Outcome(index, elapsed, len(trials), len(trials) - len(good), good, text)

    def invoke(self, index: int) -> Outcome:
        return self.run(self.config(index), index % self.record["inputs"])

    def repeat_digest(self, index: int) -> str:
        """Digest of invocation `index` run again on another thread count, as written to the file.

        It equals that invocation's digest only when the output is the same across
        runs and thread counts and the file holds what emit_results returned.
        """
        self.run(self.config(index, threads=2 if self.threads == 1 else 1))
        return sha256(self.out_path.read_text(encoding="utf-8"))

    def reference_text(self) -> str:
        """Output at the reference seed, the trials stored under reference/."""
        seed = SPEC["reference_seed"]
        cfg = self.config(0, seed=seed, trials=self.record["reference_trials"])
        return self.run(cfg).text

    def fingerprint(self) -> str:
        """Output every process of a run must agree on, byte for byte."""
        return self.reference_text()

    def reference_check(self, fingerprint: str, outcomes: list) -> dict:
        """Compare the reference-seed output (the fingerprint) with the stored one."""
        return compare_text(stored_reference(self), fingerprint, self.records,
                            self.record["tolerance"])

    def records(self, text: str) -> dict:
        return stats.parse_records(text, self.fmt)


def stored_reference(work) -> str:
    return (HERE / "reference" / f"{work.name}.{work.fmt}").read_text(encoding="utf-8")


def compare_text(stored: str, text: str, records, tol: dict) -> dict:
    """Compare output text with the stored text: bytes, and records within tolerance."""
    ref = records(stored)
    diff = stats.compare_records(ref, records(text), tol["rtol"], tol["atol"])
    return {
        "bytes_equal": text == stored,
        "max_rel_diff": diff["max_rel_diff"],
        "attempted": len({key[:2] for key in ref if key[1].isdigit()}),
        "failed": len(diff["failed_trials"]),
        "missing": len(diff["missing"]),
        "summary_failed": diff["summary_failed"],
    }


def _complex_normal(gen, shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


@dataclass(frozen=True)
class DesignInstance:
    hc: np.ndarray
    c: np.ndarray
    xs: np.ndarray
    qh: np.ndarray
    rs: np.ndarray
    fc: np.ndarray
    fs: np.ndarray


class DesignWorkload:
    """Library solvers on a fixed suite of instances drawn before timing.

    Invocation i solves one instance, the i-th of the suite in the run's order,
    cycling, so every instance repeats through the run and keeps its fastest
    solve.  Each output is compared with the stored output of its instance.
    """

    fmt = "jsonl"
    threads = 0  # no thread pool: solvers run on the calling thread
    SOLVERS = ("pareto", "per_antenna", "constant_modulus", "covariance", "weighted_mi",
               "beta_full", "beta_phase")

    def __init__(self, name: str, record: dict, seed: int, out_dir: Path):
        self.name = name
        self.record = record
        self.cfg = record["config"]
        self.noise = channel.NoiseSpec(self.cfg["noise_var"])
        # A fixed suite, drawn at the reference seed: solve cost is heavy-tailed
        # (a few instances take ten times the median), so suites drawn per seed
        # differed by about 20% in mean cost.  The seed orders the suite.
        self.suite = [self.draw(SPEC["reference_seed"], j) for j in range(self.cfg["suite"])]
        self.order = [int(j) for j in np.random.default_rng(seed).permutation(len(self.suite))]

    def draw(self, seed: int, index: int) -> DesignInstance:
        m, k, t = self.cfg["m"], self.cfg["k"], self.cfg["t"]
        gen = np.random.default_rng([seed, index])
        hc = _complex_normal(gen, (k, m))
        c = _complex_normal(gen, (k, t))
        a = _complex_normal(gen, (m, m))
        qh = a @ a.conj().T / m
        # the reference waveform is the sensing-optimal block, as in the trade-off scenario
        xs = sensing.optimal_sensing_waveform(qh, t, self.cfg["p_t"], self.noise).block.T
        rs = xs @ xs.conj().T / t
        fc = precoding.normalize_columns(_complex_normal(gen, (m, 1)))
        fs = precoding.normalize_columns(_complex_normal(gen, (m, self.cfg["n_beams"])))
        return DesignInstance(hc, c, xs, qh, rs, fc, fs)

    def solve(self, inst: DesignInstance) -> dict:
        m, t, rho, p_t = self.cfg["m"], self.cfg["t"], self.cfg["rho"], self.cfg["p_t"]
        q, objective, _ = waveform.optimize_weighted_mi(inst.hc, inst.qh, rho, p_t, self.noise, t, m)
        full = precoding.optimize_beta_sinr(inst.hc, inst.fc, inst.fs, rho, "full", self.noise)
        phase = precoding.optimize_beta_sinr(inst.hc, inst.fc, inst.fs, rho, "phase_only", self.noise)
        return {
            "pareto": waveform.solve_pareto_tradeoff(inst.hc, inst.c, inst.xs, rho, t * p_t),
            "per_antenna": waveform.solve_per_antenna(inst.hc, inst.c, inst.xs, rho, t * p_t / m),
            "constant_modulus": waveform.solve_constant_modulus(
                inst.hc, inst.c, inst.xs, rho, math.sqrt(p_t / m)),
            "covariance": waveform.solve_covariance_constrained(inst.hc, inst.c, inst.rs, t),
            "weighted_mi": np.append(q.ravel(), objective),
            "beta_full": np.append(full.beta, full.sinr),
            "beta_phase": np.append(phase.beta, phase.sinr),
        }

    def violations(self, inst: DesignInstance, out: dict) -> list:
        """Invariants each instance must meet; an empty list means it passed."""
        m, t, rho, p_t = self.cfg["m"], self.cfg["t"], self.cfg["rho"], self.cfg["p_t"]
        found = [k for k, v in out.items() if not np.all(np.isfinite(v))]
        energy = float(np.linalg.norm(out["pareto"]) ** 2)
        if abs(energy - t * p_t) > 1e-9 * t * p_t:
            found.append("pareto energy equality")
        rows = np.sum(np.abs(out["per_antenna"]) ** 2, axis=1)
        if np.max(np.abs(rows - t * p_t / m)) > 1e-9 * t * p_t / m:
            found.append("per-antenna row energies")
        modulus = math.sqrt(p_t / m)
        if np.max(np.abs(np.abs(out["constant_modulus"]) - modulus)) > 1e-12 * modulus:
            found.append("exact modulus")
        u = math.sqrt(rho) * (inst.hc @ inst.fc[:, 0])
        v = math.sqrt(1.0 - rho) * (inst.hc @ inst.fs)
        identity = float(np.linalg.norm(u + v.sum(axis=1)) ** 2 / self.noise.variance)
        for key in ("beta_full", "beta_phase"):
            if out[key][-1].real < identity * (1.0 - 1e-12):
                found.append(f"{key} SINR below identity gains")
        return found

    def serialize(self, out: dict) -> str:
        """Canonical line of one instance's solver outputs, as [re, im] pairs."""
        row = {key: [[float(z.real), float(z.imag)] for z in np.ravel(out[key])]
               for key in self.SOLVERS}
        return json.dumps(row, sort_keys=True) + "\n"

    def run(self, j: int) -> Outcome:
        """Solve suite instance j (reference order), timing the solve alone."""
        inst = self.suite[j]
        start = time.perf_counter()
        try:
            out = self.solve(inst)
        except Exception as exc:  # a raising solver fails the instance
            return Outcome(j, time.perf_counter() - start, 1, 1, error=repr(exc))
        elapsed = time.perf_counter() - start
        found = self.violations(inst, out)
        if found:
            return Outcome(j, elapsed, 1, 1, error=f"instance {j}: {', '.join(found)}")
        return Outcome(j, elapsed, 1, 0, [elapsed], self.serialize(out))

    def invoke(self, index: int) -> Outcome:
        return self.run(self.order[index % len(self.order)])

    def repeat_digest(self, index: int) -> str:
        """Digest of invocation `index`'s instance solved again."""
        return sha256(self.invoke(index).text)

    def reference_text(self) -> str:
        """Every suite instance's output, one line each, as stored under reference/."""
        return "".join(self.run(j).text for j in range(len(self.suite)))

    def fingerprint(self) -> str:
        """Output every process of a run must agree on: suite instance 0."""
        return self.run(0).text

    def reference_check(self, fingerprint: str, outcomes: list) -> dict:
        """Compare each solved instance's output (its first solve) with its stored line."""
        first = {}
        for o in outcomes:
            if not o.error:
                first.setdefault(o.input, o.text)
        first.setdefault(0, fingerprint)
        stored = stored_reference(self).splitlines(keepends=True)
        tol = self.record["tolerance"]
        checks = [compare_text(stored[j] if j < len(stored) else "", text, self.records, tol)
                  for j, text in sorted(first.items())]
        return {
            "bytes_equal": all(c["bytes_equal"] for c in checks),
            "max_rel_diff": max(c["max_rel_diff"] for c in checks),
            "attempted": sum(c["attempted"] for c in checks),
            "failed": sum(c["failed"] for c in checks),
            "missing": sum(c["missing"] for c in checks),
            "summary_failed": False,
        }

    def records(self, text: str) -> dict:
        out = {}
        for i, line in enumerate(text.splitlines()):
            for key, pairs in json.loads(line).items():
                for j, (re, im) in enumerate(pairs):
                    out[(float(i), str(i), f"{key}[{j}].re")] = re
                    out[(float(i), str(i), f"{key}[{j}].im")] = im
        return out


KINDS = {"cli": CliWorkload, "design": DesignWorkload}


def make(name: str, seed: int, out_dir: Path):
    record = SPEC["workloads"][name]
    return KINDS[record["kind"]](name, record, seed, out_dir)
