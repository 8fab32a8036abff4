import contextlib
import io
import json
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import (
    ArrayGeometry, ConvergenceError, GridPath, NoiseSpec, build_dictionary, comm_capacity, optimal_sensing_waveform,
    random_probes, sensing_capacity, solve_pareto_tradeoff, synthesize_observations,
)
from isacsim import cli, estimation
from isacsim.cli import ScenarioConfig, TrialResult, config_from_dict, emit_results, main, run_scenario
from isacsim.rng import complex_normal, philox_stream

import goldens


def cfg(**kwargs):
    return ScenarioConfig(**kwargs)


# Direct library calls on a trial's (seed, trial) stream, written out independently of
# the CLI: the metrics one sweep point of that trial must report.
def _direct_capacity(config, gen, power):
    h = complex_normal(gen, (config.n_c, config.m))
    return {"comm_bits": comm_capacity(h, power, NoiseSpec(config.noise_var)).bits_per_symbol}


def _direct_sensing(config, gen, power):
    a = complex_normal(gen, (config.m, max(config.m, config.n_s)))
    qh = a @ a.conj().T / a.shape[1]
    res = sensing_capacity(qh, config.n_s, config.t, power, NoiseSpec(config.noise_var))
    return {"sensing_bits": res.bits_per_transmission}


def _direct_tradeoff(config, gen, rho):
    hc = complex_normal(gen, (config.k, config.m))
    c = complex_normal(gen, (config.k, config.t))
    a = complex_normal(gen, (config.m, config.m))
    qh = a @ a.conj().T / config.m
    xs = optimal_sensing_waveform(qh, config.t, config.p_t, NoiseSpec(config.noise_var)).block.T
    x = solve_pareto_tradeoff(hc, c, xs, rho, config.t * config.p_t)
    return {
        "interference_power": float(np.linalg.norm(hc @ x - c, "fro") ** 2),
        "waveform_distance": float(np.linalg.norm(x - xs, "fro") ** 2),
    }


class TestScenarioConfig:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            cfg(scenario="nope")

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            cfg(scenario="capacity_sweep", m=0)
        with pytest.raises(ValueError):
            cfg(scenario="capacity_sweep", noise_var=0.0)
        with pytest.raises(ValueError):
            cfg(scenario="isac_tradeoff", rho_list=(0.5, 1.5))

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("m", "4"), ("trials", True), ("seed", 1.0), ("p_t", "1"),
        ("noise_var", False), ("p_t", float("nan")), ("power_list", [1.0, "2"]),
        ("rho_list", [True]), ("snr_db_list", 10.0), ("out_path", 5),
    ])
    def test_rejects_wrong_field_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            config_from_dict({"scenario": "capacity_sweep", field: value})

    def test_accepts_integers_for_float_fields(self):
        config = config_from_dict({"scenario": "capacity_sweep", "p_t": 2, "power_list": [1, 2.5]})
        assert config.power_list == (1.0, 2.5)

    def test_rejects_unknown_config_keys(self):
        with pytest.raises(ValueError):
            config_from_dict({"scenario": "capacity_sweep", "bogus": 1})
        with pytest.raises(ValueError):
            config_from_dict({})

    def test_scenario_precondition_checks(self):
        with pytest.raises(ValueError):
            run_scenario(cfg(scenario="mmwave_estimation", m=4, n_s=4, d=2))
        with pytest.raises(ValueError):
            run_scenario(cfg(scenario="sensing_sweep", m=4, t=2))

    @pytest.mark.parametrize("fields_, message", [
        (dict(scenario="sensing_sweep", m=4, t=2), "block length t must be >= m"),
        (dict(scenario="isac_tradeoff", m=4, t=2), "block length t must be >= m"),
        (dict(scenario="mmwave_estimation", m=4, n_s=4, d=2), "both array sizes"),
        (dict(scenario="mmwave_estimation", l=5, d=4), "more resolvable paths"),
        (dict(scenario="mmwave_estimation", n_s=1, l=2), "^one receive element \\(n_s = 1\\) resolves at most one path"),
        (dict(scenario="beam_scan", m=8, d=4), "dictionary size d must be >= m"),
        (dict(scenario="capacity_sweep", power_list=()), "no parameter points"),
        (dict(scenario="capacity_sweep", obs_path="obs.bin"), "only produced by mmwave_estimation"),
        (dict(scenario="capacity_sweep", power_list=(1.0, 0.0)), "power values must be > 0"),
        (dict(scenario="sensing_sweep", power_list=(-1.0,)), "power values must be > 0"),
        (dict(scenario="isac_tradeoff", k=5, m=4, t=4), "more symbol streams than transmit antennas"),
        (dict(scenario="isac_tradeoff", p_t=1e308), "block energy t \\* p_t overflows"),
        (dict(scenario="sensing_sweep", power_list=(1.0, 1e308)), "block energy t \\* power overflows"),
    ], ids=["sensing_t", "tradeoff_t", "estimation_d", "estimation_l", "estimation_one_rx", "beam_d", "no_points",
            "obs_elsewhere", "capacity_power", "sensing_power", "tradeoff_k", "tradeoff_energy",
            "sensing_energy"])
    def test_preconditions_fail_when_built(self, fields_, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**fields_)

    def test_threads_upper_bound(self):
        # builds configs only: no pool, so no thread is started
        assert config_from_dict({"scenario": "capacity_sweep", "threads": 256}).threads == 256
        with pytest.raises(ValueError, match="^config field threads must be at most 256$"):
            config_from_dict({"scenario": "capacity_sweep", "threads": 257})


class TestRunScenario:
    @pytest.mark.parametrize("scenario, overrides, direct", [
        ("capacity_sweep", dict(m=2, n_c=2, power_list=(1.0, 2.0, 4.0)), _direct_capacity),
        ("sensing_sweep", dict(m=2, n_s=3, t=4, power_list=(1.0, 2.0, 4.0)), _direct_sensing),
        ("isac_tradeoff", dict(m=3, k=2, t=4, rho_list=(0.0, 0.5, 1.0)), _direct_tradeoff),
    ], ids=["capacity_sweep", "sensing_sweep", "isac_tradeoff"])
    def test_capacity_column_matches_direct_call(self, scenario, overrides, direct):
        config = cfg(scenario=scenario, trials=3, seed=11, **overrides)
        results = run_scenario(config)
        rows = [r for r in results if r.trial.isdigit()]
        assert len(rows) == 9
        for row in rows:
            gen = philox_stream(config.seed, stream=int(row.trial))
            for metric, value in direct(config, gen, row.param_value).items():
                assert abs(row.metrics[metric] - value) < 1e-12

    def test_instance_work_runs_once_per_trial(self, monkeypatch):
        # counts matrices, not calls: isac_tradeoff decomposes a block of trials in one stacked call
        calls = ("build_dictionary", "random_probes", "philox_stream", "zf_scanning_precoder", "shift_schedule")
        counts = dict.fromkeys(("optimal_sensing_waveform", "eigh", "_probe_gains", "synthesize_observations",
                                "einsum") + calls, 0)

        def counting(namespace, name, count=lambda *args: 1):
            original = getattr(namespace, name)

            def wrapper(*args, **kwargs):
                counts[name] += count(*args)
                return original(*args, **kwargs)

            monkeypatch.setattr(namespace, name, wrapper)

        def matrices(q, *rest):
            return int(np.prod(np.shape(q)[:-2]))

        for name in calls:
            counting(cli, name)
        counting(cli, "optimal_sensing_waveform", matrices)
        counting(np.linalg, "eigh", matrices)
        run_scenario(cfg(scenario="isac_tradeoff", m=2, k=2, t=4, trials=3, seed=2))
        assert counts["optimal_sensing_waveform"] == 3  # waveforms built: not trials x 5 rho points
        # per trial: the sensing covariance, and one basis of Hc^H Hc for all 5 rho points
        assert counts["eigh"] == 2 * 3
        for namespace in (cli, estimation):  # the CLI's own call and the public functions' calls
            counting(namespace, "_probe_gains")
        counting(cli, "synthesize_observations")
        counting(np, "einsum")  # one per path of each noiseless tensor built
        counts["philox_stream"] = 0
        run_scenario(cfg(scenario="mmwave_estimation", trials=3, seed=2))
        # the block's trials share the two dictionaries, the probes and their gains, and each
        # trial's noiseless observation serves all 4 SNR points: 3 tensors, not 12
        assert counts["build_dictionary"] == 2 and counts["random_probes"] == 1
        assert counts["_probe_gains"] == 1
        assert counts["synthesize_observations"] == counts["einsum"] == 3
        # the 3 instance streams, and one noise-seed stream per (SNR point, trial)
        assert counts["philox_stream"] == 3 + 4 * 3
        counts["philox_stream"] = 0
        run_scenario(cfg(scenario="capacity_sweep", trials=3, seed=2))
        assert counts["philox_stream"] == 3  # the instance streams; no point draws an aux stream
        run_scenario(cfg(scenario="beam_scan", d=4, trials=3, seed=2))
        # one precoder for the block, and each of the 4 points' rows once for its 3 trials
        assert counts["zf_scanning_precoder"] == 1 and counts["shift_schedule"] == 4

    def test_estimation_block_never_builds_the_residual(self, monkeypatch):
        # the CLI reads only the paths, so its stage path skips the residual the public call reports
        calls = []
        helper = estimation._residual_energy

        def counting(*args):
            calls.append(args)
            return helper(*args)

        monkeypatch.setattr(estimation, "_residual_energy", counting)
        run_scenario(cfg(scenario="mmwave_estimation", l=2, trials=cli.BLOCK_TRIALS + 1, seed=2))
        assert calls == []
        # the counter sees the public call, which reports the residual
        dict_tx, dict_rx = build_dictionary(ArrayGeometry(2), 4), build_dictionary(ArrayGeometry(3), 4)
        probes = random_probes(2, 8, seed=1)
        obs = synthesize_observations(dict_rx, dict_tx, [GridPath(1, 2, 3, 4, 1.0, 0.5)], probes, 16, 15e3, 1e-4, 28e9)
        report = estimation.estimate_paths(obs, dict_tx, dict_rx, 1, probes)
        assert len(calls) == 1 and report.residual_energy < 1e-20

    def test_tradeoff_endpoints(self):
        config = cfg(scenario="isac_tradeoff", m=2, k=2, t=4, trials=2, seed=5,
                     rho_list=(0.0, 1.0))
        results = run_scenario(config)
        for row in results:
            if not row.trial.isdigit():
                continue
            if row.param_value == 0.0:
                assert row.metrics["waveform_distance"] < 1e-12
                assert row.metrics["objective"] < 1e-12

    def test_tradeoff_monotone_in_rho(self):
        config = cfg(scenario="isac_tradeoff", m=2, k=2, t=4, trials=1, seed=9,
                     rho_list=(0.0, 0.25, 0.5, 0.75, 1.0))
        rows = [r for r in run_scenario(config) if r.trial == "0"]
        interference = [r.metrics["interference_power"] for r in rows]
        distance = [r.metrics["waveform_distance"] for r in rows]
        assert np.all(np.diff(interference) <= 1e-8)
        assert np.all(np.diff(distance) >= -1e-8)

    def test_mean_and_std_rows_appended(self):
        config = cfg(scenario="capacity_sweep", trials=4, seed=1, power_list=(1.0,))
        results = run_scenario(config)
        tags = [r.trial for r in results]
        assert tags.count("mean") == 1 and tags.count("std") == 1
        data = [r.metrics["comm_bits"] for r in results if r.trial.isdigit()]
        mean_row = next(r for r in results if r.trial == "mean")
        assert abs(mean_row.metrics["comm_bits"] - np.mean(data)) < 1e-12

    def test_duplicate_points_aggregate_separately(self):
        config = cfg(scenario="mmwave_estimation", snr_db_list=(-10.0, -10.0), trials=3,
                     seed=3, l=2)
        results = run_scenario(config)
        means = [r for r in results if r.trial == "mean"]
        assert len(means) == 2
        for point, mean_row in enumerate(means):
            trials = results[point * 3:(point + 1) * 3]
            expected = np.mean([r.metrics["gain_rmse"] for r in trials])
            assert mean_row.metrics["gain_rmse"] == expected
        # every trial at the first copy misses a path; the second copy differs
        assert means[0].metrics["gain_rmse"] == 1.0
        assert means[1].metrics["gain_rmse"] != 1.0

    def test_identical_across_thread_counts(self):
        base = dict(scenario="mmwave_estimation", m=2, n_s=2, d=2, t=4, n_sc=8,
                    l=1, trials=4, seed=3, snr_db_list=(10.0, 20.0))
        serial = emit_results(run_scenario(cfg(**base, threads=1)), "csv")
        threaded = emit_results(run_scenario(cfg(**base, threads=4)), "csv")
        assert serial == threaded

    def test_beam_scan_peaks_track_schedule(self):
        results = run_scenario(cfg(scenario="beam_scan", m=4, d=8, trials=1, seed=0))
        matches = [r.metrics["peak_match"] for r in results if r.trial == "0"]
        assert matches and all(m == 1.0 for m in matches)


class TestTrialBlocks:
    """Runs go in blocks of up to cli.BLOCK_TRIALS trials; each scenario evaluates a block at once."""

    CONFIGS = {
        "capacity_sweep": dict(m=3, n_c=2, power_list=(0.5, 2.0)),
        "sensing_sweep": dict(m=3, n_s=4, t=4, power_list=(0.5, 2.0)),
        "isac_tradeoff": dict(m=6, k=2, t=8, rho_list=(0.0, 0.5, 1.0)),
        "mmwave_estimation": dict(m=2, n_s=2, d=4, l=2, t=4, n_sc=8, snr_db_list=(0.0, 20.0)),
        "beam_scan": dict(m=4, d=8),
    }

    def trial_rows(self, scenario, trials, **extra):
        rows = run_scenario(cfg(scenario=scenario, **self.CONFIGS[scenario], seed=4, trials=trials, **extra))
        return {(r.param_value, r.trial): r.metrics for r in rows if r.trial.isdigit()}

    @pytest.mark.parametrize("scenario", list(CONFIGS))
    def test_trial_rows_do_not_depend_on_the_block_they_fall_in(self, scenario):
        n = cli.BLOCK_TRIALS
        several = self.trial_rows(scenario, 2 * n + 5)  # three blocks, the last of 5 trials
        one = self.trial_rows(scenario, n)
        points = {point for point, _ in several}
        for i in (0, 1, n // 2, n - 1, n, 2 * n + 4):
            alone = self.trial_rows(scenario, i + 1)  # trial i last, in a block of its own size
            for point in points:
                assert alone[point, str(i)] == several[point, str(i)]
                if i < n:
                    assert one[point, str(i)] == several[point, str(i)]

    @pytest.mark.parametrize("scenario", list(CONFIGS))
    def test_bytes_do_not_depend_on_the_thread_count(self, scenario):
        texts = {emit_results(run_scenario(cfg(scenario=scenario, **self.CONFIGS[scenario], seed=4,
                                               trials=2 * cli.BLOCK_TRIALS + 5, threads=threads)), "json")
                 for threads in (1, 2, 3)}
        assert len(texts) == 1

    def test_blocked_rows_match_the_single_instance_path(self):
        config = cfg(scenario="isac_tradeoff", m=16, k=4, t=32, rho_list=(0.0, 0.5, 1.0),
                     trials=cli.BLOCK_TRIALS + 6, seed=7)
        hard = 0
        for row in run_scenario(config):
            if not row.trial.isdigit():
                continue
            direct = _direct_tradeoff(config, philox_stream(config.seed, int(row.trial)), row.param_value)
            for metric, value in direct.items():
                assert row.metrics[metric] == pytest.approx(value, rel=1e-12, abs=1e-12)
            # at rho = 1 with k < m the hard case reaches C exactly, with energy left to fill
            hard += row.param_value == 1.0 and row.metrics["interference_power"] < 1e-20
        assert hard > 0

    def test_a_trial_time_is_its_share_of_the_block_point_time(self):
        rows = run_scenario(cfg(scenario="capacity_sweep", trials=cli.BLOCK_TRIALS + 1, seed=1,
                                power_list=(1.0,)))
        trial_rows = [r for r in rows if r.trial.isdigit()]
        # a trial's time is its block's point time over the block's trials
        assert len({r.wall_time_s for r in trial_rows[:cli.BLOCK_TRIALS]}) == 1
        assert all(r.wall_time_s > 0 for r in trial_rows)


def check_summary_rows(config) -> int:
    """Each point's mean and std rows hold np.mean and np.std of its trial rows' values as 1-D arrays,
    to the bit, where a std whose squares overflow is that of the values over their largest magnitude,
    scaled back.  Returns how many std values took that rescale."""
    results = run_scenario(config)
    points, n = cli._SCENARIO_TABLE[config.scenario].points(config), config.trials
    summary, rescaled = results[len(points) * n:], 0
    assert len(summary) == 2 * len(points)
    for pi, point in enumerate(points):  # a repeated point value is a point of its own
        rows, (mean_row, std_row) = results[pi * n:(pi + 1) * n], summary[2 * pi:2 * pi + 2]
        assert [r.trial for r in rows] == [str(i) for i in range(n)]
        assert (mean_row.trial, std_row.trial) == ("mean", "std")
        assert {r.param_value for r in (*rows, mean_row, std_row)} == {point}
        for key in rows[0].metrics:
            values = np.array([r.metrics[key] for r in rows])
            with np.errstate(over="ignore"):
                std = np.std(values)
            if np.isinf(std):
                rescaled += 1
                scale = np.max(np.abs(values))
                std = scale * np.std(values / scale)
            assert np.float64(mean_row.metrics[key]).tobytes() == np.mean(values).tobytes()
            assert np.float64(std_row.metrics[key]).tobytes() == std.tobytes()
    return rescaled


@st.composite
def summary_configs(draw):
    scenario = draw(st.sampled_from(["capacity_sweep", "sensing_sweep", "isac_tradeoff"]))
    field = "rho_list" if scenario == "isac_tradeoff" else "power_list"
    values = st.sampled_from([0.0, 0.5, 1.0]) if scenario == "isac_tradeoff" else st.sampled_from([0.5, 2.0, 1e4])
    fields_ = dict(TestTrialBlocks.CONFIGS[scenario], **{field: draw(st.lists(values, min_size=1, max_size=4))})
    return cfg(scenario=scenario, seed=draw(st.integers(0, 2**16)), trials=draw(st.integers(1, 2 * cli.BLOCK_TRIALS + 5)),
               **fields_)


class TestSummaryRows:
    """The runner reduces one stacked (point, metric, trial) table with one np.mean and one np.std."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(summary_configs())
    @example(cfg(scenario="isac_tradeoff", trials=cli.BLOCK_TRIALS + 5, seed=3))  # two blocks, the last partial
    @example(cfg(scenario="isac_tradeoff", rho_list=(0.0, 0.5, 0.5, 1.0), trials=7, seed=2))  # a repeated rho
    @example(cfg(scenario="isac_tradeoff", trials=1, seed=2))
    @example(cfg(scenario="capacity_sweep", power_list=(1.0, 1.0), trials=2 * cli.BLOCK_TRIALS + 5, seed=4))
    def test_mean_and_std_rows_are_the_per_point_reductions_to_the_bit(self, config):
        check_summary_rows(config)

    def test_std_rows_whose_squares_overflow_are_rescaled_to_the_bit(self):
        config = cfg(scenario="isac_tradeoff", m=16, k=4, t=32, p_t=1e200, trials=4, seed=5)
        assert check_summary_rows(config) > 0


class TestEmitResults:
    def _results(self):
        return [
            TrialResult("capacity_sweep", "power", 1.0, "0", {"comm_bits": 2.5}),
            TrialResult("capacity_sweep", "power", 1.0, "1", {"comm_bits": 3.25}),
            TrialResult("capacity_sweep", "power", 2.0, "0", {"comm_bits": 4.0}),
        ]

    def test_empty_results_error(self):
        with pytest.raises(ValueError):
            emit_results([], "csv")

    def test_csv_rows_and_header(self, tmp_path):
        path = tmp_path / "out.csv"
        text = emit_results(self._results(), "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "scenario,param_name,param_value,trial,metric,value"
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_csv_parse_back(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results(self._results(), "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        parsed = [line.split(",") for line in lines]
        for rec, row in zip(self._results(), parsed):
            assert row[0] == rec.scenario
            assert float(row[2]) == rec.param_value
            assert row[3] == rec.trial
            assert float(row[5]) == rec.metrics["comm_bits"]

    def test_json_mirrors_csv_records(self):
        text = emit_results(self._results(), "json")
        records = json.loads(text)
        assert len(records) == 3
        assert records[0]["metric"] == "comm_bits" and records[0]["value"] == 2.5

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit_results(self._results(), "xml")


class TestMain:
    def test_end_to_end_with_config_and_override(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"m": 2, "n_c": 2, "trials": 2, "seed": 4,
                                           "power_list": [1.0]}))
        out = tmp_path / "run.csv"
        code = main(["capacity_sweep", "--config", str(config_path), "--trials", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        data_rows = [l for l in lines[1:] if l.split(",")[3].isdigit()]
        # three trials per point, three metrics each: the flag overrode the file
        assert len(data_rows) == 9

    def test_stdout_when_no_out_path(self, capsys):
        code = main(["capacity_sweep", "--trials", "1", "--power-list", "1.0", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("scenario,param_name,param_value,trial,metric,value")

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        outs = []
        for threads, name in ((1, "a.csv"), (3, "b.csv"), (1, "c.csv")):
            out = tmp_path / name
            code = main(["isac_tradeoff", "--m", "2", "--k", "2", "--t", "4", "--trials", "2",
                         "--seed", "8", "--rho-list", "0,0.5,1", "--threads", str(threads),
                         "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_json_format_flag(self, tmp_path):
        out = tmp_path / "run.json"
        code = main(["capacity_sweep", "--trials", "1", "--power-list", "2.0",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        records = json.loads(out.read_text(encoding="utf-8"))
        assert all(rec["scenario"] == "capacity_sweep" for rec in records)

    def test_invalid_config_exits_nonzero(self, capsys):
        code = main(["capacity_sweep", "--m", "0"])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_negative_list_value_after_a_space_reads_as_with_equals(self, tmp_path):
        # argparse before Python 3.13 took "-10,0,30" for an option and exited 2
        outs = []
        for form in (["--snr-list", "-10,0,30"], ["--snr-list=-10,0,30"]):
            outs.append(tmp_path / f"run{len(outs)}.csv")
            assert main(["mmwave_estimation", *form, "--trials", "2", "--seed", "1",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert b"snr_db,-10.0," in outs[0].read_bytes()

    @pytest.mark.parametrize("flag", ["--rho-list", "--power-list"])
    def test_out_of_range_negative_list_exits_one_with_message(self, capsys, flag):
        scenario = "isac_tradeoff" if flag == "--rho-list" else "capacity_sweep"
        assert main([scenario, flag, "-0.5,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_list_flag_without_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mmwave_estimation", "--snr-list", "--trials", "2"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"trials": 2.5}, {"m": "4"}, {"trials": True}])
    def test_wrong_config_types_exit_one_with_message(self, tmp_path, capsys, config):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        code = main(["capacity_sweep", "--config", str(config_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: config field") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["isac_tradeoff", "--p-t", "1e308"],
                                      ["sensing_sweep", "--power-list", "1,1e308"]],
                             ids=["tradeoff", "sensing"])
    def test_overflowing_block_energy_exits_one_with_message(self, capsys, argv):
        # a run at t * p_t = inf would print nan (trade-off) or inf (sensing) for every metric
        assert main([*argv, "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: block energy t * p") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("snr_flags", [
        # 10^400 overflows (a traceback), and 10^-400 underflows to 0, by which the noise
        # variance would divide (a traceback)
        ["--snr-list", "4000"],
        ["--snr-list=-4000"],
        # 10^-310 is a positive subnormal, but l / n_s / 10^-310 is inf (the run printed nan)
        ["--snr-list=0,-3100"],
    ], ids=["overflow", "underflow", "infinite_noise"])
    def test_extreme_snr_exits_one_with_message(self, capsys, snr_flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["mmwave_estimation", *snr_flags, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: each SNR must give a finite 10^(snr/10) > 0 and a finite noise variance"
                                " l / n_s / 10^(snr/10)\n")

    @pytest.mark.parametrize("seed", [1, 3, 4, 5])
    def test_one_receive_element_with_several_paths_exits_one_without_a_dump(self, tmp_path, capsys, seed):
        # with n_s = 1 the first deflation zeroes the residual: seed 3 exited 1 at run time and
        # left the dump behind, seeds 1, 4 and 5 exited 0 with half of the paths missed
        dump = tmp_path / "d.bin"
        code = main(["mmwave_estimation", "--m", "2", "--n-s", "1", "--d", "2", "--t", "3", "--n-sc", "3",
                     "--l", "2", "--trials", "3", "--seed", str(seed), "--snr-list=300", "--obs-out", str(dump)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not dump.exists()
        assert captured.err == "error: one receive element (n_s = 1) resolves at most one path (l <= 1)\n"
        assert main(["mmwave_estimation", "--m", "2", "--n-s", "1", "--d", "2", "--l", "1", "--trials", "3",
                     "--seed", str(seed)]) == 0

    def test_no_paths_still_runs_at_ordinary_snrs(self, capsys):
        # l = 0 gives a zero noise variance, which is finite: the SNR checks let it through
        assert main(["mmwave_estimation", "--l", "0", "--snr-list", "0,30", "--trials", "2", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "mmwave_estimation,snr_db,30.0,mean," in captured.out

    def test_overflowing_water_filled_rate_exits_one_with_message(self, capsys):
        # power 1e308 is finite, but trial 1's rate sum log2(1 + lam beta / sigma^2) overflows:
        # the run used to print comm_bits inf and mi_bits nan for it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["capacity_sweep", "--power-list", "1e308", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: power budget 1e+308") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["sensing_sweep", "--noise-var", "1e308", "--power-list", "1e-300"],
        ["capacity_sweep", "--noise-var", "1e308", "--power-list", "1e-300"],
        ["isac_tradeoff", "--noise-var", "1e308"],
    ], ids=["sensing", "capacity", "tradeoff"])
    def test_overflowing_water_fill_floors_run_without_warnings(self, capsys, argv):
        # a floor sigma^2 / lam above the largest float is +inf, as a pad: the runs printed
        # an overflow RuntimeWarning, which under an error filter ended in a traceback
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([*argv, "--trials", "1"]) == 0
        quiet = capsys.readouterr().out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "" and captured.out == quiet
        if argv[0] != "isac_tradeoff":  # a budget of 1e-300 over floors near 1e308 carries no bits
            assert all(float(line.split(",")[-1]) == 0.0 for line in quiet.splitlines()[1:]
                       if "_bits," in line)

    @pytest.mark.parametrize("argv", [
        ["capacity_sweep", "--trials", "3", "--seed", "8", "--noise-var", "1e300", "--power-list", "1"],
        ["isac_tradeoff", "--trials", "3", "--p-t", "1e200"],
    ], ids=["capacity_water_levels", "tradeoff_large_energy"])
    def test_std_of_values_whose_squares_overflow_is_finite_without_warnings(self, capsys, argv):
        # trial values such as water levels near 2e299 are finite, but their squares overflow
        # in np.std, which printed a std of inf; such a row is rescaled by its largest magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        trials, stds = {}, {}
        for line in captured.out.splitlines()[1:]:
            _, _, point, trial, metric, value = line.split(",")
            if trial.isdigit():
                trials.setdefault((point, metric), []).append(float(value))
            elif trial == "std":
                stds[point, metric] = float(value)
        assert max(max(np.abs(values)) for values in trials.values()) > 1e160
        for key, values in trials.items():
            values = np.array(values)
            scale = np.max(np.abs(values)) or 1.0
            np.testing.assert_allclose(stds[key], scale * np.std(values / scale), rtol=1e-13, atol=0)

    def test_tensor_too_large_to_allocate_exits_one_with_message(self, capsys):
        # about 2.6e14 bytes, beyond the address space, so the allocation fails at once
        code = main(["mmwave_estimation", "--n-sc", "1000000000000", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: Unable to allocate") and captured.err.count("\n") == 1

    def test_huge_power_gives_finite_mi_bits_without_warnings(self, capsys):
        # the Hermitian part of I + H Q H^H / sigma^2 used to overflow in its sum m + m^H,
        # so mi_bits read nan beside a finite comm_bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["capacity_sweep", "--m", "8", "--n-c", "8", "--power-list", "5e307", "--trials", "3"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        values = {}
        for line in captured.out.splitlines()[1:]:
            _, _, _, trial, metric, value = line.split(",")
            values[trial, metric] = float(value)
        for trial in ("0", "1", "2", "mean"):
            comm, mi = values[trial, "comm_bits"], values[trial, "mi_bits"]
            assert comm > 8000 and abs(mi - comm) <= 1e-12 * comm

    def test_unobserved_transmit_atom_exits_one_with_message(self, monkeypatch, capsys):
        # the block's probe gains are checked once, when the block is drawn
        drawn = cli.random_probes

        def silent_probes(m, t, seed, stream=0):
            probes = drawn(m, t, seed, stream)
            probes[:, 2] = 0.0  # symbol 2 probes no transmit atom
            return probes

        monkeypatch.setattr(cli, "random_probes", silent_probes)
        code = main(["mmwave_estimation", "--trials", "70", "--threads", "2", "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: probing leaves some transmit atoms unobserved at some symbol\n"

    @pytest.mark.parametrize("p_t", [1e250, 1e300])
    def test_tradeoff_metrics_scale_with_a_huge_block_energy(self, tmp_path, p_t):
        # C is negligible beside a block energy this large, so every metric is E times a
        # limit that does not depend on E: the runs agree once divided by p_t
        scaled = []
        for power in (1e200, p_t):
            out = tmp_path / f"run{len(scaled)}.json"
            assert main(["isac_tradeoff", "--p-t", repr(power), "--trials", "1", "--format", "json",
                         "--out", str(out)]) == 0
            scaled.append([row["value"] / power for row in json.loads(out.read_text())])
        np.testing.assert_allclose(scaled[1], scaled[0], rtol=1e-9, atol=1e-12)

    def test_solver_convergence_error_exits_one_with_message(self, monkeypatch, capsys):
        def stalled_trial(config, block, gens):
            raise ConvergenceError("row sweeps did not settle within 3 sweeps")

        record = cli._SCENARIO_TABLE["isac_tradeoff"]._replace(trial=stalled_trial)
        monkeypatch.setitem(cli._SCENARIO_TABLE, "isac_tradeoff", record)
        code = main(["isac_tradeoff", "--trials", "2", "--threads", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: row sweeps did not settle within 3 sweeps\n"

    def test_noisy_estimation_matches_golden_bytes(self):
        # written by the exhaustive beam search; the pruned search must reproduce it
        name = "mmwave_estimation_noisy_seed7.csv"
        assert goldens.produce(name) == (goldens.DATA / name).read_bytes()

    @pytest.mark.parametrize("scenario", ["capacity_sweep", "sensing_sweep"])
    def test_sweep_matches_golden_bytes(self, scenario):
        # written while every point still built its aux stream and decomposed each
        # covariance twice; the lazy stream and the single decomposition must reproduce it
        name = f"{scenario}_seed3.csv"
        assert goldens.produce(name) == (goldens.DATA / name).read_bytes()

    def test_many_mode_capacity_matches_golden_bytes(self):
        # eight modes take part in the water level here, so its summation order shows
        # in the last bits: a cumulative sum moved 2 of these 144 values by 4.3e-16
        name = "capacity_sweep_m8_seed2.csv"
        assert goldens.produce(name) == (goldens.DATA / name).read_bytes()

    def test_many_mode_sensing_matches_golden_bytes(self):
        # one to eight eigenmodes of each Q_h share the water level (seven or eight at
        # power 100), so this pins the level's summation order for sensing as the file
        # above does for capacity
        name = "sensing_sweep_m8_seed2.csv"
        assert goldens.produce(name) == (goldens.DATA / name).read_bytes()

    def test_tradeoff_matches_stored_records(self):
        # written by the bisection sphere solve; the Newton solve reaches the same
        # multiplier by another path, so the values agree to rounding, not to the byte
        name = "isac_tradeoff_m16_seed7.json"
        stored = json.loads((goldens.DATA / name).read_text())
        records = json.loads(goldens.produce(name))

        def keys(rows):
            return [{name: v for name, v in row.items() if name != "value"} for row in rows]

        assert keys(records) == keys(stored)
        np.testing.assert_allclose([row["value"] for row in records], [row["value"] for row in stored],
                                   rtol=1e-12, atol=1e-12)

    def test_deeply_nested_config_exits_one_with_message(self, tmp_path, capsys):
        # json.load gives up on 100000 nested arrays with a RecursionError
        config_path = tmp_path / "cfg.json"
        config_path.write_text("[" * 100_000)
        assert main(["capacity_sweep", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config file nests too deeply to decode\n"

    def test_failed_stdout_write_exits_one_with_message(self, capsys):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        with contextlib.redirect_stdout(Full()):  # a stream with no descriptor to redirect
            assert main(["capacity_sweep", "--trials", "3"]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_failed_stdout_flush_leaves_nothing_for_the_exit_flush(self, capsys):
        # the output fits the buffer, so the write succeeds and the flush fails with the bytes kept;
        # the interpreter flushes stdout again at exit, and that flush must not fail a second time
        raw = io.FileIO("/dev/full", "w")
        with io.TextIOWrapper(io.BufferedWriter(raw, buffer_size=1 << 16), encoding="utf-8") as stdout:
            with contextlib.redirect_stdout(stdout):
                assert main(["capacity_sweep", "--trials", "3"]) == 1
            assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
            assert os.path.samestat(os.fstat(raw.fileno()), os.stat(os.devnull))
            stdout.flush()

    def test_missing_config_file_exits_nonzero(self, capsys):
        code = main(["capacity_sweep", "--config", "/nonexistent/cfg.json"])
        assert code != 0

    def test_observation_dump_round_trips(self, tmp_path):
        from isacsim import read_observations

        obs_path = tmp_path / "obs.bin"
        out = tmp_path / "run.csv"
        code = main(["mmwave_estimation", "--m", "2", "--n-s", "2", "--d", "2", "--t", "4",
                     "--n-sc", "8", "--l", "1", "--trials", "1", "--seed", "6",
                     "--snr-list", "20", "--obs-out", str(obs_path), "--out", str(out)])
        assert code == 0
        obs = read_observations(obs_path)
        assert obs.data.shape == (8, 4, 2)
        assert np.all(np.isfinite(obs.data))

    def test_observation_dump_rejected_elsewhere(self, capsys):
        code = main(["capacity_sweep", "--obs-out", "/tmp/should_not_exist.bin"])
        assert code != 0

    def test_observation_dump_is_trial_zero_at_the_first_snr(self, tmp_path, monkeypatch):
        # the dump is trial 0's noiseless tensor plus noise of variance l / n_s / 10^(snr/10) at
        # the first SNR, seeded from the (seed, point 0, trial 0) stream, whichever thread runs it
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return estimation.synthesize_observations(*args, **kwargs)

        monkeypatch.setattr(cli, "synthesize_observations", recording)
        seed = int(philox_stream(7, 1_000_003).integers(1 << 32))
        for threads in (1, 2):
            calls.clear()
            obs_path = tmp_path / f"obs{threads}.bin"
            code = main(["mmwave_estimation", "--trials", str(cli.BLOCK_TRIALS + 6), "--seed", "7",
                         "--snr-list", "20,0", "--threads", str(threads), "--obs-out", str(obs_path),
                         "--out", str(tmp_path / "run.csv")])
            assert code == 0 and len(calls) == cli.BLOCK_TRIALS + 6
            if threads == 1:  # one thread draws block 0 first, and trial 0 is its first lane
                trial_zero = calls[0]
            # the defaults l = 1 and n_s = 2
            expected = estimation.synthesize_observations(*trial_zero, noise_variance=1 / 2 / 10**2, seed=seed,
                                                          stream=2)
            estimation.write_observations(expected, tmp_path / "expected.bin")
            assert obs_path.read_bytes() == (tmp_path / "expected.bin").read_bytes()

    def test_observation_dump_same_across_thread_counts(self, tmp_path):
        dumps = []
        for threads in (1, 3):
            obs_path = tmp_path / f"obs{threads}.bin"
            code = main(["mmwave_estimation", "--trials", str(cli.BLOCK_TRIALS + 6), "--seed", "7",
                         "--threads", str(threads), "--obs-out", str(obs_path),
                         "--out", str(tmp_path / "run.csv")])
            assert code == 0
            dumps.append(obs_path.read_bytes())
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("content", ["[1, 2]", '"abc"', "null", "3"])
    def test_config_file_must_hold_object(self, tmp_path, capsys, content):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(content)
        code = main(["capacity_sweep", "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if f.name != "scenario"])
    def test_every_config_field_has_a_flag(self, tmp_path, monkeypatch, capsys, name):
        spec = ScenarioConfig.__dataclass_fields__[name]
        kind = spec.type
        if kind is tuple:
            value = (0.5, 0.75)
        elif kind is str:
            value = str(tmp_path / name)
        else:  # a valid non-default int or float
            value = spec.default + 1
        flag = {"out_path": "out", "obs_path": "obs-out", "snr_db_list": "snr-list"}.get(
            name, name.replace("_", "-"))
        text = ",".join(map(str, value)) if kind is tuple else str(value)
        seen = []

        def fake_run(config):
            seen.append(config)
            return [TrialResult(config.scenario, "snr_db", 0.0, "0", {"x": 1.0})]

        monkeypatch.setattr(cli, "run_scenario", fake_run)
        assert main(["mmwave_estimation", f"--{flag}={text}"]) == 0
        assert getattr(seen[0], name) == value
