"""Bit-identity properties of the lean estimation trial.

The block of trials draws every point's noise into one scratch array and searches
in it, the search projects each round as one GEMM, and the Doppler/delay stages run
once over the stack of detections.  The oracles below are the steps as they were
before: noise from the old Box-Muller expression added into new arrays, a search that
copies the observation and projects it as a stacked product every round, per-path
stages, and the trial built from them.  Every CLI byte, the observation dump, every
`estimate_paths` field and every error message must agree.  CI runs this file under
`-W error::RuntimeWarning`.
"""

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import (ArrayGeometry, GridPath, ObservationTensor, build_dictionary, estimate_paths, random_probes,
                     synthesize_observations, write_observations)
from isacsim import cli
from isacsim.estimation import (_PRUNE_RTOL, BeamDetection, PathEstimate, _add_noise, _estimate_paths, _pair_scores,
                                _peak, _probe_gains, _ratio, _residual_energy, _scratch, _Stage, estimate_gain_phase)
from isacsim.rng import complex_normal_seeded, complex_normals, philox_stream

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
SPACING, DURATION, CARRIER = 15e3, 1e-4, 28e9
NOISES = st.sampled_from([0.0, 1e-300, 1e-12, 0.05, 1.0, 50.0, 1e12, 1e100])


# ---------------------------------------------------------------------------
# The oracles: the estimation steps before the block scratch

def reference_complex_normal(gen, shape):
    shape = tuple(np.atleast_1d(shape).astype(int)) if not np.isscalar(shape) else (int(shape),)
    n = int(np.prod(shape)) if shape else 1
    single = isinstance(gen, np.random.Generator)
    gens = [gen] if single else list(gen)
    u = np.empty((len(gens), 2, n))
    for g, lane in zip(gens, u):
        g.random(out=lane)
    radius = np.sqrt(-np.log1p(-u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    z = radius * np.cos(angle) + 1j * radius * np.sin(angle)
    return z.reshape(shape if single else (len(gens), *shape))


def reference_add_noise(clean, noise_variance, seed, stream):
    if not noise_variance > 0:
        return clean
    noise = np.sqrt(noise_variance) * reference_complex_normal(philox_stream(seed, stream), clean.data.shape)
    return replace(clean, data=clean.data + noise)


def reference_beam_search(obs, dict_rx, num_paths, gains, abs_gains, gain_energy):
    if num_paths == 0:
        return []
    y = obs.data.copy()
    if not np.any(y):
        raise ValueError("observations are all zero")
    detections = []
    chosen = set()
    for _ in range(num_paths):
        z = y @ dict_rx.matrix.conj()
        bound = np.sum((np.abs(z).transpose(0, 2, 1) @ abs_gains.T) ** 2, axis=0) / gain_energy
        reach = bound.ravel() * (1.0 + _PRUNE_RTOL)
        order = np.argsort(-reach, kind="stable")
        scores = np.full(reach.size, -np.inf)
        best, start, width = -np.inf, 0, 1
        while start < order.size and reach[order[start]] >= best:
            pairs = order[start:start + width]
            scores[pairs] = _pair_scores(z, gains, gain_energy, *np.divmod(pairs, len(gains)))
            best = max(best, scores[pairs].max())
            start, width = start + width, min(2 * width, dict_rx.size)
        p, q = divmod(int(np.argmax(scores)), len(gains))
        if (p, q) in chosen:
            raise ValueError("greedy rounds revisit the same grid cell; paths collide or exceed resolution")
        chosen.add((p, q))
        detections.append(BeamDetection(aod_index=q, aoa_index=p, series=z[:, :, p] / gains[q][None, :]))
        if len(detections) < num_paths:
            y = y - (z[:, :, p])[:, :, None] * dict_rx.matrix[:, p][None, None, :]
    return detections


def reference_estimate_paths(obs, dict_rx, num_paths, prepared, order="doppler_first"):
    t = obs.n_symbols
    detections = reference_beam_search(obs, dict_rx, num_paths, *prepared)
    delay, doppler = _Stage(0, np.fft.ifft, 1), _Stage(1, np.fft.fft, t)
    first, second = (doppler, delay) if order == "doppler_first" else (delay, doppler)
    estimates = []
    ratios = np.zeros((len(detections), 2))
    for i, det in enumerate(detections):
        spectra = first.transform(det.series, axis=first.axis)
        agg = np.sqrt(np.sum(np.abs(spectra) ** 2, axis=second.axis))
        picked = int(np.argmax(agg))
        spectrum = second.transform(spectra.swapaxes(0, first.axis)[picked] / first.divisor)
        peak, amplitude = _peak(spectrum, second.divisor)
        picks = ((picked, _ratio(agg)), (peak, _ratio(np.abs(spectrum))))
        (f_x, doppler_ratio), (tau_x, delay_ratio) = picks if first is doppler else picks[::-1]
        ratios[i] = (doppler_ratio, delay_ratio)
        gain = estimate_gain_phase(amplitude, np.exp(2j * np.pi * f_x / t),
                                   tau_x / (obs.n_subcarriers * obs.subcarrier_spacing_hz), obs.carrier_hz)
        estimates.append(PathEstimate(det.aod_index, det.aoa_index, f_x, tau_x, gain))
    return detections, estimates, ratios


def reference_estimation_trial(cfg, block, gens):
    dict_tx = build_dictionary(ArrayGeometry(cfg.m), cfg.d)
    dict_rx = build_dictionary(ArrayGeometry(cfg.n_s), cfg.d)
    probes = random_probes(cfg.m, cfg.t, cfg.seed, stream=1)
    prepared = _probe_gains(dict_tx, probes, cfg.t)
    lanes = []
    for gen in gens:
        picks_p = gen.choice(cfg.d, size=cfg.l, replace=False)
        picks_q = gen.choice(cfg.d, size=cfg.l, replace=False)
        paths = [GridPath(int(p), int(q), int(gen.integers(cfg.t)), int(gen.integers(cfg.n_sc)), 1.0,
                          float(gen.uniform(-np.pi, np.pi))) for p, q in zip(picks_p, picks_q)]
        lanes.append((paths, synthesize_observations(dict_rx, dict_tx, paths, probes, cfg.n_sc, SPACING, DURATION,
                                                     CARRIER)))

    def evaluate(pi, snr_db):
        noise_var = cli._noise_variance(cfg, snr_db)
        metrics = []
        for trial, (paths, clean) in zip(block, lanes):
            seed = int(philox_stream(cfg.seed, (pi + 1) * 1_000_003 + trial).integers(1 << 32))
            obs = reference_add_noise(clean, noise_var, seed, 2)
            if cfg.obs_path and pi == trial == 0:
                write_observations(obs, cfg.obs_path)
            _, estimates, _ = reference_estimate_paths(obs, dict_rx, cfg.l, prepared)
            matched = {(est.aoa_index, est.aod_index): est for est in estimates}
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
                gain_sq += abs(est.gain - path.magnitude * np.exp(1j * path.phase)) ** 2
            count = max(1, len(paths))
            metrics.append({"aoa_bin_error": missed / count, "aod_bin_error": missed / count,
                            "doppler_bin_error": (missed + doppler) / count,
                            "delay_bin_error": (missed + delay) / count,
                            "gain_rmse": float(np.sqrt(gain_sq / count))})
        return metrics

    return evaluate


def outcome(call):
    """The call's result, or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


# ---------------------------------------------------------------------------
# The CLI and its dump

def run_cli(argv, block_trials, reference=False):
    """stdout, stderr, exit code and the dumped bytes of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(cli, "BLOCK_TRIALS", block_trials)
        if reference:
            patch.setitem(cli._SCENARIO_TABLE, "mmwave_estimation",
                          cli._SCENARIO_TABLE["mmwave_estimation"]._replace(trial=reference_estimation_trial))
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


@st.composite
def estimation_argv(draw):
    m, n_s = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    d = max(m, n_s) + draw(st.sampled_from([0, 0, 1, 3]))
    snrs = draw(st.lists(st.sampled_from([-300.0, -20.0, 300.0]) | st.floats(-10.0, 40.0), min_size=1, max_size=3))
    return ["mmwave_estimation", "--m", str(m), "--n-s", str(n_s), "--d", str(d),
            "--l", str(draw(st.integers(0, min(d, 3)))), "--t", str(draw(st.integers(1, 9))),
            "--n-sc", str(draw(st.integers(1, 12))), "--trials", str(draw(st.integers(1, 5))),
            "--seed", str(draw(st.integers(0, 2**16))), "--snr-list=" + ",".join(map(repr, snrs)),
            "--format", draw(st.sampled_from(["csv", "json"]))]


@PROPERTY
@given(estimation_argv(), st.sampled_from([2, 3, 64]))
@example(["mmwave_estimation", "--m", "3", "--n-s", "4", "--d", "6", "--l", "2", "--t", "6", "--n-sc", "10",
          "--trials", "66", "--seed", "4", "--snr-list=-5,10,30"], 64)  # two blocks of the real size
@example(["mmwave_estimation", "--m", "8", "--n-s", "8", "--d", "16", "--l", "3", "--t", "32", "--n-sc", "64",
          "--trials", "2", "--seed", "1", "--snr-list=-10,0,30", "--format", "json"], 1)
def test_cli_output_and_dump_match_the_reference_trial(tmp_path_factory, argv, block_trials):
    folder = tmp_path_factory.mktemp("obs")
    runs = []
    for threads, reference in ((1, True), (1, False), (2, False)):
        dump = folder / f"obs.{threads}.{reference}.bin"
        runs.append((*run_cli(argv + ["--threads", str(threads), "--obs-out", str(dump)], block_trials, reference),
                     dump.read_bytes() if dump.exists() else None))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    stdout, stderr, code, _ = runs[0]
    assert (code, stderr) == (0, "") or (code == 1 and stderr.startswith("error: ") and stderr.count("\n") == 1)


# ---------------------------------------------------------------------------
# The steps

@st.composite
def estimation_cases(draw):
    m, n_rx = draw(st.integers(1, 5)), draw(st.sampled_from([1, 1, 2, 3, 5]))
    d = max(m, n_rx) + draw(st.sampled_from([0, 0, 1, 4]))
    t, n_sc = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    l = draw(st.integers(0, min(d, 3)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = zip(gen.choice(d, size=l, replace=False), gen.choice(d, size=l, replace=False))
    paths = [GridPath(int(p), int(q), int(gen.integers(t)), int(gen.integers(n_sc)), float(gen.uniform(0.3, 2.0)),
                      float(gen.uniform(-np.pi, np.pi))) for p, q in cells]
    dict_tx, dict_rx = build_dictionary(ArrayGeometry(m), d), build_dictionary(ArrayGeometry(n_rx), d)
    probes = random_probes(m, t, int(gen.integers(1 << 16)))
    clean = synthesize_observations(dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, 1e6)
    return dict_tx, dict_rx, probes, clean, l + draw(st.sampled_from([0, 0, 1])), draw(NOISES)


def report_text(detections, estimates, ratios, residual=None):
    lines = [repr(residual.hex() if residual is not None else None)]
    lines += [f"{det.aod_index},{det.aoa_index},{det.series.tobytes().hex()}" for det in detections]
    lines += [repr(est) for est in estimates]  # repr keeps the sign of a zero
    return "\n".join(lines + [ratios.tobytes().hex()])


@PROPERTY
@given(estimation_cases(), st.integers(0, 2**32 - 1))
def test_steps_in_a_reused_scratch_match_the_reference_steps(case, seed):
    dict_tx, dict_rx, probes, clean, num_paths, noise = case
    prepared = _probe_gains(dict_tx, probes, clean.n_symbols)
    scratch = _scratch(clean.data.shape, dict_rx.size)
    scratch.residual.fill(np.nan)  # what an earlier trial left must not show
    scratch.projection.fill(np.inf)
    held = clean.data.copy()
    for stream in (2, 3):  # the second pass reuses what the first one wrote
        expected = reference_add_noise(clean, noise, seed, stream)
        for obs in (_add_noise(clean, noise, seed, stream, scratch), _add_noise(clean, noise, seed, stream)):
            assert obs.data.tobytes() == expected.data.tobytes()
            for order in ("doppler_first", "delay_first"):
                mine = outcome(lambda: _estimate_paths(obs, dict_rx, num_paths, prepared, order, scratch))
                theirs = outcome(lambda: reference_estimate_paths(expected, dict_rx, num_paths, prepared, order))
                if isinstance(theirs, str):
                    assert mine == theirs
                    continue
                assert report_text(*mine) == report_text(*theirs)
                report = outcome(lambda: estimate_paths(obs, dict_tx, dict_rx, num_paths, probes, order=order))
                residual = _residual_energy(expected, dict_rx, prepared[0], theirs[0])
                assert report_text(mine[0], report.paths, report.peak_ratios, report.residual_energy) == \
                    report_text(*theirs, residual)
    assert clean.data.tobytes() == held.tobytes()


@PROPERTY
@given(estimation_cases(), st.integers(0, 2**32 - 1))
def test_noisy_synthesis_matches_the_reference_noise(case, seed):
    dict_tx, dict_rx, probes, clean, num_paths, noise = case
    noisy = synthesize_observations(dict_rx, dict_tx, [], probes, clean.n_subcarriers, SPACING, DURATION, 1e6,
                                    noise_variance=noise, seed=seed, stream=5)
    assert noisy.data.tobytes() == reference_add_noise(replace(noisy, data=np.zeros_like(noisy.data)), noise, seed,
                                                       5).data.tobytes()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.lists(st.integers(1, 7), max_size=3) | st.integers(1, 40))
def test_complex_normal_matches_the_reference_draw(seed, lanes, shape):
    gens = [philox_stream(seed, stream) for stream in range(lanes)]
    again = [philox_stream(seed, stream) for stream in range(lanes)]
    (stacked,) = complex_normals(gens, [(shape,) if isinstance(shape, int) else tuple(shape)])
    assert stacked.tobytes() == reference_complex_normal(again, shape).tobytes()
    assert complex_normal_seeded(shape, seed, 9).tobytes() == \
        reference_complex_normal(philox_stream(seed, 9), shape).tobytes()


def test_both_search_refusals_match_the_reference():
    dict_tx, dict_rx = build_dictionary(ArrayGeometry(4), 4), build_dictionary(ArrayGeometry(4), 4)
    probes = random_probes(4, 8, 5)
    prepared = _probe_gains(dict_tx, probes, 8)
    zeros = ObservationTensor(np.zeros((16, 8, 4)), SPACING, DURATION, CARRIER)
    one_path = synthesize_observations(dict_rx, dict_tx, [GridPath(2, 3, 1, 4, 1.0, 0.3)], probes, 16, SPACING,
                                       DURATION, CARRIER)
    for obs, num_paths, message in ((zeros, 1, "observations are all zero"),
                                    (one_path, 3, "greedy rounds revisit the same grid cell; paths collide or "
                                                  "exceed resolution")):
        scratch = _scratch(obs.data.shape, dict_rx.size)
        for order in ("doppler_first", "delay_first"):
            assert outcome(lambda: _estimate_paths(obs, dict_rx, num_paths, prepared, order, scratch)) == \
                outcome(lambda: reference_estimate_paths(obs, dict_rx, num_paths, prepared, order)) == \
                f"ValueError: {message}"

