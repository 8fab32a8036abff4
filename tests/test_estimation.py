import dataclasses
import struct

import numpy as np
import pytest

from isacsim import (
    ArrayGeometry,
    GridPath,
    ObservationTensor,
    beam_search_angles,
    build_dictionary,
    estimate_delay,
    estimate_doppler,
    estimate_gain_phase,
    estimate_paths,
    random_probes,
    read_observations,
    synthesize_observations,
    write_observations,
)
from isacsim.rng import complex_normal, philox_stream

import goldens

SPACING = 15e3
DURATION = 1e-4
CARRIER = 1e6  # keeps the carrier-delay phase well inside float64 resolution


def make_setup(m=4, n_rx=4, d=4, t=8, n_sc=16, seed=5):
    dict_tx = build_dictionary(ArrayGeometry(m), d)
    dict_rx = build_dictionary(ArrayGeometry(n_rx), d)
    probes = random_probes(m, t, seed)
    return dict_tx, dict_rx, probes


def observe(paths, dict_tx, dict_rx, probes, n_sc=16, noise=0.0, seed=0):
    return synthesize_observations(
        dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, CARRIER,
        noise_variance=noise, seed=seed,
    )


class TestForwardModel:
    def test_single_path_matches_manual_assembly(self):
        dict_tx, dict_rx, probes = make_setup()
        path = GridPath(aoa_index=1, aod_index=2, doppler_bin=3, delay_bin=5,
                        magnitude=0.8, phase=0.4)
        obs = observe([path], dict_tx, dict_rx, probes)
        n, t = 7, 4  # subcarrier 7, symbol index 5 (1-based)
        tau = 5 / (16 * SPACING)
        coeff = (
            0.8
            * np.exp(-1j * (0.4 + 2 * np.pi * CARRIER * tau))
            * np.exp(-2j * np.pi * n * 5 / 16)
            * np.exp(2j * np.pi * (t + 1) * 3 / 8)
        )
        gain = dict_tx.matrix[:, 2] @ probes[:, t]
        np.testing.assert_allclose(obs.data[n, t], coeff * gain * dict_rx.matrix[:, 1], atol=1e-12)

    def test_rejects_out_of_range_bins(self):
        dict_tx, dict_rx, probes = make_setup()
        bad = GridPath(0, 0, doppler_bin=8, delay_bin=0, magnitude=1.0, phase=0.0)
        with pytest.raises(ValueError):
            observe([bad], dict_tx, dict_rx, probes)

    @pytest.mark.parametrize("field", ["aoa_index", "aod_index"])
    def test_rejects_grid_index_outside_dictionary(self, field):
        # index -1 used to wrap to the last atom and index D to raise a bare IndexError
        dict_tx, dict_rx, probes = make_setup(n_rx=3, d=5)
        edge = GridPath(0, 0, doppler_bin=1, delay_bin=2, magnitude=1.0, phase=0.0)
        for index in (0, 4):
            observe([dataclasses.replace(edge, **{field: index})], dict_tx, dict_rx, probes)
        for index in (-1, 5):
            with pytest.raises(ValueError, match="outside 0..D-1"):
                observe([dataclasses.replace(edge, **{field: index})], dict_tx, dict_rx, probes)


class TestBeamSearch:
    def test_single_path_exact_with_tiny_residual(self):
        dict_tx, dict_rx, probes = make_setup()
        path = GridPath(2, 3, 1, 4, 1.0, 0.3)
        obs = observe([path], dict_tx, dict_rx, probes)
        detections = beam_search_angles(obs, dict_tx, dict_rx, 1, probes)
        assert len(detections) == 1
        assert detections[0].aoa_index == 2 and detections[0].aod_index == 3
        recon = detections[0].series[:, :, None] * (
            dict_tx.matrix[:, 3] @ probes
        )[None, :, None] * dict_rx.matrix[:, 2][None, None, :]
        assert np.linalg.norm(obs.data - recon) < 1e-9

    def test_two_orthogonal_paths_in_two_rounds(self):
        dict_tx, dict_rx, probes = make_setup()
        paths = [GridPath(0, 1, 2, 3, 1.0, 0.0), GridPath(3, 2, 5, 9, 0.7, -1.2)]
        obs = observe(paths, dict_tx, dict_rx, probes)
        detections = beam_search_angles(obs, dict_tx, dict_rx, 2, probes)
        got = {(det.aoa_index, det.aod_index) for det in detections}
        assert got == {(0, 1), (3, 2)}

    def test_zero_paths_requested(self):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(0, 0, 0, 0, 1.0, 0.0)], dict_tx, dict_rx, probes)
        assert beam_search_angles(obs, dict_tx, dict_rx, 0, probes) == []

    def test_zero_observations_error(self):
        dict_tx, dict_rx, probes = make_setup()
        obs = ObservationTensor(np.zeros((16, 8, 4)), SPACING, DURATION, CARRIER)
        with pytest.raises(ValueError):
            beam_search_angles(obs, dict_tx, dict_rx, 1, probes)

    def test_clean_round_scores_one_transmit_atom(self, monkeypatch):
        # a noiseless path on orthonormal atoms has a tight bound no other atom reaches
        dict_tx, dict_rx, probes = make_setup(d=4)
        obs = observe([GridPath(2, 3, 1, 4, 1.0, 0.3)], dict_tx, dict_rx, probes)
        calls = []
        fft = np.fft.fft

        def counted(*args, **kwargs):
            calls.append(1)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        detections = beam_search_angles(obs, dict_tx, dict_rx, 1, probes)
        assert (detections[0].aoa_index, detections[0].aod_index) == (2, 3)
        assert len(calls) == 1

    def test_requesting_more_paths_than_resolvable(self):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(2, 3, 1, 4, 1.0, 0.3)], dict_tx, dict_rx, probes)
        with pytest.raises(ValueError):
            beam_search_angles(obs, dict_tx, dict_rx, 3, probes)

    @pytest.mark.parametrize("search", [beam_search_angles, estimate_paths])
    def test_bad_inputs_raise_their_own_messages(self, search):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(2, 3, 1, 4, 1.0, 0.3)], dict_tx, dict_rx, probes)
        silent = probes.copy()
        silent[:, 5] = 0.0  # symbol 5 probes no transmit atom
        zeros = ObservationTensor(np.zeros((16, 8, 4)), SPACING, DURATION, CARRIER)
        for args, message in (((zeros, probes), "observations are all zero"),
                              ((obs, silent), "probing leaves some transmit atoms unobserved at some symbol"),
                              ((obs, probes[:, :7]), "probes must supply one transmit vector per symbol"),
                              ((obs, probes[:3]), "probes must supply one transmit vector per symbol")):
            with pytest.raises(ValueError) as info:
                search(args[0], dict_tx, dict_rx, 1, args[1])
            assert str(info.value) == message


class TestEstimateDoppler:
    def test_on_grid_construction(self):
        h = np.exp(2j * np.pi * np.arange(8) * 3 / 8)
        bin_, c = estimate_doppler(h)
        assert bin_ == 3 and abs(c - 1.0) < 1e-12

    def test_static_target_peaks_at_dc(self):
        bin_, c = estimate_doppler(0.5j * np.ones(8))
        assert bin_ == 0 and abs(c - 0.5j) < 1e-12

    def test_off_grid_lands_on_nearest_bin(self):
        t = 8
        h = np.exp(2j * np.pi * np.arange(t) * 2.4 / t)
        bin_, _ = estimate_doppler(h)
        assert bin_ == 2
        spectrum = np.sort(np.abs(np.fft.fft(h)))[::-1]
        off_ratio = spectrum[0] / spectrum[1]
        on = np.abs(np.fft.fft(np.exp(2j * np.pi * np.arange(t) * 2 / t)))
        on_sorted = np.sort(on)[::-1]
        assert on_sorted[1] < 1e-10  # on-grid: single nonzero bin
        assert off_ratio < 1e10

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            estimate_doppler(np.zeros(8))
        with pytest.raises(ValueError):
            estimate_doppler(np.ones(1))


class TestEstimateDelay:
    def test_on_grid_construction(self):
        c = 2.0 * np.exp(-2j * np.pi * np.arange(16) * 5 / 16)
        bin_, amp = estimate_delay(c)
        assert bin_ == 5 and abs(amp - 2.0) < 1e-12

    def test_zero_delay(self):
        bin_, amp = estimate_delay(np.full(16, 1 - 1j))
        assert bin_ == 0 and abs(amp - (1 - 1j)) < 1e-12

    def test_noisy_bin_detection_rate(self):
        gen = philox_stream(31)
        n, snr = 16, 10 ** (20 / 10)
        hits = 0
        trials = 1000
        base = np.exp(-2j * np.pi * np.arange(n) * 5 / 16)
        for _ in range(trials):
            noisy = base + complex_normal(gen, n) / np.sqrt(snr)
            bin_, _ = estimate_delay(noisy)
            hits += bin_ == 5
        assert hits / trials > 0.99

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            estimate_delay(np.zeros(4))


class TestEstimateGainPhase:
    def test_unit_gain_no_doppler_no_delay(self):
        got = estimate_gain_phase(1.0 + 0j, 1.0 + 0j, 0.0, CARRIER)
        assert abs(got - 1.0) < 1e-12

    def test_forward_model_inversion(self):
        alpha = 0.5 * np.exp(1j * np.pi / 4)
        tau, f_x, t = 3 / (16 * SPACING), 5, 8
        c_d = np.exp(2j * np.pi * f_x / t)
        c0 = abs(alpha) * np.exp(-1j * (np.angle(alpha) + 2 * np.pi * CARRIER * tau))
        got = estimate_gain_phase(c0 * c_d, c_d, tau, CARRIER)
        assert abs(got - alpha) < 1e-9

    def test_phase_wrap_recovered_modulo_two_pi(self):
        alpha = 0.9 * np.exp(1j * (np.pi - 1e-3))
        tau = 7 / (16 * SPACING)
        c0 = abs(alpha) * np.exp(-1j * (np.angle(alpha) + 2 * np.pi * CARRIER * tau))
        got = estimate_gain_phase(c0, 1.0 + 0j, tau, CARRIER)
        assert abs(got - alpha) < 1e-9

    def test_rejects_zero_correction(self):
        with pytest.raises(ValueError):
            estimate_gain_phase(1.0 + 0j, 0j, 0.0, CARRIER)


class TestEstimatePaths:
    def test_single_path_round_trip_both_orders(self):
        dict_tx, dict_rx, probes = make_setup()
        path = GridPath(1, 2, 6, 11, 0.8, -0.9)
        obs = observe([path], dict_tx, dict_rx, probes)
        for order in ("doppler_first", "delay_first"):
            report = estimate_paths(obs, dict_tx, dict_rx, 1, probes, order=order)
            est = report.paths[0]
            assert (est.aoa_index, est.aod_index) == (1, 2)
            assert (est.doppler_bin, est.delay_bin) == (6, 11)
            assert abs(est.gain - 0.8 * np.exp(-0.9j)) < 1e-9
            assert report.residual_energy < 1e-9 * np.sum(np.abs(obs.data) ** 2)

    def test_zero_paths_reports_input_energy(self):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(0, 0, 1, 2, 1.0, 0.0)], dict_tx, dict_rx, probes)
        report = estimate_paths(obs, dict_tx, dict_rx, 0, probes)
        assert report.paths == ()
        assert abs(report.residual_energy - np.sum(np.abs(obs.data) ** 2)) < 1e-9

    def test_two_paths_round_trip(self):
        dict_tx, dict_rx, probes = make_setup()
        truth = {
            (0, 3): GridPath(0, 3, 2, 7, 1.1, 0.5),
            (2, 1): GridPath(2, 1, 7, 0, 0.6, 2.8),
        }
        obs = observe(list(truth.values()), dict_tx, dict_rx, probes)
        report = estimate_paths(obs, dict_tx, dict_rx, 2, probes)
        assert report.residual_energy < 1e-8 * np.sum(np.abs(obs.data) ** 2)
        for est in report.paths:
            true = truth[(est.aoa_index, est.aod_index)]
            assert est.doppler_bin == true.doppler_bin
            assert est.delay_bin == true.delay_bin
            assert abs(est.gain - true.magnitude * np.exp(1j * true.phase)) < 1e-9

    def test_orders_agree_exactly_on_grid(self):
        dict_tx, dict_rx, probes = make_setup(seed=9)
        gen = philox_stream(42)
        for _ in range(10):
            path = GridPath(
                int(gen.integers(4)), int(gen.integers(4)),
                int(gen.integers(8)), int(gen.integers(16)),
                float(gen.uniform(0.2, 2.0)), float(gen.uniform(-np.pi, np.pi)),
            )
            obs = observe([path], dict_tx, dict_rx, probes)
            a = estimate_paths(obs, dict_tx, dict_rx, 1, probes, order="doppler_first").paths[0]
            b = estimate_paths(obs, dict_tx, dict_rx, 1, probes, order="delay_first").paths[0]
            assert (a.aoa_index, a.aod_index, a.doppler_bin, a.delay_bin) == (
                b.aoa_index, b.aod_index, b.doppler_bin, b.delay_bin
            )
            assert abs(a.gain - b.gain) < 1e-10

    def test_peak_ratios_infinite_on_grid(self):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(1, 1, 3, 4, 1.0, 0.0)], dict_tx, dict_rx, probes)
        report = estimate_paths(obs, dict_tx, dict_rx, 1, probes)
        assert np.all(report.peak_ratios[0] > 1e6)

    def test_bin_error_rate_monotone_in_snr(self):
        dict_tx, dict_rx, probes = make_setup(m=2, n_rx=2, d=2, t=8, n_sc=8, seed=3)
        gen = philox_stream(77)
        rates = []
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            noise_var = (1 / 2) / 10 ** (snr_db / 10)
            wrong = 0
            trials = 150
            for k in range(trials):
                path = GridPath(
                    int(gen.integers(2)), int(gen.integers(2)),
                    int(gen.integers(8)), int(gen.integers(8)), 1.0,
                    float(gen.uniform(-np.pi, np.pi)),
                )
                obs = observe([path], dict_tx, dict_rx, probes, n_sc=8,
                              noise=noise_var, seed=int(gen.integers(1 << 32)))
                est = estimate_paths(obs, dict_tx, dict_rx, 1, probes).paths[0]
                wrong += not (
                    est.aoa_index == path.aoa_index
                    and est.aod_index == path.aod_index
                    and est.doppler_bin == path.doppler_bin
                    and est.delay_bin == path.delay_bin
                )
            rates.append(wrong / trials)
        assert np.all(np.diff(rates) <= 0.02)  # small slack for Monte-Carlo noise
        assert rates[-1] == 0.0

    def test_noisy_reports_match_golden_bytes(self):
        # written by the two mirrored stage branches; the shared stage path must reproduce
        # every field to the bit, in both orders, at T and N_sc that are not powers of two
        name = "estimate_paths_noisy.txt"
        assert goldens.produce(name) == (goldens.DATA / name).read_bytes()


def noisy_report_text() -> str:
    """Every field of 80 noisy estimate_paths reports, floats as repr, one line per path."""
    lines = []
    for seed in range(10):
        for t, n_sc in ((12, 24), (20, 10)):
            dict_tx, dict_rx, probes = make_setup(m=6, n_rx=5, d=12, t=t, seed=seed)
            gen = philox_stream(seed, stream=t)
            cells = zip(gen.choice(12, size=2, replace=False), gen.choice(12, size=2, replace=False))
            paths = [GridPath(int(p), int(q), int(gen.integers(t)), int(gen.integers(n_sc)),
                              float(gen.uniform(0.5, 1.5)), float(gen.uniform(-np.pi, np.pi)))
                     for p, q in cells]
            for noise in (0.05, 2.0):
                obs = observe(paths, dict_tx, dict_rx, probes, n_sc=n_sc, noise=noise, seed=seed)
                for order in ("doppler_first", "delay_first"):
                    report = estimate_paths(obs, dict_tx, dict_rx, 2, probes, order=order)
                    head = f"{seed},{t},{n_sc},{noise!r},{order}"
                    lines.append(f"{head},residual,{report.residual_energy!r}")
                    for est, ratios in zip(report.paths, report.peak_ratios):
                        lines.append(f"{head},path,{est.aod_index},{est.aoa_index},{est.doppler_bin},"
                                     f"{est.delay_bin},{est.gain.real!r},{est.gain.imag!r},"
                                     f"{float(ratios[0])!r},{float(ratios[1])!r}")
    return "\n".join(lines) + "\n"


class TestObservationFile:
    def test_round_trip(self, tmp_path):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(1, 2, 3, 4, 1.0, 0.2)], dict_tx, dict_rx, probes)
        path = tmp_path / "obs.bin"
        write_observations(obs, path)
        loaded = read_observations(path)
        np.testing.assert_array_equal(loaded.data, obs.data)
        assert loaded.subcarrier_spacing_hz == obs.subcarrier_spacing_hz
        assert loaded.symbol_duration_s == obs.symbol_duration_s
        assert loaded.carrier_hz == obs.carrier_hz

    def test_rejects_wrong_magic_and_truncation(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_observations(bad)
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(0, 0, 0, 0, 1.0, 0.0)], dict_tx, dict_rx, probes)
        path = tmp_path / "trunc.bin"
        write_observations(obs, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError):
            read_observations(path)

    def test_rejects_truncated_header(self, tmp_path):
        dict_tx, dict_rx, probes = make_setup()
        obs = observe([GridPath(0, 0, 0, 0, 1.0, 0.0)], dict_tx, dict_rx, probes)
        path = tmp_path / "obs.bin"
        write_observations(obs, path)
        full = path.read_bytes()
        magic_len = len(b"ISACOBS1")
        for cut in (magic_len + 2, magic_len + 12, magic_len + 35):
            path.write_bytes(full[:cut])
            with pytest.raises(ValueError, match="truncated"):
                read_observations(path)

    @pytest.mark.parametrize("dims, body, expected", [
        ((2**32 - 1,) * 3, 0, 2 * (2**32 - 1) ** 3),  # int64 wraps this count to 25769803774
        ((2**22, 2**21, 2**21), 0, 2**65),  # int64 wraps this count to 0, which an empty body matched
    ], ids=["max-dims", "wraps-to-zero"])
    def test_rejects_a_header_whose_scalar_count_overflows_int64(self, tmp_path, dims, body, expected):
        path = tmp_path / "huge.bin"
        path.write_bytes(b"ISACOBS1" + struct.pack("<III", *dims) + struct.pack("<ddd", SPACING, DURATION, CARRIER)
                         + b"\x00" * (16 * body))
        with pytest.raises(ValueError) as info:
            read_observations(path)
        assert str(info.value) == f"truncated observation file: expected {expected} scalars, found {2 * body}"
