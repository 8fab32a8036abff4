import numpy as np
import pytest

from isacsim import (
    ArrayGeometry,
    MmWaveChannelSpec,
    NoiseSpec,
    PathParameters,
    build_dictionary,
    load_channel_spec,
    random_channel,
    save_channel_spec,
    steering_vector,
    steering_vector_normalized,
    synthesize_channel,
    virtual_coefficients,
)
from isacsim.channel import path_coefficient


def factored_channel(spec, t):
    """Oracle: assemble the channel from its diagonal factorization."""
    a_rx = np.stack([steering_vector(spec.rx_geometry, p.aoa_rad) for p in spec.paths], axis=1)
    a_tx = np.stack([steering_vector(spec.tx_geometry, p.aod_rad) for p in spec.paths], axis=1)
    gains = np.diag([p.gain for p in spec.paths])
    delays = np.diag([np.exp(-2j * np.pi * spec.carrier_hz * p.delay_s) for p in spec.paths])
    doppler = np.diag(
        [np.exp(2j * np.pi * t * p.doppler_hz * spec.symbol_duration_s) for p in spec.paths]
    )
    return a_rx @ gains @ delays @ doppler @ a_tx.T


def random_spec(seed, n_paths=3, m=4, n=3):
    rng = np.random.default_rng(seed)
    paths = tuple(
        PathParameters(
            gain=complex(rng.normal(), rng.normal()),
            delay_s=float(rng.uniform(0, 1e-6)),
            doppler_hz=float(rng.uniform(-500, 500)),
            aod_rad=float(rng.uniform(-np.pi / 2, np.pi / 2)),
            aoa_rad=float(rng.uniform(-np.pi / 2, np.pi / 2)),
        )
        for _ in range(n_paths)
    )
    return MmWaveChannelSpec(ArrayGeometry(m), ArrayGeometry(n), paths, 28e9, 1e-4)


class TestSteeringVector:
    def test_broadside_two_elements(self):
        got = steering_vector(ArrayGeometry(2), 0.0)
        np.testing.assert_allclose(got, np.ones(2) / np.sqrt(2))

    def test_endfire_alternating_signs(self):
        got = steering_vector(ArrayGeometry(4), np.pi / 2)
        np.testing.assert_allclose(got, np.array([1, -1, 1, -1]) / 2, atol=1e-12)

    def test_thirty_degrees_phase_progression(self):
        # normalized angle 0.25: element 2 sits at phase -pi, i.e. -1/sqrt(8)
        got = steering_vector(ArrayGeometry(8), np.pi / 6)
        assert abs(np.vdot(got, got) - 1) < 1e-12
        np.testing.assert_allclose(got[2], -1 / np.sqrt(8), atol=1e-12)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            steering_vector(ArrayGeometry(4), 2.0)

    def test_unit_norm_over_random_angles(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            geom = ArrayGeometry(int(rng.integers(1, 16)), float(rng.uniform(0.3, 1.0)))
            v = steering_vector(geom, float(rng.uniform(-np.pi / 2, np.pi / 2)))
            assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_shift_identity_on_normalized_angles(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            v1, v2 = rng.uniform(-0.5, 0.5, size=2)
            lhs = steering_vector_normalized(n, v1 + v2)
            rhs = np.sqrt(n) * steering_vector_normalized(n, v1) * steering_vector_normalized(n, v2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSynthesizeChannel:
    def test_single_path_is_rank_one_outer_product(self):
        path = PathParameters(1.0 + 0j, 0.0, 0.0, 0.3, -0.4)
        spec = MmWaveChannelSpec(ArrayGeometry(4), ArrayGeometry(3), (path,), 28e9, 1e-4)
        h = synthesize_channel(spec, 1)
        expected = np.outer(steering_vector(spec.rx_geometry, -0.4),
                            steering_vector(spec.tx_geometry, 0.3))
        np.testing.assert_allclose(h, expected, atol=1e-12)
        assert np.linalg.matrix_rank(h) == 1

    def test_opposite_gains_cancel(self):
        p1 = PathParameters(1.0, 0.0, 0.0, 0.2, 0.5)
        p2 = PathParameters(-1.0, 0.0, 0.0, 0.2, 0.5)
        spec = MmWaveChannelSpec(ArrayGeometry(4), ArrayGeometry(4), (p1, p2), 1e9, 1e-4)
        np.testing.assert_allclose(synthesize_channel(spec, 2), 0, atol=1e-14)

    def test_matches_factored_form(self):
        for seed in range(5):
            spec = random_spec(seed)
            for t in (1, 3, 7):
                h = synthesize_channel(spec, t)
                np.testing.assert_allclose(h, factored_channel(spec, t), atol=1e-10)

    def test_rejects_zero_based_time(self):
        with pytest.raises(ValueError):
            synthesize_channel(random_spec(0), 0)

    def test_rejects_empty_paths(self):
        with pytest.raises(ValueError):
            MmWaveChannelSpec(ArrayGeometry(2), ArrayGeometry(2), (), 1e9, 1e-4)


class TestBuildDictionary:
    def test_square_grid_is_unitary(self):
        d = build_dictionary(ArrayGeometry(4), 4)
        np.testing.assert_allclose(d.matrix.conj().T @ d.matrix, np.eye(4), atol=1e-12)

    def test_columns_unit_norm(self):
        d = build_dictionary(ArrayGeometry(2), 8)
        gram = d.matrix.conj().T @ d.matrix
        np.testing.assert_allclose(np.diag(gram).real, np.ones(8), atol=1e-12)

    def test_shape_contract(self):
        d = build_dictionary(ArrayGeometry(3), 11)
        assert d.matrix.shape == (3, 11)
        assert d.grid_angles.shape == (11,)

    def test_rejects_undersized_grid(self):
        with pytest.raises(ValueError):
            build_dictionary(ArrayGeometry(4), 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matrix_is_the_per_atom_steering_loop_to_the_bit(self, n):
        # one exp over the element x grid outer product does each atom's own arithmetic
        for d in range(n, 4 * n + 1):
            dictionary = build_dictionary(ArrayGeometry(n), d)
            loop = np.stack([steering_vector_normalized(n, v) for v in dictionary.grid_normalized], axis=1)
            assert dictionary.matrix.shape == loop.shape and dictionary.matrix.tobytes() == loop.tobytes()

    def test_grid_angles_map_back_to_columns(self):
        d = build_dictionary(ArrayGeometry(4), 8)
        for i in range(8):
            np.testing.assert_allclose(
                d.matrix[:, i], steering_vector(d.geometry, d.grid_angles[i]), atol=1e-12
            )


class TestVirtualCoefficients:
    def _on_grid_spec(self, dictionary, entries):
        paths = tuple(
            PathParameters(gain, 0.0, doppler, dictionary.grid_angles[q], dictionary.grid_angles[p])
            for (p, q, gain, doppler) in entries
        )
        return MmWaveChannelSpec(dictionary.geometry, dictionary.geometry, paths, 1e9, 1e-4)

    def test_single_path_reconstructs(self):
        d = build_dictionary(ArrayGeometry(4), 4)
        spec = self._on_grid_spec(d, [(1, 3, 0.7 - 0.2j, 250.0)])
        out = virtual_coefficients(spec, 2, d, d)
        assert np.count_nonzero(out.matrix) == 1
        np.testing.assert_allclose(out.snap_distances, 0, atol=1e-12)
        recon = d.matrix @ out.matrix @ d.matrix.T
        np.testing.assert_allclose(recon, synthesize_channel(spec, 2), atol=1e-10)

    def test_zero_gains_give_zero_matrix(self):
        d = build_dictionary(ArrayGeometry(4), 4)
        spec = self._on_grid_spec(d, [(0, 0, 0.0, 0.0), (2, 1, 0.0, 0.0)])
        out = virtual_coefficients(spec, 1, d, d)
        np.testing.assert_allclose(out.matrix, 0)

    def test_two_paths_land_on_their_cells(self):
        d = build_dictionary(ArrayGeometry(4), 8)
        spec = self._on_grid_spec(d, [(1, 6, 1.0, 0.0), (5, 2, 2.0, 100.0)])
        out = virtual_coefficients(spec, 1, d, d)
        assert np.count_nonzero(out.matrix) == 2
        assert out.matrix[1, 6] != 0 and out.matrix[5, 2] != 0
        assert list(out.aoa_indices) == [1, 5] and list(out.aod_indices) == [6, 2]

    def test_off_grid_snaps_and_reports_distance(self):
        d = build_dictionary(ArrayGeometry(4), 4)
        path = PathParameters(1.0, 0.0, 0.0, d.grid_angles[2] + 0.05, d.grid_angles[1])
        spec = MmWaveChannelSpec(d.geometry, d.geometry, (path,), 1e9, 1e-4)
        out = virtual_coefficients(spec, 1, d, d)
        assert out.aod_indices[0] == 2
        assert out.snap_distances[0, 1] > 0


class TestRandomChannel:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_channel(3, 4, 99), random_channel(3, 4, 99))
        assert not np.array_equal(random_channel(3, 4, 99), random_channel(3, 4, 100))

    def test_unit_variance(self):
        h = random_channel(1000, 1, 5)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.1

    def test_shape_and_finite(self):
        h = random_channel(2, 2, 0)
        assert h.shape == (2, 2) and np.all(np.isfinite(h))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            random_channel(0, 2, 1)


class TestConfigRoundTrip:
    def test_json_round_trip_preserves_spec(self, tmp_path):
        spec = random_spec(7)
        path = tmp_path / "channel.json"
        save_channel_spec(spec, path)
        loaded = load_channel_spec(path)
        assert loaded.tx_geometry == spec.tx_geometry
        assert loaded.carrier_hz == spec.carrier_hz
        for a, b in zip(loaded.paths, spec.paths):
            assert abs(a.gain - b.gain) < 1e-12
            assert abs(a.aoa_rad - b.aoa_rad) < 1e-12
        np.testing.assert_allclose(
            synthesize_channel(loaded, 2), synthesize_channel(spec, 2), atol=1e-10
        )

    def test_angles_stored_in_degrees(self, tmp_path):
        import json

        spec = random_spec(8, n_paths=1)
        path = tmp_path / "channel.json"
        save_channel_spec(spec, path)
        data = json.loads(path.read_text())
        assert abs(data["paths"][0]["aod_deg"] - np.degrees(spec.paths[0].aod_rad)) < 1e-9

    def test_save_writes_the_exact_text(self, tmp_path):
        # sorted keys, two-space indent, a trailing newline; -0.5j keeps its signed zero real part
        spec = MmWaveChannelSpec(
            ArrayGeometry(4, 0.5), ArrayGeometry(3, 0.25),
            (PathParameters(1.5 - 0.25j, 1e-7, 250.0, np.pi / 4, -np.pi / 6),
             PathParameters(-0.5j, 0.0, -37.5, 0.0, np.pi / 3)),
            28e9, 1e-6,
        )
        path = tmp_path / "channel.json"
        save_channel_spec(spec, path)
        assert path.read_text(encoding="utf-8") == """\
{
  "carrier_hz": 28000000000.0,
  "paths": [
    {
      "aoa_deg": -29.999999999999996,
      "aod_deg": 45.0,
      "delay_s": 1e-07,
      "doppler_hz": 250.0,
      "gain_imag": -0.25,
      "gain_real": 1.5
    },
    {
      "aoa_deg": 59.99999999999999,
      "aod_deg": 0.0,
      "delay_s": 0.0,
      "doppler_hz": -37.5,
      "gain_imag": -0.5,
      "gain_real": -0.0
    }
  ],
  "rx": {
    "element_count": 3,
    "spacing_ratio": 0.25
  },
  "symbol_duration_s": 1e-06,
  "tx": {
    "element_count": 4,
    "spacing_ratio": 0.5
  }
}
"""


def test_path_coefficient_is_time_separable():
    # Doppler factors must compose multiplicatively across symbol indices
    path = PathParameters(0.5 + 0.5j, 1e-7, 300.0, 0.1, 0.2)
    c1 = path_coefficient(path, 1, 1e9, 1e-4)
    c2 = path_coefficient(path, 2, 1e9, 1e-4)
    step = np.exp(2j * np.pi * 300.0 * 1e-4)
    np.testing.assert_allclose(c2, c1 * step, atol=1e-12)


@pytest.mark.parametrize("variance", [np.nan, np.inf, -np.inf])
def test_noise_spec_rejects_a_non_finite_variance(variance):
    # NaN and inf both pass a check of the form variance <= 0; the capacities then failed
    # with a misleading "infinite water-filled rate"
    with pytest.raises(ValueError, match="^noise variance must be finite and > 0$"):
        NoiseSpec(variance)
