import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isacsim import NoiseSpec, estimation_rate, optimal_sensing_waveform, random_channel, sensing_capacity

POWERS = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)  # powers from 1e-300 to 1e300, log-uniform
VARIANCES = POWERS | st.just(5e-324)  # and the smallest subnormal noise variance


def random_cov(dim, rank, seed, scale=1.0):
    g = random_channel(dim, rank, seed)
    return scale * (g @ g.conj().T) / rank


def rate_via_t_side(x, qh, noise_var, n, t):
    """Oracle: evaluate the T x T determinant form directly."""
    gram = x @ qh @ x.conj().T
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return n / t * np.sum(np.log2(1 + np.maximum(eig, 0) / noise_var))


class TestEstimationRate:
    def test_zero_probing_gives_zero(self):
        qh = random_cov(3, 3, 0)
        assert estimation_rate(np.zeros((4, 3)), qh, NoiseSpec(1.0), rx_count=2, t=4) == 0.0

    def test_scalar_case(self):
        q, x, n = 2.5, 0.7 + 0.3j, 3
        got = estimation_rate(np.array([[x]]), np.array([[q]]), NoiseSpec(1.0), rx_count=n, t=1)
        assert abs(got - n * np.log2(1 + q * abs(x) ** 2)) < 1e-12

    def test_duality_of_determinant_forms(self):
        noise = NoiseSpec(0.6)
        for seed in range(10):
            x = random_channel(4, 3, seed)
            qh = random_cov(3, 3, seed + 50)
            got = estimation_rate(x, qh, noise, rx_count=2, t=4)
            assert abs(got - rate_via_t_side(x, qh, noise.variance, 2, 4)) < 1e-9

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimation_rate(np.zeros((4, 3)), random_cov(2, 2, 1), NoiseSpec(1.0), 2, 4)
        with pytest.raises(ValueError):
            estimation_rate(np.zeros((4, 3)), random_cov(3, 3, 1), NoiseSpec(1.0), 2, t=5)


class TestOptimalSensingWaveform:
    def test_identity_covariance_splits_evenly(self):
        m, t, p_t = 3, 3, 2.0
        wf = optimal_sensing_waveform(np.eye(m), t, p_t, NoiseSpec(1.0))
        np.testing.assert_allclose(wf.allocation.levels, t * p_t / m * np.ones(m), atol=1e-9)
        rate = estimation_rate(wf.block, np.eye(m), NoiseSpec(1.0), rx_count=2, t=t)
        expected = 2 / t * m * np.log2(1 + t * p_t / (m * 1.0))
        assert abs(rate - expected) < 1e-9

    def test_rank_one_covariance_focuses_energy(self):
        v = random_channel(4, 1, 3)
        v /= np.linalg.norm(v)
        qh = 2.0 * (v @ v.conj().T)
        wf = optimal_sensing_waveform(qh, 5, 1.0, NoiseSpec(1.0))
        assert wf.block.shape == (5, 4)
        # every row of the block is proportional to v^H
        proj = wf.block - (wf.block @ v) @ v.conj().T
        np.testing.assert_allclose(proj, 0, atol=1e-10)

    def test_factorization_invariants(self):
        for seed in range(5):
            qh = random_cov(3, 2, seed + 9)
            wf = optimal_sensing_waveform(qh, 4, 1.5, NoiseSpec(0.5))
            g = wf.orthobasis.shape[1]
            np.testing.assert_allclose(
                wf.orthobasis.conj().T @ wf.orthobasis, np.eye(g), atol=1e-10
            )
            rebuilt = (wf.orthobasis * np.sqrt(wf.allocation.levels)) @ wf.eigvecs.conj().T
            np.testing.assert_allclose(rebuilt, wf.block, atol=1e-10)
            assert abs(np.trace(wf.block @ wf.block.conj().T).real - 4 * 1.5) < 1e-9
            inner = (wf.block @ wf.eigvecs).conj().T @ (wf.block @ wf.eigvecs)
            np.testing.assert_allclose(inner, np.diag(np.diag(inner)), atol=1e-10)

    def test_dominates_random_equal_energy_waveforms(self):
        noise = NoiseSpec(1.0)
        qh = random_cov(3, 2, 33)
        t, p_t, n = 4, 1.0, 2
        wf = optimal_sensing_waveform(qh, t, p_t, noise)
        best = estimation_rate(wf.block, qh, noise, n, t)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            x = rng.normal(size=(t, 3)) + 1j * rng.normal(size=(t, 3))
            x *= np.sqrt(t * p_t) / np.linalg.norm(x)
            assert estimation_rate(x, qh, noise, n, t) <= best + 1e-9

    def test_rejects_short_blocks_and_zero_covariance(self):
        with pytest.raises(ValueError):
            optimal_sensing_waveform(np.eye(3), 2, 1.0, NoiseSpec(1.0))
        with pytest.raises(ValueError):
            optimal_sensing_waveform(np.zeros((3, 3)), 4, 1.0, NoiseSpec(1.0))


    def test_stack_gives_each_covariance_its_own_waveform(self):
        # ranks 3, 1 and 2: the stack keeps 3 modes and powers none past a matrix's rank
        qhs = [random_cov(3, 3, 40), random_cov(3, 1, 41), random_cov(3, 2, 42)]
        stacked = optimal_sensing_waveform(np.stack(qhs), 4, 1.5, NoiseSpec(0.5))
        assert stacked.block.shape == (3, 4, 3) and stacked.orthobasis.shape == (4, 3)
        for i, qh in enumerate(qhs):
            alone = optimal_sensing_waveform(qh, 4, 1.5, NoiseSpec(0.5))
            levels = alone.allocation.levels
            assert np.array_equal(stacked.allocation.levels[i], np.pad(levels, (0, 3 - levels.size)))
            np.testing.assert_allclose(stacked.block[i], alone.block, rtol=0, atol=1e-12)
        # the zero lane is found before the fill, which would warn on its all-inf floors
        with warnings.catch_warnings(), pytest.raises(ValueError, match="zero"):
            warnings.simplefilter("error")
            optimal_sensing_waveform(np.stack([qhs[0], np.zeros((3, 3))]), 4, 1.0, NoiseSpec(1.0))

class TestSensingCapacity:
    def test_zero_covariance_gives_zero(self):
        res = sensing_capacity(np.zeros((3, 3)), 2, 4, 1.0, NoiseSpec(1.0))
        assert res.bits_per_transmission == 0.0
        assert res.allocation is None

    def test_linear_in_receive_antennas(self):
        qh = random_cov(3, 3, 2)
        noise = NoiseSpec(1.0)
        r1 = sensing_capacity(qh, 2, 4, 1.0, noise).bits_per_transmission
        r2 = sensing_capacity(qh, 4, 4, 1.0, noise).bits_per_transmission
        assert abs(r2 - 2 * r1) < 1e-12

    def test_block_length_change_matches_closed_form(self):
        qh = random_cov(2, 2, 6)
        noise = NoiseSpec(1.0)
        for t in (2, 3, 4):
            res = sensing_capacity(qh, 3, t, 1.0, noise)
            alloc = res.allocation
            expected = 3 / t * np.sum(np.log2(1 + alloc.eigenvalues * alloc.levels / noise.variance))
            assert abs(res.bits_per_transmission - expected) < 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m), st.integers(m, m + 4))),
           st.integers(1, 5), POWERS, VARIANCES, st.integers(0, 2**32 - 1))
    @example((3, 3, 5), 2, 1.2, 0.4, 70)
    def test_capacity_equals_rate_at_optimal_waveform(self, mrt, n_s, power, noise_var, seed):
        m, rank, t = mrt
        qh, noise = random_cov(m, rank, seed), NoiseSpec(noise_var)
        try:
            cap = sensing_capacity(qh, n_s, t, power, noise).bits_per_transmission
        except ValueError:  # an infinite capacity
            cap = 0.0
        assume(cap > 0)
        rate = estimation_rate(optimal_sensing_waveform(qh, t, power, noise).block, qh, noise, n_s, t)
        assert abs(rate - cap) <= 1e-12 * cap, (rate, cap)
