import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isacsim import NoiseSpec, comm_capacity, mutual_information_comm, random_channel, waterfill
from isacsim.capacity import require_psd

POWERS = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)  # budgets from 1e-300 to 1e300, log-uniform
VARIANCES = POWERS | st.just(5e-324)  # and the smallest subnormal noise variance


def random_psd(dim, trace, seed):
    g = random_channel(dim, dim, seed)
    q = g @ g.conj().T
    return q * (trace / np.trace(q).real)


def grid_search_two_modes(lams, budget, noise_var, steps=2001):
    """Oracle: scan the power split between two modes."""
    b1 = np.linspace(0.0, budget, steps)
    rates = np.log2(1 + lams[0] * b1 / noise_var) + np.log2(1 + lams[1] * (budget - b1) / noise_var)
    k = int(np.argmax(rates))
    return b1[k], rates[k]


class TestMutualInformation:
    def test_zero_covariance_gives_zero_bits(self):
        h = random_channel(3, 2, 0)
        assert mutual_information_comm(h, np.zeros((2, 2)), NoiseSpec(1.0)) == 0.0

    def test_scalar_shannon_formula(self):
        for p in (0.5, 1.0, 7.0):
            got = mutual_information_comm(np.eye(1), np.array([[p]]), NoiseSpec(1.0))
            assert abs(got - np.log2(1 + p)) < 1e-12

    def test_matches_eigenvalue_form(self):
        # oracle: sum of log2(1 + eig_i / sigma^2) over eigenvalues of H Q H^H
        noise = NoiseSpec(0.7)
        for seed in range(5):
            h = random_channel(3, 2, seed)
            q = random_psd(2, 1.5, seed + 100)
            eig = np.linalg.eigvalsh(h @ q @ h.conj().T)
            expected = np.sum(np.log2(1 + np.maximum(eig, 0) / noise.variance))
            assert abs(mutual_information_comm(h, q, noise) - expected) < 1e-9

    def test_rejects_non_psd(self):
        h = random_channel(2, 2, 1)
        with pytest.raises(ValueError):
            mutual_information_comm(h, np.diag([1.0, -0.5]), NoiseSpec(1.0))
        with pytest.raises(ValueError):
            mutual_information_comm(h, np.array([[1.0, 1.0], [0.0, 1.0]]), NoiseSpec(1.0))



class TestRequirePsd:
    def test_stack_returns_each_matrix_checked_alone(self):
        qs = np.stack([random_psd(3, 2.0, seed) for seed in range(4)])
        vals, vecs = require_psd(qs)
        for q, v, u in zip(qs, vals, vecs):
            alone = require_psd(q)
            assert np.array_equal(v, alone[0]) and np.array_equal(u, alone[1])

    def test_stack_fails_on_one_bad_matrix(self):
        good = random_psd(2, 1.0, 5)
        with pytest.raises(ValueError, match="positive semidefinite"):
            require_psd(np.stack([good, np.diag([1.0, -0.5])]))
        with pytest.raises(ValueError, match="Hermitian"):
            require_psd(np.stack([good, np.array([[1.0, 1.0], [0.0, 1.0]])]))
        with pytest.raises(ValueError, match="square"):
            require_psd(np.zeros((2, 2, 3)))

class TestWaterfill:
    def test_symmetric_modes_split_equally(self):
        alloc = waterfill([1.0, 1.0], 2.0, NoiseSpec(1.0))
        np.testing.assert_allclose(alloc.levels, [1.0, 1.0])

    def test_two_mode_closed_form(self):
        alloc = waterfill([4.0, 1.0], 1.0, NoiseSpec(1.0))
        np.testing.assert_allclose(alloc.levels, [0.875, 0.125], atol=1e-12)
        assert abs(alloc.water_level - 1.125) < 1e-12
        # independent grid-search oracle over the split
        b1, _ = grid_search_two_modes([4.0, 1.0], 1.0, 1.0)
        assert abs(b1 - alloc.levels[0]) < 1e-3

    def test_weak_mode_shuts_off(self):
        alloc = waterfill([10.0, 0.001], 0.5, NoiseSpec(1.0))
        assert alloc.levels[1] == 0.0
        assert abs(alloc.levels[0] - 0.5) < 1e-12
        assert alloc.water_level < 1.0 / 0.001
        b1, _ = grid_search_two_modes([10.0, 0.001], 0.5, 1.0)
        assert abs(b1 - 0.5) < 1e-3

    def test_budget_always_spent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lams = rng.uniform(0.01, 10, size=rng.integers(1, 7))
            budget = float(rng.uniform(0.1, 5))
            alloc = waterfill(lams, budget, NoiseSpec(float(rng.uniform(0.1, 2))))
            assert abs(alloc.levels.sum() - budget) < 1e-9
            assert np.all(alloc.levels >= 0)

    def test_kkt_active_modes_share_water_level(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            lams = rng.uniform(0.05, 8, size=5)
            noise = NoiseSpec(1.0)
            alloc = waterfill(lams, float(rng.uniform(0.2, 4)), noise)
            active = alloc.levels > 0
            totals = alloc.levels[active] + noise.variance / alloc.eigenvalues[active]
            assert np.ptp(totals) < 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill([], 1.0, NoiseSpec(1.0))
        with pytest.raises(ValueError):
            waterfill([1.0, 0.0], 1.0, NoiseSpec(1.0))
        with pytest.raises(ValueError):
            waterfill([1.0], 0.0, NoiseSpec(1.0))

    def test_overflowing_floor_is_an_infinite_floor_without_warnings(self):
        # sigma^2 / 0.5 overflows: that mode lies above every finite water level and gets nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = waterfill([0.5, 2.0], 1.0, NoiseSpec(1e308))
        assert alloc.water_level == 1e308 / 2.0 + 1.0 and alloc.levels[1] == 0.0

    @pytest.mark.parametrize("budget, message", [
        (float("nan"), "^power budget must be > 0$"),  # NaN failed `budget <= 0`
        (float("inf"), "^power budget inf gives an infinite water-filled rate$"),
    ], ids=["nan", "inf"])
    def test_bad_budget_raises_its_message(self, budget, message):
        with pytest.raises(ValueError, match=message):
            waterfill([2.0, 1.0], budget, NoiseSpec(1.0))
        with pytest.raises(ValueError, match=message):
            comm_capacity(random_channel(2, 2, 0), budget, NoiseSpec(1.0))


class TestCommCapacity:
    def test_identity_channel_splits_evenly(self):
        res = comm_capacity(np.eye(2), 3.0, NoiseSpec(1.0))
        np.testing.assert_allclose(res.allocation.levels, [1.5, 1.5])
        assert abs(res.bits_per_symbol - 2 * np.log2(2.5)) < 1e-12

    def test_rank_one_channel_gets_all_power(self):
        h = np.diag([1.0, 0.0])
        res = comm_capacity(h, 2.0, NoiseSpec(1.0))
        assert res.allocation.levels.size == 1
        assert abs(res.bits_per_symbol - np.log2(3.0)) < 1e-12

    def test_dominates_random_feasible_covariances(self):
        noise = NoiseSpec(1.0)
        h = random_channel(4, 3, 21)
        res = comm_capacity(h, 2.0, noise)
        for seed in range(1000):
            q = random_psd(3, 2.0, 5000 + seed)
            assert mutual_information_comm(h, q, noise) <= res.bits_per_symbol + 1e-9

    def test_capacity_equals_mi_at_returned_covariance(self):
        noise = NoiseSpec(0.8)
        for seed in range(10):
            h = random_channel(3, 3, seed + 40)
            res = comm_capacity(h, 1.3, noise)
            assert abs(res.bits_per_symbol - mutual_information_comm(h, res.covariance, noise)) < 1e-9
            assert np.trace(res.covariance).real <= 1.3 + 1e-9

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m + 4))), POWERS, VARIANCES,
           st.integers(0, 2**32 - 1))
    @example((1, 4), 1e150, 1.0, 41)  # three unit eigenvalues of I + H Q H^H / sigma^2 beside one near 1e150
    @example((1, 1), 5e-324, 5e-324, 0)  # H Q H^H / sigma^2 overflows where H F / sigma does not
    def test_mi_at_returned_covariance_is_the_capacity_at_any_snr(self, mn, power, noise_var, seed):
        m, n_c = mn
        h, noise = random_channel(n_c, m, seed), NoiseSpec(noise_var)
        try:
            res = comm_capacity(h, power, noise)
        except ValueError:  # an infinite capacity
            res = None
        assume(res is not None and res.bits_per_symbol > 0)
        mi = mutual_information_comm(h, res.covariance, noise)
        assert abs(mi - res.bits_per_symbol) <= 1e-12 * res.bits_per_symbol, (mi, res.bits_per_symbol)

    def test_strictly_increasing_in_budget(self):
        h = random_channel(2, 2, 77)
        noise = NoiseSpec(1.0)
        caps = [comm_capacity(h, p, noise).bits_per_symbol for p in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(caps) > 0)

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            comm_capacity(np.zeros((2, 2)), 1.0, NoiseSpec(1.0))
