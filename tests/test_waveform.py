import numpy as np
import pytest

from isacsim import (
    ConvergenceError,
    NoiseSpec,
    comm_capacity,
    interference_power,
    mutual_information_comm,
    optimize_weighted_mi,
    random_channel,
    sensing_capacity,
    solve_constant_modulus,
    solve_covariance_constrained,
    solve_pareto_tradeoff,
    solve_per_antenna,
    weighted_mi_objective,
)
from isacsim.sensing import optimal_sensing_waveform


def random_cov(dim, seed, trace=None):
    g = random_channel(dim, dim, seed)
    q = g @ g.conj().T / dim
    if trace is not None:
        q *= trace / np.trace(q).real
    return q


def pareto_objective(hc, c, xs, rho, x):
    return rho * np.linalg.norm(hc @ x - c, "fro") ** 2 + (1 - rho) * np.linalg.norm(x - xs, "fro") ** 2


class TestInterferencePower:
    def test_exact_fit_gives_zero(self):
        hc = random_channel(2, 3, 0)
        xc = random_channel(3, 4, 1)
        assert interference_power(xc, hc, hc @ xc) < 1e-20

    def test_zero_waveform_gives_symbol_energy(self):
        hc = random_channel(2, 3, 2)
        c = random_channel(2, 4, 3)
        assert abs(interference_power(np.zeros((3, 4)), hc, c) - np.linalg.norm(c) ** 2) < 1e-12

    def test_matches_elementwise_sum(self):
        hc, xc, c = random_channel(2, 3, 4), random_channel(3, 4, 5), random_channel(2, 4, 6)
        diff = hc @ xc - c
        expected = sum(abs(diff[i, j]) ** 2 for i in range(2) for j in range(4))
        assert abs(interference_power(xc, hc, c) - expected) < 1e-9

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            interference_power(np.zeros((3, 4)), np.zeros((2, 2)), np.zeros((2, 4)))


class TestWeightedMiObjective:
    def setup_method(self):
        self.noise = NoiseSpec(1.0)
        self.hc = random_channel(3, 3, 10)
        self.qh = random_cov(3, 11)
        self.t, self.n_s, self.budget = 6, 2, 2.0
        self.comm_norm = comm_capacity(self.hc, self.budget, self.noise).bits_per_symbol
        self.sens_norm = sensing_capacity(
            self.qh, self.n_s, self.t, self.budget, self.noise
        ).bits_per_transmission

    def test_comm_endpoint_self_normalizes(self):
        q = comm_capacity(self.hc, self.budget, self.noise).covariance
        val = weighted_mi_objective(
            q, self.hc, self.qh, 1.0, self.noise, self.t, self.n_s, self.comm_norm, self.sens_norm
        )
        assert abs(val - 1.0) < 1e-12

    def test_sensing_endpoint_self_normalizes(self):
        wf = optimal_sensing_waveform(self.qh, self.t, self.budget, self.noise)
        q = (wf.block.conj().T @ wf.block) / self.t
        val = weighted_mi_objective(
            q, self.hc, self.qh, 0.0, self.noise, self.t, self.n_s, self.comm_norm, self.sens_norm
        )
        assert abs(val - 1.0) < 1e-12

    def test_matches_hand_assembled_sum(self):
        q = random_cov(3, 12, trace=self.budget)
        comm_bits = mutual_information_comm(self.hc, q, self.noise)
        # sensing term through the probing Gram identification X^H X = T Q
        gram = self.qh @ (self.t * q)
        eig = np.linalg.eigvals(gram).real
        sens_bits = self.n_s / self.t * np.sum(np.log2(1 + np.maximum(eig, 0) / self.noise.variance))
        expected = 0.5 * comm_bits / self.comm_norm + 0.5 * sens_bits / self.sens_norm
        got = weighted_mi_objective(
            q, self.hc, self.qh, 0.5, self.noise, self.t, self.n_s, self.comm_norm, self.sens_norm
        )
        assert abs(got - expected) < 1e-9

    def test_rejects_zero_normalizer(self):
        q = random_cov(3, 13, trace=1.0)
        with pytest.raises(ValueError, match="^communication normalizer must be > 0$"):
            weighted_mi_objective(q, self.hc, self.qh, 0.5, self.noise, self.t, self.n_s, 0.0, 1.0)
        with pytest.raises(ValueError, match="^sensing normalizer must be > 0$"):
            weighted_mi_objective(q, self.hc, self.qh, 0.5, self.noise, self.t, self.n_s, 1.0, 0.0)
        # Q_h is checked before the normalizers
        with pytest.raises(ValueError, match="^channel covariance is not positive semidefinite"):
            weighted_mi_objective(q, self.hc, -self.qh, 0.5, self.noise, self.t, self.n_s, 0.0, 0.0)

    def test_concave_along_random_segments(self):
        for seed in range(20):
            q1 = random_cov(3, 200 + seed, trace=self.budget)
            q2 = random_cov(3, 300 + seed, trace=self.budget)
            args = (self.hc, self.qh, 0.4, self.noise, self.t, self.n_s, self.comm_norm, self.sens_norm)
            mid = weighted_mi_objective((q1 + q2) / 2, *args)
            chord = 0.5 * (weighted_mi_objective(q1, *args) + weighted_mi_objective(q2, *args))
            assert mid >= chord - 1e-9


class TestOptimizeWeightedMi:
    def setup_method(self):
        self.noise = NoiseSpec(1.0)
        self.hc = random_channel(2, 2, 20)
        self.qh = random_cov(2, 21)
        self.t, self.n_s, self.budget = 4, 2, 1.5

    def test_comm_endpoint_reaches_capacity(self):
        _, obj, _ = optimize_weighted_mi(self.hc, self.qh, 1.0, self.budget, self.noise, self.t, self.n_s)
        assert abs(obj - 1.0) < 1e-6

    def test_sensing_endpoint_reaches_capacity(self):
        _, obj, _ = optimize_weighted_mi(self.hc, self.qh, 0.0, self.budget, self.noise, self.t, self.n_s)
        assert abs(obj - 1.0) < 1e-6

    def test_midpoint_beats_both_endpoint_covariances(self):
        rho = 0.5
        q_mid, obj, norms = optimize_weighted_mi(
            self.hc, self.qh, rho, self.budget, self.noise, self.t, self.n_s
        )
        args = (self.hc, self.qh, rho, self.noise, self.t, self.n_s, *norms)
        q_comm = comm_capacity(self.hc, self.budget, self.noise).covariance
        wf = optimal_sensing_waveform(self.qh, self.t, self.budget, self.noise)
        q_sens = (wf.block.conj().T @ wf.block) / self.t
        assert obj >= weighted_mi_objective(q_comm, *args) - 1e-9
        assert obj >= weighted_mi_objective(q_sens, *args) - 1e-9
        assert np.trace(q_mid).real <= self.budget + 1e-9

    def test_midpoint_matches_dense_grid_oracle(self):
        # exhaustive scan over 2x2 PSD trace-P matrices, then one local refinement
        rho, p = 0.5, self.budget
        _, obj, norms = optimize_weighted_mi(self.hc, self.qh, rho, p, self.noise, self.t, self.n_s)
        root = np.linalg.cholesky(self.qh + 1e-15 * np.eye(2) * np.trace(self.qh).real)

        def batch_objective(a, frac, theta):
            a, frac, theta = np.broadcast_arrays(a, frac, theta)
            b = p - a
            r = frac * np.sqrt(a * b)
            off = r * np.exp(1j * theta)
            qs = np.empty(a.shape + (2, 2), dtype=complex)
            qs[..., 0, 0], qs[..., 1, 1] = a, b
            qs[..., 0, 1], qs[..., 1, 0] = off, off.conj()
            def det2_bits(mats):
                d = (1 + mats[..., 0, 0]) * (1 + mats[..., 1, 1]) - mats[..., 0, 1] * mats[..., 1, 0]
                return np.log2(np.maximum(d.real, 1e-300))
            hqh = np.einsum("ij,...jk,lk->...il", self.hc, qs, self.hc.conj()) / self.noise.variance
            sqs = np.einsum("ij,...jk,kl->...il", root.conj().T, qs, root) * self.t / self.noise.variance
            comm = det2_bits(hqh)
            sens = self.n_s / self.t * det2_bits(sqs)
            return rho * comm / norms[0] + (1 - rho) * sens / norms[1]

        grids = (np.linspace(0, p, 61), np.linspace(0, 1, 31), np.linspace(0, 2 * np.pi, 49))
        mesh = np.meshgrid(*grids, indexing="ij")
        vals = batch_objective(*mesh)
        best = np.unravel_index(np.argmax(vals), vals.shape)
        centers = [g[i] for g, i in zip(grids, best)]
        steps = [g[1] - g[0] for g in grids]
        for _ in range(3):
            grids = tuple(
                np.clip(np.linspace(c - s, c + s, 21), lo, hi)
                for c, s, (lo, hi) in zip(centers, steps, ((0, p), (0, 1), (-np.inf, np.inf)))
            )
            mesh = np.meshgrid(*grids, indexing="ij")
            vals = batch_objective(*mesh)
            best = np.unravel_index(np.argmax(vals), vals.shape)
            centers = [g[i] for g, i in zip(grids, best)]
            steps = [s / 10 for s in steps]
        assert abs(obj - vals[best]) < 1e-3

    @pytest.mark.parametrize("budget, message", [
        (float("nan"), "^power budget must be > 0$"),  # NaN failed `budget <= 0` and reached the fill
        (0.0, "^power budget must be > 0$"),
        (float("inf"), "^power budget inf gives an infinite water-filled rate$"),
    ], ids=["nan", "zero", "inf"])
    def test_bad_budget_raises_its_message(self, budget, message):
        with pytest.raises(ValueError, match=message):
            optimize_weighted_mi(self.hc, self.qh, 0.5, budget, self.noise, self.t, self.n_s)

    def test_deterministic(self):
        a = optimize_weighted_mi(self.hc, self.qh, 0.3, 1.0, self.noise, self.t, self.n_s)
        b = optimize_weighted_mi(self.hc, self.qh, 0.3, 1.0, self.noise, self.t, self.n_s)
        np.testing.assert_array_equal(a[0], b[0])


class TestCovarianceConstrained:
    def test_feasible_target_attained_exactly(self):
        t = 3
        c = random_channel(2, t, 30)
        rs = (c @ c.conj().T) / t
        x = solve_covariance_constrained(np.eye(2), c, rs, t)
        np.testing.assert_allclose(x, c, atol=1e-8)
        assert interference_power(x, np.eye(2), c) < 1e-16

    def test_constraint_always_exact(self):
        for seed in range(10):
            m, k, t = 3, 2, 5
            hc = random_channel(k, m, seed)
            c = random_channel(k, t, seed + 50)
            rs = random_cov(m, seed + 100)
            x = solve_covariance_constrained(hc, c, rs, t)
            assert np.linalg.norm(x @ x.conj().T - t * rs, "fro") < 1e-8

    def test_beats_random_feasible_rotations(self):
        m, k, t = 2, 2, 3
        hc = random_channel(k, m, 60)
        c = random_channel(k, t, 61)
        rs = random_cov(m, 62)
        x = solve_covariance_constrained(hc, c, rs, t)
        best = interference_power(x, hc, c)
        vals, vecs = np.linalg.eigh(t * rs)
        f = vecs * np.sqrt(np.maximum(vals, 0))
        rng = np.random.default_rng(7)
        g = rng.normal(size=(10_000, t, t)) + 1j * rng.normal(size=(10_000, t, t))
        q, _ = np.linalg.qr(g)
        candidates = np.einsum("ij,njt->nit", f, q[:, : f.shape[1], :])
        objs = np.sum(np.abs(np.einsum("ki,nit->nkt", hc, candidates) - c) ** 2, axis=(1, 2))
        assert best <= objs.min() + 1e-9

    def test_rank_deficient_covariance(self):
        v = random_channel(3, 1, 70)
        rs = (v @ v.conj().T).real.astype(complex)
        x = solve_covariance_constrained(random_channel(2, 3, 71), random_channel(2, 4, 72), rs, 4)
        assert np.linalg.norm(x @ x.conj().T - 4 * rs, "fro") < 1e-8

    def test_rejects_short_block_and_non_psd(self):
        rs = random_cov(3, 80)
        with pytest.raises(ValueError):
            solve_covariance_constrained(random_channel(2, 3, 81), random_channel(2, 2, 82), rs, 2)
        with pytest.raises(ValueError):
            solve_covariance_constrained(
                random_channel(2, 2, 83), random_channel(2, 3, 84), np.diag([1.0, -1.0]), 3
            )


def pg_sphere_oracle(hc, c, xs, rho, energy, iters=50_000):
    """Independent projected-gradient solver on the fixed-energy sphere."""
    lip = 2 * (rho * np.linalg.norm(hc, 2) ** 2 + (1 - rho)) + 1e-9
    b = rho * hc.conj().T @ c + (1 - rho) * xs
    x = b if np.linalg.norm(b) > 0 else np.ones_like(xs)
    x = x * np.sqrt(energy) / np.linalg.norm(x)
    prev = np.inf
    for _ in range(iters):
        grad = 2 * (rho * hc.conj().T @ (hc @ x - c) + (1 - rho) * (x - xs))
        x = x - grad / lip
        x *= np.sqrt(energy) / np.linalg.norm(x)
        obj = pareto_objective(hc, c, xs, rho, x)
        if prev - obj < 1e-14 * max(1.0, obj):
            break
        prev = obj
    return x, obj


class TestParetoTradeoff:
    def setup_method(self):
        self.hc = random_channel(2, 2, 90)
        self.c = random_channel(2, 3, 91)
        self.energy = 3.0

    def test_rho_zero_returns_reference(self):
        xs = random_channel(2, 3, 92)
        xs *= np.sqrt(self.energy) / np.linalg.norm(xs)
        x = solve_pareto_tradeoff(self.hc, self.c, xs, 0.0, self.energy)
        np.testing.assert_allclose(x, xs, atol=1e-8)

    def test_rho_one_returns_energy_matched_ls(self):
        target = np.linalg.solve(self.hc, self.c)
        energy = float(np.linalg.norm(target) ** 2)
        xs = random_channel(2, 3, 93)
        x = solve_pareto_tradeoff(self.hc, self.c, xs, 1.0, energy)
        np.testing.assert_allclose(x, target, atol=1e-8)

    def test_energy_and_stationarity(self):
        for seed in range(10):
            xs = random_channel(2, 3, 94 + seed)
            rho = 0.3 + 0.05 * seed
            x = solve_pareto_tradeoff(self.hc, self.c, xs, rho, self.energy)
            assert abs(np.linalg.norm(x) ** 2 - self.energy) < 1e-8
            grad = rho * self.hc.conj().T @ (self.hc @ x - self.c) + (1 - rho) * (x - xs)
            lam = -np.real(np.vdot(x, grad)) / np.linalg.norm(x) ** 2
            assert np.linalg.norm(grad + lam * x, "fro") < 1e-6

    def test_matches_projected_gradient_oracle(self):
        for seed in range(5):
            xs = random_channel(2, 3, 300 + seed)
            x = solve_pareto_tradeoff(self.hc, self.c, xs, 0.5, self.energy)
            obj = pareto_objective(self.hc, self.c, xs, 0.5, x)
            _, oracle_obj = pg_sphere_oracle(self.hc, self.c, xs, 0.5, self.energy)
            assert obj <= oracle_obj + 1e-6
            assert abs(obj - oracle_obj) < 1e-6

    def test_pareto_monotone_in_rho(self):
        xs = random_channel(2, 3, 95)
        interference, distance = [], []
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = solve_pareto_tradeoff(self.hc, self.c, xs, rho, self.energy)
            interference.append(np.linalg.norm(self.hc @ x - self.c) ** 2)
            distance.append(np.linalg.norm(x - xs) ** 2)
        assert np.all(np.diff(interference) <= 1e-8)
        assert np.all(np.diff(distance) >= -1e-8)

    def test_degenerate_zero_load_fills_null_direction(self):
        # rho=1 with a rank-deficient channel: bottom eigen-directions carry no load
        hc = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        c = np.array([[0.5, 0.5]], dtype=complex).reshape(1, 2)
        hc = hc[:1]
        x = solve_pareto_tradeoff(hc, c, np.zeros((2, 2), dtype=complex), 1.0, 4.0)
        assert abs(np.linalg.norm(x) ** 2 - 4.0) < 1e-8
        assert np.linalg.norm(hc @ x - c) < 1e-6

    def test_rejects_bad_energy(self):
        with pytest.raises(ValueError):
            solve_pareto_tradeoff(self.hc, self.c, random_channel(2, 3, 96), 0.5, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_energy(self, value):
        # NaN and inf both pass a check of the form energy <= 0, and gave a non-finite design
        with pytest.raises(ValueError, match="^total energy must be finite and > 0$"):
            solve_pareto_tradeoff(self.hc, self.c, random_channel(2, 3, 96), 0.5, value)

    def test_rejects_more_streams_than_antennas(self):
        hc = random_channel(3, 2, 97)
        c = random_channel(3, 4, 98)
        xs = random_channel(2, 4, 99)
        with pytest.raises(ValueError):
            solve_pareto_tradeoff(hc, c, xs, 0.5, 1.0)
        with pytest.raises(ValueError):
            solve_covariance_constrained(hc, c, random_cov(2, 100), 4)


class TestPerAntenna:
    def setup_method(self):
        self.hc = random_channel(2, 2, 400)
        self.c = random_channel(2, 3, 401)
        self.row_energy = 1.5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_row_energy(self, value):
        # refused at once, not after every sweep as a ConvergenceError
        with pytest.raises(ValueError, match="^per-antenna energy must be finite and > 0$"):
            solve_per_antenna(self.hc, self.c, random_channel(2, 3, 402), 0.6, value)

    def test_row_norms_locked(self):
        xs = random_channel(2, 3, 402)
        x = solve_per_antenna(self.hc, self.c, xs, 0.6, self.row_energy)
        np.testing.assert_allclose(
            np.linalg.norm(x, axis=1) ** 2, self.row_energy * np.ones(2), atol=1e-8
        )

    def test_rho_zero_row_uniform_reference_is_fixed_point(self):
        xs = random_channel(2, 3, 403)
        xs = xs / np.linalg.norm(xs, axis=1, keepdims=True) * np.sqrt(self.row_energy)
        x = solve_per_antenna(self.hc, self.c, xs, 0.0, self.row_energy)
        np.testing.assert_allclose(x, xs, atol=1e-10)

    def test_beats_rescaled_pareto_initialization(self):
        for seed in range(5):
            xs = random_channel(2, 3, 404 + seed)
            rho = 0.5
            x = solve_per_antenna(self.hc, self.c, xs, rho, self.row_energy)
            init = solve_pareto_tradeoff(self.hc, self.c, xs, rho, 2 * self.row_energy)
            init = init / np.linalg.norm(init, axis=1, keepdims=True) * np.sqrt(self.row_energy)
            assert pareto_objective(self.hc, self.c, xs, rho, x) <= (
                pareto_objective(self.hc, self.c, xs, rho, init) + 1e-12
            )

    def test_two_by_two_matches_conditional_grid_oracle(self):
        hc = random_channel(2, 2, 500)
        c = random_channel(2, 2, 501)
        xs = random_channel(2, 2, 502)
        rho, cell = 0.6, 1.0
        x = solve_per_antenna(hc, c, xs, rho, cell)
        obj = pareto_objective(hc, c, xs, rho, x)

        # oracle: dense grid over row 1 of the unit sphere in C^2 (three free
        # angles once the norm is fixed); row 2 minimized exactly per candidate:
        # the conditional problem min a||r||^2 - 2 Re<b, r> on the sphere has
        # minimizer r = sqrt(cell) b/||b|| with b = rho h2^H E2 + (1-rho) xs2.
        def conditional_objective(psis, alphas, betas):
            shape = psis.shape
            rows1 = np.stack(
                [np.cos(psis) * np.exp(1j * alphas), np.sin(psis) * np.exp(1j * betas)], axis=-1
            ) * np.sqrt(cell)
            e2 = c[None, :, :] - np.einsum("k,...t->...kt", hc[:, 0], rows1).reshape(-1, 2, 2)
            b2 = rho * np.einsum("k,nkt->nt", hc[:, 1].conj(), e2) + (1 - rho) * xs[1]
            norms = np.linalg.norm(b2, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            rows2 = np.sqrt(cell) * b2 / norms
            flat1 = rows1.reshape(-1, 2)
            resid = np.einsum("k,nt->nkt", hc[:, 0], flat1) + np.einsum(
                "k,nt->nkt", hc[:, 1], rows2
            ) - c[None, :, :]
            objs = rho * np.sum(np.abs(resid) ** 2, axis=(1, 2))
            objs += (1 - rho) * (
                np.sum(np.abs(flat1 - xs[0]) ** 2, axis=1) + np.sum(np.abs(rows2 - xs[1]) ** 2, axis=1)
            )
            return objs.reshape(shape)

        grids = (
            np.linspace(0, np.pi / 2, 25),
            np.linspace(0, 2 * np.pi, 49),
            np.linspace(0, 2 * np.pi, 49),
        )
        mesh = np.meshgrid(*grids, indexing="ij")
        vals = conditional_objective(*mesh)
        best = np.unravel_index(np.argmin(vals), vals.shape)
        centers = [g[i] for g, i in zip(grids, best)]
        steps = [g[1] - g[0] for g in grids]
        for _ in range(4):
            grids = tuple(np.linspace(cc - s, cc + s, 17) for cc, s in zip(centers, steps))
            mesh = np.meshgrid(*grids, indexing="ij")
            vals = conditional_objective(*mesh)
            best = np.unravel_index(np.argmin(vals), vals.shape)
            centers = [g[i] for g, i in zip(grids, best)]
            steps = [s / 8 for s in steps]
        assert abs(obj - vals[best]) < 1e-3


class TestConstantModulus:
    def setup_method(self):
        self.hc = random_channel(2, 2, 600)
        self.c = random_channel(2, 2, 601)
        self.modulus = 0.9

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_modulus(self, value):
        # refused at once, not after every sweep as a ConvergenceError
        with pytest.raises(ValueError, match="^modulus must be finite and > 0$"):
            solve_constant_modulus(self.hc, self.c, random_channel(2, 2, 602), 0.7, value)

    def test_entry_magnitudes_exact(self):
        xs = random_channel(2, 2, 602)
        x = solve_constant_modulus(self.hc, self.c, xs, 0.7, self.modulus)
        np.testing.assert_allclose(np.abs(x), self.modulus, rtol=1e-14)

    def test_rho_zero_constant_modulus_reference_is_fixed_point(self):
        xs = self.modulus * np.exp(1j * np.angle(random_channel(2, 2, 603)))
        x = solve_constant_modulus(self.hc, self.c, xs, 0.0, self.modulus)
        np.testing.assert_allclose(x, xs, atol=1e-12)

    def test_two_by_two_matches_phase_grid_oracle(self):
        xs = random_channel(2, 2, 604)
        rho = 0.55
        x = solve_constant_modulus(self.hc, self.c, xs, rho, self.modulus)
        obj = pareto_objective(self.hc, self.c, xs, rho, x)

        def batch_objective(thetas):
            cand = self.modulus * np.exp(1j * thetas)  # (..., 2, 2)
            resid = np.einsum("ik,...kt->...it", self.hc, cand) - self.c
            return rho * np.sum(np.abs(resid) ** 2, axis=(-2, -1)) + (1 - rho) * np.sum(
                np.abs(cand - xs) ** 2, axis=(-2, -1)
            )

        base = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        mesh = np.stack(np.meshgrid(base, base, base, base, indexing="ij"), axis=-1).reshape(-1, 2, 2)
        vals = batch_objective(mesh)
        order = np.argsort(vals)[:20]
        candidates = mesh[order]
        step = base[1]
        for _ in range(3):
            step /= 8
            local = np.linspace(-4 * step, 4 * step, 9)
            offsets = np.stack(np.meshgrid(local, local, local, local, indexing="ij"), axis=-1)
            offsets = offsets.reshape(-1, 2, 2)
            refined = (candidates[:, None, :, :] + offsets[None, :, :, :]).reshape(-1, 2, 2)
            vals = batch_objective(refined)
            order = np.argsort(vals)[:20]
            candidates = refined[order]
        assert abs(obj - vals[order[0]]) < 1e-3

    def test_objective_monotone_over_sweeps(self):
        xs = random_channel(2, 2, 605)
        objectives = []
        for sweeps in range(1, 8):
            try:
                x = solve_constant_modulus(self.hc, self.c, xs, 0.4, self.modulus,
                                           max_sweeps=sweeps, tol=0.0)
            except ConvergenceError as err:
                x = err.best
            objectives.append(pareto_objective(self.hc, self.c, xs, 0.4, x))
        assert np.all(np.diff(objectives) <= 1e-12)

    def test_iteration_cap_raises_with_best(self):
        xs = random_channel(2, 2, 606)
        with pytest.raises(ConvergenceError) as info:
            solve_constant_modulus(self.hc, self.c, xs, 0.5, self.modulus, max_sweeps=1, tol=0.0)
        assert info.value.best is not None
        np.testing.assert_allclose(np.abs(info.value.best), self.modulus, rtol=1e-14)
