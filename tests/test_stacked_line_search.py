"""Property tests of the stacked weighted-MI line search and the lane-wise trace-ball projection.

`optimize_weighted_mi` projects and scores its line-search steps in stacked
rounds; the oracle below is the step-at-a-time search it replaces, with its
one-matrix projection, so every iterate must agree to the bit.  CI runs this
file under `-W error::RuntimeWarning`: the masked lanes of a stack and the
+inf pads of the water level must stay silent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import ConvergenceError, NoiseSpec, comm_capacity, optimize_weighted_mi, sensing_capacity
from isacsim.capacity import _from_eigs, _psd_factor, _water_level
from isacsim.waveform import _project_psd_trace, _weighted_mi_terms

seeds = st.integers(0, 2**32 - 1)


def cn(gen, *shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def one_matrix_projection(q, budget):
    """The trace-ball projection of one matrix, as it was before it took stacks."""
    vals, vecs = np.linalg.eigh((q + q.conj().T) / 2)
    clipped = np.maximum(vals, 0.0)
    if clipped.sum() > budget:
        clipped = np.maximum(vals + _water_level(-vals[::-1], budget), 0.0)
    return _from_eigs(vecs, clipped)


def sequential_weighted_mi(hc, qh, rho, budget, noise, t, n_s, max_iter=10_000, grad_tol=1e-6):
    """The projected-gradient ascent that projects and scores one line-search step at a time."""
    hc, qh = np.asarray(hc, dtype=complex), np.asarray(qh, dtype=complex)
    m = hc.shape[1]
    comm_norm = comm_capacity(hc, budget, noise).bits_per_symbol if rho > 0 else 1.0
    sens_norm = sensing_capacity(qh, n_s, t, budget, noise).bits_per_transmission if rho < 1 else 1.0
    f = _psd_factor(qh, "channel covariance") if rho < 1 else None

    terms = _weighted_mi_terms(hc, f, rho, noise, t, n_s, comm_norm, sens_norm)[0]

    def objective(q):
        return float(terms(q)[0])

    hh, fh = hc.conj().T, (f.conj().T if rho < 1 else None)
    eye_c, eye_s = np.eye(hc.shape[0]), (np.eye(f.shape[1]) if rho < 1 else None)
    comm_w = rho / (comm_norm * np.log(2.0) * noise.variance)
    sens_w = (1.0 - rho) * n_s / (sens_norm * np.log(2.0) * noise.variance)

    def gradient(q):
        g = np.zeros((m, m), dtype=complex)
        if rho > 0:
            g += comm_w * (hh @ np.linalg.inv(eye_c + hc @ q @ hh / noise.variance) @ hc)
        if rho < 1:
            g += sens_w * (f @ np.linalg.inv(eye_s + t * (fh @ q @ f) / noise.variance) @ fh)
        return (g + g.conj().T) / 2

    q = budget / m * np.eye(m, dtype=complex)
    obj = objective(q)
    step, gap = 1.0, np.inf
    for _ in range(max_iter):
        g = gradient(q)
        unit = one_matrix_projection(q + g, budget)
        gap = float(np.linalg.norm(unit - q, "fro"))
        if gap < grad_tol:
            return q, obj, (comm_norm, sens_norm)
        s = step
        while True:
            cand = unit if s == 1.0 else one_matrix_projection(q + s * g, budget)
            advance = float(np.real(np.vdot(g, cand - q)))
            cand_obj = objective(cand)
            if cand_obj >= obj + 1e-4 * advance and cand_obj > obj:
                break
            s *= 0.5
            if s < 1e-18:
                cand, cand_obj = q, obj
                break
        q, obj = cand, cand_obj
        step = min(s * 2.0, 1e6)
    raise ConvergenceError(f"no convergence (last gap {gap:.3e})", best=q, iterations=max_iter,
                           last_change=gap)


def outcome(solve, *args, **kwargs):
    """('ok', q bytes, objective, normalizers) or ('cap', best bytes, iterations, last change)."""
    try:
        q, obj, norms = solve(*args, **kwargs)
    except ConvergenceError as err:
        return "cap", err.best.tobytes(), err.iterations, err.last_change
    assert type(obj) is float
    return "ok", q.tobytes(), obj, norms


@st.composite
def weighted_mi_instances(draw):
    """A channel with k <= m streams, a Q_h of rank r <= m, a block length t >= m that is
    not a power of two, a weight at either end or inside, a budget and a noise variance."""
    m = draw(st.integers(1, 6))
    k, r = draw(st.integers(1, m)), draw(st.integers(1, m))
    t = draw(st.integers(m, 3 * m + 4).filter(lambda n: n & (n - 1)))
    rho = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99))
    gen = np.random.default_rng(draw(seeds))
    root = cn(gen, m, r)
    budget, variance = 10.0 ** draw(st.floats(-2.0, 2.0)), 10.0 ** draw(st.floats(-1.0, 1.0))
    return cn(gen, k, m), root @ root.conj().T, rho, budget, NoiseSpec(variance), t, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weighted_mi_instances(), st.integers(1, 6))
def test_stacked_search_matches_the_step_at_a_time_search_to_the_bit(instance, cap):
    # the converged solve; one stopped at a small iteration cap, with its ConvergenceError; and
    # one whose tolerance lies below rounding, so its line searches fall to the 1e-18 floor
    for options in ({}, {"max_iter": cap}, {"max_iter": 40 + cap, "grad_tol": 1e-14}):
        got = outcome(optimize_weighted_mi, *instance, **options)
        assert got == outcome(sequential_weighted_mi, *instance, **options)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 5), seeds, st.floats(-2.0, 2.0))
def test_each_lane_of_a_stacked_projection_is_its_one_matrix_projection(m, lanes, seed, log_budget):
    # spectra on the budget's scale, with both signs, exact zeros and a repeated eigenvalue,
    # so that some lanes lie inside the ball and skip the water level
    gen = np.random.default_rng(seed)
    budget = 10.0 ** log_budget
    eigs = budget * gen.uniform(-3.0, 3.0, (lanes, m)) * gen.integers(0, 2, (lanes, 1))
    eigs[:, -1] = np.where(gen.uniform(size=lanes) < 0.3, 0.0, eigs[:, -1])
    eigs[:, 0] = np.where(gen.uniform(size=lanes) < 0.3, eigs[:, -1], eigs[:, 0])
    u, _ = np.linalg.qr(cn(gen, lanes, m, m))
    q = (u * eigs[:, None, :]) @ u.conj().swapaxes(-2, -1)
    proj = _project_psd_trace(q, budget)
    for i in range(lanes):
        alone = _project_psd_trace(q[i], budget)
        assert proj[i].tobytes() == alone.tobytes() == one_matrix_projection(q[i], budget).tobytes()
        assert np.array_equal(alone, alone.conj().T)
        scale = 1e-12 * max(budget, float(np.max(np.abs(eigs[i]))))
        assert np.linalg.eigvalsh(alone).min() >= -scale
        trace = float(np.trace(alone).real)
        assert trace <= budget * (1.0 + 1e-12)
        if np.linalg.eigvalsh(q[i]).clip(0.0).sum() > budget:
            assert abs(trace - budget) <= 1e-12 * budget
