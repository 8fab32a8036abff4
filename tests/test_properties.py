"""Property tests of the shared solvers over random inputs.

Each example draws the problem sizes and a seed; the arrays come from that
seed.  `derandomize` keeps the examples the same from run to run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isacsim import (
    ConvergenceError,
    NoiseSpec,
    optimize_beta_sinr,
    solve_constant_modulus,
    solve_pareto_tradeoff,
    solve_per_antenna,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
rhos = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def cn(gen, *shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def on_sphere(gen, shape, energy):
    z = cn(gen, *shape)
    return z * np.sqrt(energy) / np.linalg.norm(z)


def objective(hc, c, xs, rho, x):
    return rho * np.linalg.norm(hc @ x - c) ** 2 + (1.0 - rho) * np.linalg.norm(x - xs) ** 2


def answer(solve, *args):
    """The solver's output, or its last iterate when it stops at its sweep cap.

    Near-flat instances (one stream, rho close to 1) can need more sweeps than
    the default cap; the constraints must hold on that iterate as well.
    """
    try:
        return solve(*args)
    except ConvergenceError as err:
        return err.best


@st.composite
def tradeoffs(draw):
    """(hc, c, xs, gen): k <= m streams, so rho = 1 with k < m is the hard case."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    t = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(seeds))
    return cn(gen, k, m), cn(gen, k, t), cn(gen, m, t), gen


@PROPERTY
@given(tradeoffs(), rhos, st.floats(0.1, 10.0))
def test_pareto_meets_energy_and_beats_feasible_points(instance, rho, energy):
    hc, c, xs, gen = instance
    x = solve_pareto_tradeoff(hc, c, xs, rho, energy)
    assert abs(np.linalg.norm(x) ** 2 - energy) <= 1e-9 * energy
    best = objective(hc, c, xs, rho, x)
    for _ in range(50):
        other = objective(hc, c, xs, rho, on_sphere(gen, xs.shape, energy))
        assert best <= other + 1e-9 * max(1.0, other)


@PROPERTY
@given(seeds, st.floats(0.01, 0.99), st.integers(2, 5), st.integers(1, 4), st.booleans(),
       st.floats(1e-3, 1.0))
def test_beta_full_is_global_on_its_sphere(seed, rho, m, n_beams, hard, shrink):
    gen = np.random.default_rng(seed)
    fs = cn(gen, m, n_beams)
    fc = cn(gen, m)
    if hard:
        # identity channel and fc orthogonal to fs's top left-singular vector:
        # V^H u has no component on V's top right-singular vector
        hc = np.eye(m, dtype=complex)
        top = np.linalg.svd(fs)[0][:, 0]
        fc = shrink * (fc - top * np.vdot(top, fc))
    else:
        hc = cn(gen, m, m)
    noise = NoiseSpec(0.5)
    res = optimize_beta_sinr(hc, fc, fs, rho, "full", noise)
    assert abs(np.linalg.norm(res.beta) ** 2 - n_beams) <= 1e-9 * n_beams
    u = np.sqrt(rho) * (hc @ fc)
    v = np.sqrt(1.0 - rho) * (hc @ fs)

    def sinr(beta):
        return np.linalg.norm(u + v @ beta) ** 2 / noise.variance

    assert abs(res.sinr - sinr(res.beta)) <= 1e-12 * max(1.0, res.sinr)
    candidates = [np.ones(n_beams)] + [on_sphere(gen, (n_beams,), n_beams) for _ in range(50)]
    for beta in candidates:
        assert res.sinr >= sinr(beta) * (1.0 - 1e-10)


@PROPERTY
@given(tradeoffs(), rhos, st.floats(0.1, 4.0))
def test_per_antenna_rows_hold_their_energy(instance, rho, per_antenna):
    hc, c, xs, _ = instance
    x = answer(solve_per_antenna, hc, c, xs, rho, per_antenna)
    rows = np.sum(np.abs(x) ** 2, axis=1)
    assert np.max(np.abs(rows - per_antenna)) <= 1e-9 * per_antenna


@PROPERTY
@given(tradeoffs(), rhos, st.floats(0.1, 2.0))
def test_constant_modulus_is_exact_and_no_worse_than_its_starts(instance, rho, modulus):
    hc, c, xs, _ = instance
    x = answer(solve_constant_modulus, hc, c, xs, rho, modulus)
    assert np.max(np.abs(np.abs(x) - modulus)) <= 1e-12 * modulus
    starts = [xs]
    if rho > 0:
        starts.append(solve_pareto_tradeoff(hc, c, xs, rho, modulus**2 * xs.size))
        starts.append(rho * (hc.conj().T @ c) + (1.0 - rho) * xs)
    best = objective(hc, c, xs, rho, x)
    for start in starts:
        initial = objective(hc, c, xs, rho, modulus * np.exp(1j * np.angle(start)))
        assert best <= initial + 1e-12 * max(1.0, initial)
