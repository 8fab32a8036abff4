"""Property tests of the shared solvers, water-filling and the path estimator over random inputs.

Each example draws the problem sizes and a seed; the arrays come from that
seed.  `derandomize` keeps the examples the same from run to run.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isacsim import (
    ArrayGeometry,
    ConvergenceError,
    GridPath,
    NoiseSpec,
    ObservationTensor,
    beam_search_angles,
    build_dictionary,
    comm_capacity,
    estimate_paths,
    optimal_sensing_waveform,
    optimize_beta_sinr,
    random_probes,
    read_observations,
    sensing_capacity,
    solve_constant_modulus,
    solve_pareto_tradeoff,
    solve_per_antenna,
    synthesize_observations,
    waterfill,
    write_observations,
)
from isacsim.capacity import _water_level
from isacsim import cli
from isacsim.cli import ScenarioConfig, run_scenario
from isacsim.estimation import (_PRUNE_RTOL, _add_noise, _beam_search, _estimate_paths, _pair_scores, _probe_gains,
                                _residual_energy)
from isacsim.rng import complex_normal, complex_normals, philox_stream
from isacsim.waveform import _cyclic_rows, _min_in_basis, _min_on_sphere, _pareto_objective, _project_psd_trace

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


def assert_sphere_optimal(a, b, energy, x):
    """Certify x as the global minimizer of tr(X^H A X) - 2 Re tr(X^H B) on ||X||_F^2 = energy.

    The multiplier is recovered from x alone; stationarity (A + lam I) X = B with
    lam >= -lam_min(A) on the sphere is the trust-region optimality condition.
    """
    n = a.shape[0]
    x, b = np.reshape(x, (n, -1)), np.reshape(b, (n, -1))
    lam = np.real(np.vdot(x, b - a @ x)) / energy
    vals = np.linalg.eigvalsh(a)
    spectral = np.max(np.abs(vals))
    assert abs(np.linalg.norm(x) ** 2 - energy) <= 1e-12 * energy
    residual = np.linalg.norm(a @ x + lam * x - b)
    assert residual <= 1e-9 * (np.linalg.norm(b) + spectral * np.linalg.norm(x))
    assert lam >= -vals[0] - 1e-9 * max(1.0, spectral)
    return lam


@st.composite
def sphere_problems(draw):
    """(a, b, energy): Pareto-like PSD, beta-like negative semidefinite, or an
    ill-conditioned spectrum over 1e-8..1e8 whose bottom mode holds 1e-20 of B's
    energy, so the solve starts right at the pole."""
    shape = draw(st.sampled_from(["pareto", "negative", "ill"]))
    n = draw(st.integers(2 if shape == "ill" else 1, 6))
    cols = draw(st.sampled_from([None, 1, 3]))
    gen = np.random.default_rng(draw(seeds))
    energy = 10.0 ** draw(st.floats(-3.0, 3.0))
    b = cn(gen, n) if cols is None else cn(gen, n, cols)
    if shape == "pareto":
        rho = draw(rhos)
        hc = cn(gen, draw(st.integers(1, n)), n)
        return rho * (hc.conj().T @ hc) + (1.0 - rho) * np.eye(n), b, energy
    if shape == "negative":
        v = cn(gen, draw(st.integers(1, n)), n)
        return -(v.conj().T @ v), b, energy
    sign = draw(st.sampled_from([1.0, -1.0]))
    q = np.linalg.qr(cn(gen, n, n))[0]
    vals = np.sort(sign * np.logspace(-8, 8, n))
    bt = q.conj().T @ np.reshape(b, (n, -1))
    bt[0] *= np.sqrt(1e-20 * np.sum(np.abs(bt[1:]) ** 2)) / np.linalg.norm(bt[0])
    return (q * vals) @ q.conj().T, np.reshape(q @ bt, b.shape), energy


@PROPERTY
@given(sphere_problems())
def test_sphere_solve_meets_its_optimality_certificate(problem):
    a, b, energy = problem
    assert_sphere_optimal(a, b, energy, _min_on_sphere(a, b, energy))


def sphere_objective(a, b, x):
    n = a.shape[0]
    x, b = np.reshape(x, (n, -1)), np.reshape(b, (n, -1))
    return float(np.real(np.vdot(x, a @ x)) - 2.0 * np.real(np.vdot(x, b)))


def assert_same_minimizer(a, b, energy, x, y, rtol):
    """x equals y within rtol, or, where the minimizer is not unique (the hard case
    leaves the phase and direction of the fill free), both are certified global
    minimizers with the same objective value."""
    if np.linalg.norm(x - y) <= rtol * np.sqrt(energy):
        return
    assert_sphere_optimal(a, b, energy, x)
    assert_sphere_optimal(a, b, energy, y)
    scale = np.max(np.abs(np.linalg.eigvalsh(a))) * energy + np.linalg.norm(b) * np.sqrt(energy)
    assert abs(sphere_objective(a, b, x) - sphere_objective(a, b, y)) <= 1e-9 * scale


@PROPERTY
@given(sphere_problems(), st.sampled_from([-16.0, -12.0, 12.0]) | st.floats(-16.0, 12.0))
def test_sphere_solve_is_invariant_to_scaling_a_and_b(problem, exponent):
    # (cA, cB) has the objective c times that of (A, B): the same minimizer for every c > 0,
    # also where every eigenvalue of cA lies far below 1
    a, b, energy = problem
    c = 10.0**exponent
    assert_same_minimizer(a, b, energy, _min_on_sphere(c * a, c * b, energy),
                          _min_on_sphere(a, b, energy), 1e-9)


@PROPERTY
@given(sphere_problems(), st.floats(-6.0, 6.0))
def test_sphere_solve_scales_with_b_and_the_root_energy(problem, exponent):
    # X minimizes (A, B, E) exactly when sX minimizes (A, sB, s^2 E)
    a, b, energy = problem
    s = 10.0**exponent
    x = _min_on_sphere(a, b, energy)
    assert_same_minimizer(a, s * b, s * s * energy, _min_on_sphere(a, s * b, s * s * energy),
                          s * x, 1e-9)



@PROPERTY
@given(st.integers(1, 5), st.integers(1, 3),
       st.lists(st.sampled_from(["pareto", "negative", "hard", "zero"]), min_size=1, max_size=6),
       seeds, st.floats(-3.0, 3.0))
def test_sphere_solve_on_a_stack_gives_each_lane_its_own_solve(n, cols, kinds, seed, exponent):
    # each lane steps, stops and takes the Newton, hard or A = 0 branch on its own, to the bit
    gen = np.random.default_rng(seed)
    problems = []
    for kind in kinds:
        hc = cn(gen, max(1, n - 1), n)
        a = {"pareto": hc.conj().T @ hc + 0.5 * np.eye(n), "negative": -(hc.conj().T @ hc),
             "hard": hc.conj().T @ hc, "zero": np.zeros((n, n))}[kind]
        # the hard kind's B lies in the row space of hc, so past its least-squares energy
        b = hc.conj().T @ cn(gen, hc.shape[0], cols) if kind == "hard" else cn(gen, n, cols)
        problems.append((a, b))
    vals, vecs = np.linalg.eigh(np.stack([a for a, _ in problems]))
    bt = vecs.conj().swapaxes(-2, -1) @ np.stack([b for _, b in problems])
    energy = 10.0**exponent
    x = _min_in_basis(vals, vecs, bt, energy, bt.shape)
    for i, (a, b) in enumerate(problems):
        alone = _min_in_basis(vals[i], vecs[i], bt[i], energy, bt[i].shape)
        assert np.array_equal(x[i], alone)
        assert_sphere_optimal(a, b, energy, x[i])

def test_sphere_solve_with_zero_a_lies_along_b():
    b = cn(np.random.default_rng(4), 3, 2)
    x = _min_on_sphere(np.zeros((3, 3)), b, 5.0)
    np.testing.assert_allclose(x, b * np.sqrt(5.0) / np.linalg.norm(b), rtol=1e-14)
    assert _min_on_sphere(np.zeros((3, 3)), np.zeros((3, 2)), 5.0) is None



@PROPERTY
@given(st.lists(seeds, min_size=1, max_size=5), st.lists(st.integers(1, 7), max_size=3))
def test_complex_normal_over_generators_stacks_each_generator_own_draw(streams, shape):
    gens = [philox_stream(7, s) for s in streams]
    alone = [philox_stream(7, s) for s in streams]
    for _ in range(2):  # the second draw continues every stream
        (stacked,) = complex_normals(gens, [shape])
        assert stacked.shape == (len(streams), *shape)
        for lane, gen in zip(stacked, alone):
            assert np.array_equal(lane, complex_normal(gen, shape))

@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-7])
def test_pareto_on_a_weak_channel_reaches_least_squares(scale):
    # rho = 1 at twice the least-squares energy: the fill along the null space of Hc
    # leaves C reached exactly, however small Hc is
    gen = philox_stream(5, 0)
    hc, c = scale * complex_normal(gen, (2, 4)), complex_normal(gen, (2, 3))
    energy = 2.0 * np.linalg.norm(np.linalg.pinv(hc) @ c) ** 2
    x = solve_pareto_tradeoff(hc, c, np.zeros((4, 3)), 1.0, energy)
    assert np.linalg.norm(hc @ x - c) ** 2 <= 1e-25 * np.linalg.norm(c) ** 2
    assert abs(np.linalg.norm(x) ** 2 - energy) <= 1e-12 * energy


@PROPERTY
@given(tradeoffs(), st.lists(rhos, min_size=1, max_size=4), st.floats(0.1, 10.0), st.booleans())
def test_shared_basis_solve_matches_a_direct_solve_at_every_rho(instance, grid, energy, past_ls):
    # one eigenbasis of Hc^H Hc for every rho against _min_on_sphere on A(rho) itself
    hc, c, xs, _ = instance
    if past_ls:  # at rho = 1 with k < m this is the hard case
        energy += np.linalg.norm(np.linalg.pinv(hc) @ c) ** 2
    for rho in [0.0, 1.0, *grid]:
        a = rho * (hc.conj().T @ hc) + (1.0 - rho) * np.eye(hc.shape[1])
        b = rho * (hc.conj().T @ c) + (1.0 - rho) * xs
        assert_same_minimizer(a, b, energy, solve_pareto_tradeoff(hc, c, xs, rho, energy),
                              _min_on_sphere(a, b, energy), 1e-10)


def test_pareto_hard_case_certificate():
    # rho = 1 with k < m: B = Hc^H C has no energy on the null space of Hc, and the
    # least-squares solution falls short of the energy, so the fill carries the rest
    gen = np.random.default_rng(12)
    hc, c, xs = cn(gen, 2, 4), cn(gen, 2, 3), cn(gen, 4, 3)
    short = np.linalg.norm(np.linalg.pinv(hc) @ c) ** 2
    energy = 4.0 * short
    x = solve_pareto_tradeoff(hc, c, xs, 1.0, energy)
    lam = assert_sphere_optimal(hc.conj().T @ hc, hc.conj().T @ c, energy, x)
    assert abs(lam) <= 1e-12
    row_space = np.linalg.pinv(hc) @ hc
    assert np.linalg.norm(x - row_space @ x) ** 2 == pytest.approx(energy - short, rel=1e-9)


def test_beta_full_hard_case_certificate():
    # identity channel and fc orthogonal to fs's top left-singular vector: V^H u has no
    # component on the bottom eigenvector of -V^H V, and u is too weak to reach the sphere
    gen = np.random.default_rng(13)
    m, n_beams, rho = 4, 3, 0.5
    fs, fc = cn(gen, m, n_beams), cn(gen, m)
    top = np.linalg.svd(fs)[0][:, 0]
    fc = 1e-3 * (fc - top * np.vdot(top, fc))
    res = optimize_beta_sinr(np.eye(m), fc, fs, rho, "full", NoiseSpec(1.0))
    u, v = np.sqrt(rho) * fc, np.sqrt(1.0 - rho) * fs
    a = -(v.conj().T @ v)
    assert_sphere_optimal(a, v.conj().T @ u, float(n_beams), res.beta)
    bottom = np.linalg.eigh(a)[1][:, 0]
    assert abs(np.vdot(bottom, res.beta)) ** 2 >= 0.99 * n_beams


@PROPERTY
@given(tradeoffs(), st.lists(rhos, min_size=1, max_size=5), st.floats(0.1, 10.0))
def test_pareto_trades_interference_for_distance_monotonically(instance, grid, energy):
    # for any global minimizers at rho1 < rho2, interference cannot rise and distance cannot fall
    hc, c, xs, _ = instance
    grid = sorted(set(grid) | {0.0, 1.0})
    interference, distance = [], []
    for rho in grid:
        x = solve_pareto_tradeoff(hc, c, xs, rho, energy)
        interference.append(np.linalg.norm(hc @ x - c) ** 2)
        distance.append(np.linalg.norm(x - xs) ** 2)
    for prev, cur in zip(interference, interference[1:]):
        assert cur <= prev + 1e-9 * max(1.0, prev)
    for prev, cur in zip(distance, distance[1:]):
        assert cur >= prev - 1e-9 * max(1.0, prev)


@PROPERTY
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8), st.floats(1e-3, 1e3),
       st.floats(1e-3, 10.0))
def test_waterfill_spends_the_budget_at_one_water_level(eigenvalues, budget, variance):
    alloc = waterfill(eigenvalues, budget, NoiseSpec(variance))
    w = alloc.water_level
    floors = variance / alloc.eigenvalues
    active = alloc.levels > 0
    # each level is the water level less a floor, so rounding scales with w
    assert abs(np.sum(alloc.levels) - budget) <= 1e-12 * np.sum(active) * w
    assert np.all(alloc.levels >= 0.0)
    np.testing.assert_allclose(alloc.levels[active] + floors[active], w, rtol=1e-12)
    assert np.all(floors[~active] >= w * (1.0 - 1e-12))



@PROPERTY
@given(st.lists(st.floats(-20.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=12),
       st.floats(-20.0, 3.0), st.floats(1e-3, 10.0))
@example([1e-20, 1.0], -10.0, 1.0)  # 1e-10 over floors 1 and 1e20: 8e-8 of it is lost
def test_waterfill_spends_the_budget_to_within_rounding_at_the_water_level(eigenvalues, exponent,
                                                                           variance):
    # the PowerAllocation bound, for budgets from 1e-20 to 1e3 times the lowest floor
    budget = variance / max(eigenvalues) * 10.0**exponent
    alloc = waterfill(eigenvalues, budget, NoiseSpec(variance))
    n = len(eigenvalues)
    assert np.all(alloc.levels >= 0.0)
    assert abs(math.fsum(alloc.levels) - budget) <= (n + 2) * n * np.finfo(float).eps * alloc.water_level


def one_lane_level(floors, budget):
    """The water level by the loop over one 1-D array of floors that the lane-wise kernel replaced."""
    for k in range(floors.size, 0, -1):
        w = (budget + floors[:k].sum()) / k
        if w - floors[k - 1] > 0:
            break
    return w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 64]), st.integers(1, 40), seeds, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.booleans())
def test_water_level_of_a_stack_gives_each_lane_its_one_lane_level(lanes, n, seed, budget_exp, scale_exp,
                                                                    ties):
    # each lane keeps its own count of ascending floors and pads the rest with +inf; ties
    # repeat floors, so several k sit right at the boundary between active and closed
    gen = np.random.default_rng(seed)
    floors = 10.0**scale_exp * gen.uniform(0.0, 1.0, size=(lanes, n))
    if ties:
        floors = np.round(floors * 4.0 / 10.0**scale_exp) * 10.0**scale_exp / 4.0
    floors = np.sort(floors, axis=-1)
    ranks = gen.integers(1, n + 1, size=lanes)
    floors[np.arange(n) >= ranks[:, None]] = np.inf
    budget = 10.0**budget_exp
    with np.errstate(all="raise"):
        levels = _water_level(floors, budget)
        for row, rank, level in zip(floors, ranks, levels.tolist()):
            expected = one_lane_level(row[:rank], budget)
            assert struct.pack("<d", level) == struct.pack("<d", expected)
            assert struct.pack("<d", _water_level(row[:rank], budget)) == struct.pack("<d", expected)


def assert_lane(stacked, alone, exact):
    """To the bit for a lane as wide as its stack; to rounding for a lane padded past its rank,
    whose sums and products take extra zero terms."""
    if exact:
        assert np.array_equal(stacked, alone)
    else:
        np.testing.assert_allclose(stacked, alone, rtol=1e-12, atol=1e-13 * np.max(np.abs(alone)))


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 6), st.lists(st.integers(0, 6), min_size=1, max_size=5), seeds,
       st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
def test_stacked_capacities_and_waveforms_give_each_lane_its_one_matrix_call(n, m, ranks, seed, exponent,
                                                                             variance):
    # lanes of mixed rank; a zero lane has sensing rate 0 in a stack as alone, and a zero
    # channel or Q_h is refused where the one-matrix call refuses it
    gen = np.random.default_rng(seed)
    power, noise, t = 10.0**exponent, NoiseSpec(variance), m + 2
    hs = np.stack([cn(gen, n, min(r, n, m)) @ cn(gen, min(r, n, m), m) for r in ranks])
    factors = [cn(gen, m, min(r, m)) for r in ranks]
    qhs = np.stack([f @ f.conj().T for f in factors])
    sensing = sensing_capacity(qhs, n, t, power, noise)
    nonzero = [i for i, r in enumerate(ranks) if r > 0]
    comm = comm_capacity(hs[nonzero], power, noise) if nonzero else None
    probe = optimal_sensing_waveform(qhs[nonzero], t, power, noise) if nonzero else None
    for i, qh in enumerate(qhs):
        alone = sensing_capacity(qh, n, t, power, noise)
        if alone.allocation is None:
            assert sensing.bits_per_transmission[i] == 0.0 == alone.bits_per_transmission
            continue
        rank = alone.allocation.levels.size
        exact = rank == sensing.allocation.levels.shape[-1]
        assert type(alone.bits_per_transmission) is float
        assert_lane(sensing.bits_per_transmission[i], alone.bits_per_transmission, exact)
        lane = sensing.allocation.levels[i]
        assert np.array_equal(lane[:rank], alone.allocation.levels) and not lane[rank:].any()
        assert sensing.allocation.water_level[i] == alone.allocation.water_level
        j = nonzero.index(i)
        wave = optimal_sensing_waveform(qh, t, power, noise)
        assert np.array_equal(probe.allocation.levels[j][:rank], wave.allocation.levels)
        assert_lane(probe.block[j], wave.block, rank == probe.allocation.levels.shape[-1])
        single = comm_capacity(hs[i], power, noise)
        rank = single.allocation.levels.size
        exact = rank == comm.allocation.levels.shape[-1]
        assert type(single.bits_per_symbol) is float and type(single.allocation.water_level) is float
        assert_lane(comm.bits_per_symbol[j], single.bits_per_symbol, exact)
        assert_lane(comm.covariance[j], single.covariance, exact)
        assert np.array_equal(comm.allocation.levels[j][:rank], single.allocation.levels)
        assert comm.allocation.water_level[j] == single.allocation.water_level

@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12), st.sampled_from([None, 1.0, -1.0]),
       seeds, st.floats(0.01, 50.0))
@example([-3.0, -1.0, -0.5, -2.0, -7.0, -0.1, -4.0, -9.0, -6.0], None, 1, 2.0)  # all negative
@example([2.0, 1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1], None, 2, 10.0)  # ten active modes
@example([9.0, 8.5, 8.0, 7.5, 7.0, 6.5, 6.0, 5.5, -1.0, -2.0, -3.0, -4.0], None, 3, 20.0)  # twelve, mixed
def test_trace_ball_projection_is_the_euclidean_projection(eigenvalues, sign, seed, budget):
    # sign None keeps the drawn signs; 1.0 and -1.0 make the spectrum nonnegative or nonpositive
    eigs = np.array(eigenvalues) if sign is None else sign * np.abs(eigenvalues)
    m = eigs.size
    gen = philox_stream(seed)
    u, _ = np.linalg.qr(cn(gen, m, m))
    q = (u * eigs) @ u.conj().T
    proj = _project_psd_trace(q, budget)
    scale = max(1.0, float(np.max(np.abs(eigs))), budget)
    tol = 1e-12 * m * scale
    assert np.linalg.eigvalsh(proj).min() >= -tol
    trace = float(np.trace(proj).real)
    assert trace <= budget + tol
    if np.maximum(eigs, 0.0).sum() > budget + tol:  # the water level spends the whole budget
        assert abs(trace - budget) <= tol
    # the projection is the feasible point that Q - proj makes an obtuse angle with
    w = cn(gen, m, m)
    feasible = [np.zeros((m, m)), budget * np.outer(u[:, -1], u[:, -1].conj())]
    for k in range(1, m + 1):
        p = w[:, :k] @ w[:, :k].conj().T
        feasible.append(p * (budget * gen.uniform(0.0, 1.0) / np.trace(p).real))
    for p in feasible:
        assert np.real(np.vdot(q - proj, p - proj)) <= tol * scale
    # a feasible input comes back unchanged
    inside = np.abs(eigs) * (0.9 * budget / max(np.abs(eigs).sum(), budget))
    q_in = (u * inside) @ u.conj().T
    np.testing.assert_allclose(_project_psd_trace(q_in, budget), q_in, rtol=0, atol=tol)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tradeoffs(), rhos, st.floats(0.1, 2.0), st.integers(0, 60), st.sampled_from([1e-10, 1e-6, 0.0]))
def test_constant_modulus_starts_as_lanes_equal_a_loop_over_starts(instance, rho, modulus, cap, tol):
    # the reference sweeps one start at a time with a two-np.where projection, each start's
    # design or ConvergenceError giving its iterate, scores each iterate with the lane-wise
    # _pareto_objective and keeps the first lowest; small caps and tol = 0 leave some lanes at their cap
    hc, c, xs, _ = instance

    def unit_modulus(direction, row):
        mag = np.abs(direction)
        live = mag > 1e-300
        return np.where(live, modulus * direction / np.where(live, mag, 1.0), row)

    starts = [xs]
    if rho > 0:
        starts.append(solve_pareto_tradeoff(hc, c, xs, rho, modulus**2 * xs.size))
        starts.append(rho * (hc.conj().T @ c) + (1.0 - rho) * xs)
    best = None
    for start in starts:  # one lane per call
        try:
            x = _cyclic_rows(hc, c, xs, rho, modulus * np.exp(1j * np.angle(start))[None], unit_modulus, cap,
                             lambda previous, obj: previous - obj < tol, "constant-modulus phase sweeps")
            failure = None
        except ConvergenceError as exc:
            x, failure = exc.best, exc
        obj = _pareto_objective(hc, c, xs, rho, x[None])[0]
        if best is None or obj < best[1]:
            best = x, obj, failure
    x, _, failure = best
    if failure is None:
        assert solve_constant_modulus(hc, c, xs, rho, modulus, cap, tol).tobytes() == x.tobytes()
        return
    with pytest.raises(ConvergenceError) as info:
        solve_constant_modulus(hc, c, xs, rho, modulus, cap, tol)
    assert str(info.value) == str(failure) == f"constant-modulus phase sweeps did not settle within {cap} sweeps"
    assert info.value.best.tobytes() == x.tobytes()
    assert info.value.iterations == failure.iterations == cap
    assert struct.pack("<d", info.value.last_change) == struct.pack("<d", failure.last_change)


# ---------------------------------------------------------------------------
# Beam search and path recovery

SPACING, DURATION, CARRIER = 15e3, 1e-4, 1e6


def exhaustive_scores(z, gains, gain_energy):
    """One round's (D_rx, D_tx) score matrix, a whole transmit atom's column at a time."""
    scores = np.zeros((z.shape[2], gains.shape[0]))
    for q in range(gains.shape[0]):
        demod = z * gains[q].conj()[None, :, None]
        spectra = np.fft.fft(demod, axis=1)
        scores[:, q] = np.sum(np.max(np.abs(spectra) ** 2, axis=1), axis=0) / gain_energy[q]
    return scores


def exhaustive_beam_search(obs, dict_tx, dict_rx, num_paths, probes):
    """The greedy search scoring every (p, q) hypothesis in every round: the reference."""
    y = obs.data.copy()
    gains = dict_tx.matrix.T @ probes
    gain_energy = np.sum(np.abs(gains) ** 2, axis=1)
    picks = []
    for _ in range(num_paths):
        z = y @ dict_rx.matrix.conj()
        scores = exhaustive_scores(z, gains, gain_energy)
        p, q = np.unravel_index(int(np.argmax(scores)), scores.shape)
        picks.append((int(p), int(q), z[:, :, p] / gains[q][None, :], scores))
        y = y - (z[:, :, p])[:, :, None] * dict_rx.matrix[:, p][None, None, :]
    return picks


def assert_same_search(obs, dict_tx, dict_rx, num_paths, probes):
    """beam_search_angles picks what the exhaustive search picks, with identical series."""
    reference = exhaustive_beam_search(obs, dict_tx, dict_rx, num_paths, probes)
    cells = [(p, q) for p, q, _, _ in reference]
    if len(set(cells)) < len(cells):  # the exhaustive search revisits a cell
        with pytest.raises(ValueError, match="revisit"):
            beam_search_angles(obs, dict_tx, dict_rx, num_paths, probes)
        return reference
    found = beam_search_angles(obs, dict_tx, dict_rx, num_paths, probes)
    assert [(det.aoa_index, det.aod_index) for det in found] == cells
    for det, (_, _, series, _) in zip(found, reference):
        assert np.array_equal(det.series, series)
    return reference


def on_grid_paths(gen, d_rx, d_tx, l, t, n_sc, magnitudes):
    """l paths on distinct receive and distinct transmit cells, random bins and phases."""
    rows = gen.choice(d_rx, size=l, replace=False)
    cols = gen.choice(d_tx, size=l, replace=False)
    return [
        GridPath(int(p), int(q), int(gen.integers(t)), int(gen.integers(n_sc)),
                 float(mag), float(gen.uniform(-np.pi, np.pi)))
        for p, q, mag in zip(rows, cols, magnitudes)
    ]


@PROPERTY
@given(seeds, st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.integers(2, 20),
       st.integers(2, 20), st.integers(1, 4), st.sampled_from([None, 30.0, 10.0, 0.0, -10.0]))
def test_beam_search_matches_exhaustive_search(seed, m, n_s, extra, t, n_sc, l, snr_db):
    gen = np.random.default_rng(seed)
    d = max(m, n_s) + extra
    l = min(l, d)
    dict_tx = build_dictionary(ArrayGeometry(m), d)
    dict_rx = build_dictionary(ArrayGeometry(n_s), d)
    paths = on_grid_paths(gen, d, d, l, t, n_sc, np.ones(l))
    probes = random_probes(m, t, seed)
    noise = 0.0 if snr_db is None else l / n_s / 10 ** (snr_db / 10)
    obs = synthesize_observations(dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, CARRIER,
                                  noise_variance=noise, seed=seed, stream=2)
    assert_same_search(obs, dict_tx, dict_rx, l, probes)


@pytest.mark.parametrize("m, n_s, d, t, n_sc", [(8, 8, 16, 32, 64), (2, 3, 4, 4, 8), (1, 1, 3, 2, 2)])
def test_beam_search_on_pure_noise(m, n_s, d, t, n_sc):
    # no path at all: every bound is loose, so the fewest hypotheses are pruned
    gen = np.random.default_rng(m * 100 + d)
    dict_tx = build_dictionary(ArrayGeometry(m), d)
    dict_rx = build_dictionary(ArrayGeometry(n_s), d)
    probes = random_probes(m, t, 11)
    data = cn(gen, n_sc, t, n_s)
    obs = ObservationTensor(data, SPACING, DURATION, CARRIER)
    assert_same_search(obs, dict_tx, dict_rx, min(3, d), probes)


def test_beam_search_near_tie_between_equal_paths():
    # probes with orthogonal rows give every transmit atom the same gain energy, so two
    # unit paths score equally up to rounding and the rounding decides the first pick
    gen = np.random.default_rng(3)
    m, d, t, n_sc = 4, 4, 8, 16
    dict_tx = build_dictionary(ArrayGeometry(m), d)
    dict_rx = build_dictionary(ArrayGeometry(m), d)
    probes = np.linalg.qr(cn(gen, t, m))[0].T * np.sqrt(t / m)
    paths = [GridPath(1, 2, 3, 5, 1.0, 0.4), GridPath(3, 0, 6, 9, 1.0, -2.0)]
    obs = synthesize_observations(dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, CARRIER)
    reference = assert_same_search(obs, dict_tx, dict_rx, 2, probes)
    first = reference[0][3]
    assert abs(first[1, 2] - first[3, 0]) <= 1e-12 * first.max()
    assert {(p, q) for p, q, _, _ in reference} == {(1, 2), (3, 0)}


def test_beam_search_tie_goes_to_lowest_flat_index_in_any_visit_order():
    # transmit atom 5 is an exact copy of atom 2, so their score columns are equal to the
    # bit; the strongest path sits on atom 7, which the bound order visits first
    m, d, t, n_sc = 4, 8, 8, 16
    base = build_dictionary(ArrayGeometry(m), d)
    matrix = base.matrix.copy()
    matrix[:, 5] = matrix[:, 2]
    dict_tx = dataclasses.replace(base, matrix=matrix)
    dict_rx = build_dictionary(ArrayGeometry(4), 4)
    probes = random_probes(m, t, 21)
    paths = [GridPath(0, 7, 1, 2, 2.0, 0.3), GridPath(3, 2, 4, 7, 1.0, 1.1)]
    obs = synthesize_observations(dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, CARRIER)
    gains = dict_tx.matrix.T @ probes
    z = obs.data @ dict_rx.matrix.conj()
    bound = np.sum((np.abs(z).transpose(0, 2, 1) @ np.abs(gains).T) ** 2, axis=0)
    reach = np.max(bound / np.sum(np.abs(gains) ** 2, axis=1), axis=0)
    assert int(np.argmax(reach)) == 7  # the visit order is not the index order
    reference = assert_same_search(obs, dict_tx, dict_rx, 2, probes)
    second = reference[1][3]
    assert np.array_equal(second[:, 2], second[:, 5]) and second[3, 2] == second.max()
    assert [(p, q) for p, q, _, _ in reference] == [(0, 7), (3, 2)]


@PROPERTY
@given(seeds, st.integers(1, 70), st.integers(1, 40), st.integers(1, 20), st.integers(1, 20),
       st.floats(-100, 100))
def test_pair_scores_equal_exhaustive_columns_in_blocks_of_any_width(seed, n, t, d_rx, d_tx, log_scale):
    # a one-pair block sums its subcarriers like any other: np.sum over a one-column
    # block would sum pairwise and move the score by an ulp
    gen = np.random.default_rng(seed)
    z = cn(gen, n, t, d_rx) * 10.0 ** log_scale
    gains = cn(gen, d_tx, t)
    gain_energy = np.sum(np.abs(gains) ** 2, axis=1)
    reference = exhaustive_scores(z, gains, gain_energy).ravel()
    order = gen.permutation(d_rx * d_tx)
    for width in (1, 2, d_rx):
        for start in range(0, order.size, width):
            pairs = order[start:start + width]
            got = _pair_scores(z, gains, gain_energy, *np.divmod(pairs, d_tx))
            assert np.array_equal(got, reference[pairs])


def test_beam_search_tie_split_across_blocks_of_different_widths():
    # transmit atom 5 copies atom 2, so the path's pairs (3, 2) and (3, 5) tie to the bit
    # in bound and score; they are visited first and second, in blocks of widths 1 and 2
    m, d, t, n_sc = 4, 8, 8, 16
    base = build_dictionary(ArrayGeometry(m), d)
    matrix = base.matrix.copy()
    matrix[:, 5] = matrix[:, 2]
    dict_tx = dataclasses.replace(base, matrix=matrix)
    dict_rx = build_dictionary(ArrayGeometry(4), 4)
    probes = random_probes(m, t, 21)
    obs = synthesize_observations(dict_rx, dict_tx, [GridPath(3, 2, 4, 7, 1.0, 1.1)], probes, n_sc,
                                  SPACING, DURATION, CARRIER)
    gains = dict_tx.matrix.T @ probes
    gain_energy = np.sum(np.abs(gains) ** 2, axis=1)
    z = obs.data @ dict_rx.matrix.conj()
    bound = np.sum((np.abs(z).transpose(0, 2, 1) @ np.abs(gains).T) ** 2, axis=0) / gain_energy
    order = np.argsort(-bound.ravel() * (1.0 + _PRUNE_RTOL), kind="stable")
    assert list(order[:2]) == [3 * d + 2, 3 * d + 5]
    first = _pair_scores(z, gains, gain_energy, *np.divmod(order[:1], d))
    second = _pair_scores(z, gains, gain_energy, *np.divmod(order[1:3], d))
    assert first[0] == second[0] and first[0] > second[1]
    reference = assert_same_search(obs, dict_tx, dict_rx, 1, probes)
    assert (reference[0][0], reference[0][1]) == (3, 2)


@PROPERTY
@given(seeds, st.integers(1, 6), st.integers(1, 6), st.integers(2, 24), st.integers(2, 24),
       st.integers(1, 4))
def test_noiseless_estimation_round_trip(seed, m, n_s, t, n_sc, l):
    # square grids make the atoms orthonormal, the regime where greedy recovery is exact
    gen = np.random.default_rng(seed)
    l = min(l, m, n_s)
    dict_tx = build_dictionary(ArrayGeometry(m), m)
    dict_rx = build_dictionary(ArrayGeometry(n_s), n_s)
    paths = on_grid_paths(gen, n_s, m, l, t, n_sc, gen.uniform(0.3, 2.0, size=l))
    truth = {(path.aoa_index, path.aod_index): path for path in paths}
    probes = random_probes(m, t, seed)
    obs = synthesize_observations(dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, CARRIER)
    for order in ("doppler_first", "delay_first"):
        report = estimate_paths(obs, dict_tx, dict_rx, l, probes, order=order)
        assert {(est.aoa_index, est.aod_index) for est in report.paths} == set(truth)
        for est in report.paths:
            true = truth[(est.aoa_index, est.aod_index)]
            assert (est.doppler_bin, est.delay_bin) == (true.doppler_bin, true.delay_bin)
            assert abs(est.gain - true.magnitude * np.exp(1j * true.phase)) < 1e-9


def outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@PROPERTY
@given(seeds, st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.integers(2, 20),
       st.integers(2, 20), st.integers(0, 4), st.sampled_from([0.0, 1e-300, 0.01]) | st.floats(1e-6, 1e3))
def test_split_steps_and_prepared_gains_match_the_public_calls_to_the_bit(seed, m, n_s, extra, t, n_sc, l,
                                                                         noise):
    gen = np.random.default_rng(seed)
    d = max(m, n_s) + extra
    l = min(l, d)
    dict_tx = build_dictionary(ArrayGeometry(m), d)
    dict_rx = build_dictionary(ArrayGeometry(n_s), d)
    paths = on_grid_paths(gen, d, d, l, t, n_sc, gen.uniform(0.3, 2.0, size=l))
    probes = random_probes(m, t, seed)
    args = (dict_rx, dict_tx, paths, probes, n_sc, SPACING, DURATION, CARRIER)
    obs = synthesize_observations(*args, noise_variance=noise, seed=seed, stream=2)
    clean = synthesize_observations(*args)
    held = clean.data.copy()
    split = _add_noise(clean, noise, seed, 2)
    assert split.data.tobytes() == obs.data.tobytes() and clean.data.tobytes() == held.tobytes()
    assert (split.subcarrier_spacing_hz, split.symbol_duration_s, split.carrier_hz) == (SPACING, DURATION, CARRIER)

    prepared = _probe_gains(dict_tx, probes, t)
    found = outcome(lambda: beam_search_angles(obs, dict_tx, dict_rx, l, probes))
    again = outcome(lambda: _beam_search(obs, dict_rx, l, *prepared))
    if isinstance(found, str):  # the greedy rounds revisit a cell
        assert again == found
    else:
        assert [(det.aoa_index, det.aod_index) for det in again] == [(det.aoa_index, det.aod_index) for det in found]
        assert all(a.series.tobytes() == b.series.tobytes() for a, b in zip(again, found))
    for order in ("doppler_first", "delay_first"):
        report = outcome(lambda: estimate_paths(obs, dict_tx, dict_rx, l, probes, order=order))
        mine = outcome(lambda: _estimate_paths(obs, dict_rx, l, prepared, order))
        if isinstance(report, str):
            assert mine == report
            continue
        detections, estimates, ratios = mine
        assert repr(tuple(estimates)) == repr(report.paths)  # repr keeps the sign of a zero
        assert ratios.tobytes() == report.peak_ratios.tobytes()
        # the stages build no residual; the public report's is the helper's on the same detections
        residual = _residual_energy(obs, dict_rx, prepared[0], detections)
        assert residual.hex() == report.residual_energy.hex()


@PROPERTY
@given(seeds, st.integers(0, 3), st.integers(1, 5), st.sampled_from([1, 2]),
       st.lists(st.sampled_from([-10.0, 30.0]) | st.floats(-20.0, 40.0), min_size=1, max_size=4))
def test_estimation_block_never_writes_its_noiseless_observations(tmp_path_factory, seed, l, trials, threads,
                                                                  snrs):
    built = []

    def recording(*args):
        clean = synthesize_observations(*args)
        built.append((clean, clean.data.copy()))
        return clean

    obs_path = tmp_path_factory.mktemp("obs") / "obs.bin"
    config = ScenarioConfig(scenario="mmwave_estimation", m=2, n_s=3, d=4, l=l, t=4, n_sc=8,
                            snr_db_list=tuple(snrs), trials=trials, seed=seed, threads=threads,
                            obs_path=str(obs_path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "synthesize_observations", recording)
        run_scenario(config)
    assert len(built) == trials
    for clean, held in built:
        assert clean.data.tobytes() == held.tobytes()


# ---------------------------------------------------------------------------
# Observation files

@st.composite
def observation_tensors(draw):
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)))
    # any float64, with the edge values drawn often: +-0.0, subnormals, the largest
    # magnitudes, infinities and NaN
    edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                             1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan])
    parts = arrays(np.float64, (2,) + shape, elements=edges | st.floats())
    data = np.empty(shape, dtype=complex)
    data.real, data.imag = draw(parts)
    timing = draw(st.tuples(*[edges | st.floats()] * 3))
    return ObservationTensor(data, *timing)


@PROPERTY
@given(observation_tensors())
def test_observation_file_round_trip_is_bit_exact(tmp_path_factory, obs):
    path = tmp_path_factory.mktemp("obs") / "obs.bin"
    write_observations(obs, path)
    loaded = read_observations(path)
    assert loaded.data.shape == obs.data.shape
    assert loaded.data.tobytes() == obs.data.tobytes()
    timing = (obs.subcarrier_spacing_hz, obs.symbol_duration_s, obs.carrier_hz)
    loaded_timing = (loaded.subcarrier_spacing_hz, loaded.symbol_duration_s, loaded.carrier_hz)
    assert struct.pack("<ddd", *loaded_timing) == struct.pack("<ddd", *timing)
