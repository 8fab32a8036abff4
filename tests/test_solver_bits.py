"""Bit-identity properties of the trimmed design solvers, and the refusals they moved.

`optimize_weighted_mi` decomposes Q_h once and inverts the objective's own
I + Hc Q Hc^H / sigma^2 in the next gradient; `_cyclic_rows` takes each row's
column, conjugate row and pull once and updates in place.  The oracles below are
the solvers as they were before, each checked and decomposed as then, so every
result, ConvergenceError field included, must agree to the bit.  CI runs this
file under `-W error::RuntimeWarning`.
"""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isacsim
from isacsim import (ConvergenceError, NoiseSpec, comm_capacity, optimal_sensing_waveform, optimize_weighted_mi,
                     sensing_capacity, solve_constant_modulus, solve_pareto_tradeoff, solve_per_antenna)
from isacsim import capacity
from isacsim.capacity import _logdet_bits, _psd_factor
from isacsim.cli import main
from isacsim.waveform import _RUNGS, _pareto_objective, _project_psd_trace

seeds = st.integers(0, 2**32 - 1)
rhos = st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99)


def cn(gen, *shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def reference_cyclic_rows(hc, c, xs, rho, x, project, max_sweeps, settled):
    """The lane-wise row sweep that indexes each row's column, conjugate row and pull per step."""
    cols = np.ascontiguousarray(hc.T)[:, None, :, None]
    rows_h, pull = np.ascontiguousarray(hc.conj().T), (1.0 - rho) * xs
    lanes, cur = np.empty_like(x), x.copy()
    obj = _pareto_objective(hc, c, xs, rho, cur)
    change, converged = np.full(obj.shape, np.inf), np.zeros(obj.shape, dtype=bool)
    live, resid = np.arange(len(x)), c - hc @ cur
    for _ in range(max_sweeps):
        previous = obj[live]
        for i in range(cur.shape[1]):
            row = cur[:, i]
            partial = resid + cols[i] * row[:, None]
            new_row = project(rho * (rows_h[i] @ partial) + pull[i], row)
            resid -= cols[i] * (new_row - row)[:, None]
            cur[:, i] = new_row
        now = _pareto_objective(hc, c, xs, rho, cur)
        obj[live], change[live] = now, previous - now
        done = settled(previous, now)
        if done.any():
            lanes[live], converged[live] = cur, done
            live, cur, resid = live[~done], cur[~done], resid[~done]
            if not live.size:
                break
    lanes[live] = cur
    return lanes, obj, converged, change


def reference_per_antenna(hc, c, xs, rho, per_antenna_energy, max_sweeps=1000, tol=1e-12):
    hc, c, xs = (np.asarray(a, dtype=complex) for a in (hc, c, xs))
    m, t = xs.shape
    x = solve_pareto_tradeoff(hc, c, xs, rho, m * per_antenna_energy)
    root = np.sqrt(per_antenna_energy)
    for i in range(m):
        norm = np.linalg.norm(x[i])
        if norm > 1e-300:
            x[i] *= root / norm
        elif np.linalg.norm(xs[i]) > 0:
            x[i] = root * xs[i] / np.linalg.norm(xs[i])
        else:
            x[i] = np.full(t, root / np.sqrt(t), dtype=complex)

    def row_sphere(direction, row):
        norm = np.linalg.norm(direction)
        return root * direction / norm if norm > 1e-300 else row

    x, _, converged, change = reference_cyclic_rows(
        hc, c, xs, rho, x[None], row_sphere, max_sweeps,
        lambda previous, obj: previous - obj < tol * np.maximum(1.0, np.abs(previous)),
    )
    if not converged[0]:
        raise ConvergenceError("cap", best=x[0], iterations=max_sweeps, last_change=change[0])
    return x[0]


def reference_constant_modulus(hc, c, xs, rho, modulus, max_sweeps=10_000, tol=1e-10):
    hc, c, xs = (np.asarray(a, dtype=complex) for a in (hc, c, xs))
    starts = [xs]
    if rho > 0:
        starts.append(solve_pareto_tradeoff(hc, c, xs, rho, modulus**2 * xs.size))
        starts.append(rho * (hc.conj().T @ c) + (1.0 - rho) * xs)

    def unit_modulus(direction, row):
        mag = np.abs(direction)
        return np.divide(modulus * direction, mag, out=row.copy(), where=mag > 1e-300)

    x, obj, converged, change = reference_cyclic_rows(
        hc, c, xs, rho, modulus * np.exp(1j * np.angle(np.stack(starts))), unit_modulus, max_sweeps,
        lambda previous, obj: previous - obj < tol,
    )
    best = min(range(len(starts)), key=obj.__getitem__)
    if not converged[best]:
        raise ConvergenceError("cap", best=x[best], iterations=max_sweeps, last_change=change[best])
    return x[best]


def reference_weighted_mi(hc, qh, rho, budget, noise, t, n_s, max_iter=10_000, grad_tol=1e-6):
    """The stacked ascent with Q_h checked and decomposed twice (sensing_capacity, then
    _psd_factor), every gradient rebuilding I + Hc Q Hc^H / sigma^2, and both objective terms
    taken as the slogdet of their own matrix, I + Hc Q Hc^H / sigma^2 and I + F^H (T Q) F / sigma^2."""
    hc, qh = np.asarray(hc, dtype=complex), np.asarray(qh, dtype=complex)
    m = hc.shape[1]
    comm_norm = comm_capacity(hc, budget, noise).bits_per_symbol if rho > 0 else 1.0
    sens_norm = sensing_capacity(qh, n_s, t, budget, noise).bits_per_transmission if rho < 1 else 1.0
    f = _psd_factor(qh, "channel covariance") if rho < 1 else None
    hh, fh = hc.conj().T, (f.conj().T if rho < 1 else None)
    eye_c, eye_s = np.eye(hc.shape[0]), (np.eye(f.shape[1]) if rho < 1 else None)

    def objective(qs):
        value = 0.0
        if rho > 0:
            value += rho / comm_norm * _logdet_bits(eye_c + (hc @ qs @ hh) / noise.variance)
        if rho < 1:
            value += (1.0 - rho) / sens_norm * (n_s / t * _logdet_bits(eye_s + fh @ (t * qs) @ f / noise.variance))
        return value.tolist()

    comm_w = rho / (comm_norm * np.log(2.0) * noise.variance)
    sens_w = (1.0 - rho) * n_s / (sens_norm * np.log(2.0) * noise.variance)

    def gradient(q):
        g = np.zeros((m, m), dtype=complex)
        if rho > 0:
            g += comm_w * (hh @ np.linalg.inv(eye_c + hc @ q @ hh / noise.variance) @ hc)
        if rho < 1:
            g += sens_w * (f @ np.linalg.inv(eye_s + t * (fh @ q @ f) / noise.variance) @ fh)
        return (g + g.conj().T) / 2

    def project(s, unit=False):
        rungs = np.array([1.0] * unit + [s * 0.5**k for k in range(_RUNGS)])[:, None, None]
        return _project_psd_trace(np.where(rungs == 1.0, q + g, q + rungs * g), budget)

    def search(s, cands):
        while True:
            yield from zip([s * 0.5**k for k in range(_RUNGS)], cands, objective(cands))
            s *= 0.5**_RUNGS
            cands = project(s)

    q = budget / m * np.eye(m, dtype=complex)
    obj = objective(q[None])[0]
    step, gap = 1.0, np.inf
    for _ in range(max_iter):
        g = gradient(q)
        cands = project(step, unit=step != 1.0)
        gap = float(np.linalg.norm(cands[0] - q, "fro"))
        if gap < grad_tol:
            return q, obj, (comm_norm, sens_norm)
        for s, cand, cand_obj in search(step, cands[int(step != 1.0):]):
            if s < 1e-18:
                break
            if cand_obj >= obj + 1e-4 * float(np.real(np.vdot(g, cand - q))) and cand_obj > obj:
                q, obj = cand, cand_obj
                break
        step = min(s * 2.0, 1e6)
    raise ConvergenceError("cap", best=q, iterations=max_iter, last_change=gap)


def outcome(solve, *args, **kwargs):
    """('ok', result bytes) or ('cap', best bytes, iterations, last change bytes)."""
    try:
        out = solve(*args, **kwargs)
    except ConvergenceError as err:
        return "cap", err.best.tobytes(), err.iterations, struct.pack("<d", err.last_change)
    if isinstance(out, tuple):  # optimize_weighted_mi's (q, objective, normalizers)
        q, obj, norms = out
        assert type(obj) is float
        return "ok", q.tobytes(), struct.pack("<d", obj), norms
    return "ok", out.tobytes()


@st.composite
def tradeoffs(draw):
    """(hc, c, xs): k <= m streams, so rho = 1 with k < m is the hard case."""
    m = draw(st.integers(1, 5))
    k, t = draw(st.integers(1, m)), draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(seeds))
    return cn(gen, k, m), cn(gen, k, t), cn(gen, m, t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tradeoffs(), rhos, st.floats(0.1, 4.0), st.integers(1, 8))
def test_per_antenna_matches_the_untrimmed_sweep_to_the_bit(instance, rho, energy, cap):
    # the converged solve, and one stopped at a small sweep cap with its ConvergenceError
    for options in ({}, {"max_sweeps": cap}):
        got = outcome(solve_per_antenna, *instance, rho, energy, **options)
        assert got == outcome(reference_per_antenna, *instance, rho, energy, **options)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tradeoffs(), rhos, st.floats(0.1, 2.0), st.integers(1, 8), st.sampled_from([1e-10, 0.0]))
def test_constant_modulus_matches_the_untrimmed_sweep_to_the_bit(instance, rho, modulus, cap, tol):
    # tol = 0 leaves every start at the cap, so the error carries the lowest one's iterate
    for options in ({}, {"max_sweeps": cap, "tol": tol}):
        got = outcome(solve_constant_modulus, *instance, rho, modulus, **options)
        assert got == outcome(reference_constant_modulus, *instance, rho, modulus, **options)


def test_a_zero_row_keeps_its_row_in_both_sweeps():
    # Hc = 0 and Xs = 0 give every row a zero direction: row_sphere keeps the row and
    # unit_modulus keeps the row's entries, each through its own branch
    hc, c, xs = np.zeros((1, 2), dtype=complex), np.ones((1, 3), dtype=complex), np.zeros((2, 3), dtype=complex)
    assert outcome(solve_per_antenna, hc, c, xs, 0.5, 2.0) == outcome(reference_per_antenna, hc, c, xs, 0.5, 2.0)
    assert outcome(solve_constant_modulus, hc, c, xs, 0.5, 1.0) == \
        outcome(reference_constant_modulus, hc, c, xs, 0.5, 1.0)


@st.composite
def weighted_mi_instances(draw):
    """A channel with k <= m streams (k = 1 and m = 1 included), a Q_h of rank r <= m, a block
    length t >= m that is not a power of two, a weight at either end or inside, a budget and a
    noise variance."""
    m = draw(st.integers(1, 5))
    k, r = draw(st.integers(1, m)), draw(st.integers(1, m))
    t = draw(st.integers(m, 3 * m + 4).filter(lambda n: n & (n - 1)))
    gen = np.random.default_rng(draw(seeds))
    root = cn(gen, m, r)
    budget, variance = 10.0 ** draw(st.floats(-2.0, 2.0)), 10.0 ** draw(st.floats(-1.0, 1.0))
    return cn(gen, k, m), root @ root.conj().T, draw(rhos), budget, NoiseSpec(variance), t, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(weighted_mi_instances(), st.integers(1, 6))
@example((np.ones((1, 1)), np.eye(1), 0.0, 1.0, NoiseSpec(1.0), 3, 1), 1)
@example((np.ones((1, 1)), np.eye(1), 1.0, 1.0, NoiseSpec(1.0), 3, 1), 1)
@example((np.array([[1.0, 0.5j, -1.0]]), np.diag([2.0, 1.0, 0.0]), 0.4, 2.0, NoiseSpec(0.5), 5, 2), 2)
def test_weighted_mi_matches_the_untrimmed_solver_to_the_bit(instance, cap):
    for options in ({}, {"max_iter": cap}, {"max_iter": 30 + cap, "grad_tol": 1e-14}):
        got = outcome(optimize_weighted_mi, *instance, **options)
        assert got == outcome(reference_weighted_mi, *instance, **options)


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_one_weighted_mi_solve_decomposes_q_h_once(monkeypatch, rho):
    # the sensing normalizer and the factor F share one check and eigh of Q_h
    names = []
    check = capacity.require_psd

    def counting(q, name="matrix"):
        names.append(name)
        return check(q, name)

    monkeypatch.setattr(capacity, "require_psd", counting)
    gen = np.random.default_rng(3)
    root = cn(gen, 4, 4)
    optimize_weighted_mi(cn(gen, 2, 4), root @ root.conj().T, rho, 1.0, NoiseSpec(1.0), 8, 4)
    assert names.count("channel covariance") == 1


def test_weighted_mi_refuses_a_zero_normalizer():
    # a zero Q_h has sensing capacity 0, by which the objective would divide
    with pytest.raises(ValueError, match="^sensing normalizer must be > 0$"):
        optimize_weighted_mi(np.ones((1, 2)), np.zeros((2, 2)), 0.5, 1.0, NoiseSpec(1.0), 4, 2)


def test_only_the_callers_that_use_the_rate_refuse_an_infinite_one():
    # sigma^2 = 1e-308 leaves the water-filled levels finite, but lam beta / sigma^2 overflows
    noise, qh = NoiseSpec(1e-308), np.diag([2.0, 1.0]).astype(complex)
    message = "^power budget 8.0 gives an infinite water-filled rate$"
    block = optimal_sensing_waveform(qh, 8, 1.0, noise).block
    assert np.all(np.isfinite(block))
    with pytest.raises(ValueError, match=message):
        sensing_capacity(qh, 2, 8, 1.0, noise)
    with pytest.raises(ValueError, match=message):
        comm_capacity(np.eye(2), 8.0, noise)
    for rho in (0.0, 1.0):  # the sensing and the communication normalizer, at T = 1 for a rank-one Q_h
        with pytest.raises(ValueError, match=message):
            optimize_weighted_mi(np.eye(2), np.diag([2.0, 0.0]), rho, 8.0, noise, 1, 2)


def test_tradeoff_at_a_tiny_noise_variance_runs(capsys):
    # the sensing waveform's rate overflows; the scenario never reads it
    assert main(["isac_tradeoff", "--noise-var", "1e-308", "--trials", "2"]) == 0
    captured = capsys.readouterr()
    header, *rows = captured.out.splitlines()
    assert captured.err == "" and header == "scenario,param_name,param_value,trial,metric,value"
    assert len(rows) == 60 and all(np.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)


def test_tradeoff_at_the_smallest_block_energy_runs_silently():
    # e_i / E overflows at E = 5e-324, but sqrt(e_i) / sqrt(E) does not: the lane starts at its
    # root's lower bound, and its factor, relative to mode 0's, keeps the scale off ||X||^2 ~ E
    env = dict(os.environ, PYTHONPATH=str(Path(isacsim.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-m", "isacsim.cli", "isac_tradeoff", "--m", "1", "--k", "1", "--t", "1",
         "--trials", "1", "--p-t", "5e-324", "--rho-list", "0,1"],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert run.returncode == 0 and run.stderr == ""
    header, *rows = run.stdout.splitlines()
    assert header == "scenario,param_name,param_value,trial,metric,value"
    assert len(rows) == 18 and all(np.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)
