"""The trade-off design in the eigenbasis U of Hc^H Hc.

`isac_tradeoff` scores each rho point on the design's coordinates U^H X, since
Hc X = (Hc U)(U^H X) and ||X - Xs|| = ||U^H X - U^H Xs||, and never forms X.
`solve_pareto_tradeoff`, `_min_on_sphere` and the stacked `_pareto_solver` designs
still map the coordinates to antennas, then take the norm, then scale.  These tests
hold the first to the public solve within rounding, the second to that order to the
bit, and count the back-transforms a CLI run makes.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import cli, solve_pareto_tradeoff, waveform
from isacsim.cli import ScenarioConfig, run_scenario
from isacsim.rng import philox_stream
from isacsim.waveform import _min_in_basis, _min_on_sphere, _pareto_solver, _pareto_terms, _sq_sum

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
rhos = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def cn(gen, *shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def antenna_tail(coords, vecs, energy, shape):
    """The design from the sphere solve's coordinates in the order the antenna-domain
    solves keep: the product vecs @ coords, then the norm, then the scale."""
    x = vecs @ coords
    norm = np.sqrt(_sq_sum(x))
    if np.any(norm == 0.0):
        return None
    x *= (np.sqrt(energy) / norm)[..., None, None]
    return np.reshape(x, shape)


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.sampled_from([1, m]) | st.integers(1, m))),
       st.integers(0, 4), st.sampled_from([1e-3, 1e3]) | st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
       st.lists(rhos, max_size=3), st.integers(1, 5), seeds)
@example((6, 1), 6, 1e3, [], 3, 11)  # rank-one Hc far past its least-squares energy: hard case at rho = 1
@example((5, 3), 0, 1e3, [0.01], 2, 4)  # 1 < k < m
@example((4, 4), 0, 1e-3, [0.5], 4, 9)  # no null space
def test_cli_basis_metrics_match_the_antenna_domain_design(mk, extra_t, p_t, grid, trials, seed):
    # the block's instances as the CLI draws them, scored in the basis by the CLI and in
    # antennas from each lane's own solve_pareto_tradeoff
    m, k = mk
    points = (0.0, 1.0, *grid)
    cfg = ScenarioConfig("isac_tradeoff", m=m, k=k, t=m + extra_t, p_t=p_t, rho_list=points, trials=trials,
                         seed=seed)
    block = range(trials)
    instances = []

    def capturing(*args):
        instances.append(args)
        return _pareto_solver(*args)

    with mock.patch.object(cli, "_pareto_solver", capturing):
        evaluate = cli._tradeoff_trial(cfg, block, [philox_stream(seed, stream=i) for i in block])
    (hc, c, xs, energy), = instances
    for pi, rho in enumerate(points):
        rows = evaluate(pi, rho)
        for i, row in enumerate(rows):
            x = solve_pareto_tradeoff(hc[i], c[i], xs[i], rho, energy)
            interference, distance = _pareto_terms(hc[i], c[i], xs[i], x)
            atol = 1e-12 * (float(_sq_sum(c[i])) + energy)
            for name, want in (("interference_power", interference), ("waveform_distance", distance),
                               ("objective", rho * interference + (1.0 - rho) * distance)):
                assert abs(row[name] - want) <= 1e-12 * abs(want) + atol, (name, rho, i)


@st.composite
def pareto_stacks(draw):
    """A stack of trade-off instances with k = 1, 1 < k < m or k = m, a weight, and an energy
    past every lane's least-squares energy in some draws (the hard case at rho = 1 when k < m)."""
    m = draw(st.integers(1, 5))
    k, t, lanes = draw(st.integers(1, m)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(seeds))
    hc, c, xs = cn(gen, lanes, k, m), cn(gen, lanes, k, t), cn(gen, lanes, m, t)
    energy = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        energy += max(np.linalg.norm(np.linalg.pinv(h) @ s) ** 2 for h, s in zip(hc, c))
    return hc, c, xs, draw(rhos), energy


_gen = np.random.default_rng(3)
# rank-one Hc at rho = 1, far past the least-squares energy: every lane takes the hard case
HARD_STACK = cn(_gen, 3, 1, 4), cn(_gen, 3, 1, 2), cn(_gen, 3, 4, 2), 1.0, 1e3


@PROPERTY
@given(pareto_stacks())
@example(HARD_STACK)
def test_pareto_designs_keep_the_antenna_tail_to_the_bit(stack):
    hc, c, xs, rho, energy = stack
    hh = hc.conj().swapaxes(-2, -1)
    s, u = np.linalg.eigh(hh @ hc)
    uh = u.conj().swapaxes(-2, -1)
    bt = rho * (uh @ (hh @ c))
    bt += (1.0 - rho) * (uh @ xs)
    want = antenna_tail(_min_in_basis(rho * s + (1.0 - rho), bt, energy), u, energy, xs.shape)
    assert np.array_equal(_pareto_solver(hc, c, xs, energy)[2](rho), want)
    for i in range(len(hc)):
        assert np.array_equal(solve_pareto_tradeoff(hc[i], c[i], xs[i], rho, energy), want[i])


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 3), st.sampled_from(["pareto", "negative", "hard", "zero"]), seeds,
       st.floats(-3.0, 3.0))
def test_sphere_solve_keeps_the_antenna_tail_to_the_bit(n, cols, kind, seed, exponent):
    gen = np.random.default_rng(seed)
    hc = cn(gen, max(1, n - 1), n)
    a = {"pareto": hc.conj().T @ hc + 0.5 * np.eye(n), "negative": -(hc.conj().T @ hc),
         "hard": hc.conj().T @ hc, "zero": np.zeros((n, n))}[kind]
    # the hard kind's B lies in the row space of hc, so past its least-squares energy
    b = hc.conj().T @ cn(gen, hc.shape[0], cols) if kind == "hard" else cn(gen, n, cols)
    energy = 10.0**exponent
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    want = antenna_tail(_min_in_basis(vals, vecs.conj().T @ b, energy), vecs, energy, b.shape)
    assert np.array_equal(_min_on_sphere(a, b, energy), want)


def test_cli_run_never_maps_a_design_back_to_antennas(monkeypatch):
    # each rho point of a two-block run is put on the sphere in the eigenbasis;
    # the public solve maps its design to antennas once
    calls = []
    helper = waveform._on_sphere

    def counting(coords, vecs, energy, shape):
        calls.append(vecs is not None)
        return helper(coords, vecs, energy, shape)

    monkeypatch.setattr(waveform, "_on_sphere", counting)
    cfg = ScenarioConfig("isac_tradeoff", trials=cli.BLOCK_TRIALS + 1, seed=2)
    run_scenario(cfg)
    assert calls == [False] * (2 * len(cfg.rho_list))
    calls.clear()
    gen = np.random.default_rng(5)
    solve_pareto_tradeoff(cn(gen, 2, 4), cn(gen, 2, 8), cn(gen, 4, 8), 0.5, 8.0)
    assert calls == [True]
