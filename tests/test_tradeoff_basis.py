"""The trade-off design scored in the eigenbasis U of Hc^H Hc.

`isac_tradeoff` scores each rho point from per-mode scalars of p = U^H Hc^H C and
q = U^H Xs that the block draw builds once (`waveform._pareto_scorer`), and never
forms the design.  `solve_pareto_tradeoff`, for one instance or a stack, and
`_min_on_sphere` form it in `_min_in_basis`: they map the sphere solve's coordinates
to antennas, then take the norm, then scale.  These tests hold the scored metrics to
the public solve within rounding, on rank-deficient channels too, each scored lane to that lane
scored alone and the designs to that order to the bit, the public solve's metrics to the
instance's scale from 1e-300 to 1e300, and the secular solve to its root at rounding level for E
from 1e-300 to 1e300 and weights e_i / E up to about 1e600, or its lane refused past the float range;
a lane that starts within the solve's stop keeps its start to the bit.  The scorer works in the
instance's own units, which the CLI draws at unit variance whatever p_t: its distances match the
public solve's for p_t down to 5e-324, and subnormal block energies run.  At a tiny energy the
design lies along B, in a CLI run too, and no CLI run forms a design or scores one in antennas.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import cli, solve_pareto_tradeoff, waveform
from isacsim.cli import ScenarioConfig, run_scenario
from isacsim.rng import philox_stream
from isacsim.waveform import _min_on_sphere, _pareto_scorer, _pareto_terms, _secular_factors, _sq_sum

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
rhos = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def cn(gen, *shape):
    return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)


def antenna_tail(vals, vecs, bt, energy, shape):
    """A frozen copy of the sphere solve's design in the order the antenna-domain solves
    keep: the coordinates, row i of bt times _secular_factors' factor i with the hard case's
    fill on entry [0, 0], then the product vecs @ coords, then the norm, then the scale."""
    factors, hard, _ = _secular_factors(vals, _sq_sum(bt, 1), energy)
    with np.errstate(invalid="ignore", over="ignore"):
        coords = bt * factors[..., None]
    if hard.any():
        coords[..., 0, 0] += np.where(hard, np.sqrt(np.maximum(energy - _sq_sum(coords), 0.0)), 0.0)
    x = vecs @ coords
    norm = np.sqrt(_sq_sum(x))
    if np.any(norm == 0.0):
        return None
    x *= (np.sqrt(energy) / norm)[..., None, None]
    return np.reshape(x, shape)


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.sampled_from([1, m]) | st.integers(1, m))),
       st.integers(0, 4), st.sampled_from([1e-3, 1e3, 5e-324, 1e-310]) | st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
       | st.floats(-323.0, 300.0).map(lambda e: 10.0**e),
       st.lists(rhos, max_size=3), st.integers(1, 5), seeds)
@example((6, 1), 6, 1e3, [], 3, 11)  # rank-one Hc far past its least-squares energy: hard case at rho = 1
@example((5, 3), 0, 1e3, [0.01], 2, 4)  # 1 < k < m
@example((4, 4), 0, 1e-3, [0.5], 4, 9)  # no null space
@example((1, 1), 0, 1.0, [1e-9, 1.0 - 1e-9], 5, 3)  # scalar modes: every p_i and q_i parallel
@example((1, 1), 2, 1e3, [1e-9, 0.3, 1.0 - 1e-9], 5, 8)
@example((16, 4), 16, 1e200, [1e-9, 0.5, 1.0 - 1e-9], 2, 5)  # huge energies: the quadratic forms near 1e200
@example((6, 1), 6, 1e250, [1e-9, 0.01, 0.99, 1.0 - 1e-9], 3, 11)
@example((6, 1), 6, 1e-300, [1e-9, 0.5, 1.0 - 1e-9], 3, 12)  # tiny but normal E: the distance check holds
@example((16, 4), 16, 5e-323, [1e-9, 0.5, 1.0 - 1e-9], 2, 1)  # subnormal E, which the scorer once refused
@example((4, 2), 0, 5e-324, [0.5], 4, 1)
def test_cli_basis_metrics_match_the_antenna_domain_design(mk, extra_t, p_t, grid, trials, seed):
    # the block's instances as the CLI draws them, scored from per-mode scalars by the CLI
    # and in antennas from each lane's own solve_pareto_tradeoff; where E is normal, each
    # distance also to within 1e-13 of |d| + E, whatever the scale of E beside C's
    m, k = mk
    points = (0.0, 1.0, *grid)
    cfg = ScenarioConfig("isac_tradeoff", m=m, k=k, t=m + extra_t, p_t=p_t, rho_list=points, trials=trials,
                         seed=seed)
    block = range(trials)
    instances = []

    def capturing(*args):
        instances.append(args)
        return _pareto_scorer(*args)

    with mock.patch.object(cli, "_pareto_scorer", capturing):
        evaluate = cli._tradeoff_trial(cfg, block, [philox_stream(seed, stream=i) for i in block])
    (hc, c, xs, energy), = instances
    for pi, rho in enumerate(points):
        rows = evaluate(pi, rho)
        for i, row in enumerate(rows):
            assert row["interference_power"] >= 0.0 and row["waveform_distance"] >= 0.0, (rho, i)
            x = solve_pareto_tradeoff(hc[i], c[i], xs[i], rho, energy)
            interference, distance = _pareto_terms(hc[i], c[i], xs[i], x)
            atol = 1e-12 * (float(_sq_sum(c[i])) + energy)
            for name, want in (("interference_power", interference), ("waveform_distance", distance),
                               ("objective", rho * interference + (1.0 - rho) * distance)):
                assert abs(row[name] - want) <= 1e-12 * abs(want) + atol, (name, rho, i)
            if energy >= np.finfo(float).tiny:
                assert abs(row["waveform_distance"] - distance) <= 1e-13 * (abs(distance) + energy), (rho, i)


@pytest.mark.parametrize("argv", [["--m", "16", "--k", "4", "--t", "32", "--p-t", "5e-323"],
                                  ["--m", "4", "--k", "2", "--t", "4", "--p-t", "5e-324"]])
def test_cli_run_at_a_subnormal_block_energy_prints_finite_metrics(argv, capsys):
    # E = t p_t is subnormal: the scorer's scalars stay in the instance's units, where an energy
    # taken in units of the lane's largest mode energy underflowed to 0 and the run exited 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["isac_tradeoff", *argv, "--trials", "4", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()[1:]
    assert rows and all(math.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)


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
    want = antenna_tail(rho * s + (1.0 - rho), u, bt, energy, xs.shape)
    assert np.array_equal(solve_pareto_tradeoff(hc, c, xs, rho, energy), want)
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
    want = antenna_tail(vals, vecs, vecs.conj().T @ b, energy, b.shape)
    assert np.array_equal(_min_on_sphere(a, b, energy), want)


def test_cli_run_never_maps_a_design_back_to_antennas(monkeypatch):
    # a two-block run scores every rho point from the per-mode scalars: no design is put on
    # the sphere and none is scored in antennas; the public solve puts its design there once
    calls = []
    for name in ("_min_in_basis", "_pareto_terms"):
        helper = getattr(waveform, name)
        monkeypatch.setattr(waveform, name, lambda *args, name=name, helper=helper: calls.append(name) or helper(*args))
    run_scenario(ScenarioConfig("isac_tradeoff", trials=cli.BLOCK_TRIALS + 1, seed=2))
    assert calls == []
    gen = np.random.default_rng(5)
    solve_pareto_tradeoff(cn(gen, 2, 4), cn(gen, 2, 8), cn(gen, 4, 8), 0.5, 8.0)
    assert calls == ["_min_in_basis"]


@pytest.mark.parametrize("m, k", [(6, 1), (16, 4), (5, 4), (4, 4)])
def test_scorer_solves_k_plus_one_modes(m, k):
    # Hc's m - k null modes share one secular factor, so each point pools them into one mode;
    # with k = m there are none and the point solves all m
    gen = np.random.default_rng(2)
    shapes, secular = [], waveform._secular_factors
    with mock.patch.object(waveform, "_secular_factors", lambda *args: shapes.append(args[1].shape) or secular(*args)):
        score = _pareto_scorer(cn(gen, 3, k, m), cn(gen, 3, k, 5), cn(gen, 3, m, 5), 10.0)
        for rho in (0.0, 0.5, 1.0):
            score(rho)
    assert shapes == [(3, k + 1 if k < m else m)] * 3


def test_scored_distance_is_not_negative_where_the_design_is_the_reference():
    # m = k = t = 1 with Xs along Hc^H C at the energy E: the design is Xs at every rho, so the
    # distance is 0 up to rounding, and its quadratic form alone rounded below 0 in about a
    # third of these lanes
    gen = np.random.default_rng(4)
    lanes, energy = 300, 10.0 ** gen.uniform(-3.0, 3.0)
    hc, c = cn(gen, lanes, 1, 1), cn(gen, lanes, 1, 1)
    target = hc.conj() * c
    xs = np.sqrt(energy) * target / np.abs(target)
    score = _pareto_scorer(hc, c, xs, energy)
    for rho in (0.1, 0.5, 0.9):
        interference, distance = score(rho)
        assert np.all(distance >= 0.0) and np.all(distance <= 1e-14 * energy)
        assert np.all(interference >= 0.0)


def test_scored_lane_with_zero_symbols_and_reference_matches_the_antenna_domain_design():
    # C = Xs = 0 gives a lane no scale of its own for its scalars: B = 0, so every design on
    # the sphere is optimal and the hard case fills the energy along u_0
    gen = np.random.default_rng(1)
    hc, c, xs = cn(gen, 2, 2, 4), cn(gen, 2, 2, 3), cn(gen, 2, 4, 3)
    c[1], xs[1] = 0.0, 0.0
    score = _pareto_scorer(hc, c, xs, 5.0)
    for rho in (0.0, 0.5, 1.0):
        interference, distance = score(rho)
        for i in range(2):
            x = solve_pareto_tradeoff(hc[i], c[i], xs[i], rho, 5.0)
            np.testing.assert_allclose([interference[i], distance[i]], _pareto_terms(hc[i], c[i], xs[i], x),
                                       rtol=1e-12, atol=1e-12 * 5.0)


def test_scored_hard_case_off_the_null_space_matches_the_antenna_domain_design():
    # k = m at rho = 1 with C orthogonal to Hc u_0: B = Hc^H C has no energy on u_0, which Hc
    # does not annihilate, so the fill along u_0 moves the interference as well as the distance
    gen = np.random.default_rng(6)
    lanes, m, t, energy = 4, 3, 2, 1e3
    hc = cn(gen, lanes, m, m)
    hh = hc.conj().swapaxes(-2, -1)
    vals, u = np.linalg.eigh(hh @ hc)
    hu0 = (hc @ u[..., :1])[..., 0]
    c = cn(gen, lanes, m, t)
    c -= hu0[..., None] * (np.einsum("li,lij->lj", hu0.conj(), c) / _sq_sum(hu0, 1)[..., None])[..., None, :]
    xs = cn(gen, lanes, m, t)
    assert np.all(_secular_factors(vals, _sq_sum(u.conj().swapaxes(-2, -1) @ hh @ c, 1), energy)[1])  # all hard
    interference, distance = _pareto_scorer(hc, c, xs, energy)(1.0)
    for i in range(lanes):
        x = solve_pareto_tradeoff(hc[i], c[i], xs[i], 1.0, energy)
        np.testing.assert_allclose([interference[i], distance[i]], _pareto_terms(hc[i], c[i], xs[i], x), rtol=1e-10)


@st.composite
def scorer_stacks(draw):
    """A stack of trade-off instances that share m, k, t and E, each lane open at rho = 1 (its
    least-squares energy 4E), past it (E 4 times that energy, the hard case at rho = 1 when
    k < m) or with C = Xs = 0 (B = 0, the hard case at every rho)."""
    m = draw(st.integers(1, 6))
    k, t = draw(st.integers(1, m)), draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["open", "past", "zero"]), min_size=2, max_size=6))
    gen = np.random.default_rng(draw(seeds))
    hc, c, xs = cn(gen, len(kinds), k, m), cn(gen, len(kinds), k, t), cn(gen, len(kinds), m, t)
    energy = 10.0 ** draw(st.floats(-3.0, 3.0))
    for lane, kind in enumerate(kinds):
        least_squares = np.linalg.norm(np.linalg.pinv(hc[lane]) @ c[lane]) ** 2
        c[lane] *= {"open": np.sqrt(4.0 * energy / least_squares), "past": np.sqrt(energy / least_squares) / 2.0,
                    "zero": 0.0}[kind]
        xs[lane] *= kind != "zero"
    return hc, c, xs, energy


@PROPERTY
@given(scorer_stacks())
@example((cn(_gen, 4, 1, 4), cn(_gen, 4, 1, 2), cn(_gen, 4, 4, 2), 1e3))  # rank-one Hc: hard at rho = 1
def test_scored_lanes_equal_each_lane_scored_alone_to_the_bit(stack):
    # a lane's Newton steps, stop and case come from its own residuals alone, whichever lanes
    # share its block: open lanes, lanes that start at their root (rho = 0), hard lanes and B = 0
    hc, c, xs, energy = stack
    score = _pareto_scorer(hc, c, xs, energy)
    alone = [_pareto_scorer(hc[i:i + 1], c[i:i + 1], xs[i:i + 1], energy) for i in range(len(hc))]
    for rho in (0.0, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0):
        interference, distance = score(rho)
        for i, lane in enumerate(alone):
            assert (interference[i], distance[i]) == tuple(float(x[0]) for x in lane(rho)), (rho, i)


EPS = np.finfo(float).eps


@st.composite
def secular_stacks(draw):
    """Lanes of a secular solve, each an ascending spectrum with its mode energies: open
    (mode 0 carries energy, so psi is far above E at the start), hard (no energy on mode 0 and
    too little on the others, with mode 1 sometimes repeating mode 0) or flat (A = 0).  The
    open lanes' weights e_i / E run from about 1e-2 to 1e2 times 10^lift, where lift goes up to
    300 - log10(E): so e_i of order 1 beside E down to 1e-300, and e_i / E up to about 1e600."""
    m, exponent = draw(st.integers(1, 6)), draw(st.sampled_from([-300.0, 300.0]) | st.floats(-300.0, 300.0))
    lift = (300.0 - exponent) * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    kinds = draw(st.lists(st.sampled_from(["open", "hard", "flat"]), min_size=1, max_size=5))
    gen = np.random.default_rng(draw(seeds))
    vals, energies = np.zeros((len(kinds), m)), np.zeros((len(kinds), m))
    for lane, kind in enumerate(kinds):
        exponents = exponent + lift + gen.uniform(-2.0, 2.0, m)
        if kind != "flat":
            vals[lane] = np.sort(10.0 ** gen.uniform(-3.0, 3.0) * gen.standard_normal(m))
        if kind == "hard":
            if m > 1 and gen.random() < 0.5:
                vals[lane, 1] = vals[lane, 0]
            gaps = vals[lane] - vals[lane, 0]
            # e_i / E at most (gap_i / 2)^2 / m on the open modes, so psi stays under E / 4 there
            with np.errstate(divide="ignore"):
                exponents = exponent + np.log10(np.where(gaps > 0.0, gen.uniform(0.0, 0.25, m) * gaps**2 / m, 0.0))
        energies[lane] = 10.0**exponents
    return vals, energies, 10.0**exponent, kinds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(secular_stacks())
def test_secular_solve_settles_at_rounding_level_over_the_float_range(stack):
    vals, energies, energy, kinds = stack
    factors, hard, offset = _secular_factors(vals, energies, energy)
    for lane, kind in enumerate(kinds):
        alone = _secular_factors(vals[lane], energies[lane], energy)
        assert np.array_equal(factors[lane], alone[0]) and hard[lane] == alone[1] and offset[lane] == alone[2]
        gaps = vals[lane] - vals[lane, 0]
        if kind == "open":  # psi(lam) = E to within the 2 eps stop and the test's own rounding
            assert not hard[lane] and factors[lane, 0] == 1.0
            # sum_i d_i^2 e_i / E with d_i = factor_i / (lam + v_0), in an order that cannot overflow
            psi = np.sum((factors[lane] * np.sqrt(energies[lane]) / (offset[lane] * np.sqrt(energy))) ** 2)
            assert abs(psi - 1.0) <= 8 * vals.shape[1] * EPS, psi
        elif kind == "hard":  # the open modes at lam = -v_0, the closed ones empty
            assert hard[lane] and offset[lane] == 0.0
            closed = gaps <= 1e-12 * np.max(np.abs(vals[lane]))
            with np.errstate(divide="ignore"):
                assert np.array_equal(factors[lane], np.where(closed, 0.0, 1.0 / gaps))
        else:  # A = 0: lam = 1, X along B
            assert not hard[lane] and offset[lane] == 1.0
            assert np.array_equal(factors[lane], np.ones(vals.shape[1]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=16), st.floats(-3.0, 3.0))
@example([1.96, -2.63, -2.44], 2.78)  # r = 1 + 2 eps at the start, where a step would still move the offset
def test_secular_lane_that_starts_within_the_stop_keeps_its_start(exponents, exponent):
    # A = I, as at rho = 0: every mode sits at v_0, so the prefix bound sqrt(sum_i e_i) / sqrt(E) is the
    # root up to rounding; a lane whose r there is already at most 1 + 2 eps takes no step
    energies, energy = 10.0 ** np.array(exponents), 10.0**exponent
    start = max(1e-13, np.sqrt(np.add.accumulate(energies)[-1]) / np.sqrt(energy))
    r = np.add.reduce(np.square(np.sqrt(energies) / np.sqrt(energy) / start))  # the solve's own r
    _, hard, offset = _secular_factors(np.ones(len(exponents)), energies, energy)
    assert not hard
    if r <= 1.0 + 2.0 * EPS:
        assert offset == start, (r - 1.0) / EPS
    else:  # the iterates rise to the root
        assert offset > start


def test_secular_lanes_past_the_float_range_are_refused():
    # a lane whose start sums are not finite gets zero factors, while a normal lane beside it
    # keeps its own: e_i / E near 1e624 overflows sqrt(e_i) / sqrt(E)
    normal = np.array([1.0, 2.0, 3.0])
    factors, hard, _ = _secular_factors(np.array((normal, normal)), np.array(((1.0, 1.0, 1e300), (1.0, 2.0, 3.0))),
                                        5e-324)
    assert not hard.any() and np.all(factors[0] == 0.0) and np.all(factors[1] > 0.0)


def test_secular_lane_of_a_tiny_spectrum_starts_at_its_root():
    # A near 1e-296 with all of B on mode 0: the prefix bound sqrt(e_0 / E) is the root itself,
    # so the lane starts there, where a start at the pole (1e-13 max|v|, subnormal) overflowed
    # its slope and was refused; the design lies along B
    tiny = np.array([1e-296, 2e-296, 3e-296])
    factors, hard, offset = _secular_factors(np.array((tiny, [1.0, 2.0, 3.0])),
                                             np.array(((1e-305, 0.0, 0.0), (1e307, 1e307, 1e307))), 1e308)
    assert not hard.any() and factors[0, 0] == 1.0 and np.all(factors[1] > 0.0)
    np.testing.assert_allclose(offset[0], np.sqrt(1e-305) / np.sqrt(1e308), rtol=1e-15)
    b = np.array([[np.sqrt(1e-305)], [0.0], [0.0]])
    x = _min_on_sphere(np.diag(tiny), b, 1e308)
    np.testing.assert_allclose(x / np.sqrt(1e308), b / np.linalg.norm(b), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("energy", [1e-250, 1e-280, 1e-300, 1e-310, 5e-324])
def test_sphere_solve_at_a_tiny_energy_lies_along_b(energy):
    # sqrt(sum_i e_i / E) dwarfs the spectrum, so the root's offset does too and X is
    # B sqrt(E) / ||B|| to rounding; a Newton start at the pole stalled there at E <= 1e-280
    b = np.random.default_rng(1).standard_normal((3, 2))
    x = _min_on_sphere(np.diag([1.0, 2.0, 3.0]), b, energy)
    np.testing.assert_allclose(x / np.sqrt(energy), b / np.linalg.norm(b), rtol=1e-15, atol=1e-15)


def test_cli_run_at_a_tiny_block_energy_scores_the_design_along_b(capsys):
    # at p_t 1e-280, sqrt(sum_i e_i / E) near 1e140 dwarfs the spectrum, so the design is
    # B sqrt(E) / ||B||, B = rho Hc^H C + (1 - rho) Xs, to rounding.  The small noise variance
    # keeps Xs at energy E, so the distance 2E - 2 Re<X, Xs> reads X's direction.  With k = m,
    # mode 0 carries e_0 / E near 1e280, where a Newton lane started at the pole overflowed
    # its slope and stalled there, exiting 0 with a design near mode 0
    argv = ["isac_tradeoff", "--m", "4", "--k", "4", "--t", "6", "--p-t", "1e-280", "--noise-var", "1e-300",
            "--rho-list", "1e-9,0.5,1", "--trials", "3", "--seed", "5"]
    instances = []
    with mock.patch.object(cli, "_pareto_scorer", lambda *args: instances.append(args) or _pareto_scorer(*args)):
        assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = {tuple(row.split(",")[2:5]): float(row.split(",")[5]) for row in captured.out.splitlines()[1:]}
    (hc, c, xs, energy), = instances
    assert np.all(np.abs(_sq_sum(xs) / energy - 1.0) < 1e-12)
    for rho in (1e-9, 0.5, 1.0):
        for i in range(3):
            b = rho * hc[i].conj().T @ c[i] + (1.0 - rho) * xs[i]
            want = _pareto_terms(hc[i], c[i], xs[i], np.sqrt(energy) * b / np.linalg.norm(b))
            got = rows[str(rho), str(i), "interference_power"], rows[str(rho), str(i), "waveform_distance"]
            np.testing.assert_allclose(got, want, rtol=1e-12)


def test_public_solve_metrics_scale_with_the_instance_from_1e_300_to_1e300():
    # the same scaling for solve_pareto_tradeoff's designs, scored in antennas: at p = 1e-300 the
    # null modes' energies (1-rho)^2 b_i near rho = 1, and the design's own squared norm, would be
    # subnormal in absolute units, which put the distance at rho = 1 - 1e-9 off by 2.8e-7 relative
    cfg = ScenarioConfig("isac_tradeoff", m=6, k=2, t=8, trials=3, seed=12)
    instances = []
    with mock.patch.object(cli, "_pareto_scorer", lambda *args: instances.append(args) or _pareto_scorer(*args)):
        cli._tradeoff_trial(cfg, range(3), [philox_stream(12, stream=i) for i in range(3)])
    (hc, c, xs, energy), = instances
    points = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0)

    def scaled(p):
        c_p, xs_p = np.sqrt(p) * c, np.sqrt(p) * xs
        return np.array([_pareto_terms(hc, c_p, xs_p, solve_pareto_tradeoff(hc, c_p, xs_p, rho, p * energy))
                         for rho in points]) / p

    want = scaled(1.0)
    atol = 1e-12 * (_sq_sum(c) + energy)[None, None, :]
    for exponent in range(-300, 301, 25):
        np.testing.assert_array_less(np.abs(scaled(10.0**exponent) - want), 1e-12 * np.abs(want) + atol)


@PROPERTY
@given(st.integers(2, 6).flatmap(lambda m: st.integers(2, m).flatmap(
           lambda k: st.tuples(st.just(m), st.just(k), st.integers(1, k - 1)))),
       st.integers(1, 4), st.integers(1, 4), st.floats(-3.0, 3.0), st.booleans(), seeds)
@example((6, 4, 1), 3, 2, 1.0, True, 7)  # a rank-one Hc past its least-squares energy
@example((4, 4, 2), 2, 3, 0.0, True, 1)  # k = m: every null mode lies among the k kept
def test_scored_metrics_on_a_rank_deficient_channel_match_the_antenna_domain_design(
        mkr, t, lanes, exponent, past_ls, seed):
    # Hc of rank r < k, a k x r by r x m product: the range-mode product keeps the last k modes,
    # which then include k - r null ones
    m, k, r = mkr
    gen = np.random.default_rng(seed)
    hc = cn(gen, lanes, k, r) @ cn(gen, lanes, r, m)
    c, xs = cn(gen, lanes, k, t), cn(gen, lanes, m, t)
    energy = 10.0**exponent
    if past_ls:  # at rho = 1 the hard case, or a root next to the pole
        energy += max(np.linalg.norm(np.linalg.pinv(h) @ s) ** 2 for h, s in zip(hc, c))
    score = _pareto_scorer(hc, c, xs, energy)
    for rho in (0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0):
        interference, distance = score(rho)
        for i in range(lanes):
            x = solve_pareto_tradeoff(hc[i], c[i], xs[i], rho, energy)
            atol = 1e-12 * (float(_sq_sum(c[i])) + energy)
            for got, want in zip((interference[i], distance[i]), _pareto_terms(hc[i], c[i], xs[i], x)):
                assert abs(got - want) <= 1e-12 * abs(want) + atol, (rho, i, got, want)
