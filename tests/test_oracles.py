"""Metric oracles: what each scenario's numbers mean, checked on the configs the CLI runs.

`isac_tradeoff` weighs interference against distance to the sensing waveform by rho, so
along a lane's rho grid its interference cannot rise and its distance cannot fall.  The
rho = 1 endpoint is not yet the limit of the front: its hard case fills the energy deficit
along whichever null eigenvector LAPACK returns first.

`capacity_sweep`'s `comm_bits` is the water-filled capacity, so it is at least the rate of
equal power P/m on every antenna (Telatar, Eur. Trans. Telecom. 1999).  Once water-filling
opens all r = min(m, n_c) modes of H^H H, the gap has a closed form in the modes' gains, which
tends to 0 as the power grows when n_c >= m and to r log2(m / r) when m > n_c.  Not yet at the
extremes: a budget below half an ulp of the lowest floor sigma^2 / lam is lost to the water
level, and at a subnormal power and noise variance `comm_bits` underflows to 0.

`sensing_sweep`'s `sensing_bits` is the largest estimation rate at its block energy, so it is
at least the rate of an equal-power orthogonal probe with that energy; at a low SNR its water
level keeps only about eps / SNR of the power's relative precision, and the rate inherits
that.  `beam_scan` steers the broadside beam by each interval's shift, so with d >= m the
response peaks on the shifted cell at every interval; one antenna's response is flat, so
`beam_scan` refuses m = 1.

`estimate_paths` recovers two noiseless unit paths, cells and bins, when their AoA cells are
five apart on a d = 2 n_s grid or adjacent on a square grid, but not yet when they are
adjacent on the d = 2 n_s grid of the `estimation_large` config, where the receive atoms overlap.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim import (
    ArrayGeometry, GridPath, build_dictionary, cli, estimate_paths, random_probes, synthesize_observations,
)
from isacsim.capacity import mutual_information_comm, waterfill
from isacsim.channel import NoiseSpec
from isacsim.cli import ScenarioConfig, run_scenario
from isacsim.rng import philox_stream
from isacsim.sensing import estimation_rate

EPS = np.finfo(float).eps

RHOS = (0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-6, 1.0 - 1e-9, 1.0)


def tradeoff_metrics(cfg):
    """(points, trials) arrays of interference and distance from a run's trial rows."""
    rows = [row.metrics for row in run_scenario(cfg) if row.trial.isdigit()]
    shape = (len(cfg.rho_list), cfg.trials)
    return (np.array([r["interference_power"] for r in rows]).reshape(shape),
            np.array([r["waveform_distance"] for r in rows]).reshape(shape))


@settings(max_examples=45, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))), st.integers(0, 4),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example((6, 1), 0, 1e3, 5, 11)  # rank-one Hc past its least-squares energy: the hard case at rho = 1
@example((6, 6), 2, 1e-3, 3, 4)  # no null space
def test_tradeoff_interference_falls_and_distance_rises_in_rho(mk, extra_t, p_t, trials, seed):
    m, k = mk
    cfg = ScenarioConfig("isac_tradeoff", m=m, k=k, t=m + extra_t, p_t=p_t, rho_list=RHOS, trials=trials, seed=seed)
    interference, distance = tradeoff_metrics(cfg)
    # to within 1e-12 of the lane's largest metric
    assert np.all(np.diff(interference, axis=0) <= 1e-12 * interference.max(axis=0))
    assert np.all(np.diff(distance, axis=0) >= -1e-12 * distance.max(axis=0))


@pytest.mark.xfail(strict=True, reason="the rho = 1 fill lies along the first null eigenvector, not along "
                                       "the null-space part of Xs")
def test_tradeoff_distance_is_continuous_at_rho_1():
    # trial 0 reads 18.740240 at 1 - 1e-9 and 64.312057 at 1
    cfg = ScenarioConfig("isac_tradeoff", m=16, k=4, t=32, rho_list=(1.0 - 1e-9, 1.0), trials=1, seed=7)
    _, distance = tradeoff_metrics(cfg)
    np.testing.assert_allclose(distance[1], distance[0], rtol=1e-6)


def capacity_rows(cfg):
    """(H stack, trial rows) of a one-block capacity sweep, H as the block drew it."""
    drawn, capacity = [], cli.comm_capacity
    with mock.patch.object(cli, "comm_capacity", lambda h, *args: drawn.append(h) or capacity(h, *args)):
        rows = [row for row in run_scenario(cfg) if row.trial.isdigit()]
    return drawn[0], rows


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
@example(2, 2, 1.0, 3)  # gaps 0.13, 5.5e-5 and 5.7e-9 bits in trial 0 at P = 1, 1e2 and 1e4
@example(4, 2, 1.0, 3)  # m > n_c: the gap nears 2 bits
def test_comm_bits_are_at_least_the_equal_power_rate_and_exceed_it_by_the_closed_form_gap(m, n_c, noise_var, seed):
    # with all r modes open at level w = P / r + sigma^2 mean(1 / lam), the water-filled and
    # equal-power rates differ by r log2(m / r) + r log2(1 + sigma^2 r mean(1 / lam) / P)
    # - sum_i log2(1 + sigma^2 m / (lam_i P)), over the r nonzero eigenvalues lam_i of H^H H
    powers = (1e-3, 1.0, 1e2, 1e4, 1e8, 1e12)
    cfg = ScenarioConfig("capacity_sweep", m=m, n_c=n_c, noise_var=noise_var, power_list=powers, trials=3,
                         seed=seed)
    h, rows = capacity_rows(cfg)
    for row in rows:
        hi, power, bits = h[int(row.trial)], row.param_value, row.metrics["comm_bits"]
        equal = mutual_information_comm(hi, power / m * np.eye(m), NoiseSpec(noise_var))
        assert bits >= equal - 1e-12 * equal - 4 * EPS * m, (row, equal)
        lam = np.linalg.svd(hi, compute_uv=False) ** 2
        r = len(lam)
        if power / r > 2.0 * noise_var * (1.0 / lam.min() - np.mean(1.0 / lam)):  # every mode open, with margin
            gap = (r * np.log2(m / r) + (r * np.log1p(noise_var * r * np.mean(1.0 / lam) / power)
                                         - np.sum(np.log1p(noise_var * m / (lam * power)))) / np.log(2.0))
            assert abs(bits - equal - gap) <= 1e-12 * (1.0 + bits), (row, equal, gap)
            if n_c >= m and power == powers[-1]:
                assert bits - equal <= 1e-9, (row, equal)


def sensing_rows(cfg):
    """(Q_h stack, trial rows) of a one-block sensing sweep, Q_h as the block drew it."""
    drawn, capacity = [], cli.sensing_capacity
    with mock.patch.object(cli, "sensing_capacity", lambda qh, *args: drawn.append(qh) or capacity(qh, *args)):
        rows = [row for row in run_scenario(cfg) if row.trial.isdigit()]
    return drawn[0], rows


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, m + 4))), st.integers(1, 5),
       st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
@example((1, 4), 5, 1e3, 0)  # one antenna at an SNR near 1e-6, where the two rates agree to rounding alone
def test_sensing_bits_are_at_least_the_equal_power_probe_rate(mt, n_s, noise_var, seed):
    # the probe: m orthonormal DFT columns at energy t P / m each, so X^H X = (t P / m) I
    m, t = mt
    powers = (1e-3, 1.0, 1e3, 1e6)
    cfg = ScenarioConfig("sensing_sweep", m=m, n_s=n_s, t=t, noise_var=noise_var, power_list=powers, trials=3,
                         seed=seed)
    qh, rows = sensing_rows(cfg)
    grid = np.arange(t)
    probe = np.exp(-2j * np.pi * np.outer(grid, grid[:m]) / t) / np.sqrt(t)
    for row in rows:
        x = np.sqrt(t * row.param_value / m) * probe
        equal = estimation_rate(x, qh[int(row.trial)], NoiseSpec(noise_var), n_s, t)
        # each of the m log2 terms is good to an ulp of log2(1 + x), not of x
        assert row.metrics["sensing_bits"] >= equal - 1e-12 * equal - 4 * EPS * m * n_s / t, (row, equal)


@pytest.mark.xfail(strict=True, reason="the water-filled level is formed as w - sigma^2 / lam, so a budget far "
                                       "below the floor keeps about eps w / budget of its relative precision: "
                                       "at lam = 0.73, sigma^2 = 1e3 a budget of 1e-3 reads 0.0009999999999763531")
def test_sensing_bits_keep_their_relative_precision_at_a_low_snr():
    # one antenna takes the whole energy: sensing_bits is (n_s / t) log2(1 + lam t P / sigma^2), taken
    # through log1p, yet it reads 2.4e-11 off relative at an SNR near 1e-6, the error of its level
    cfg = ScenarioConfig("sensing_sweep", m=1, n_s=5, t=1, noise_var=1e3, power_list=(1e-3,), trials=3, seed=12)
    qh, rows = sensing_rows(cfg)
    want = [5 * np.log1p(qh[i, 0, 0].real * 1e-3 / 1e3) / np.log(2.0) for i in range(3)]
    np.testing.assert_allclose([row.metrics["sensing_bits"] for row in rows], want, rtol=1e-12)


@pytest.mark.xfail(strict=True, reason="the levels are formed as w - sigma^2 / lam, so a budget below half an ulp of "
                                       "the lowest floor is lost: [1e-20] at a budget of 1e-10 reads levels [0.] at "
                                       "w = 1e20, and [1e-20, 1.0] reads levels summing to 1.0000000827e-10")
def test_waterfill_spends_a_budget_far_below_the_lowest_floor():
    # the whole budget goes to the strongest mode
    for lam in ([1e-20], [1e-20, 1.0]):
        levels = waterfill(lam, 1e-10, NoiseSpec(1.0)).levels
        np.testing.assert_allclose(levels, [1e-10] + [0.0] * (len(lam) - 1), rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, reason="each rate's x is formed as lam * levels / sigma^2, and lam * levels underflows "
                                       "before the division: at beta = sigma^2 = 5e-324 comm_bits reads 0.0 beside "
                                       "mi_bits 0.016658816407260753")
def test_comm_bits_keep_their_value_at_a_subnormal_power_and_noise():
    # one mode takes the whole power, so comm_bits is log2(1 + |h|^2 P / sigma^2) with P / sigma^2 = 1
    cfg = ScenarioConfig("capacity_sweep", m=1, n_c=1, noise_var=5e-324, power_list=(5e-324,), trials=1)
    h, rows = capacity_rows(cfg)
    want = np.log1p(abs(h[0, 0, 0]) ** 2) / np.log(2.0)
    np.testing.assert_allclose([row.metrics["mi_bits"] for row in rows], [want], rtol=1e-12)
    np.testing.assert_allclose([row.metrics["comm_bits"] for row in rows], [want], rtol=1e-12)


def beam_scan_matches(m, d):
    return [row.metrics["peak_match"] for row in run_scenario(ScenarioConfig("beam_scan", m=m, d=d, trials=1))
            if row.trial.isdigit()]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 4 * m))))
@example((2, 2))
@example((12, 48))
def test_beam_scan_peak_matches_at_every_interval(md):
    m, d = md
    assert beam_scan_matches(m, d) == [1.0] * d


def test_beam_scan_refuses_one_antenna(capsys):
    # one antenna's response is flat, so its argmax would take cell 0 whatever the shift
    assert cli.main(["beam_scan", "--m", "1", "--d", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: one antenna (m = 1) has a flat beam response with no peak\n"


def estimation_round_trips(d, aoa_gap, draws=40, seed=3):
    """How many of `draws` noiseless two-path instances estimate_paths recovers, cells and bins:
    m = n_s = 8 over a d-cell grid, T = 32, N_sc = 64, two unit paths aoa_gap AoA cells apart
    with distinct AoD cells."""
    atoms = build_dictionary(ArrayGeometry(8), d)  # both sides: m = n_s
    probes = random_probes(8, 32, seed)
    gen = philox_stream(seed)
    recovered = 0
    for _ in range(draws):
        p = int(gen.integers(d - aoa_gap))
        paths = [GridPath(aoa, int(aod), int(gen.integers(32)), int(gen.integers(64)), 1.0,
                          float(gen.uniform(-np.pi, np.pi)))
                 for aoa, aod in zip((p, p + aoa_gap), gen.choice(d, size=2, replace=False))]
        obs = synthesize_observations(atoms, atoms, paths, probes, 64, 15e3, 1e-4, 28e9)
        report = estimate_paths(obs, atoms, atoms, 2, probes)
        cells = {(e.aoa_index, e.aod_index, e.doppler_bin, e.delay_bin) for e in report.paths}
        recovered += cells == {(q.aoa_index, q.aod_index, q.doppler_bin, q.delay_bin) for q in paths}
    return recovered


@pytest.mark.xfail(strict=True, reason="at d = 2 n_s adjacent receive atoms overlap, and deflating by the "
                                       "first path's atom removes most of its neighbour")
def test_noiseless_estimation_recovers_paths_in_adjacent_aoa_cells():
    assert estimation_round_trips(16, 1) == 40  # 0 of 40 today


def test_noiseless_estimation_recovers_paths_five_aoa_cells_apart():
    assert estimation_round_trips(16, 5) == 40


def test_noiseless_estimation_recovers_adjacent_aoa_cells_on_a_square_grid():
    assert estimation_round_trips(8, 1) == 40  # d = n_s: the receive atoms are orthogonal
