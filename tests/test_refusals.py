"""Refusals and rare branches that the rest of the suite reaches only through a CLI
subprocess, or not at all: each bad input gives its own ValueError message, and each
branch its stated result.
"""

import math

import numpy as np
import pytest

from isacsim import (
    ArrayGeometry,
    BeamSchedule,
    GridPath,
    MmWaveChannelSpec,
    NoiseSpec,
    ObservationTensor,
    PathParameters,
    SuperpositionConfig,
    build_dictionary,
    compose_isac_signal,
    estimate_delay,
    estimate_paths,
    mutual_information_comm,
    optimize_beta_sinr,
    optimize_coherent_phase,
    solve_covariance_constrained,
    solve_pareto_tradeoff,
    solve_per_antenna,
    synthesize_observations,
    virtual_coefficients,
)
from isacsim.cli import ScenarioConfig

GEOM = ArrayGeometry(4)
PATH = PathParameters(1.0, 0.0, 0.0, 0.0, 0.0)
SPEC = MmWaveChannelSpec(GEOM, GEOM, [PATH], 28e9, 1e-6)
DICT = build_dictionary(GEOM, 4)
PROBES = np.ones((4, 2), dtype=complex)
OBS = ObservationTensor(np.ones((2, 2, 4)), 1e5, 1e-6, 28e9)
E1, E2, E3 = np.eye(3)
CFG = SuperpositionConfig(0.5, beta_diag=[1.0, 1.0])
HC, C, XS = np.ones((1, 2)), np.ones((1, 3)), np.ones((2, 3))

REFUSALS = {
    "no elements": (lambda: ArrayGeometry(0), "element_count must be >= 1"),
    "zero spacing": (lambda: ArrayGeometry(4, 0.0), "spacing_ratio must be > 0"),
    "negative delay": (lambda: PathParameters(1.0, -1e-12, 0.0, 0.0, 0.0), "delay must be non-negative"),
    "aoa past pi/2": (lambda: PathParameters(1.0, 0.0, 0.0, 0.0, 1.6), r"aoa_rad outside \[-pi/2, pi/2\]"),
    "aod past -pi/2": (lambda: PathParameters(1.0, 0.0, 0.0, -1.6, 0.0), r"aod_rad outside \[-pi/2, pi/2\]"),
    "zero carrier": (lambda: MmWaveChannelSpec(GEOM, GEOM, [PATH], 0.0, 1e-6), "carrier_hz must be > 0"),
    "zero symbol duration": (lambda: MmWaveChannelSpec(GEOM, GEOM, [PATH], 28e9, 0.0),
                             "symbol_duration_s must be > 0"),
    "full period at spacing 0.25": (lambda: build_dictionary(ArrayGeometry(4, 0.25), 8),
                                    "full-period grid needs spacing_ratio >= 0.5"),
    "virtual coefficients at t = 0": (lambda: virtual_coefficients(SPEC, 0, DICT, DICT),
                                      "symbol index t is 1-based"),
    "2-D observations": (lambda: ObservationTensor(np.ones((2, 4)), 1e5, 1e-6, 28e9),
                         r"observations must form a \(subcarriers, symbols, rx\) tensor"),
    "delay bin past N_sc": (lambda: synthesize_observations(DICT, DICT, [GridPath(0, 0, 0, 2, 1.0, 0.0)], PROBES,
                                                            2, 1e5, 1e-6, 28e9),
                            "delay bin outside 0..N_sc-1"),
    "one subcarrier": (lambda: estimate_delay([1.0]), "need at least two subcarriers"),
    "unknown stage order": (lambda: estimate_paths(OBS, DICT, DICT, 1, PROBES, order="bogus"),
                            "unknown stage order 'bogus'"),
    "MI shapes": (lambda: mutual_information_comm(np.ones((2, 3)), np.eye(2), NoiseSpec(1.0)),
                  "channel and covariance dimensions do not conform"),
    "superposition rho": (lambda: SuperpositionConfig(1.5), r"power split rho must lie in \[0, 1\]"),
    "no intervals": (lambda: BeamSchedule(0.1, 0, E1), "schedule needs at least one interval"),
    "compose mode": (lambda: compose_isac_signal(CFG, E1, E2, 1.0, 1.0, mode="bogus"), "unknown mode 'bogus'"),
    "shared symbol, two beams": (lambda: compose_isac_signal(CFG, np.stack([E1, E2], 1), E3, 1.0, 1.0,
                                                             mode="shared_symbol"),
                                 "shared_symbol mode uses single-beam precoders and one symbol"),
    "compose shapes": (lambda: compose_isac_signal(CFG, E1, E2, [1.0, 1.0], 1.0),
                       "precoder and symbol dimensions do not conform"),
    "communication gains": (lambda: compose_isac_signal(CFG, E1, E2, 1.0, 1.0, mode="beta_on_comm"),
                            "diagonal gain length must match the communication symbol count"),
    "coherent phase rho": (lambda: optimize_coherent_phase(np.eye(3), E1, E2, -0.5), r"rho must lie in \[0, 1\]"),
    "coherent phase zero channel": (lambda: optimize_coherent_phase(np.zeros((2, 3)), E1, E2, 0.5),
                                    "channel matrix is zero"),
    "beta mode": (lambda: optimize_beta_sinr(np.eye(3), E1, E2, 0.5, mode="bogus"), "unknown mode 'bogus'"),
    "trade-off weight": (lambda: solve_pareto_tradeoff(HC, C, XS, 1.5, 1.0), r"trade-off weight must lie in \[0, 1\]"),
    "NaN trade-off weight": (lambda: solve_pareto_tradeoff(HC, C, XS, math.nan, 1.0), "trade-off weight must lie"),
    # the instance is checked before the weight
    "trade-off shapes": (lambda: solve_pareto_tradeoff(HC, C, np.ones((3, 3)), 1.5, 1.0),
                         "channel, symbols and reference waveform dimensions do not conform"),
    "covariance-constrained shapes": (lambda: solve_covariance_constrained(HC, C, np.eye(3), 3),
                                      "channel, symbols and radar covariance dimensions do not conform"),
    "zero radar covariance": (lambda: solve_covariance_constrained(HC, C, np.zeros((2, 2)), 3),
                              "radar covariance is zero"),
    "negative path count": (lambda: ScenarioConfig("mmwave_estimation", l=-1), "path count l must be >= 0"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_full_beta_with_the_sensing_beams_in_the_channel_null_space_takes_the_first_beam():
    # Hc F_s = 0 leaves the sphere solve nothing to align, so all the gain goes on beam 0
    result = optimize_beta_sinr([[1.0, 0.0, 0.0]], E1, np.stack([E2, E3], 1), 0.5, mode="full")
    assert np.array_equal(result.beta, [np.sqrt(2.0), 0.0])
    assert result.sinr == pytest.approx(0.5, rel=1e-15) and result.converged


def test_pareto_with_a_zero_channel_at_rho_1_is_unreachable():
    # A = 0 and B = Hc^H C = 0: the design is zero, so no energy can be put on it
    with pytest.raises(ValueError, match="energy target unreachable from a zero stationary solution"):
        solve_pareto_tradeoff(np.zeros((1, 3)), np.ones((1, 2)), np.ones((3, 2)), 1.0, 4.0)


@pytest.mark.parametrize("reference", [1.0, 1j])
def test_per_antenna_start_takes_the_reference_row_where_the_pareto_row_is_zero(reference):
    # at rho = 1 the Pareto design leaves antenna 1 empty; its start is then Xs's row at the
    # per-antenna energy (not the flat row 0.5, which the phase of 1j tells apart), and no sweep
    # moves a row the channel does not see
    x = solve_per_antenna([[1.0, 0.0]], [[1.0]], [[0.0], [reference]], 1.0, 0.25)
    np.testing.assert_allclose(x, [[0.5], [0.5 * reference]], rtol=1e-15)


def test_phase_only_beta_that_runs_out_of_sweeps_reports_it():
    # a negative tol is never met, so every sweep runs and the last iterate comes back unconverged
    hc, fc, fs = np.eye(3), E1, np.stack([E2 + 1j * E3, E3], 1)
    result = optimize_beta_sinr(hc, fc, fs, 0.5, mode="phase_only", max_sweeps=3, tol=-1.0)
    assert not result.converged
    assert np.allclose(np.abs(result.beta), 1.0, rtol=1e-15, atol=0.0)
    assert result.sinr >= optimize_beta_sinr(hc, fc, fs, 0.5, mode="phase_only", max_sweeps=0, tol=-1.0).sinr
