"""Metric oracles: what each scenario's numbers mean, checked on the configs the CLI runs.

`isac_tradeoff` weighs interference against distance to the sensing waveform by rho, so
along a lane's rho grid its interference cannot rise and its distance cannot fall.  The
rho = 1 endpoint is not yet the limit of the front: its hard case fills the energy deficit
along whichever null eigenvector LAPACK returns first.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacsim.cli import ScenarioConfig, run_scenario

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
