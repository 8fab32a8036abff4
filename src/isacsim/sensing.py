"""Estimation rate and optimal probing waveforms for channel sensing.

The channel is known only through the covariance Q_h of its columns; the
probing block X (T transmissions by M antennas) is designed so that its
columns projected on the covariance eigenvectors are orthogonal, with powers
water-filled over the eigen-directions under the block energy budget T*P_t.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import PowerAllocation, _fill, _mi_bits, _psd_eigs, _psd_factor, _require_finite_rate
from .channel import NoiseSpec


@dataclass(frozen=True)
class SensingWaveform:
    """Probing block X = U_x diag(sqrt(beta)) V_h^H plus its factors; for a stack of covariances,
    block, eigvecs and the allocation's fields carry the lane axis first."""

    block: np.ndarray
    orthobasis: np.ndarray
    eigvecs: np.ndarray
    allocation: PowerAllocation


@dataclass(frozen=True)
class EstimationRateResult:
    bits_per_transmission: float
    allocation: Optional[PowerAllocation]


def estimation_rate(x: np.ndarray, qh: np.ndarray, noise: NoiseSpec, rx_count: int, t: int) -> float:
    """Sensing MI (N/T) log2 det(I + Q_h X^H X / sigma^2) in bits/transmission: (N/T) _mi_bits(X F / sigma)."""
    x, qh = np.asarray(x, dtype=complex), np.asarray(qh, dtype=complex)
    if x.ndim != 2 or x.shape[0] != t:
        raise ValueError("waveform must be T x M")
    if x.shape[1] != qh.shape[0]:
        raise ValueError("waveform and covariance dimensions do not conform")
    return rx_count / t * float(_mi_bits(x @ _psd_factor(qh, "channel covariance") / np.sqrt(noise.variance)))


def _probing_modes(qh: np.ndarray, t: int):
    """Q_h's nonzero eigenpairs (_psd_eigs), for an M x M Q_h or an L x M x M stack, checked to fit T."""
    vals, vecs = _psd_eigs(qh, "channel covariance")
    if t < vals.shape[-1]:
        raise ValueError(f"block length T={t} cannot fit {vals.shape[-1]} orthogonal probing columns")
    return vals, vecs


def optimal_sensing_waveform(qh: np.ndarray, t: int, power_per_transmission: float, noise: NoiseSpec) -> SensingWaveform:
    """Rate-maximizing probing block under trace energy budget T*P_t.

    Eigendecomposes Q_h, water-fills T*P_t over the nonzero eigenvalues and
    places the powered eigen-directions on G orthonormal columns drawn from
    the T-point unitary DFT basis, making the output deterministic.  An L x M x M
    stack of Q_h takes one stacked eigh and gives the L blocks (L x T x M) and their
    stacked allocation, over G columns for the stack's highest rank G.
    """
    vals, vecs = _probing_modes(qh, t)
    del qh  # read only through its modes: a caller's temporary goes before the block's arrays are made
    if not np.all(np.any(vals, axis=-1)):
        raise ValueError("channel covariance is zero; nothing to probe")
    alloc, _ = _fill(vals, t * power_per_transmission, noise)
    # first G columns of the unitary T-point DFT matrix
    grid = np.arange(t)
    u_x = np.exp(-2j * np.pi * np.outer(grid, grid[:vecs.shape[-1]]) / t) / np.sqrt(t)
    block = (u_x * np.sqrt(alloc.levels)[..., None, :]) @ vecs.conj().swapaxes(-2, -1)
    return SensingWaveform(block=block, orthobasis=u_x, eigvecs=vecs, allocation=alloc)


def sensing_capacity(qh: np.ndarray, rx_count: int, t: int, power_per_transmission: float, noise: NoiseSpec) -> EstimationRateResult:
    """Maximum estimation rate (N/T) sum log2(1 + lam_g beta_g / sigma^2), for one Q_h or each
    of an L x M x M stack: 0 for a zero Q_h, which alone has no allocation."""
    return _modes_capacity(_probing_modes(qh, t)[0], rx_count, t, power_per_transmission, noise)


def _modes_capacity(vals, rx_count, t, power_per_transmission, noise) -> EstimationRateResult:
    """sensing_capacity from the nonzero eigenvalues `vals` that _probing_modes gives for Q_h."""
    if vals.shape == (0,):
        return EstimationRateResult(bits_per_transmission=0.0, allocation=None)
    budget = t * power_per_transmission
    alloc, rate = _fill(vals, budget, noise)
    _require_finite_rate(rate, budget)
    return EstimationRateResult(bits_per_transmission=rx_count / t * rate, allocation=alloc)
