"""Estimation rate and optimal probing waveforms for channel sensing.

The channel is known only through the covariance Q_h of its columns; the
probing block X (T transmissions by M antennas) is designed so that its
columns projected on the covariance eigenvectors are orthogonal, with powers
water-filled over the eigen-directions under the block energy budget T*P_t.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import PowerAllocation, _logdet_bits, _psd_eigs, _psd_factor, waterfill
from .channel import NoiseSpec


@dataclass(frozen=True)
class SensingWaveform:
    """Probing block X = U_x diag(sqrt(beta)) V_h^H plus its factors (stacked, with a
    list of allocations, for a stack of covariances)."""

    block: np.ndarray
    orthobasis: np.ndarray
    eigvecs: np.ndarray
    allocation: PowerAllocation


@dataclass(frozen=True)
class EstimationRateResult:
    bits_per_transmission: float
    allocation: Optional[PowerAllocation]


def _sensing_mi_bits(f: np.ndarray, gram: np.ndarray, noise: NoiseSpec, rx_count: int, t: int) -> float:
    """Unchecked (N/T) log2 det(I + F^H G F / sigma^2) for Q_h = F F^H and G = X^H X."""
    return rx_count / t * _logdet_bits(np.eye(f.shape[1]) + f.conj().T @ gram @ f / noise.variance)


def estimation_rate(x: np.ndarray, qh: np.ndarray, noise: NoiseSpec, rx_count: int, t: int) -> float:
    """Sensing mutual information (N/T) log2 det(I + Q_h X^H X / sigma^2), bits/transmission."""
    x, qh = np.asarray(x, dtype=complex), np.asarray(qh, dtype=complex)
    if x.ndim != 2 or x.shape[0] != t:
        raise ValueError("waveform must be T x M")
    if x.shape[1] != qh.shape[0]:
        raise ValueError("waveform and covariance dimensions do not conform")
    return _sensing_mi_bits(_psd_factor(qh, "channel covariance"), x.conj().T @ x, noise, rx_count, t)


def _probing_allocation(qh: np.ndarray, t: int, power_per_transmission: float, noise: NoiseSpec):
    """Q_h's nonzero eigenvectors (_psd_eigs) and T*P_t water-filled over them: a list with
    one allocation per matrix of an M x M Q_h or an L x M x M stack, None for a zero one."""
    vals, vecs = _psd_eigs(qh, "channel covariance")
    if t < vals.shape[-1]:
        raise ValueError(f"block length T={t} cannot fit {vals.shape[-1]} orthogonal probing columns")
    return vecs, [waterfill(lane[lane > 0], t * power_per_transmission, noise) if lane.any() else None
                  for lane in np.atleast_2d(vals)]


def optimal_sensing_waveform(qh: np.ndarray, t: int, power_per_transmission: float, noise: NoiseSpec) -> SensingWaveform:
    """Rate-maximizing probing block under trace energy budget T*P_t.

    Eigendecomposes Q_h, water-fills T*P_t over the nonzero eigenvalues and
    places the powered eigen-directions on G orthonormal columns drawn from
    the T-point unitary DFT basis, making the output deterministic.  An L x M x M
    stack of Q_h takes one stacked eigh and gives the L blocks (L x T x M) and the
    list of their allocations, over G columns for the stack's highest rank G.
    """
    vecs, allocs = _probing_allocation(qh, t, power_per_transmission, noise)
    if None in allocs:
        raise ValueError("channel covariance is zero; nothing to probe")
    levels = np.zeros((len(allocs), vecs.shape[-1]))  # zero past a lower-rank matrix's own modes
    for row, alloc in zip(levels, allocs):
        row[:alloc.levels.size] = alloc.levels
    # first G columns of the unitary T-point DFT matrix
    grid = np.arange(t)
    u_x = np.exp(-2j * np.pi * np.outer(grid, grid[:vecs.shape[-1]]) / t) / np.sqrt(t)
    levels = levels.reshape(vecs.shape[:-2] + (-1,))
    block = (u_x * np.sqrt(levels)[..., None, :]) @ vecs.conj().swapaxes(-2, -1)
    return SensingWaveform(block=block, orthobasis=u_x, eigvecs=vecs,
                           allocation=allocs if vecs.ndim > 2 else allocs[0])


def sensing_capacity(qh: np.ndarray, rx_count: int, t: int, power_per_transmission: float, noise: NoiseSpec) -> EstimationRateResult:
    """Maximum estimation rate (N/T) sum log2(1 + lam_g beta_g / sigma^2)."""
    _, (alloc,) = _probing_allocation(qh, t, power_per_transmission, noise)
    if alloc is None:
        return EstimationRateResult(bits_per_transmission=0.0, allocation=None)
    bits = float(rx_count / t * np.sum(np.log2(1.0 + alloc.eigenvalues * alloc.levels / noise.variance)))
    return EstimationRateResult(bits_per_transmission=bits, allocation=alloc)
