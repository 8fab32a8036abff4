"""Communication mutual information, water-filling and capacity-achieving covariance."""

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSpec

_RANK_RTOL = 1e-12  # eigenvalues below this fraction of the largest count as zero


@dataclass(frozen=True)
class PowerAllocation:
    """Water-filling result: per-mode powers, the common water level and the budget.

    `levels[g]` is the power on the g-th mode of `eigenvalues`, which are
    stored sorted in descending order; active modes share the absolute water
    level `water_level`.  A level is formed as water_level - floor, so the n
    levels sum to `budget` only to within (n + 2) n eps water_level (eps the
    float64 machine epsilon): a budget far below the lowest floor sigma^2/lam
    is spent in part, or not at all.
    """

    levels: np.ndarray
    water_level: float
    budget: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class CapacityResult:
    bits_per_symbol: float
    covariance: np.ndarray
    allocation: PowerAllocation


def require_psd(q: np.ndarray, name: str = "matrix", tol: float = 1e-10):
    """Raise ValueError unless q, or every matrix of a stack q[..., :, :], is Hermitian PSD.

    Returns the checked (ascending) eigenpairs, stacked like q; each matrix is
    checked against its own largest entry.
    """
    q = np.asarray(q)
    if q.ndim < 2 or q.shape[-2] != q.shape[-1]:
        raise ValueError(f"{name} must be square")
    scale = np.maximum(1.0, np.max(np.abs(q), axis=(-2, -1), initial=0.0))
    herm = q.conj().swapaxes(-2, -1)
    if np.any(np.max(np.abs(q - herm), axis=(-2, -1), initial=0.0) > tol * scale):
        raise ValueError(f"{name} is not Hermitian")
    vals, vecs = np.linalg.eigh((q + herm) / 2)
    eigmin = np.min(vals, axis=-1, initial=np.inf)
    if np.any(eigmin < -tol * scale):
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {np.min(eigmin):.3e})")
    return vals, vecs


def _psd_eigs(q: np.ndarray, name: str):
    """Descending nonzero eigenpairs of a matrix, or of each matrix of a stack, that require_psd accepts.

    A stack keeps as many pairs as its highest-rank matrix has nonzero eigenvalues;
    a lower-rank matrix's extra eigenvalues read 0.
    """
    vals, vecs = require_psd(np.asarray(q, dtype=complex), name)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    keep = vals > vals[..., :1] * _RANK_RTOL  # a prefix; empty when the largest is <= 0
    g = int(np.max(np.sum(keep, axis=-1), initial=0))
    return np.where(keep, vals, 0.0)[..., :g], vecs[..., :g]


def _psd_factor(q: np.ndarray, name: str) -> np.ndarray:
    """F = V sqrt(lam) from _psd_eigs, so q = F F^H with one column per nonzero eigenvalue."""
    vals, vecs = _psd_eigs(q, name)
    return vecs * np.sqrt(vals)


def _logdet_bits(m: np.ndarray) -> float:
    """log2 det of the Hermitian part of m."""
    _, logdet = np.linalg.slogdet((m + m.conj().T) / 2)
    return float(logdet / np.log(2.0))


def _comm_mi_bits(h: np.ndarray, q: np.ndarray, noise: NoiseSpec) -> float:
    """Unchecked log2 det(I + H Q H^H / sigma^2)."""
    return _logdet_bits(np.eye(h.shape[0]) + (h @ q @ h.conj().T) / noise.variance)


def mutual_information_comm(h: np.ndarray, q: np.ndarray, noise: NoiseSpec) -> float:
    """Per-symbol mutual information log2 det(I + H Q H^H / sigma^2) in bits."""
    h = np.asarray(h, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if h.shape[1] != q.shape[0]:
        raise ValueError("channel and covariance dimensions do not conform")
    require_psd(q, "transmit covariance")
    return _comm_mi_bits(h, q, noise)


def _water_level(floors: np.ndarray, budget: float):
    """Water level w with sum_g (w - floors_g)^+ = budget, for nonempty ascending floors.

    w = (budget + sum of the k lowest floors) / k at the largest k for which it lies
    above the k-th floor (Palomar & Fonollosa, IEEE TSP 2005); those k modes are active.
    """
    for k in range(floors.size, 0, -1):
        w = (budget + floors[:k].sum()) / k
        if w - floors[k - 1] > 0:
            break
    return w


def waterfill(eigenvalues, budget: float, noise: NoiseSpec) -> PowerAllocation:
    """Allocate `budget` over channel modes by water-filling.

    Solves max sum log2(1 + lam_g beta_g / sigma^2) subject to sum beta_g = budget,
    beta_g >= 0: beta_g = (w - sigma^2/lam_g)^+ at the water level _water_level(sigma^2/lam).
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if lam.size == 0:
        raise ValueError("eigenvalue list is empty")
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be strictly positive")
    if budget <= 0:
        raise ValueError("power budget must be > 0")
    floor = noise.variance / lam  # ascending since lam is descending
    w = _water_level(floor, budget)
    levels = np.maximum(w - floor, 0.0)
    return PowerAllocation(levels=levels, water_level=float(w), budget=float(budget), eigenvalues=lam)


def comm_capacity(h: np.ndarray, budget: float, noise: NoiseSpec) -> CapacityResult:
    """Channel capacity in bits/symbol with the covariance that attains it.

    Decomposes the channel by SVD, water-fills the transmit power over the
    nonzero eigen-modes of H^H H and returns Q = V diag(beta) V^H together
    with the allocation.
    """
    h = np.asarray(h, dtype=complex)
    if not np.any(h):
        raise ValueError("channel matrix is zero")
    _, s, vh = np.linalg.svd(h, full_matrices=False)
    lam = s**2
    keep = lam > lam[0] * _RANK_RTOL
    lam = lam[keep]
    v = vh.conj().T[:, keep]
    alloc = waterfill(lam, budget, noise)
    cov = (v * alloc.levels) @ v.conj().T
    cov = (cov + cov.conj().T) / 2
    bits = float(np.sum(np.log2(1.0 + lam * alloc.levels / noise.variance)))
    return CapacityResult(bits_per_symbol=bits, covariance=cov, allocation=alloc)
