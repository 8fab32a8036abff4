"""Communication mutual information, water-filling and capacity-achieving covariance."""

from dataclasses import dataclass

import numpy as np

from .channel import NoiseSpec

_RANK_RTOL = 1e-12  # eigenvalues below this fraction of the largest count as zero
_PSD_TOL = 1e-10  # require_psd's Hermitian and eigenvalue tolerance, relative to max(1, max |q_ij|)
_LN2 = np.log(2.0)


@dataclass(frozen=True)
class PowerAllocation:
    """Water-filling result: per-mode powers, the common water level and the budget.

    `levels[g]` is the power on the g-th mode of `eigenvalues`, which are stored in descending
    order; active modes share the absolute `water_level`.  A stack's allocation carries the lane
    axis first in levels, water_level and eigenvalues, with zero gains and levels past a lane's rank.
    A level is formed as water_level - floor, so the n levels sum to `budget` only to within
    (n + 2) n eps water_level (eps the float64 machine epsilon): a budget far below the lowest
    floor sigma^2/lam is spent in part, or not at all.
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
    factor: np.ndarray


def require_psd(q: np.ndarray, name: str = "matrix"):
    """Raise ValueError unless q, or every matrix of a stack q[..., :, :], is Hermitian PSD.

    Returns the checked (ascending) eigenpairs, stacked like q; each matrix is
    checked against its own largest entry.
    """
    q = np.asarray(q)
    if q.ndim < 2 or q.shape[-2] != q.shape[-1]:
        raise ValueError(f"{name} must be square")
    scale = np.maximum(1.0, np.max(np.abs(q), axis=(-2, -1), initial=0.0))
    herm = q.conj().swapaxes(-2, -1)
    if np.any(np.max(np.abs(q - herm), axis=(-2, -1), initial=0.0) > _PSD_TOL * scale):
        raise ValueError(f"{name} is not Hermitian")
    vals, vecs = np.linalg.eigh((q + herm) / 2)
    eigmin = np.min(vals, axis=-1, initial=np.inf)
    if np.any(eigmin < -_PSD_TOL * scale):
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {np.min(eigmin):.3e})")
    return vals, vecs


def _rank_cut(vals: np.ndarray, vecs: np.ndarray):
    """Descending eigenpairs cut to the nonzero ones, as many as a stack's top rank; lower ranks read 0."""
    keep = vals > vals[..., :1] * _RANK_RTOL  # a prefix; empty when the largest is <= 0
    g = int(np.max(np.sum(keep, axis=-1), initial=0))
    return np.where(keep, vals, 0.0)[..., :g], vecs[..., :g]


def _psd_eigs(q: np.ndarray, name: str):
    """_rank_cut of the descending eigenpairs of a matrix, or a stack, that require_psd accepts."""
    vals, vecs = require_psd(np.asarray(q, dtype=complex), name)
    return _rank_cut(vals[..., ::-1], vecs[..., ::-1])


def _from_eigs(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The Hermitian V diag(vals) V^H, for one matrix or a stack."""
    out = (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-2, -1)
    return (out + out.conj().swapaxes(-2, -1)) / 2


def _psd_factor(q: np.ndarray, name: str) -> np.ndarray:
    """F = V sqrt(lam) from _psd_eigs, so q = F F^H with one column per nonzero eigenvalue."""
    vals, vecs = _psd_eigs(q, name)
    return vecs * np.sqrt(vals)


def _logdet_bits(m: np.ndarray):
    """log2 det of the Hermitian part of m, or of each matrix of a stack, as NumPy values."""
    half = m / 2  # halved before the sum, which then cannot overflow; exact in the normal range
    _, logdet = np.linalg.slogdet(half + half.conj().swapaxes(-2, -1))
    return logdet / _LN2


def _bits(x: np.ndarray):
    """sum log2(1 + x) over the last axis, through log1p, so a small x keeps its relative precision."""
    return np.sum(np.log1p(x), axis=-1) / _LN2


def _mi_bits(a: np.ndarray):
    """log2 det(I + A A^H) = _bits(s^2) over A's singular values s, for one matrix or a stack, with no n x n
    matrix to lose its unit eigenvalues to rounding or to overflow (Telatar, Eur. Trans. Telecom. 1999)."""
    return _bits(np.linalg.svd(a, compute_uv=False) ** 2)


def mutual_information_comm(h: np.ndarray, q: np.ndarray, noise: NoiseSpec) -> float:
    """Per-symbol mutual information log2 det(I + H Q H^H / sigma^2) in bits: _mi_bits(H F / sigma), Q = F F^H."""
    h, q = np.asarray(h, dtype=complex), np.asarray(q, dtype=complex)
    if h.shape[1] != q.shape[0]:
        raise ValueError("channel and covariance dimensions do not conform")
    return float(_mi_bits(h @ _psd_factor(q, "transmit covariance") / np.sqrt(noise.variance)))


def _water_level(floors: np.ndarray, budget: float) -> np.ndarray:
    """Water level w with sum_g (w - floors_g)^+ = budget for each lane of a (..., n) stack of
    ascending floors, +inf padding a lane past its modes: w = (budget + sum of the k lowest floors)
    / k at the largest k for which it lies above the k-th floor (Palomar & Fonollosa, IEEE TSP 2005).
    A lane sums along the last axis alone, so it gets its 1-D level to the bit (inf if all pads)."""
    level = np.full(floors.shape[:-1], np.inf)
    todo = np.ones(level.shape, dtype=bool)
    for k in range(floors.shape[-1], 0, -1):
        w = (budget + floors[..., :k].sum(axis=-1)) / k
        np.copyto(level, w, where=todo)  # a lane found at a larger k keeps its level
        todo &= w <= floors[..., k - 1]  # w is not above the k-th floor; never above a +inf pad
        if not np.count_nonzero(todo):
            break
    return level


def _fill(lam: np.ndarray, budget: float, noise: NoiseSpec):
    """Water-fill `budget` over each lane of a (..., n) stack of descending gains lam, 0 past a lane's
    rank: beta_g = (w - sigma^2/lam_g)^+ at w = _water_level(sigma^2/lam).  Returns the
    PowerAllocation and each lane's rate _bits(lam_g beta_g / sigma^2), which may
    overflow to inf from finite levels: a caller that uses it refuses that (_require_finite_rate)."""
    if not budget > 0:  # NaN too
        raise ValueError("power budget must be > 0")
    with np.errstate(over="ignore"):  # a floor that overflows lies above every finite level: +inf, as a pad
        floors = np.divide(noise.variance, lam, out=np.full(lam.shape, np.inf), where=lam > 0)
    w = _water_level(floors, budget)
    levels = np.maximum(np.subtract(w[..., None], floors, out=np.zeros(lam.shape), where=lam > 0), 0.0)
    _require_finite_rate(levels, budget)  # an infinite level gives an infinite rate
    with np.errstate(over="ignore"):  # the callers that use the rate refuse it when infinite
        rate = _bits(lam * levels / noise.variance)
    w, rate = (w, rate) if lam.ndim > 1 else (float(w), float(rate))  # one lane's are Python floats
    return PowerAllocation(levels, w, float(budget), lam), rate


def _require_finite_rate(values, budget):
    """Refuse a water-fill whose rates, or the levels they are taken from, are not all finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"power budget {budget!r} gives an infinite water-filled rate")


def waterfill(eigenvalues, budget: float, noise: NoiseSpec) -> PowerAllocation:
    """Water-fill `budget` over modes `eigenvalues` (_fill): max sum_g log2(1 + lam_g beta_g / sigma^2)."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if lam.size == 0 or np.any(lam <= 0):
        raise ValueError("eigenvalues must be a nonempty list of strictly positive numbers")
    return _fill(lam, budget, noise)[0]


def comm_capacity(h: np.ndarray, budget: float, noise: NoiseSpec) -> CapacityResult:
    """Channel capacity in bits/symbol with the covariance that attains it, for one channel or a stack.

    Decomposes the channel by SVD, water-fills the transmit power over the nonzero eigen-modes
    of H^H H and returns Q = V diag(beta) V^H, its factor V sqrt(beta) and the allocation.
    """
    h = np.asarray(h, dtype=complex)
    if not np.all(np.any(h, axis=(-2, -1))):
        raise ValueError("channel matrix is zero")
    _, s, vh = np.linalg.svd(h, full_matrices=False)
    lam, v = _rank_cut(s**2, vh.conj().swapaxes(-2, -1))
    alloc, bits = _fill(lam, budget, noise)
    _require_finite_rate(bits, budget)
    return CapacityResult(bits, _from_eigs(v, alloc.levels), alloc, v * np.sqrt(alloc.levels)[..., None, :])
