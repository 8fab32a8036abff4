"""Scanning-beam precoders and superposition precoding for joint transmission.

The optimizers in this module act on the shared-symbol link model: a single
data stream rides both the communication beam and the (phase/gain adjusted)
sensing beams, so the receiver sees the combined effective channel
g(beta) = Hc (sqrt(rho) f_c + sqrt(1-rho) F_s beta) and its matched-filter
SINR is ||g(beta)||^2 / sigma^2.  That is the quantity optimize_beta_sinr
maximizes, subject to sum_i |beta_ii|^2 equal to the number of sensing beams
(or unit-modulus entries in phase-only mode).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import ArrayGeometry, NoiseSpec, SteeringDictionary, steering_vector
from .waveform import _min_on_sphere

_MODES = ("plain", "beta_on_sensing", "beta_on_comm", "shared_symbol")


@dataclass(frozen=True)
class SuperpositionConfig:
    """Power split, optional diagonal gains and common phase for superposition."""

    rho: float
    beta_diag: Optional[np.ndarray] = None
    phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("power split rho must lie in [0, 1]")
        if self.beta_diag is not None:
            beta = np.asarray(self.beta_diag, dtype=complex)
            object.__setattr__(self, "beta_diag", beta)
            total = float(np.sum(np.abs(beta) ** 2))
            if abs(total - beta.size) > 1e-6 * max(1, beta.size):
                raise ValueError("diagonal gains must satisfy sum |beta_ii|^2 = len(beta)")


@dataclass(frozen=True)
class BeamSchedule:
    """Scanning plan: base precoder shifted by `shift_step` for each interval."""

    shift_step: float
    intervals: int
    base: np.ndarray

    def __post_init__(self):
        if self.intervals < 1:
            raise ValueError("schedule needs at least one interval")
        if abs(self.shift_step * (self.intervals - 1)) > 1.0 + 1e-12:
            raise ValueError("schedule sweeps beyond one normalized-angle period")


@dataclass(frozen=True)
class BetaResult:
    beta: np.ndarray
    sinr: float
    converged: bool


def normalize_columns(precoder: np.ndarray) -> np.ndarray:
    """Scale every beam (column) to unit power; zero columns are left alone."""
    precoder = np.asarray(precoder, dtype=complex)
    norms = np.linalg.norm(precoder, axis=0, keepdims=True)
    return precoder / np.where(norms > 0, norms, 1.0)


def zf_scanning_precoder(dictionary: SteeringDictionary, desired: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder solving dict.T @ F = desired in the least-squares sense.

    For a square unitary dictionary the fit is exact; for a taller grid the
    normal-equations formula below returns the least-squares optimum.
    """
    a = dictionary.matrix
    desired = np.asarray(desired, dtype=complex)
    if desired.shape[0] != dictionary.size:
        raise ValueError("desired response must have one row per dictionary atom")
    gram = a.conj() @ a.T
    if np.linalg.cond(gram) > 1e12:
        raise ValueError("dictionary Gram matrix is near-singular; regularize the grid")
    return np.linalg.solve(gram, a.conj() @ desired)


def shift_schedule(base: np.ndarray, geom: ArrayGeometry, delta: float, j: int) -> np.ndarray:
    """Precoder for scan interval j: diagonal steering map of the base precoder.

    The diagonal is the scaled array response at arcsin(j*delta/spacing_ratio);
    every entry has unit modulus, so column norms are preserved exactly.
    """
    arg = j * delta / geom.spacing_ratio
    if abs(arg) > 1.0:
        raise ValueError("accumulated shift leaves the visible-angle region")
    mapping = np.sqrt(geom.element_count) * steering_vector(geom, float(np.arcsin(arg)))
    return mapping[:, None] * np.asarray(base, dtype=complex)


def expand_schedule(schedule: BeamSchedule, geom: ArrayGeometry) -> list:
    return [shift_schedule(schedule.base, geom, schedule.shift_step, j) for j in range(schedule.intervals)]


def compose_isac_signal(
    cfg: SuperpositionConfig,
    fc: np.ndarray,
    fs: np.ndarray,
    sc: np.ndarray,
    ss: np.ndarray,
    mode: str = "plain",
) -> np.ndarray:
    """Superimpose communication and sensing beams into one transmit vector."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    fc = np.atleast_2d(np.asarray(fc, dtype=complex).T).T  # columns are beams
    fs = np.atleast_2d(np.asarray(fs, dtype=complex).T).T
    sc = np.atleast_1d(np.asarray(sc, dtype=complex))
    ss = np.atleast_1d(np.asarray(ss, dtype=complex))
    wc, ws = np.sqrt(cfg.rho), np.sqrt(1.0 - cfg.rho)
    if mode == "shared_symbol":
        if fc.shape[1] != 1 or fs.shape[1] != 1 or sc.size != 1:
            raise ValueError("shared_symbol mode uses single-beam precoders and one symbol")
        return (wc * fc[:, 0] + ws * np.exp(1j * cfg.phase) * fs[:, 0]) * sc[0]
    if fc.shape[1] != sc.size or fs.shape[1] != ss.size:
        raise ValueError("precoder and symbol dimensions do not conform")
    if mode == "plain":
        return wc * (fc @ sc) + ws * (fs @ ss)
    beta = cfg.beta_diag
    if beta is None:
        raise ValueError(f"mode {mode!r} needs diagonal gains in the config")
    if mode == "beta_on_sensing":
        if beta.size != ss.size:
            raise ValueError("diagonal gain length must match the sensing symbol count")
        return wc * (fc @ sc) + ws * (fs @ (beta * ss))
    if beta.size != sc.size:
        raise ValueError("diagonal gain length must match the communication symbol count")
    return wc * (fc @ (beta * sc)) + ws * (fs @ ss)


def optimize_coherent_phase(hc: np.ndarray, fc: np.ndarray, fs: np.ndarray, rho: float):
    """Common phase maximizing ||Hc (sqrt(rho) fc + sqrt(1-rho) e^{j phi} fs)||^2.

    The objective is A + B cos(phi + psi), so the optimum is the negated phase
    of the cross term.  Returns (phi, degenerate); degenerate is True when the
    cross term vanishes (endpoint rho, or orthogonal/zero effective beams) and
    phi = 0 is returned because every phase is equally good.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    hc = np.asarray(hc, dtype=complex)
    if not np.any(hc):
        raise ValueError("channel matrix is zero")
    u = hc @ np.asarray(fc, dtype=complex).reshape(-1)
    v = hc @ np.asarray(fs, dtype=complex).reshape(-1)
    cross = np.sqrt(rho * (1.0 - rho)) * np.vdot(u, v)
    if abs(cross) == 0.0:
        return 0.0, True
    return float(-np.angle(cross)), False


def optimize_beta_sinr(
    hc: np.ndarray,
    fc: np.ndarray,
    fs: np.ndarray,
    rho: float,
    mode: str = "full",
    noise: NoiseSpec = NoiseSpec(1.0),
    max_sweeps: int = 1000,
    tol: float = 1e-12,
) -> BetaResult:
    """Diagonal sensing-beam gains maximizing the combined-channel SINR.

    `full` mode solves the norm-constrained quadratic globally with the
    sphere-constrained solve waveform._min_on_sphere; `phase_only` restricts
    the gains to unit phasors and runs cyclic coordinate ascent with the
    per-entry closed-form phase, so the SINR never decreases across
    iterations.  Either way the result is at least as good as the identity
    gains.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1)")
    if mode not in ("full", "phase_only"):
        raise ValueError(f"unknown mode {mode!r}")
    hc = np.asarray(hc, dtype=complex)
    fc = np.asarray(fc, dtype=complex)
    fs = np.atleast_2d(np.asarray(fs, dtype=complex).T).T
    fc_col = fc[:, 0] if fc.ndim == 2 else fc.reshape(-1)
    u = np.sqrt(rho) * (hc @ fc_col)
    v = np.sqrt(1.0 - rho) * (hc @ fs)
    n_beams = fs.shape[1]

    def sinr_of(beta):
        return float(np.linalg.norm(u + v @ beta) ** 2 / noise.variance)

    if mode == "full":
        # maximizing ||u + V b||^2 minimizes b^H (-V^H V) b - 2 Re b^H V^H u
        beta = _min_on_sphere(-(v.conj().T @ v), v.conj().T @ u, float(n_beams))
        if beta is None:
            beta = np.zeros(n_beams, dtype=complex)
            beta[0] = np.sqrt(n_beams)
        return BetaResult(beta=beta, sinr=sinr_of(beta), converged=True)

    beta = np.ones(n_beams, dtype=complex)
    current = sinr_of(beta)
    combined = u + v @ beta
    for _ in range(max_sweeps):
        previous = current
        for i in range(n_beams):
            rest = combined - v[:, i] * beta[i]
            inner = np.vdot(v[:, i], rest)
            if abs(inner) > 0:
                new = np.exp(1j * np.angle(inner))
                combined = rest + v[:, i] * new
                beta[i] = new
        current = sinr_of(beta)
        if current - previous < tol * max(1.0, previous):
            return BetaResult(beta=beta, sinr=current, converged=True)
    return BetaResult(beta=beta, sinr=current, converged=False)


def cancel_known_symbols(y: np.ndarray, known: np.ndarray, channel_times_precoder: np.ndarray) -> np.ndarray:
    """Subtract the known-symbol component from the observations."""
    y = np.asarray(y, dtype=complex)
    known = np.asarray(known, dtype=complex)
    cp = np.asarray(channel_times_precoder, dtype=complex)
    if cp.shape[0] != y.shape[0] or cp.shape[1] != known.shape[0] or known.shape[1] != y.shape[1]:
        raise ValueError("observation, symbol and effective-channel dimensions do not conform")
    return y - cp @ known
