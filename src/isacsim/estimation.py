"""Grid-based recovery of path angles, Doppler, delay and gain from OFDM probing.

Forward model (the convention every round trip in this package follows): for
subcarrier n = 0..N_sc-1, 1-based symbol t and per-symbol probing vector x_t,
a path on receive/transmit grid cells (p, q) with Doppler bin f_x, delay bin
tau_x and gain alpha = |alpha| e^{j phi} contributes

    c0 * exp(-2j pi n tau_x / N_sc) * exp(2j pi t f_x / T) * a_rx[:, p] * (a_tx[:, q]^T x_t)

to the observation cell (n, t), where c0 = |alpha| e^{-j(phi + 2 pi f_carrier tau)}
and tau = tau_x / (N_sc * subcarrier_spacing).  The c0 phase convention makes
the recovery relation phi = -arg(c_l / c_D) - 2 pi f_carrier tau an identity.

The transform directions are pinned so the stated bins land where the model
puts them: Doppler uses the forward FFT (entries carry exp(+2j pi t f_x / T)),
delay uses the inverse FFT (entries carry exp(-2j pi n tau_x / N_sc)).
"""

import math
import struct
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .channel import SteeringDictionary
from .rng import _box_muller, complex_normal_seeded, philox_stream

_MAGIC = b"ISACOBS1"
# relative widening of the beam-search pruning bound; see beam_search_angles
_PRUNE_RTOL = 1e-9


@dataclass(frozen=True)
class ObservationTensor:
    """Receive samples indexed (subcarrier, symbol, rx element) plus timing info."""

    data: np.ndarray
    subcarrier_spacing_hz: float
    symbol_duration_s: float
    carrier_hz: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 3 or min(data.shape) < 1:
            raise ValueError("observations must form a (subcarriers, symbols, rx) tensor")
        object.__setattr__(self, "data", data)

    @property
    def n_subcarriers(self) -> int:
        return self.data.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class GridPath:
    """On-grid path description used by the forward model."""

    aoa_index: int
    aod_index: int
    doppler_bin: int
    delay_bin: int
    magnitude: float
    phase: float


@dataclass(frozen=True)
class BeamDetection:
    """One greedy beam-search pick and its recovered coefficient series."""

    aod_index: int
    aoa_index: int
    series: np.ndarray  # (subcarriers, symbols) virtual coefficients


@dataclass(frozen=True)
class PathEstimate:
    aod_index: int
    aoa_index: int
    doppler_bin: int
    delay_bin: int
    gain: complex


@dataclass(frozen=True)
class EstimationReport:
    paths: tuple
    residual_energy: float
    peak_ratios: np.ndarray  # (paths, 2): Doppler stage, delay stage


def random_probes(m: int, t: int, seed: int, stream: int = 0) -> np.ndarray:
    """Per-symbol probing vectors (one column per symbol), reproducible per seed."""
    return complex_normal_seeded((m, t), seed, stream)


def synthesize_observations(
    dict_rx: SteeringDictionary,
    dict_tx: SteeringDictionary,
    paths,
    probes: np.ndarray,
    n_subcarriers: int,
    subcarrier_spacing_hz: float,
    symbol_duration_s: float,
    carrier_hz: float,
    noise_variance: float = 0.0,
    seed: int = 0,
    stream: int = 0,
) -> ObservationTensor:
    """Generate OFDM observations from on-grid paths under the module forward model; at the default
    noise_variance 0, the noiseless tensor, which a sweep over the noise alone builds once."""
    probes = np.asarray(probes, dtype=complex)
    t = probes.shape[1]
    n_rx = dict_rx.geometry.element_count
    n = int(n_subcarriers)
    data = np.zeros((n, t, n_rx), dtype=complex)
    sub_idx = np.arange(n)
    sym_idx = np.arange(1, t + 1)  # symbol index is 1-based
    for path in paths:
        if not (0 <= path.aoa_index < dict_rx.size and 0 <= path.aod_index < dict_tx.size):
            raise ValueError("aoa/aod index outside 0..D-1 of its dictionary")
        if not 0 <= path.doppler_bin < t:
            raise ValueError("doppler bin outside 0..T-1")
        if not 0 <= path.delay_bin < n:
            raise ValueError("delay bin outside 0..N_sc-1")
        tau = path.delay_bin / (n * subcarrier_spacing_hz)
        c0 = path.magnitude * np.exp(-1j * (path.phase + 2 * np.pi * carrier_hz * tau))
        ramp_n = np.exp(-2j * np.pi * sub_idx * path.delay_bin / n)
        ramp_t = np.exp(2j * np.pi * sym_idx * path.doppler_bin / t)
        gains = dict_tx.matrix[:, path.aod_index] @ probes
        data += c0 * np.einsum("n,t,r->ntr", ramp_n, ramp_t * gains, dict_rx.matrix[:, path.aoa_index])
    return _add_noise(ObservationTensor(data, subcarrier_spacing_hz, symbol_duration_s, carrier_hz),
                      noise_variance, seed, stream)


# Buffers an estimation reuses: the noise draw's uniforms (2, N T n_rx) and the noisy
# observation (N, T, n_rx) for _add_noise, the beam search's residual (N, T, n_rx) and its
# projection y @ A_rx* (N, T, D_rx).  Every field is written before it is read.
_Scratch = namedtuple("_Scratch", "uniforms noisy residual projection")


def _scratch(shape, d_rx: int) -> _Scratch:
    """Scratch for (N, T, n_rx) observations and D_rx receive atoms, as views of one array: a
    block of trials holds one, so it makes one large allocation where each point made several
    (which the allocator could hand back to the system and fault back in at the next point)."""
    n, t, n_rx = shape
    cells = math.prod(shape)
    flat = np.empty(3 * cells + n * t * d_rx, dtype=complex)
    return _Scratch(flat[:cells].view(float).reshape(2, cells), flat[cells:2 * cells].reshape(shape),
                    flat[2 * cells:3 * cells].reshape(shape), flat[3 * cells:].reshape(n, t, d_rx))


def _add_noise(clean: ObservationTensor, noise_variance: float, seed: int, stream: int,
               scratch=None) -> ObservationTensor:
    """clean plus noise of the given variance, as a tensor over scratch.noisy (a new array
    when scratch is None); clean itself without noise.  The (seed, stream) stream fills the
    uniforms as complex_normal_seeded would, and rng's Box-Muller writes the noise in place."""
    if not noise_variance > 0:
        return clean
    uniforms, noisy = scratch[:2] if scratch else (np.empty((2, clean.data.size)), np.empty_like(clean.data))
    philox_stream(seed, stream).random(out=uniforms)
    _box_muller(uniforms, noisy.reshape(-1))
    noisy *= np.sqrt(noise_variance)
    noisy += clean.data
    return replace(clean, data=noisy)


def _pair_scores(z: np.ndarray, gains: np.ndarray, gain_energy: np.ndarray, p, q) -> np.ndarray:
    """Scores of the pairs (p[i], q[i]), the same to the bit whatever pairs share the block."""
    spectra = z.transpose(2, 0, 1)[p]  # (B, N, T)
    spectra *= gains[q].conj()[:, None, :]
    power = np.abs(np.fft.fft(spectra, out=spectra))  # in place: fewer large temporaries
    power *= power
    peaks = np.max(power, axis=2)  # (B, N)
    sums = np.cumsum(peaks, axis=1)[:, -1] if z.shape[2] > 1 else np.sum(peaks, axis=1)
    return sums / gain_energy[q]


def beam_search_angles(
    obs: ObservationTensor,
    dict_tx: SteeringDictionary,
    dict_rx: SteeringDictionary,
    num_paths: int,
    probes: np.ndarray,
) -> list:
    """Greedy matched search for (AoD, AoA) grid pairs with residual deflation.

    Each hypothesis (p, q) is scored by the energy its best single-tone fit
    explains: the receive side is collapsed onto atom p, demodulated by the
    known probe gain of atom q and swept through the Doppler bins, which keeps
    the score exact for on-grid data and bounded under noise.  One pair is
    extracted per round and its reconstruction removed before the next.

    A round scores only the pairs that can still win.  With z the receive
    projection and g_q the probe gains, every Doppler bin satisfies
    |sum_t z[n,t,p] conj(g_q[t]) e^{-2j pi f t / T}| <= sum_t |z[n,t,p]| |g_q[t]|,
    so bound[p, q] = sum_n (sum_t |z[n,t,p]| |g_q[t]|)^2 / ||g_q||^2 >= score[p, q].
    Pairs are visited in descending order of bound[p, q], widened by the
    relative margin _PRUNE_RTOL, in blocks of 1, 2, 4, ... up to D_rx pairs
    (one transmit atom's column, so a low-SNR round that scores nearly every
    pair handles no larger arrays than a per-atom search).  The round stops at
    the first pair whose widened bound is below the best score so far; every
    later pair's is no larger.  Rounding moves the score and the bound by a
    few (T + N_sc) eps relative, below the margin while T + N_sc stays under
    about 10^6, so a skipped pair is strictly below the best one and could
    neither win nor tie.  Skipped pairs stay -inf.  A scored pair's score is
    the exhaustive search's to the bit, whatever block it falls in: the FFT
    and the max act lane by lane, and the subcarrier sum runs in sequence, as
    NumPy sums an (N, D_rx) array down its columns (np.sum over a one-column
    block would sum pairwise, and so does NumPy when D_rx = 1).  So the
    argmax, its lowest-flat-index tie-break and the picks are unchanged.
    """
    return _beam_search(obs, dict_rx, num_paths, *_probe_gains(dict_tx, probes, obs.n_symbols))


def _probe_gains(dict_tx: SteeringDictionary, probes: np.ndarray, t: int) -> tuple:
    """Check T probes against dict_tx; their gains g = A_tx^T X (D_tx, T), |g| and ||g_q||^2."""
    probes = np.asarray(probes, dtype=complex)
    if probes.shape != (dict_tx.geometry.element_count, t):
        raise ValueError("probes must supply one transmit vector per symbol")
    gains = dict_tx.matrix.T @ probes
    abs_gains = np.abs(gains)
    if np.any(np.min(abs_gains, axis=1) <= 0):
        raise ValueError("probing leaves some transmit atoms unobserved at some symbol")
    return gains, abs_gains, np.sum(abs_gains ** 2, axis=1)


def _beam_search(obs, dict_rx, num_paths: int, gains, abs_gains, gain_energy, scratch=None) -> list:
    """The search on prepared probe gains, in scratch's residual and projection (new arrays
    when scratch is None)."""
    if num_paths == 0:
        return []
    if not np.any(obs.data):
        raise ValueError("observations are all zero")
    n, t, n_rx = obs.data.shape
    y, z = scratch[2:] if scratch else (np.empty_like(obs.data), np.empty((n, t, dict_rx.size), dtype=complex))
    np.copyto(y, obs.data)
    # y is the residual, deflated in place.  A round's projection y @ A_rx* is one GEMM over
    # the (N T, n_rx) rows, the same to the bit as a product per subcarrier, except at T = 1,
    # where NumPy takes each subcarrier's product as a matrix-vector one
    rows, projected = (y.reshape(n * t, n_rx), z.reshape(n * t, dict_rx.size)) if t > 1 else (y, z)
    conj = dict_rx.matrix.conj()
    detections = []
    chosen = set()
    for _ in range(num_paths):
        np.matmul(rows, conj, out=projected)
        bound = np.sum((np.abs(z).transpose(0, 2, 1) @ abs_gains.T) ** 2, axis=0) / gain_energy
        reach = bound.ravel() * (1.0 + _PRUNE_RTOL)
        order = np.argsort(-reach, kind="stable")
        scores = np.full(reach.size, -np.inf)
        best, start, width = -np.inf, 0, 1
        while start < order.size and reach[order[start]] >= best:
            pairs = order[start:start + width]
            scores[pairs] = _pair_scores(z, gains, gain_energy, *np.divmod(pairs, len(gains)))
            best = max(best, scores[pairs].max())
            start, width = start + width, min(2 * width, dict_rx.size)
        p, q = divmod(int(np.argmax(scores)), len(gains))
        if (p, q) in chosen:
            raise ValueError("greedy rounds revisit the same grid cell; paths collide or exceed resolution")
        chosen.add((p, q))
        detections.append(BeamDetection(aod_index=q, aoa_index=p, series=z[:, :, p] / gains[q][None, :]))
        if len(detections) < num_paths:  # the last round's deflation would go unused
            y -= z[:, :, p][:, :, None] * dict_rx.matrix[:, p][None, None, :]
    return detections


def _peak(spectrum: np.ndarray, divisor: int):
    """Bin of the largest magnitude (the lowest wins ties) and its value over divisor."""
    bin_ = int(np.argmax(np.abs(spectrum)))
    return bin_, complex(spectrum[bin_] / divisor)


def estimate_doppler(h: np.ndarray):
    """Doppler bin and series constant from one coefficient time series.

    The bin is the argmax of the forward transform magnitude (lowest bin wins
    ties); the constant is the peak value divided by the series length.
    """
    h = np.asarray(h, dtype=complex).reshape(-1)
    if h.size < 2:
        raise ValueError("need at least two symbols")
    if not np.any(h):
        raise ValueError("series is all zero")
    return _peak(np.fft.fft(h), h.size)


def estimate_delay(c: np.ndarray):
    """Delay bin and amplitude from one per-subcarrier constant vector."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.size < 2:
        raise ValueError("need at least two subcarriers")
    if not np.any(c):
        raise ValueError("vector is all zero")
    return _peak(np.fft.ifft(c), 1)


def estimate_gain_phase(c_l: complex, doppler_correction: complex, tau_s: float, carrier_hz: float) -> complex:
    """Complex path gain from the recovered constant after Doppler removal.

    Magnitude is |c_l| / |c_D|; the phase follows the recovery relation
    phi = -arg(c_l / c_D) - 2 pi f tau.
    """
    if doppler_correction == 0:
        raise ValueError("Doppler correction constant is zero")
    ratio = c_l / doppler_correction
    magnitude = abs(ratio)
    phase = -np.angle(ratio) - 2 * np.pi * carrier_hz * tau_s
    return complex(magnitude * np.exp(1j * phase))


def _ratio(mags: np.ndarray) -> float:
    top = np.sort(mags)[::-1]
    if top.size < 2 or top[1] == 0:
        return np.inf
    return float(top[0] / top[1])


# a stage of estimate_paths: the axis of the (paths, N, T) series stack it transforms, its
# transform and the divisor of what it yields (the first stage's picked vectors, the second's peaks)
_Stage = namedtuple("_Stage", "axis transform divisor")


def estimate_paths(
    obs: ObservationTensor,
    dict_tx: SteeringDictionary,
    dict_rx: SteeringDictionary,
    num_paths: int,
    probes: np.ndarray,
    order: str = "doppler_first",
) -> EstimationReport:
    """Full pipeline: beam search, then per-path Doppler/delay/gain recovery.

    `doppler_first` transforms each subcarrier's time series, picks the common
    Doppler bin from the summed spectra, and estimates the delay from the
    per-subcarrier peak values; `delay_first` swaps the two stages.  On-grid
    noiseless inputs give identical results either way.
    """
    if order not in ("doppler_first", "delay_first"):
        raise ValueError(f"unknown stage order {order!r}")
    prepared = _probe_gains(dict_tx, probes, obs.n_symbols)
    detections, estimates, ratios = _estimate_paths(obs, dict_rx, num_paths, prepared, order)
    return EstimationReport(tuple(estimates), _residual_energy(obs, dict_rx, prepared[0], detections), ratios)


def _estimate_paths(obs, dict_rx, num_paths: int, prepared, order: str = "doppler_first",
                    scratch=None) -> tuple:
    """The stages alone: the beam-search detections (searched in scratch), their PathEstimates
    and peak ratios.

    Each stage transforms the (paths, N, T) stack of detection series once; the first aggregates and
    picks lane by lane, the second takes each path's _peak, so every pick is the one-path pipeline's.
    """
    t = obs.n_symbols
    detections = _beam_search(obs, dict_rx, num_paths, *prepared, scratch)
    if not detections:
        return detections, [], np.zeros((0, 2))
    # the second stage transforms the picked vectors along their last axis
    delay, doppler = _Stage(1, np.fft.ifft, 1), _Stage(2, np.fft.fft, t)
    first, second = (doppler, delay) if order == "doppler_first" else (delay, doppler)
    spectra = first.transform(np.stack([det.series for det in detections]), axis=first.axis)
    agg = np.sqrt(np.sum(np.abs(spectra) ** 2, axis=second.axis))  # (paths, bins of the first stage)
    picked = np.argmax(agg, axis=1)
    lanes = np.arange(len(detections))
    spectrum = second.transform(spectra.swapaxes(1, first.axis)[lanes, picked] / first.divisor)
    estimates = []
    ratios = np.zeros((len(detections), 2))
    for i, det in enumerate(detections):
        peak, amplitude = _peak(spectrum[i], second.divisor)
        picks = ((int(picked[i]), _ratio(agg[i])), (peak, _ratio(np.abs(spectrum[i]))))
        (f_x, doppler_ratio), (tau_x, delay_ratio) = picks if first is doppler else picks[::-1]
        ratios[i] = (doppler_ratio, delay_ratio)
        doppler_correction = np.exp(2j * np.pi * f_x / t)
        tau_s = tau_x / (obs.n_subcarriers * obs.subcarrier_spacing_hz)
        gain = estimate_gain_phase(amplitude, doppler_correction, tau_s, obs.carrier_hz)
        estimates.append(
            PathEstimate(aod_index=det.aod_index, aoa_index=det.aoa_index,
                         doppler_bin=f_x, delay_bin=tau_x, gain=gain)
        )
    return detections, estimates, ratios


def _residual_energy(obs, dict_rx, gains, detections) -> float:
    """Energy left in obs once every detection's reconstruction is removed."""
    residual = obs.data.copy()
    for det in detections:
        recon = det.series[:, :, None] * gains[det.aod_index][None, :, None]
        residual = residual - recon * dict_rx.matrix[:, det.aoa_index][None, None, :]
    return float(np.sum(np.abs(residual) ** 2))


# ---------------------------------------------------------------------------
# Binary observation file: magic, uint32 dims (subcarriers, symbols, rx),
# float64 (subcarrier spacing, symbol duration, carrier), then the samples as
# interleaved float64 real/imag pairs in C order.  All fields little-endian.

def write_observations(obs: ObservationTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", *obs.data.shape))
        fh.write(struct.pack("<ddd", obs.subcarrier_spacing_hz, obs.symbol_duration_s, obs.carrier_hz))
        fh.write(obs.data.astype("<c16", copy=False).tobytes())  # interleaved little-endian (re, im) pairs


def read_observations(path) -> ObservationTensor:
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not an observation tensor file")
        header = fh.read(36)
        if len(header) != 36:
            raise ValueError(f"truncated observation file: header has {len(header)} of 36 bytes")
        shape = struct.unpack("<III", header[:12])
        spacing, duration, carrier = struct.unpack("<ddd", header[12:])
        raw = np.frombuffer(fh.read(), dtype="<f8")
    expected = math.prod(shape) * 2  # Python ints: a header of large dims must not wrap
    if raw.size != expected:
        raise ValueError(f"truncated observation file: expected {expected} scalars, found {raw.size}")
    data = raw.view("<c16").astype(complex).reshape(shape)  # keeps signed zeros and infinities
    return ObservationTensor(data, spacing, duration, carrier)
