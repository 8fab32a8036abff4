"""Geometric mmWave channel model for uniform linear arrays.

Provides steering vectors, multipath channel synthesis, steering dictionaries
on a uniform normalized-angle grid, sparse virtual-coefficient matrices and
seeded random test channels.  Angles are radians internally; the JSON config
format stores them in degrees.
"""

import json
from dataclasses import dataclass

import numpy as np

from .rng import complex_normal_seeded

_HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing as a fraction of wavelength."""

    element_count: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        if self.element_count < 1:
            raise ValueError("element_count must be >= 1")
        if self.spacing_ratio <= 0:
            raise ValueError("spacing_ratio must be > 0")


@dataclass(frozen=True)
class PathParameters:
    """One propagation path: complex gain, delay, Doppler shift and its two angles."""

    gain: complex
    delay_s: float
    doppler_hz: float
    aod_rad: float
    aoa_rad: float

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError("delay must be non-negative")
        for name in ("aod_rad", "aoa_rad"):
            if abs(getattr(self, name)) > _HALF_PI + 1e-12:
                raise ValueError(f"{name} outside [-pi/2, pi/2]")


@dataclass(frozen=True)
class MmWaveChannelSpec:
    """Multipath channel description: arrays, path list, carrier and symbol timing."""

    tx_geometry: ArrayGeometry
    rx_geometry: ArrayGeometry
    paths: tuple
    carrier_hz: float
    symbol_duration_s: float

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if len(self.paths) < 1:
            raise ValueError("at least one path is required")
        if self.carrier_hz <= 0:
            raise ValueError("carrier_hz must be > 0")
        if self.symbol_duration_s <= 0:
            raise ValueError("symbol_duration_s must be > 0")


@dataclass(frozen=True)
class NoiseSpec:
    """Complex noise with total variance sigma^2 (sigma^2/2 per real dimension)."""

    variance: float

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError("noise variance must be finite and > 0")


@dataclass(frozen=True)
class SteeringDictionary:
    """Steering-vector dictionary on a grid that is uniform in normalized angle.

    `grid_normalized` holds the normalized angles (spacing_ratio * sin(theta)),
    `grid_angles` the physical angles in radians, and `matrix` the unit-norm
    steering columns, one per grid point.
    """

    geometry: ArrayGeometry
    grid_normalized: np.ndarray
    grid_angles: np.ndarray
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class VirtualCoefficients:
    """Sparse virtual representation of one channel snapshot.

    `matrix[p, q]` is the summed coefficient of paths arriving on receive grid
    index p and departing on transmit grid index q.  `snap_distances[l]` holds
    each path's (rx, tx) snap distance in normalized angle; zero means the path
    was exactly on both grids.
    """

    matrix: np.ndarray
    aoa_indices: np.ndarray
    aod_indices: np.ndarray
    snap_distances: np.ndarray


def steering_vector_normalized(element_count: int, normalized_angle: float) -> np.ndarray:
    """Array response [exp(-2j*pi*n*theta_n)]/sqrt(N) for a normalized angle, or one column per angle of a 1-D grid."""
    n = np.arange(element_count)
    if np.ndim(normalized_angle):
        n = n[:, None]
    return np.exp(-2j * np.pi * n * normalized_angle) / np.sqrt(element_count)


def steering_vector(geom: ArrayGeometry, angle_rad: float) -> np.ndarray:
    """Unit-norm array response of the ULA toward a physical angle in radians."""
    if abs(angle_rad) > _HALF_PI + 1e-12:
        raise ValueError("angle outside [-pi/2, pi/2]")
    return steering_vector_normalized(geom.element_count, geom.spacing_ratio * np.sin(angle_rad))


def path_coefficient(path: PathParameters, t: int, carrier_hz: float, symbol_duration_s: float) -> complex:
    """Complex amplitude of one path at (1-based) symbol index t."""
    return (
        path.gain
        * np.exp(-2j * np.pi * carrier_hz * path.delay_s)
        * np.exp(2j * np.pi * t * path.doppler_hz * symbol_duration_s)
    )


def synthesize_channel(spec: MmWaveChannelSpec, t: int) -> np.ndarray:
    """Sum-of-outer-products channel matrix at symbol index t (t = 1, 2, ...)."""
    if t < 1:
        raise ValueError("symbol index t is 1-based")
    n_rx = spec.rx_geometry.element_count
    n_tx = spec.tx_geometry.element_count
    h = np.zeros((n_rx, n_tx), dtype=complex)
    for path in spec.paths:
        coeff = path_coefficient(path, t, spec.carrier_hz, spec.symbol_duration_s)
        a_rx = steering_vector(spec.rx_geometry, path.aoa_rad)
        a_tx = steering_vector(spec.tx_geometry, path.aod_rad)
        h += coeff * np.outer(a_rx, a_tx)
    return h


def build_dictionary(geom: ArrayGeometry, grid_size: int) -> SteeringDictionary:
    """Steering dictionary whose grid is uniform in normalized angle.

    The grid spans one full period of the array response, step 1/grid_size,
    which makes the square-grid dictionary a unitary DFT-type matrix.  The
    physical angles are recovered through arcsin, so the full-period grid is
    only representable for spacing_ratio >= 0.5.
    """
    d = int(grid_size)
    if d < geom.element_count:
        raise ValueError("grid_size must be >= element_count")
    normalized = (np.arange(d) - d // 2) / d
    if np.max(np.abs(normalized)) > geom.spacing_ratio + 1e-15:
        raise ValueError("full-period grid needs spacing_ratio >= 0.5 to map back to physical angles")
    angles = np.arcsin(np.clip(normalized / geom.spacing_ratio, -1.0, 1.0))
    return SteeringDictionary(geom, normalized, angles, steering_vector_normalized(geom.element_count, normalized))


def _snap_index(dictionary: SteeringDictionary, angle_rad: float):
    target = dictionary.geometry.spacing_ratio * np.sin(angle_rad)
    idx = int(np.argmin(np.abs(dictionary.grid_normalized - target)))
    return idx, abs(dictionary.grid_normalized[idx] - target)


def virtual_coefficients(
    spec: MmWaveChannelSpec,
    t: int,
    dict_rx: SteeringDictionary,
    dict_tx: SteeringDictionary,
) -> VirtualCoefficients:
    """Virtual-domain coefficient matrix of the channel at symbol index t.

    Each path contributes its complex amplitude at the (rx, tx) grid cell
    nearest to its angles; for on-grid paths the product
    dict_rx.matrix @ coeffs @ dict_tx.matrix.T reconstructs the channel.
    """
    if t < 1:
        raise ValueError("symbol index t is 1-based")
    coeffs = np.zeros((dict_rx.size, dict_tx.size), dtype=complex)
    aoa_idx = np.zeros(len(spec.paths), dtype=int)
    aod_idx = np.zeros(len(spec.paths), dtype=int)
    snaps = np.zeros((len(spec.paths), 2))
    for l, path in enumerate(spec.paths):
        p, snap_rx = _snap_index(dict_rx, path.aoa_rad)
        q, snap_tx = _snap_index(dict_tx, path.aod_rad)
        coeffs[p, q] += path_coefficient(path, t, spec.carrier_hz, spec.symbol_duration_s)
        aoa_idx[l], aod_idx[l] = p, q
        snaps[l] = (snap_rx, snap_tx)
    return VirtualCoefficients(coeffs, aoa_idx, aod_idx, snaps)


def random_channel(rows: int, cols: int, seed: int) -> np.ndarray:
    """IID unit-variance complex Gaussian channel matrix, reproducible per seed."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    return complex_normal_seeded((rows, cols), seed)


# ---------------------------------------------------------------------------
# Config file format: JSON mirroring MmWaveChannelSpec, angles in degrees.

def channel_spec_to_dict(spec: MmWaveChannelSpec) -> dict:
    return {
        "tx": {"element_count": spec.tx_geometry.element_count,
               "spacing_ratio": spec.tx_geometry.spacing_ratio},
        "rx": {"element_count": spec.rx_geometry.element_count,
               "spacing_ratio": spec.rx_geometry.spacing_ratio},
        "carrier_hz": spec.carrier_hz,
        "symbol_duration_s": spec.symbol_duration_s,
        "paths": [
            {
                "gain_real": float(np.real(p.gain)),
                "gain_imag": float(np.imag(p.gain)),
                "delay_s": p.delay_s,
                "doppler_hz": p.doppler_hz,
                "aod_deg": float(np.degrees(p.aod_rad)),
                "aoa_deg": float(np.degrees(p.aoa_rad)),
            }
            for p in spec.paths
        ],
    }


def channel_spec_from_dict(data: dict) -> MmWaveChannelSpec:
    paths = tuple(
        PathParameters(
            gain=complex(p["gain_real"], p["gain_imag"]),
            delay_s=p["delay_s"],
            doppler_hz=p["doppler_hz"],
            aod_rad=float(np.radians(p["aod_deg"])),
            aoa_rad=float(np.radians(p["aoa_deg"])),
        )
        for p in data["paths"]
    )
    return MmWaveChannelSpec(
        tx_geometry=ArrayGeometry(**data["tx"]),
        rx_geometry=ArrayGeometry(**data["rx"]),
        paths=paths,
        carrier_hz=data["carrier_hz"],
        symbol_duration_s=data["symbol_duration_s"],
    )


def save_channel_spec(spec: MmWaveChannelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_channel_spec(path) -> MmWaveChannelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_spec_from_dict(json.load(fh))
