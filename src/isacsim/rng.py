"""Counter-based random streams for reproducible simulations.

Every stream is identified by an integer (seed, stream) pair and is generated
by a Philox counter-based bit generator, so results never depend on call
order or on how trials are scheduled across threads.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """A Philox key passed as the bit generator's seed, which Philox asks for its two 64-bit
    key words: the same state as Philox(key=key), whose constructor also draws an OS-entropy
    SeedSequence that it never uses."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream) pair; same pair, same draws, always."""
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def complex_normal(gen, shape) -> np.ndarray:
    """Draw circularly-symmetric complex Gaussian samples, unit total variance.

    Box-Muller on uniform draws (see _box_muller).  Given a sequence of generators,
    it draws `shape` from each in turn and transforms the draws in one pass, returning
    them stacked as (len(gen), *shape); the transform acts element by element, so each
    lane holds its generator's own draw.
    """
    shape = tuple(np.atleast_1d(shape).astype(int)) if not np.isscalar(shape) else (int(shape),)
    single = isinstance(gen, np.random.Generator)
    (z,) = complex_normals([gen] if single else list(gen), [shape])
    return z.reshape(shape) if single else z


def complex_normals(gens, shapes) -> list:
    """complex_normal(gens, shape) for each of `shapes` in turn, as one stack per shape.  Each
    generator draws the uniforms of all the shapes in one call: the same draws as one call per
    shape, since a generator's uniforms go on where its last call stopped."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    u = np.empty((len(gens), 2 * sum(sizes)))
    for g, lane in zip(gens, u):
        g.random(out=lane)
    stacks, start = [], 0
    for shape, n in zip(shapes, sizes):
        lanes = u[:, start:start + 2 * n].reshape(len(gens), 2, n)  # a view: the shape's uniforms, lane by lane
        stacks.append(_box_muller(lanes, np.empty((len(gens), n), dtype=complex)).reshape((len(gens), *shape)))
        start += 2 * n
    return stacks


def _box_muller(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Complex Gaussians in out (..., n) from uniforms u (..., 2, n) in [0, 1), which it overwrites.

    The first n uniforms of a lane give the radius sqrt(-log(1 - u)), the next n the angle
    2 pi u; the cosine branch feeds the real component and the sine branch the imaginary
    one, each with variance 1/2.  Every step writes into u or out, so no temporary is made.
    u may be a view whose lanes are not adjacent (complex_normals).  Signs are flipped by
    multiplying by -1, which is exact: NumPy 2.4's in-place np.negative misreads elements 64 bytes
    apart, as the radii of a one-element shape are when each generator draws four uniform pairs.
    """
    radius, angle = u[..., 0, :], u[..., 1, :]
    radius *= -1.0
    np.log1p(radius, out=radius)  # 1-u in (0,1] keeps the log finite
    radius *= -1.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    real, imag = out.real, out.imag
    np.cos(angle, out=real)
    real *= radius
    np.sin(angle, out=imag)
    imag *= radius
    return out


def complex_normal_seeded(shape, seed: int, stream: int = 0) -> np.ndarray:
    """One-shot complex Gaussian array on a fresh (seed, stream) stream."""
    return complex_normal(philox_stream(seed, stream), shape)
