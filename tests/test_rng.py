"""`philox_stream` hands its key to Philox through a minimal seed sequence; it must give
the generator that `Philox(key=...)` gives, state and draws alike."""

import numpy as np
import pytest

from isacsim.rng import _MASK64, philox_stream

IDS = [0, 1, 2**64 - 1, -1, 1_000_003 * 7 + 12_345]  # -1 masks to 2^64 - 1; the last as a noise stream's id


def reference(seed, stream):
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def flat_state(gen):
    state = gen.bit_generator.state
    inner = state.pop("state")
    return {**state, **{f"state.{k}": v.tolist() for k, v in inner.items()},
            "buffer": state["buffer"].tolist()}


@pytest.mark.parametrize("seed", IDS)
@pytest.mark.parametrize("stream", IDS)
def test_stream_matches_a_philox_built_from_its_key(seed, stream):
    gen, want = philox_stream(seed, stream), reference(seed, stream)
    assert flat_state(gen) == flat_state(want)
    assert np.array_equal(gen.random(1000), want.random(1000))
    assert np.array_equal(gen.integers(1 << 32, size=1000), want.integers(1 << 32, size=1000))
    assert np.array_equal(gen.integers(-(1 << 62), 1 << 62, size=1000), want.integers(-(1 << 62), 1 << 62, size=1000))
    assert flat_state(gen) == flat_state(want)
