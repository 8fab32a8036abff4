"""`philox_stream` hands its key to Philox through a minimal seed sequence; it must give
the generator that `Philox(key=...)` gives, state and draws alike.  `complex_normals` draws
each generator's uniforms for several shapes in one call; it must give the stacks that one
`complex_normals` call per shape gives, to the bit, and leave each generator where they do."""

import numpy as np
import pytest

from isacsim.rng import _MASK64, complex_normals, philox_stream

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


# lanes of one-uniform pairs 16 N bytes apart, N uniform pairs per lane: 64 bytes at N = 4 (the second list)
@pytest.mark.parametrize("shapes", [[(4, 16), (4, 32), (16, 16)], [(1, 1), (1, 2), (1, 1)], [(1, 1), (1,), (3, 2, 2)],
                                    [(2, 3)], [(0, 2), (2, 2)]])
@pytest.mark.parametrize("lanes", [1, 3, 40])
def test_one_call_per_generator_gives_each_shape_its_own_draw(shapes, lanes):
    one, each = ([philox_stream(7, lane) for lane in range(lanes)] for _ in range(2))
    stacks = complex_normals(one, shapes)
    for shape, stack in zip(shapes, stacks):
        (alone,) = complex_normals(each, [shape])
        assert stack.shape == alone.shape == (lanes, *shape) and stack.tobytes() == alone.tobytes()
    assert [g.random() for g in one] == [g.random() for g in each]
