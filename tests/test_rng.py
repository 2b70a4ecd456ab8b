import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relkin.rng import _draw_normals, _stream_states

from trial_oracle import derive_rng

# seeds beyond 2**128 span more uint32 words than SeedSequence's pool of four
seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**170))


@st.composite
def path_arrays(draw):
    depth = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=depth, max_size=depth),
                         min_size=1, max_size=4))
    return np.array(rows, dtype=np.int64).reshape(len(rows), depth)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, paths=path_arrays(),
       shape=st.sampled_from([(), (3,), (2, 5)]))
def test_equals_one_generator_per_stream(seed, paths, shape):
    got = _draw_normals(_stream_states(seed, paths), shape)
    assert got.shape == (len(paths), *shape)
    for row, path in zip(got, paths.tolist()):
        want = derive_rng(seed, *path).standard_normal(shape)
        assert np.array_equal(row, want)


# fixed seeds on each side of the pool size (four uint32 words), as ints,
# numpy ints and sequences, which the property test above rarely draws
@pytest.mark.parametrize("seed", [0, 17, np.int64(5), 2**128, 2**170, [1, 2],
                                  [2**33, 7, 9, 11, 13]],
                         ids=["0", "17", "int64-5", "2^128", "2^170", "list-2", "list-6-words"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_fixed_seeds_equal_one_generator_per_stream(seed, depth):
    paths = np.array([[0] * depth, [2**32 - 1] * depth, [3, 1, 4][:depth]], dtype=np.int64)
    states = _stream_states(seed, paths)
    got = _draw_normals(states, (2, 3))
    for s, path in enumerate(paths.tolist()):
        want_states = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
        assert np.array_equal(states[s], want_states)
        assert np.array_equal(got[s], derive_rng(seed, *path).standard_normal((2, 3)))


@pytest.mark.parametrize("seed, path", [(-1, (0, 1)), (3, (0, -2))],
                         ids=["negative-seed", "negative-path-entry"])
def test_negative_entries_raise_as_seed_sequence(seed, path):
    with pytest.raises(ValueError) as expected:
        np.random.SeedSequence(seed, spawn_key=path)
    with pytest.raises(ValueError) as got:
        _draw_normals(_stream_states(seed, np.array([path])), (2,))
    assert str(got.value) == str(expected.value)


def test_path_entries_must_fit_one_word():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _draw_normals(_stream_states(0, np.array([[2**32]])), (2,))
