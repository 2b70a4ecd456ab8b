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
