"""Deterministic derivation of independent random streams from one master seed.

The stream addressed by an integer path (a, b, ...) under a master seed is
``np.random.default_rng(SeedSequence(seed, spawn_key=(a, b, ...)))``, so
distinct paths yield independent streams and a stream's draws depend on its
address alone, not on which other streams were drawn, in what order or in
what batches.  :func:`_stream_states` mixes the path words of all streams
into the seed's entropy pool in one batched pass; numpy supplies that pool.
:func:`_draw_normals` then seeds each stream's PCG64 straight from the
resulting words, bit-identically to that stream's SeedSequence, through an
ISeedSequence subclass built on the first draw (see :func:`_words_class`).
"""

import functools

import numpy as np


# numpy's SeedSequence hash constants (pool of four uint32 words)
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(x) -> list[int]:
    """The uint32 words SeedSequence reads from an int (little-endian) or a sequence of ints."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK32]
        while x > _MASK32:
            x >>= 32
            words.append(x & _MASK32)
        return words
    return [w for v in x for w in _words(v)]


def _mix(x, y):
    """SeedSequence's mix of two uint32 words, elementwise over uint32 arrays."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _stream_states(seed, paths) -> np.ndarray:
    """(S, 4) uint64 PCG64 seed words of the streams (seed, *paths[s]).

    The words (a, b, c, d) are what ``SeedSequence(seed, spawn_key=paths[s])
    .generate_state(4, np.uint64)`` returns; :func:`_draw_normals` turns them
    into PCG64 states.  `paths` is an (S, D) array of integers in [0, 2**32).
    numpy hashes the seed into SeedSequence's entropy pool once, and the path
    words are mixed in as uint32 column operations over all S streams.

    Raises:
        ValueError: for a negative seed or path entry (as SeedSequence does),
            or a path entry of 2**32 or more.
        TypeError: for a seed SeedSequence rejects or non-integer paths.
    """
    paths = np.asarray(paths)
    if paths.ndim != 2:
        raise ValueError(f"paths must be an (S, D) array, got shape {paths.shape}")
    if paths.size and paths.dtype.kind not in "iu":
        raise TypeError(f"paths must hold integers, got {paths.dtype}")
    if paths.size and paths.min() < 0:
        raise ValueError("expected non-negative integer")
    if paths.size and paths.max() > _MASK32:
        raise ValueError("path entries must be below 2**32")
    n_streams = paths.shape[0]

    # SeedSequence(seed, spawn_key=path) hashes the seed's words, zero-padded
    # to the pool size, followed by the path words.  The pool of
    # SeedSequence(seed) is the state just before the first path word, and the
    # hash constant has stepped once per hashmix: one per pool word, one per
    # cross-mix and one per pool word for each seed word beyond the pool.
    seed_seq = np.random.SeedSequence(seed)
    n_hashed = _POOL * _POOL + _POOL * max(0, len(_words(seed_seq.entropy)) - _POOL)
    hash_const = _INIT_A * pow(_MULT_A, n_hashed, 1 << 32) & _MASK32

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    pool = [np.full(n_streams, w, np.uint32) for w in seed_seq.pool.tolist()]
    for column in paths.T.astype(np.uint32):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(column))

    # generate_state(4, uint64): eight hashed uint32 words read as four
    # little-endian uint64 words
    hash_const = _INIT_B
    state_words = np.empty((n_streams, 2 * _POOL), np.uint32)
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state_words[:, k] = value ^ (value >> 16)
    return state_words.astype("<u4").view("<u8")


@functools.cache
def _words_class() -> type:
    """The ISeedSequence subclass handing PCG64 a stream's fixed (4,) uint64 seed words.

    It is built on the first draw rather than at import, because subclassing
    ISeedSequence loads numpy.random, which ``import relkin`` leaves
    unloaded.  PCG64 takes any ISeedSequence instance as its seed sequence,
    so a real subclass, unlike a class registered with the ABC, leaves
    numpy's ISeedSequence as it is; and ``Generator(PCG64(words))`` skips the
    type dispatch of ``default_rng``.  The draws are the same bits either way.
    """

    class _Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words


def _draw_normals(states: np.ndarray, shape) -> np.ndarray:
    """(S, *shape) standard normals, row s drawn from the stream of seed words states[s].

    For the states of ``_stream_states(seed, paths)``, row s is bit-identical
    to the ``standard_normal(shape)`` draw of stream (seed, *paths[s]): numpy's
    PCG64 reads states[s] as the words that stream's SeedSequence would
    generate, so each row costs one PCG64 and one Generator, and no hashing.
    Both are built directly, not through ``default_rng`` (see
    :func:`_words_class`).
    """
    words, pcg64, generator = _words_class(), np.random.PCG64, np.random.Generator
    # PCG64 reads each row's memory directly, so rows must be native uint64
    states = np.ascontiguousarray(states, np.uint64)
    n_streams = len(states)
    out = np.empty((n_streams, *shape))
    for row, state in zip(out.reshape(n_streams, int(np.prod(shape))), states):
        generator(pcg64(words(state))).standard_normal(out=row)
    return out
