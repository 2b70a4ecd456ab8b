"""Two-way-ranging timestamp exchanges between pairs of mobile nodes.

Each node pair exchanges K messages inside a common interval.  Per message
one node transmits and the other receives; both record a local time marker
and the signed direction flag (+1 when the lower-indexed node transmits).
The signed marker difference recovers the propagation delay regardless of
direction, which is what the ranging estimator consumes.  Simulated
exchanges are one-way at the speed of light; a recorded set may carry
either flag.  An exchange set holds one network; batching trials of it is
the Monte Carlo engine's.

Timing noise is injected on the recorded markers themselves (one i.i.d.
Gaussian draw per marker per message), so the measured delay of a pair
carries the sum of both endpoint variances.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .exceptions import ConfigError, InputError
from .kinematics import (
    RangeDerivatives,
    TrajectorySet,
    _is_int,
    _pair_kinematics,
    canonical_pairs,
    pair_count,
    pair_index,
    pair_position,
    taylor_range,
)
from .rng import _draw_normals, _stream_states

__all__ = [
    "SPEED_OF_LIGHT",
    "ExchangeConfig",
    "NoiseModel",
    "TimestampExchangeSet",
    "generate_timestamps",
    "simulate_exchanges",
    "effective_noise_covariance",
]

SPEED_OF_LIGHT = 3e8  # m/s, the propagation speed of simulated exchanges

_CSV_COLUMNS = ("i", "j", "k", "E", "T_tx", "T_rx")


def _is_finite(x) -> bool:
    """A finite real number other than a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool) \
        and math.isfinite(x)


@dataclass
class ExchangeConfig:
    """Message schedule for every node pair.

    Simulated exchanges are one-way at the speed of light: the lower-indexed
    node of each pair transmits every message (flag e = +1).  A recorded
    exchange file may carry -1 flags; :class:`TimestampExchangeSet` reads them.

    Attributes:
        K: messages per pair.
        interval: (t_start, t_end) seconds; transmit markers are linearly
            spaced over it and shared by all pairs.
        delay_model: "exact" evaluates the true distance at the marker
            instant; "taylor" evaluates the cubic Taylor polynomial of the
            range (see :func:`taylor_range`) instead, so a fit of L >= 4
            coefficients recovers its delays exactly.

    Raises:
        ConfigError: unless K is an integer >= 1 whose float64 marker grid
            numpy can size, the interval two finite, increasing numbers, and
            the delay model known.
    """

    K: int
    interval: tuple[float, float] = (-3.0, 3.0)
    delay_model: str = "exact"

    def __post_init__(self):
        if not _is_int(self.K) or self.K < 1:
            raise ConfigError(f"K must be an integer >= 1, got {self.K!r}")
        # numpy sizes no array beyond intp max bytes; np.linspace counts K as a float64
        limit = np.iinfo(np.intp).max // 8
        if self.K > limit or float(self.K) > limit:
            raise ConfigError(f"K={self.K} float64 markers exceed the largest array numpy sizes")
        interval = tuple(self.interval) \
            if isinstance(self.interval, (tuple, list, np.ndarray)) else ()
        if not (len(interval) == 2 and all(map(_is_finite, interval))
                and interval[0] < interval[1]):
            raise ConfigError(f"interval must be two finite, increasing numbers, "
                              f"got {self.interval!r}")
        if self.delay_model not in ("exact", "taylor"):
            raise ConfigError(f"delay_model must be 'exact' or 'taylor', got {self.delay_model!r}")
        self.K = int(self.K)
        self.interval = (float(interval[0]), float(interval[1]))


@dataclass
class NoiseModel:
    """Gaussian timing noise on the recorded markers.

    Attributes:
        sigma: per-node marker standard deviation; scalar applies to every
            node, or an array gives one value per node.
        unit: "s" for seconds, or "m" for the distance-equivalent (divided
            by the propagation speed at simulation time).

    Markers of different nodes are independent, so the links are too.

    Raises:
        ConfigError: unless every sigma is a finite number >= 0 and the unit
            is known.
    """

    sigma: Union[float, np.ndarray] = 0.0
    unit: str = "s"

    def __post_init__(self):
        if self.unit not in ("s", "m"):
            raise ConfigError(f"unit must be 's' or 'm', got {self.unit!r}")
        sig = np.asarray(self.sigma)
        if sig.dtype.kind not in "iuf" or not np.all(np.isfinite(sig)) or np.any(sig < 0):
            raise ConfigError(f"sigma must be finite numbers >= 0, got {self.sigma!r}")
        sig = sig.astype(float)
        self.sigma = float(sig) if sig.ndim == 0 else sig

    @classmethod
    def from_pair_sigma(cls, sigma_pair: float, unit: str = "m") -> "NoiseModel":
        """Model with equal per-node noise such that each pair's measured
        delay has standard deviation `sigma_pair` (per-node std divided by
        sqrt(2), since the two endpoint variances add).  Validates
        `sigma_pair` as the constructor validates sigma."""
        return cls(sigma=cls(sigma_pair, unit).sigma / np.sqrt(2.0), unit=unit)

    def node_std_seconds(self, n_nodes: int, c: float) -> np.ndarray:
        """Per-node marker standard deviation in seconds, length n_nodes."""
        sig = np.broadcast_to(np.asarray(self.sigma, float), (n_nodes,)).copy()
        if self.unit == "m":
            sig = sig / c
        return sig


def effective_noise_covariance(noise: NoiseModel, n_nodes: int,
                               c: float = SPEED_OF_LIGHT) -> np.ndarray:
    """(Nbar,) delay variances (seconds squared) of the pairs, in canonical order.

    Links are independent and each delay mixes one marker from each
    endpoint, so the pair variance is the sum of the two node variances;
    the delay covariance is bdiag(var_12 I_K, var_13 I_K, ...).  A variance
    that overflows comes back as inf, without a warning.
    """
    with np.errstate(over="ignore"):
        var = _pair_std(noise, n_nodes, c) ** 2
        return var[0] + var[1]


def _pair_std(noise: NoiseModel, n_nodes: int, c: float) -> np.ndarray:
    """(2, Nbar) marker noise standard deviations (seconds) of the pairs, in
    canonical order: pair p's markers carry the sigma of its lower-indexed
    node (row 0) and of its higher-indexed node (row 1)."""
    return noise.node_std_seconds(n_nodes, c)[np.stack(pair_index(n_nodes))]


@dataclass
class TimestampExchangeSet:
    """Recorded markers for every pair, in canonical pair order.

    Attributes:
        n_nodes: number of nodes N.
        t_i: (Nbar, K) markers recorded at the lower-indexed node of each pair.
        t_j: (Nbar, K) markers recorded at the higher-indexed node.
        e: (Nbar, K) direction flags, +1 when the lower-indexed node transmitted.
        c: propagation speed (m/s).

    Raises:
        ValueError: unless t_i, t_j and e share one (Nbar, K) shape.
    """

    n_nodes: int
    t_i: np.ndarray
    t_j: np.ndarray
    e: np.ndarray
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        self.t_i = np.asarray(self.t_i, float)
        self.t_j = np.asarray(self.t_j, float)
        self.e = np.asarray(self.e, int)
        nbar, shapes = pair_count(self.n_nodes), (self.t_i.shape, self.t_j.shape, self.e.shape)
        if len(set(shapes)) > 1 or self.t_i.ndim != 2 or len(self.t_i) != nbar:
            raise ValueError(f"t_i, t_j and e must share one ({nbar}, K) shape, got {shapes}")

    @property
    def K(self) -> int:
        return self.t_i.shape[1]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return canonical_pairs(self.n_nodes)

    @property
    def n_pairs(self) -> int:
        return self.t_i.shape[0]

    def tau(self) -> np.ndarray:
        """Measured propagation delays e o (t_j - t_i), shape (Nbar, K)."""
        return self.e * (self.t_j - self.t_i)

    def to_csv(self, path) -> None:
        """Write rows (i, j, k, E, T_tx, T_rx); floats keep full precision."""
        i, j = pair_index(self.n_nodes)
        fwd = self.e == 1
        tx = np.where(fwd, self.t_i, self.t_j).ravel().tolist()
        rx = np.where(fwd, self.t_j, self.t_i).ravel().tolist()
        _write_columns(path, _CSV_COLUMNS, np.repeat(i, self.K).tolist(),
                       np.repeat(j, self.K).tolist(), np.tile(np.arange(self.K), len(i)).tolist(),
                       self.e.ravel().tolist(), tx, rx)

    @classmethod
    def from_csv(cls, path, c: float = SPEED_OF_LIGHT,
                 expected_n: int | None = None) -> "TimestampExchangeSet":
        """Read rows (i, j, k, E, T_tx, T_rx) as written by :meth:`to_csv`.

        Every pair 0 <= i < j < N must appear with one common message count
        K, and each message index k in 0..K-1 exactly once per pair.  N is
        one more than the largest j, so a file cut short after its first
        pairs reads as a smaller network unless `expected_n` states N.

        Raises:
            InputError: if the file is not text, is empty, lacks a column,
                holds a value that is not a number, a non-integer or
                out-of-range index, a direction flag other than +/-1 or a
                non-finite timestamp, names another node count than
                `expected_n`, misses a pair, or repeats an (i, j, k) message.
        """
        data, n_nodes, p = _read_pair_table(path, _CSV_COLUMNS, n_int=4, expected_n=expected_n)
        k, flag = data[:, 2], data[:, 3]
        _reject_rows(path, data, np.abs(flag) != 1, "direction flag E must be +1 or -1")
        _reject_rows(path, data, ~np.all(np.isfinite(data[:, 4:]), axis=1), "non-finite timestamp")

        nbar = pair_count(n_nodes)
        per_pair = np.bincount(p, minlength=nbar)
        # each pair holds K rows with distinct k in 0..K-1, so every slot is filled
        K = int(per_pair[0])
        uneven = np.flatnonzero(per_pair != K)
        if uneven.size:
            q = uneven[0]
            raise InputError(f"pair {canonical_pairs(n_nodes)[q]} has {per_pair[q]} messages, "
                             f"expected {K}")
        _reject_rows(path, data, k >= K, f"message index k must lie in 0..{K - 1}")
        slot = p * K + k.astype(np.intp)

        fwd = flag == 1
        tx, rx = data[:, 4], data[:, 5]
        t_i = np.empty(nbar * K)
        t_j = np.empty(nbar * K)
        e = np.empty(nbar * K, int)
        t_i[slot] = np.where(fwd, tx, rx)
        t_j[slot] = np.where(fwd, rx, tx)
        e[slot] = flag
        shape = (nbar, K)
        return cls(n_nodes=n_nodes, t_i=t_i.reshape(shape), t_j=t_j.reshape(shape),
                   e=e.reshape(shape), c=c)


def _write_columns(path, header: Sequence[str], *columns) -> None:
    """Write a CSV file: the header, then one row per element of the
    equal-length `columns` (see :func:`_write_rows`)."""
    with open(path, "w", newline="") as fh:
        _write_rows(fh, header, *columns)


def _write_rows(fh, header: Sequence[str], *columns) -> None:
    """Stream the header, then one row per element of the equal-length
    `columns` (lists or iterators), to the text file `fh`.

    This is the one writer of every CSV relkin writes.  Fields are written
    unquoted, as ``str`` gives them, and lines end in CRLF.  A Python float
    is thus written as its shortest round-trip repr, which reads back to the
    same bits, so callers pass floats as Python floats (``.tolist()``), not
    numpy scalars, and a missing value as ``""``.  For the fields relkin
    writes (numbers, names without commas or quotes, and empty strings in
    rows of two or more fields) these are the bytes ``csv.writer`` writes.
    """
    row = ",".join(["{}"] * len(header)) + "\r\n"
    fh.write(row.format(*header))
    fh.writelines(map(row.format, *columns))


def _read_pair_table(path, columns: Sequence[str], n_int: int,
                     expected_n: int | None = None) -> tuple[np.ndarray, int, np.ndarray]:
    """The rows of a CSV keyed by node pair: an exchange or a coefficient file.

    Columns i and j name the pair and come first in `columns`, and the
    third is the row's key within its pair (k of an exchange, the order of
    a coefficient); the first `n_int` (>= 3) columns must hold integers.
    Every pair 0 <= i < j < N, with N one more than the largest j (and equal
    to `expected_n` when given), needs at least one row, and no (i, j, key)
    may repeat; the header may order the columns freely and carry others.
    Every data row has the header's field count; empty lines are skipped.

    Returns:
        (rows, N, p): the (rows, len(columns)) values of the named columns,
        the node count and each row's canonical pair index.

    Raises:
        InputError: if the file is not text, is empty, lacks a column, holds
            a row of another field count than the header's, a value that is
            not a number, a non-integer where `n_int` asks for one, a pair
            outside 0 <= i < j, a negative or repeated key, names another
            node count than `expected_n`, or misses a pair.
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not a text CSV: {exc}") from None
    if not header:
        raise InputError(f"{path} is empty")
    absent = [name for name in columns if name not in header]
    if absent:
        raise InputError(f"{path} lacks the columns {absent}")
    if not any(line.strip() for line in lines):
        raise InputError(f"no rows found in {path}")
    commas = list(map(str.count, lines, itertools.repeat(",")))
    if commas.count(len(header) - 1) < len(lines):  # a ragged row, or an empty line
        _reject_ragged(path, lines, commas, len(header))
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                          usecols=[header.index(name) for name in columns])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None

    idx = data[:, :n_int]
    _reject_rows(path, data, ~np.all(np.isfinite(idx) & (idx == np.round(idx)), axis=1),
                 f"{', '.join(columns[:n_int - 1])} and {columns[n_int - 1]} must be integers")
    i, j = data[:, 0], data[:, 1]
    _reject_rows(path, data, (i < 0) | (j <= i), "pair indices must satisfy 0 <= i < j")
    n_nodes = int(j.max()) + 1
    if expected_n is not None and n_nodes != expected_n:
        raise InputError(f"{path} holds {n_nodes} nodes, expected {expected_n}")
    nbar = pair_count(n_nodes)
    if nbar > len(data):  # some pair has no row; skip counting nbar slots
        raise InputError(_missing_pairs(path, n_nodes, i, j))
    p = pair_position(n_nodes, i, j)
    if not np.bincount(p, minlength=nbar).all():
        raise InputError(_missing_pairs(path, n_nodes, i, j))
    key = data[:, 2]
    _reject_rows(path, data, key < 0, f"{columns[2]} must be >= 0")
    order = np.lexsort((key, p))  # stable, so a repeat sorts after the row it repeats
    repeat = np.zeros(len(data), bool)
    repeat[order[1:][(np.diff(p[order]) == 0) & (np.diff(key[order]) == 0)]] = True
    _reject_rows(path, data, repeat, f"duplicate (i, j, {columns[2]}) row")
    return data, n_nodes, p


def _reject_ragged(path, lines: list[str], commas: list[int], fields: int) -> None:
    """Raise InputError naming the first data row whose comma count is not
    the header's; empty lines, which np.loadtxt skips, are not data rows."""
    row = 0
    for line, n in zip(lines, commas):
        if line.rstrip("\r\n"):
            row += 1
            if n != fields - 1:
                raise InputError(f"{path}: data row {row} has {n + 1} fields, "
                                 f"the header {fields}")


def _reject_rows(path, data: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """Raise InputError naming the first data row flagged in `bad`."""
    rows = np.flatnonzero(bad)
    if rows.size:
        r = rows[0]
        raise InputError(f"{path}: data row {r + 1} {data[r].tolist()}: {reason}")


def _missing_pairs(path, n_nodes: int, i: np.ndarray, j: np.ndarray) -> str:
    """Message naming the first few pairs 0 <= i < j < n_nodes that have no row."""
    present = set(zip(i.tolist(), j.tolist()))
    n_missing = pair_count(n_nodes) - len(present)
    # walked lazily: N comes from the file and may be huge
    missing = itertools.islice(((a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)
                                if (a, b) not in present), 5)
    return (f"{path} is missing pairs {list(missing)}"
            + (f" and {n_missing - 5} more" if n_missing > 5 else ""))


def generate_timestamps(cfg: ExchangeConfig, n_pairs: int = 1) -> np.ndarray:
    """Transmit marker grid, linearly spaced over the interval.

    All pairs communicate within the same interval, so the grid is identical
    per pair; returns shape (n_pairs, K).  Markers are unique by construction,
    which keeps the per-pair design blocks invertible.
    """
    grid = np.linspace(cfg.interval[0], cfg.interval[1], cfg.K)
    return np.tile(grid, (n_pairs, 1))


def _clean_delays(traj: TrajectorySet, cfg: ExchangeConfig) -> np.ndarray:
    """(Nbar, K) noise-free propagation delays on the transmit grid, canonical pair order."""
    grid = generate_timestamps(cfg, 1)[0]
    i, j = pair_index(traj.N)
    if cfg.delay_model == "exact":
        dy = (traj.Y.take(i, axis=1) - traj.Y.take(j, axis=1))[..., None]
        dx = (traj.X.take(i, axis=1) - traj.X.take(j, axis=1))[..., None] + grid * dy
        return np.sqrt((dx**2).sum(axis=0)) / SPEED_OF_LIGHT
    rd = RangeDerivatives(*(v[:, None] for v in _pair_kinematics(traj.X, traj.Y)))
    return taylor_range(rd, grid) / SPEED_OF_LIGHT


def _clean_exchanges(traj: TrajectorySet, cfg: ExchangeConfig) -> TimestampExchangeSet:
    """The noise-free exchanges: what :func:`simulate_exchanges` gives under zero
    noise (a zero draw adds only +/-0.0), with no normals drawn."""
    delays = _clean_delays(traj, cfg)
    grid = generate_timestamps(cfg, len(delays))
    e = np.ones(delays.shape, int)
    return TimestampExchangeSet(n_nodes=traj.N, t_i=grid, t_j=grid + delays, e=e)


def _exchange_states(seed, streams, n_pairs: int) -> np.ndarray:
    """(B, Nbar, 4) stream seed words of a batch of simulations: simulation b
    draws pair p from the derived stream (seed, *streams[b], p).

    `streams` is a (B, D) integer array (or a list of B equal-length tuples).
    """
    streams = np.asarray(streams)
    if streams.size and streams.dtype.kind not in "iu":
        raise TypeError(f"stream entries must be integers, got {streams.dtype}")
    n_sims, depth = streams.shape
    paths = np.empty((n_sims, n_pairs, depth + 1), np.int64)
    paths[..., :-1] = streams[:, None]
    paths[..., -1] = np.arange(n_pairs)
    return _stream_states(seed, paths.reshape(-1, depth + 1)).reshape(n_sims, n_pairs, -1)


def _draw_exchanges(clean: TimestampExchangeSet, noise: NoiseModel,
                    states: np.ndarray) -> TimestampExchangeSet:
    """One noisy simulation of the noise-free set `clean`.

    Every marker of `clean` is perturbed by one Gaussian draw, for pair p
    from the stream of seed words states[p] (an (Nbar, 4) row of
    :func:`_exchange_states`): row 0 of its (2, K) draw perturbs the lower
    node's markers, row 1 the higher node's, each scaled by that node's sigma
    (see :func:`_pair_std`).
    """
    sig = _pair_std(noise, clean.n_nodes, clean.c)
    q = _draw_normals(states, (2, clean.K))
    t_i = clean.t_i + sig[0, :, None] * q[:, 0]
    t_j = clean.t_j + sig[1, :, None] * q[:, 1]
    # a copy: with a view of clean.e the large_n48 benchmark peaked at 105 MB, not 92 MB
    e = clean.e.copy()
    return TimestampExchangeSet(n_nodes=clean.n_nodes, t_i=t_i, t_j=t_j, e=e, c=clean.c)


def simulate_exchanges(traj: TrajectorySet, cfg: ExchangeConfig, noise: NoiseModel,
                       seed, stream: tuple[int, ...] = ()) -> TimestampExchangeSet:
    """Simulate the timestamp exchanges of every node pair.

    The exchanges are one-way: the lower-indexed node transmits every message
    (e = +1) at its marker on the shared transmit grid, and the peer marker
    is offset by the propagation delay at the speed of light, with the
    distance evaluated at the grid instant.  Over one propagation time the
    nodes move by a fraction v/c (~1e-8 here) of the distance change per
    second, so the implicit light-time equation is not solved.

    Noise adds one Gaussian draw per recorded marker.  Given the same
    (trajectory, config, noise, seed, stream) the output is bit-identical;
    pair p draws from the derived stream (seed, *stream, p).

    Args:
        stream: optional integer path prefix separating independent
            simulations (e.g. (sweep_index, trial_index)) under one seed;
            entries lie in [0, 2**32).
    """
    clean = _clean_exchanges(traj, cfg)
    return _draw_exchanges(clean, noise, _exchange_states(seed, [stream], clean.n_pairs)[0])
