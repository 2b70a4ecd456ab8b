"""Two-way-ranging timestamp exchanges between pairs of mobile nodes.

Each node pair exchanges K messages inside a common interval.  Per message
one node transmits and the other receives; both record a local time marker
and the signed direction flag (+1 when the lower-indexed node transmits).
The signed marker difference recovers the propagation delay regardless of
direction, which is what the ranging estimator consumes.

Timing noise is injected on the recorded markers themselves (one i.i.d.
Gaussian draw per marker per message), so the measured delay of a pair
carries the sum of both endpoint variances.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .exceptions import InputError, UnsupportedCovarianceError
from .kinematics import TrajectorySet, canonical_pairs, range_derivatives, taylor_range
from .rng import derive_rng

__all__ = [
    "SPEED_OF_LIGHT",
    "ExchangeConfig",
    "NoiseModel",
    "NoiseCovariance",
    "TimestampExchangeSet",
    "generate_timestamps",
    "simulate_exchanges",
    "effective_noise_covariance",
]

SPEED_OF_LIGHT = 3e8  # m/s, propagation speed used throughout unless overridden

_CSV_COLUMNS = ("i", "j", "k", "E", "T_tx", "T_rx")


@dataclass
class ExchangeConfig:
    """Message schedule for every node pair.

    Attributes:
        K: messages per pair.
        interval: (t_start, t_end) seconds; transmit markers are linearly
            spaced over it and shared by all pairs.
        direction_policy: "one_way" (all +1), "alternating" (+1, -1, ...),
            or an explicit length-K vector of +/-1 flags.
        c: propagation speed in m/s.
        delay_model: "exact" evaluates the true distance at the marker
            instant; "taylor" evaluates the truncated range polynomial of
            `model_order` coefficients instead, producing delays that are
            exactly consistent with the estimator's model class.
        model_order: coefficients kept by the "taylor" delay model (<= 4).
    """

    K: int
    interval: tuple[float, float] = (-3.0, 3.0)
    direction_policy: Union[str, Sequence[int]] = "one_way"
    c: float = SPEED_OF_LIGHT
    delay_model: str = "exact"
    model_order: int = 4

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        t0, t1 = self.interval
        if not t0 < t1:
            raise ValueError(f"interval must satisfy t_start < t_end, got {self.interval}")
        if self.c <= 0:
            raise ValueError("propagation speed must be positive")
        if self.delay_model not in ("exact", "taylor"):
            raise ValueError(f"delay_model must be 'exact' or 'taylor', got {self.delay_model!r}")
        if isinstance(self.direction_policy, str):
            if self.direction_policy not in ("one_way", "alternating"):
                raise ValueError(f"unknown direction policy {self.direction_policy!r}")
        else:
            flags = np.asarray(self.direction_policy, int)
            if flags.shape != (self.K,) or not np.all(np.abs(flags) == 1):
                raise ValueError("custom direction vector must hold K entries of +/-1")
            self.direction_policy = flags

    def directions(self) -> np.ndarray:
        """Length-K vector of +/-1 direction flags."""
        if isinstance(self.direction_policy, str):
            if self.direction_policy == "one_way":
                return np.ones(self.K, dtype=int)
            e = np.ones(self.K, dtype=int)
            e[1::2] = -1
            return e
        return np.asarray(self.direction_policy, int).copy()


@dataclass
class NoiseModel:
    """Gaussian timing noise on the recorded markers.

    Attributes:
        sigma: per-node marker standard deviation; scalar applies to every
            node, or an array gives one value per node.
        unit: "s" for seconds, or "m" for the distance-equivalent (divided
            by the propagation speed at simulation time).
        pairwise_independent: True for independent pairwise links, the only
            covariance structure supported here (broadcast/passive-listening
            protocols correlate links and are out of scope).
    """

    sigma: Union[float, np.ndarray] = 0.0
    unit: str = "s"
    pairwise_independent: bool = True

    def __post_init__(self):
        if self.unit not in ("s", "m"):
            raise ValueError(f"unit must be 's' or 'm', got {self.unit!r}")
        sig = np.asarray(self.sigma, float)
        if np.any(sig < 0):
            raise ValueError("sigma must be nonnegative")
        self.sigma = float(sig) if sig.ndim == 0 else sig

    @classmethod
    def from_pair_sigma(cls, sigma_pair: float, unit: str = "m") -> "NoiseModel":
        """Model with equal per-node noise such that each pair's measured
        delay has standard deviation `sigma_pair` (per-node std divided by
        sqrt(2), since the two endpoint variances add)."""
        return cls(sigma=float(sigma_pair) / np.sqrt(2.0), unit=unit)

    def node_std_seconds(self, n_nodes: int, c: float) -> np.ndarray:
        """Per-node marker standard deviation in seconds, length n_nodes."""
        sig = np.broadcast_to(np.asarray(self.sigma, float), (n_nodes,)).copy()
        if self.unit == "m":
            sig = sig / c
        return sig


@dataclass
class NoiseCovariance:
    """Block-diagonal covariance of the stacked delay measurements.

    One scalar variance per pair; the covariance is
    bdiag(var_12 I_K, var_13 I_K, ...) over canonical pair order, so only
    the per-pair variances are stored.
    """

    pair_variances: np.ndarray
    K: int

    def __post_init__(self):
        self.pair_variances = np.asarray(self.pair_variances, float)


def effective_noise_covariance(noise: NoiseModel, n_nodes: int, K: int,
                               c: float = SPEED_OF_LIGHT) -> NoiseCovariance:
    """Covariance of the measured delays under independent pairwise links.

    Each delay mixes one marker from each endpoint, so the pair variance is
    the sum of the two node variances (in seconds squared).

    Raises:
        UnsupportedCovarianceError: if the model declares correlated links.
    """
    if not noise.pairwise_independent:
        raise UnsupportedCovarianceError(
            "correlated (broadcast/passive) noise structures are not supported"
        )
    sig = noise.node_std_seconds(n_nodes, c)
    var = np.array([sig[i] ** 2 + sig[j] ** 2 for i, j in canonical_pairs(n_nodes)])
    return NoiseCovariance(pair_variances=var, K=K)


@dataclass
class TimestampExchangeSet:
    """Recorded markers for every pair, in canonical pair order.

    Attributes:
        n_nodes: number of nodes N.
        t_i: (Nbar, K) markers recorded at the lower-indexed node of each pair.
        t_j: (Nbar, K) markers recorded at the higher-indexed node.
        e: (Nbar, K) direction flags, +1 when the lower-indexed node transmitted.
        c: propagation speed (m/s).
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
        nbar = len(canonical_pairs(self.n_nodes))
        for name, m in (("t_i", self.t_i), ("t_j", self.t_j), ("e", self.e)):
            if m.ndim != 2 or m.shape[0] != nbar:
                raise ValueError(f"{name} must be ({nbar}, K), got {m.shape}")
        if not (self.t_i.shape == self.t_j.shape == self.e.shape):
            raise ValueError("t_i, t_j and e must share one shape")

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for p, (i, j) in enumerate(self.pairs):
                for k in range(self.K):
                    if self.e[p, k] == 1:
                        tx, rx = self.t_i[p, k], self.t_j[p, k]
                    else:
                        tx, rx = self.t_j[p, k], self.t_i[p, k]
                    writer.writerow([i, j, k, self.e[p, k], repr(float(tx)), repr(float(rx))])

    @classmethod
    def from_csv(cls, path, c: float = SPEED_OF_LIGHT) -> "TimestampExchangeSet":
        """Read rows (i, j, k, E, T_tx, T_rx) as written by :meth:`to_csv`.

        Every pair 0 <= i < j < N must appear with one common message count
        K, and each message index k in 0..K-1 exactly once per pair.

        Raises:
            InputError: if the file is empty, lacks a column, holds a value
                that is not a number, a non-integer or out-of-range index, a
                direction flag other than +/-1 or a non-finite timestamp,
                misses a pair, or repeats an (i, j, k) message.
        """
        with open(path, newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            lines = fh.readlines()
        if not header:
            raise InputError(f"{path} is empty")
        absent = [name for name in _CSV_COLUMNS if name not in header]
        if absent:
            raise InputError(f"{path} lacks the columns {absent}")
        if not any(line.strip() for line in lines):
            raise InputError(f"no exchange rows found in {path}")
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                              usecols=[header.index(name) for name in _CSV_COLUMNS])
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None

        idx = data[:, :4]
        _reject_rows(path, data, ~np.all(np.isfinite(idx) & (idx == np.round(idx)), axis=1),
                     "i, j, k and E must be integers")
        i, j, k, flag = idx.T
        _reject_rows(path, data, (i < 0) | (j <= i), "pair indices must satisfy 0 <= i < j")
        _reject_rows(path, data, np.abs(flag) != 1, "direction flag E must be +1 or -1")
        _reject_rows(path, data, ~np.all(np.isfinite(data[:, 4:]), axis=1), "non-finite timestamp")

        n_nodes = int(j.max()) + 1
        nbar = n_nodes * (n_nodes - 1) // 2
        if nbar > len(data):  # some pair has no row; skip counting nbar slots
            raise InputError(_missing_pairs(n_nodes, i, j))
        p = (i * (2 * n_nodes - i - 1) // 2 + j - i - 1).astype(np.intp)
        per_pair = np.bincount(p, minlength=nbar)
        if not per_pair.all():
            raise InputError(_missing_pairs(n_nodes, i, j))
        # each pair holds K rows with distinct k in 0..K-1, so every slot is filled
        K = int(per_pair[0])
        uneven = np.flatnonzero(per_pair != K)
        if uneven.size:
            q = uneven[0]
            raise InputError(f"pair {canonical_pairs(n_nodes)[q]} has {per_pair[q]} messages, "
                             f"expected {K}")
        _reject_rows(path, data, (k < 0) | (k >= K), f"message index k must lie in 0..{K - 1}")
        slot = p * K + k.astype(np.intp)
        seen = np.bincount(slot, minlength=nbar * K)
        _reject_rows(path, data, seen[slot] > 1, "duplicate (i, j, k) message")

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


def _reject_rows(path, data: np.ndarray, bad: np.ndarray, reason: str) -> None:
    """Raise InputError naming the first data row flagged in `bad`."""
    rows = np.flatnonzero(bad)
    if rows.size:
        r = rows[0]
        raise InputError(f"{path}: data row {r + 1} {data[r].tolist()}: {reason}")


def _missing_pairs(n_nodes: int, i: np.ndarray, j: np.ndarray) -> str:
    """Message naming the first few pairs 0 <= i < j < n_nodes that have no row."""
    present = set(zip(i.tolist(), j.tolist()))
    n_missing = n_nodes * (n_nodes - 1) // 2 - len(present)
    missing = itertools.islice((pair for pair in itertools.combinations(range(n_nodes), 2)
                                if pair not in present), 5)
    return (f"exchange file is missing pairs {list(missing)}"
            + (f" and {n_missing - 5} more" if n_missing > 5 else ""))


def generate_timestamps(cfg: ExchangeConfig, n_pairs: int = 1) -> np.ndarray:
    """Transmit marker grid, linearly spaced over the interval.

    All pairs communicate within the same interval, so the grid is identical
    per pair; returns shape (n_pairs, K).  Markers are unique by construction,
    which keeps the per-pair design blocks invertible.
    """
    grid = np.linspace(cfg.interval[0], cfg.interval[1], cfg.K)
    return np.tile(grid, (n_pairs, 1))


def _pair_delays(traj: TrajectorySet, i: int, j: int, t: np.ndarray,
                 cfg: ExchangeConfig) -> np.ndarray:
    if cfg.delay_model == "exact":
        dx = (traj.X[:, i] - traj.X[:, j])[:, None] + t[None, :] * (
            traj.Y[:, i] - traj.Y[:, j]
        )[:, None]
        return np.sqrt((dx**2).sum(axis=0)) / cfg.c
    rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
    return taylor_range(rd, t, order=cfg.model_order) / cfg.c


def simulate_exchanges(traj: TrajectorySet, cfg: ExchangeConfig, noise: NoiseModel,
                       seed, stream: tuple[int, ...] = ()) -> TimestampExchangeSet:
    """Simulate the timestamp exchanges of every node pair.

    The lower-indexed node's marker sits on the shared transmit grid and the
    peer marker is offset by the signed propagation delay, with the distance
    evaluated at the grid instant.  Over one propagation time the nodes move
    by a fraction v/c (~1e-8 here) of the distance change per second, so the
    implicit light-time equation is not solved; this also makes the measured
    delays identical across direction policies, as the data model requires.

    Noise adds one Gaussian draw per recorded marker.  Given the same
    (trajectory, config, noise, seed, stream) the output is bit-identical;
    pair p draws from the derived stream (seed, *stream, p).

    Args:
        stream: optional integer path prefix separating independent
            simulations (e.g. (sweep_index, trial_index)) under one seed.
    """
    n = traj.N
    pairs = canonical_pairs(n)
    grid = generate_timestamps(cfg, 1)[0]
    e_flags = cfg.directions()
    sig = noise.node_std_seconds(n, cfg.c)
    t_i = np.empty((len(pairs), cfg.K))
    t_j = np.empty((len(pairs), cfg.K))
    e = np.empty((len(pairs), cfg.K), int)
    for p, (i, j) in enumerate(pairs):
        delay = _pair_delays(traj, i, j, grid, cfg)
        rng = derive_rng(seed, *stream, p)
        q = rng.standard_normal((2, cfg.K))
        t_i[p] = grid + sig[i] * q[0]
        t_j[p] = grid + e_flags * delay + sig[j] * q[1]
        e[p] = e_flags
    return TimestampExchangeSet(n_nodes=n, t_i=t_i, t_j=t_j, e=e, c=cfg.c)
