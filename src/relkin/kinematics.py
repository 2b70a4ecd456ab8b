"""Ground-truth geometry for a network of nodes in linear motion.

A :class:`TrajectorySet` holds initial positions and constant velocities in
P-dimensional space; node positions evolve as ``X + t * Y`` with the
reference instant fixed at t0 = 0.  Even under such linear motion every
pairwise distance is a non-linear function of time, but its derivatives at
t0 have closed forms:

    r      = ||x_i - x_j||
    rdot   = (x_i - x_j)^T (y_i - y_j) / r
    rddot  = (||y_i - y_j||^2 - rdot^2) / r
    rdddot = -3 rdot rddot / r

These exact values, and the N x N matrices assembling them over all node
pairs, serve as the reference oracles for the ranging estimators and the
relative position/velocity solvers built on top of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exceptions import ConfigError, DegenerateGeometryError, InputError

__all__ = [
    "TrajectorySet",
    "RangeDerivatives",
    "RangeMatrices",
    "canonical_pairs",
    "centering_matrix",
    "pair_count",
    "pair_index",
    "range_derivatives",
    "range_matrices",
    "taylor_range",
    "load_trajectory",
    "builtin_trajectory",
    "BUILTIN_FIXTURES",
]


def _is_int(x) -> bool:
    """An integer other than a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def pair_count(n: int) -> int:
    """Number of unique node pairs of n nodes, N(N-1)/2, computed without allocating."""
    return n * (n - 1) // 2


@lru_cache(maxsize=64)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the unique node pairs i < j, in the stacking order
    used everywhere in this package: (0,1), (0,2), ..., (0,n-1), (1,2), ...

    The arrays are cached per n and shared by every caller, so they are
    read-only.
    """
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def pair_position(n: int, i, j) -> np.ndarray:
    """Index of each pair (i, j), i < j < n, in the order of :func:`pair_index`."""
    return (i * (2 * n - i - 1) // 2 + j - i - 1).astype(np.intp)


def canonical_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs of :func:`pair_index` as a list of (i, j) tuples."""
    i, j = pair_index(n)
    return list(zip(i.tolist(), j.tolist()))


def check_pair_variances(var: np.ndarray, name: str) -> None:
    """The one rule for a pair variance: finite and > 0.  Raises ConfigError
    naming `name` and the first pair of the canonical-order vector `var`
    (its index, if len(var) is no pair count) that breaks it."""
    bad = np.flatnonzero(~((var > 0) & (var < np.inf)))
    if bad.size:
        p, nbar = int(bad[0]), len(var)
        n = (1 + math.isqrt(1 + 8 * nbar)) // 2
        pair = f"pair {canonical_pairs(n)[p]}" if pair_count(n) == nbar else f"entry {p}"
        raise ConfigError(f"{name} of {pair} is {float(var[p])!r}; "
                          "a pair variance must be finite and > 0")


def centering_matrix(n: int) -> np.ndarray:
    """The projector I - (1/n) 11^T that removes the column mean."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


@dataclass
class TrajectorySet:
    """Initial positions and constant velocities of N nodes in P dimensions.

    Attributes:
        X: P x N positions at t0 = 0 (meters).
        Y: P x N velocities (meters/second).

    A non-finite entry raises ValueError naming its node.  Coincident nodes
    are rejected at construction: every range derivative is undefined at
    zero separation, so the degenerate geometry is caught here rather than
    surfacing later as NaNs.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if self.X.shape != self.Y.shape:
            raise ValueError(
                f"positions {self.X.shape} and velocities {self.Y.shape} differ in shape"
            )
        p, n = self.X.shape
        if n < p:
            raise ValueError(f"need at least as many nodes as dimensions, got N={n} < P={p}")
        for name, m in (("X", self.X), ("Y", self.Y)):
            bad = np.flatnonzero(~np.isfinite(m).all(axis=0))
            if bad.size:
                raise ValueError(f"{name} of node {bad[0]} is {m[:, bad[0]].tolist()}; "
                                 "positions and velocities must be finite")
        i, j = pair_index(n)
        dx = self.X.take(i, axis=1) - self.X.take(j, axis=1)
        hit = np.flatnonzero(np.sqrt((dx**2).sum(axis=0)) == 0.0)
        if hit.size:
            raise DegenerateGeometryError(f"nodes {i[hit[0]]} and {j[hit[0]]} coincide at t0")

    @property
    def P(self) -> int:
        return self.X.shape[0]

    @property
    def N(self) -> int:
        return self.X.shape[1]

    def position_at(self, t: float) -> np.ndarray:
        """Node positions at time t under linear motion: X + t Y."""
        return self.X + t * self.Y

    def to_dict(self) -> dict:
        return {"P": self.P, "N": self.N, "X": self.X.tolist(), "Y": self.Y.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "TrajectorySet":
        """The set of a :meth:`to_dict` dict; a declared P or N must be X's integer one."""
        traj = cls(X=np.asarray(data["X"], float), Y=np.asarray(data["Y"], float))
        for key, size in (("P", traj.P), ("N", traj.N)):
            if key in data and not (_is_int(data[key]) and data[key] == size):
                raise ValueError(f"declared {key}={data[key]!r} is not the integer {size} X gives")
        return traj

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "TrajectorySet":
        """Read a fixture JSON file as written by :meth:`save`.

        Raises:
            InputError: if the file is not JSON, lacks X or Y, holds arrays
                that do not form a finite P x N trajectory (null is not
                finite), or declares a P or N other than X's integer one.
        """
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path} is not a trajectory fixture: {exc!r}") from None


# Built-in 5-node planar fixture used by the demo experiments: arbitrary
# positions of order a kilometer with velocities of a few meters/second.
BUILTIN_FIXTURES = {
    "cluster5": {
        "X": [[-382.0, 735.0, 959.0, 630.0, 800.0], [9.0, 7.0, 727.0, 366.0, -858.0]],
        "Y": [[-6.0, 8.0, -1.0, -10.0, 3.0], [8.0, -9.0, -7.0, -2.0, -8.0]],
    }
}


def builtin_trajectory(name: str) -> TrajectorySet:
    """One of the named built-in fixtures (see BUILTIN_FIXTURES)."""
    try:
        entry = BUILTIN_FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; built-ins: {sorted(BUILTIN_FIXTURES)}")
    return TrajectorySet(X=np.asarray(entry["X"]), Y=np.asarray(entry["Y"]))


def load_trajectory(name_or_path) -> TrajectorySet:
    """Resolve a built-in fixture name, or load a JSON fixture file."""
    if isinstance(name_or_path, str) and name_or_path in BUILTIN_FIXTURES:
        return builtin_trajectory(name_or_path)
    return TrajectorySet.load(name_or_path)


class RangeDerivatives(NamedTuple):
    """Pair distance and its first three time derivatives at t0, as floats or per-pair arrays."""

    r: float
    rdot: float
    rddot: float
    rdddot: float


def range_derivatives(x_i, x_j, y_i, y_j) -> RangeDerivatives:
    """Exact range derivatives at t0 for one pair of nodes in linear motion.

    Args:
        x_i, x_j: position vectors at t0 (meters).
        y_i, y_j: constant velocity vectors (m/s).

    Returns:
        RangeDerivatives(r, rdot, rddot, rdddot).

    Raises:
        DegenerateGeometryError: if the positions coincide (r = 0), where
            the derivatives are undefined.
    """
    X = np.column_stack([np.asarray(x_i, float), np.asarray(x_j, float)])
    Y = np.column_stack([np.asarray(y_i, float), np.asarray(y_j, float)])
    if np.linalg.norm(X[:, 0] - X[:, 1]) == 0.0:
        raise DegenerateGeometryError("coincident positions: range derivatives undefined at r=0")
    return RangeDerivatives(*(float(v[0]) for v in _pair_kinematics(X, Y)))


def _pair_kinematics(X: np.ndarray, Y: np.ndarray) -> RangeDerivatives:
    """The closed forms of the module docstring for every node pair: (Nbar,)
    vectors r, rdot, rddot, rdddot in :func:`pair_index` order, from P x N
    positions X and velocities Y of nodes that do not coincide."""
    i, j = pair_index(X.shape[1])
    # take gives C-ordered rows; the F-ordered X[:, i] makes each sum over axis 0 ~10x slower
    dx = X.take(i, axis=1) - X.take(j, axis=1)
    dv = Y.take(i, axis=1) - Y.take(j, axis=1)
    r = np.sqrt((dx**2).sum(axis=0))
    inv = 1.0 / r
    rdot = inv * (dx * dv).sum(axis=0)
    rddot = inv * ((dv**2).sum(axis=0) - rdot**2)
    return RangeDerivatives(r, rdot, rddot, -3.0 * rdot * rddot / r)


def taylor_range(rd: RangeDerivatives, t, order: int = 4) -> np.ndarray:
    """Truncated Taylor expansion of the pairwise distance around t0 = 0.

    `order` counts the retained coefficients (order=4 keeps r, rdot,
    rddot, rdddot).  Only the first four derivatives are available in
    closed form here.
    """
    if not 1 <= order <= 4:
        raise ValueError(f"order must be in 1..4, got {order}")
    t = np.asarray(t, float)
    coeffs = [rd.r, rd.rdot, rd.rddot / 2.0, rd.rdddot / 6.0][:order]
    out = np.zeros_like(t, dtype=float)
    for ell in reversed(range(order)):
        out = out * t + coeffs[ell]
    return out


@dataclass
class RangeMatrices:
    """Initial pairwise ranges and their first two derivatives for all pairs.

    R and Rddot have nonnegative entries (rddot >= 0 follows from
    Cauchy-Schwarz: r rddot + rdot^2 = ||y_i - y_j||^2 >= rdot^2), while
    Rdot is symmetric but sign-indefinite.  Diagonals are zero.  Leading
    batch axes, (..., N, N), hold the range sets of several networks.
    """

    R: np.ndarray
    Rdot: np.ndarray
    Rddot: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, float)
        self.Rdot = np.asarray(self.Rdot, float)
        self.Rddot = np.asarray(self.Rddot, float)
        n = self.R.shape[-1]
        for name, m in (("R", self.R), ("Rdot", self.Rdot), ("Rddot", self.Rddot)):
            if m.ndim < 2 or m.shape != self.R.shape[:-2] + (n, n):
                raise ValueError(f"{name} must be {self.R.shape[:-2] + (n, n)}, got {m.shape}")

    @property
    def n(self) -> int:
        return self.R.shape[-1]

    def pair_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, rdot, rddot) stacked over canonical pairs, each (..., N(N-1)/2)."""
        i, j = pair_index(self.n)
        return self.R[..., i, j], self.Rdot[..., i, j], self.Rddot[..., i, j]

    @classmethod
    def from_pair_vectors(cls, n: int, r, rdot, rddot) -> "RangeMatrices":
        """Assemble symmetric matrices from canonical pair-ordered (..., Nbar) vectors."""
        return cls(*(_symmetric(n, vec) for vec in (r, rdot, rddot)))


def _symmetric(n: int, vec) -> np.ndarray:
    """Symmetric (..., n, n) matrices with zero diagonals from (..., Nbar) pair
    vectors in :func:`pair_index` order."""
    vec = np.asarray(vec, float)
    i, j = pair_index(n)
    m = np.zeros(vec.shape[:-1] + (n, n))
    m[..., i, j] = vec
    return m + m.swapaxes(-1, -2)


def range_matrices(traj: TrajectorySet) -> RangeMatrices:
    """Exact R, Rdot, Rddot for every node pair of a trajectory set."""
    return RangeMatrices.from_pair_vectors(traj.N, *_pair_kinematics(traj.X, traj.Y)[:3])

