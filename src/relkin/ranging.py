"""Polynomial range-coefficient estimation from timestamp exchanges.

The measured delay of a pair is modeled as a degree-(L-1) polynomial in the
transmit marker, so K messages give one K x L Vandermonde block per pair.
Links are pairwise independent, so the delay covariance is block diagonal
and the network-wide weighted least-squares problem splits into independent
per-pair solves.  One batched kernel whitens the (Nbar, K, L) stack of
blocks and QR-factors every pair at once; the WLS estimate, its Cramer-Rao
bound and the order-recursive fit all read from it.  A diagonal rescaling
converts the scaled coefficients to the physical range derivatives (meters,
m/s, m/s^2, ...):

    theta_ell = c * ell! * theta_scaled_ell
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import RankDeficiencyError
from .kinematics import RangeMatrices, canonical_pairs
from .twr import NoiseModel, TimestampExchangeSet, effective_noise_covariance

__all__ = [
    "RangeCoefficients",
    "DesignSystem",
    "RangeCrb",
    "scale_factors",
    "rescale",
    "unscale",
    "build_design",
    "wls_solve",
    "pairwise_solve",
    "crb_theta",
    "order_select",
]


def scale_factors(L: int, c: float) -> np.ndarray:
    """Diagonal factors f mapping scaled to physical coefficients: f_ell = c * ell!."""
    return c * np.array([math.factorial(ell) for ell in range(L)], dtype=float)


def rescale(theta_scaled: np.ndarray, c: float) -> np.ndarray:
    """Physical coefficients from scaled ones; last axis indexes the order."""
    theta_scaled = np.asarray(theta_scaled, float)
    return theta_scaled * scale_factors(theta_scaled.shape[-1], c)


def unscale(theta: np.ndarray, c: float) -> np.ndarray:
    """Inverse of :func:`rescale` (the map is an invertible diagonal)."""
    theta = np.asarray(theta, float)
    return theta / scale_factors(theta.shape[-1], c)


@dataclass
class RangeCoefficients:
    """Estimated range polynomial coefficients for every pair.

    Attributes:
        scaled: (Nbar, L) scaled coefficients (seconds-domain polynomial).
        n_nodes: number of nodes (pairs follow canonical order).
        c: propagation speed used for rescaling.
    """

    scaled: np.ndarray
    n_nodes: int
    c: float

    def __post_init__(self):
        self.scaled = np.atleast_2d(np.asarray(self.scaled, float))
        nbar = len(canonical_pairs(self.n_nodes))
        if self.scaled.shape[0] != nbar:
            raise ValueError(f"expected {nbar} pair rows, got {self.scaled.shape[0]}")

    @property
    def L(self) -> int:
        return self.scaled.shape[1]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return canonical_pairs(self.n_nodes)

    @property
    def physical(self) -> np.ndarray:
        """(Nbar, L) physical coefficients: r (m), rdot (m/s), rddot (m/s^2), ..."""
        return rescale(self.scaled, self.c)

    def to_range_matrices(self) -> RangeMatrices:
        """Symmetric N x N range matrices from the first three coefficient orders.

        Orders beyond L are filled with zeros (an L=1 fit yields a static
        range model).
        """
        phys = self.physical
        cols = [phys[:, ell] if ell < self.L else np.zeros(phys.shape[0]) for ell in range(3)]
        return RangeMatrices.from_pair_vectors(self.n_nodes, *cols)


@dataclass
class DesignSystem:
    """Per-pair measurement systems of the whole network.

    Attributes:
        markers: (Nbar, K) regressor markers per pair (lower-indexed node's).
        tau: (Nbar, K) measured delays.
        L: number of polynomial coefficients per pair.
        n_nodes: node count.
        c: propagation speed.
        pair_variances: (Nbar,) delay variances (seconds^2), or None for
            unit weights.  Block-diagonal covariance bdiag(var_p I_K) is the
            only structure supported.
    """

    markers: np.ndarray
    tau: np.ndarray
    L: int
    n_nodes: int
    c: float
    pair_variances: Optional[np.ndarray] = None

    def __post_init__(self):
        self.markers = np.atleast_2d(np.asarray(self.markers, float))
        self.tau = np.atleast_2d(np.asarray(self.tau, float))
        if self.markers.shape != self.tau.shape:
            raise ValueError("markers and tau must share one shape")
        nbar = len(canonical_pairs(self.n_nodes))
        if self.markers.shape[0] != nbar:
            raise ValueError(f"expected {nbar} pairs, got {self.markers.shape[0]}")
        if self.L < 1:
            raise ValueError("polynomial order count L must be >= 1")
        if self.pair_variances is not None:
            self.pair_variances = np.asarray(self.pair_variances, float)
            if self.pair_variances.shape != (nbar,):
                raise ValueError("pair_variances must have one entry per pair")
            if np.any(self.pair_variances <= 0):
                raise ValueError("pair variances must be positive")
        distinct = 1 + np.count_nonzero(np.diff(np.sort(self.markers, axis=1), axis=1), axis=1)
        short = np.flatnonzero(distinct < self.L)
        if short.size:
            i, j = canonical_pairs(self.n_nodes)[short[0]]
            raise RankDeficiencyError(f"pair ({i},{j}) has fewer than L={self.L} distinct markers")

    @property
    def K(self) -> int:
        return self.markers.shape[1]

    @property
    def n_pairs(self) -> int:
        return self.markers.shape[0]

    def vandermonde(self) -> np.ndarray:
        """(Nbar, K, L) stack of the per-pair Vandermonde blocks [1, t, t^2, ...]."""
        cols = np.empty((self.n_pairs, self.L, self.K))
        cols[:, 0] = 1.0
        for ell in range(1, self.L):
            np.multiply(cols[:, ell - 1], self.markers, out=cols[:, ell])
        return cols.transpose(0, 2, 1)

    def pair_weights(self) -> np.ndarray:
        """(Nbar,) whitening weights 1/sigma_p (ones when unweighted)."""
        if self.pair_variances is None:
            return np.ones(self.n_pairs)
        return 1.0 / np.sqrt(self.pair_variances)


def build_design(exchanges: TimestampExchangeSet, L: int,
                 noise: Optional[NoiseModel] = None,
                 pair_variances=None) -> DesignSystem:
    """Assemble the per-pair systems from an exchange set.

    The regressor markers are the lower-indexed node's recorded stamps, and
    the measurements are the signed marker differences.  Pass either a
    NoiseModel (converted to per-pair delay variances) or explicit
    pair_variances; omitting both solves unweighted.
    """
    if noise is not None and pair_variances is not None:
        raise ValueError("pass a NoiseModel or pair_variances, not both")
    if noise is not None:
        cov = effective_noise_covariance(noise, exchanges.n_nodes, exchanges.K, exchanges.c)
        pair_variances = cov.pair_variances
        if np.all(pair_variances == 0):
            pair_variances = None  # noiseless: unit weights
        elif np.any(pair_variances == 0):
            raise ValueError("some pairs have zero delay variance; WLS weights undefined")
    return DesignSystem(
        markers=exchanges.t_i,
        tau=exchanges.tau(),
        L=L,
        n_nodes=exchanges.n_nodes,
        c=exchanges.c,
        pair_variances=pair_variances,
    )


# A pair is rank deficient when a diagonal entry of its R factor falls below
# this fraction of the pair's largest one.
_RANK_RTOL = 1e-13


class _PairFit(NamedTuple):
    theta: np.ndarray  # (Nbar, L) scaled coefficients
    cov: np.ndarray    # (Nbar, L, L) scaled-domain covariance, var_p (V_p^T V_p)^-1
    rss: np.ndarray    # (Nbar,) whitened residual sum of squares


def _fit_pairs(sys: DesignSystem, L: Optional[int] = None) -> _PairFit:
    """Whitened least squares of every pair on its first L Vandermonde columns.

    One batched QR factors the whole (Nbar, K, L+1) stack [V_p | tau_p] / sigma_p.
    Its last column carries Q^T tau above the diagonal and the residual below,
    so Q is never formed, and neither are the normal equations.  L defaults
    to the system's order.

    Raises:
        RankDeficiencyError: naming every pair whose block loses column rank.
    """
    V = sys.vandermonde()[:, :, :L]
    L = V.shape[-1]
    stack = np.concatenate([V, sys.tau[..., None]], axis=-1)
    stack *= sys.pair_weights()[:, None, None]
    r = np.linalg.qr(stack, mode="r")
    R = r[:, :L, :L]
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    bad = np.flatnonzero(np.any(diag < _RANK_RTOL * diag.max(axis=1, keepdims=True), axis=1))
    if bad.size:
        pairs = canonical_pairs(sys.n_nodes)
        raise RankDeficiencyError(f"rank-deficient design; offending pairs {[pairs[p] for p in bad]}")
    rinv = np.linalg.inv(R)
    return _PairFit(theta=np.linalg.solve(R, r[:, :L, L:])[..., 0],
                    cov=rinv @ rinv.transpose(0, 2, 1),
                    rss=np.sum(r[:, L:, L] ** 2, axis=1))


def wls_solve(sys: DesignSystem) -> RangeCoefficients:
    """Weighted least squares of every pair's K x L Vandermonde system.

    With block-diagonal covariance the network-wide WLS solution is the
    stack of the per-pair solutions, so this one routine is both the global
    and the distributed estimate.  With a full-rank design and polynomial-
    consistent noiseless measurements the recovery is exact to solver
    precision.  The solution is invariant to scaling all variances by a
    positive constant.

    Raises:
        RankDeficiencyError: naming the offending pair(s) when a block
            loses column rank.
    """
    return RangeCoefficients(scaled=_fit_pairs(sys).theta, n_nodes=sys.n_nodes, c=sys.c)


pairwise_solve = wls_solve


@dataclass
class RangeCrb:
    """Lower bound on the covariance of unbiased range-coefficient estimates.

    `cov` is the (Nbar, L, L) stack of per-pair bounds on the physical
    coefficients; pairs are independent, so the network-wide bound is block
    diagonal with these blocks.  `block(ell)` is the Nbar x Nbar (diagonal)
    bound of coefficient order ell.  The bound depends on the markers and
    the noise covariance only, so it is unaffected by direction flags.
    """

    cov: np.ndarray
    n_nodes: int

    @property
    def L(self) -> int:
        return self.cov.shape[-1]

    def block(self, ell: int) -> np.ndarray:
        return np.diag(self.cov[:, ell, ell])

    def rcrb(self, ell: int) -> float:
        """Root bound on the vector RMSE of coefficient order ell."""
        return float(np.sqrt(np.sum(self.cov[:, ell, ell])))

    def per_pair_rcrb(self, ell: int) -> np.ndarray:
        return np.sqrt(self.cov[:, ell, ell])


def crb_theta(sys: DesignSystem) -> RangeCrb:
    """Cramer-Rao bound on the physical range coefficients.

    Computed from the per-pair QR factors of the whitened design; the
    scaled-domain bound is conjugated by the diagonal rescaling map.

    Raises:
        ValueError: if the system declares no noise covariance.
        RankDeficiencyError: if a whitened block is column rank deficient.
    """
    if sys.pair_variances is None:
        raise ValueError("crb_theta requires pair_variances on the design system")
    f = scale_factors(sys.L, sys.c)
    return RangeCrb(cov=_fit_pairs(sys).cov * np.outer(f, f), n_nodes=sys.n_nodes)


def order_select(exchanges: TimestampExchangeSet, L_max: int,
                 noise: Optional[NoiseModel] = None,
                 rel_improvement: float = 0.01) -> tuple[int, RangeCoefficients]:
    """Order-recursive fit: grow L until the residual stops improving.

    Fits L = 1..L_max and selects the smallest L whose residual sum of
    squares either reaches solver noise or improves by less than
    `rel_improvement` when one more order is added.  The default pipeline
    bypasses this selection with a fixed order.
    """
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    sys_max = build_design(exchanges, L_max, noise=noise)
    b = sys_max.tau * sys_max.pair_weights()[:, None]
    floor = (1e-12 * max(np.linalg.norm(b), 1e-300)) ** 2
    # the order-L design is the first L columns of the widest Vandermonde stack
    fits = [_fit_pairs(sys_max, L) for L in range(1, L_max + 1)]
    rss = [float(np.sum(fit.rss)) for fit in fits]
    chosen = L_max
    for idx in range(L_max):
        if rss[idx] <= floor:
            chosen = idx + 1
            break
        if idx + 1 < L_max and (rss[idx] - rss[idx + 1]) < rel_improvement * rss[idx]:
            chosen = idx + 1
            break
    return chosen, RangeCoefficients(scaled=fits[chosen - 1].theta,
                                     n_nodes=sys_max.n_nodes, c=sys_max.c)
