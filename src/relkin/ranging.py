"""Polynomial range-coefficient estimation from timestamp exchanges.

The measured delay of a pair is modeled as a degree-(L-1) polynomial in the
transmit marker, so K messages give one K x L Vandermonde block per pair.
Links are pairwise independent, so the delay covariance is block diagonal
and the network-wide weighted least-squares problem splits into independent
per-pair solves.  One batched kernel whitens the (Nbar, K, L) stack of
blocks and QR-factors every pair at once; the WLS estimate and its
Cramer-Rao bound both read from it.  A design system holds one network;
the Monte Carlo engine stacks its trials' rows into the same kernel.  A diagonal rescaling
converts the scaled coefficients to the physical range derivatives (meters,
m/s, m/s^2, ...):

    theta_ell = SPEED_OF_LIGHT * ell! * theta_scaled_ell
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import RankDeficiencyError
from .kinematics import RangeMatrices, canonical_pairs, check_pair_variances, pair_count
from .twr import SPEED_OF_LIGHT, NoiseModel, TimestampExchangeSet, effective_noise_covariance

__all__ = [
    "RangeCoefficients",
    "DesignSystem",
    "RangeCrb",
    "scale_factors",
    "build_design",
    "wls_solve",
    "pairwise_solve",
    "crb_theta",
]


def scale_factors(L: int) -> np.ndarray:
    """Diagonal factors f_ell = SPEED_OF_LIGHT * ell! mapping scaled to physical coefficients."""
    return SPEED_OF_LIGHT * np.array([math.factorial(ell) for ell in range(L)], dtype=float)


@dataclass
class RangeCoefficients:
    """Estimated range polynomial coefficients for every pair.

    Attributes:
        scaled: (Nbar, L) scaled coefficients (seconds-domain polynomial),
            or (..., Nbar, L) for a batch of networks.
        n_nodes: number of nodes (pairs follow canonical order).
    """

    scaled: np.ndarray
    n_nodes: int

    def __post_init__(self):
        self.scaled = np.atleast_2d(np.asarray(self.scaled, float))
        nbar = pair_count(self.n_nodes)
        if self.scaled.shape[-2] != nbar:
            raise ValueError(f"expected {nbar} pair rows, got {self.scaled.shape[-2]}")

    @property
    def L(self) -> int:
        return self.scaled.shape[-1]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return canonical_pairs(self.n_nodes)

    @property
    def physical(self) -> np.ndarray:
        """(..., Nbar, L) physical coefficients: r (m), rdot (m/s), rddot (m/s^2), ..."""
        return self.scaled * scale_factors(self.L)

    def to_range_matrices(self) -> RangeMatrices:
        """Symmetric N x N range matrices from the orders r, rdot and rddot (L >= 3)."""
        r, rdot, rddot = np.moveaxis(self.physical[..., :3], -1, 0)
        return RangeMatrices.from_pair_vectors(self.n_nodes, r, rdot, rddot)


@dataclass
class DesignSystem:
    """Per-pair measurement systems of the whole network.

    Attributes:
        markers: (Nbar, K) regressor markers per pair (lower-indexed node's).
        tau: (Nbar, K) measured delays.
        L: number of polynomial coefficients per pair.
        n_nodes: node count.
        pair_variances: (Nbar,) delay variances (seconds^2), each finite
            and > 0, or None for unit weights.  Block-diagonal covariance
            bdiag(var_p I_K) is the only structure supported.

    Raises:
        ValueError: unless markers and tau share one (Nbar, K) shape.
        ConfigError: naming the first pair whose delay variance is zero (as
            one that underflowed), negative or not finite (as one that
            overflowed); see :func:`~relkin.kinematics.check_pair_variances`.
    """

    markers: np.ndarray
    tau: np.ndarray
    L: int
    n_nodes: int
    pair_variances: Optional[np.ndarray] = None

    def __post_init__(self):
        self.markers = np.asarray(self.markers, float)
        self.tau = np.asarray(self.tau, float)
        nbar = pair_count(self.n_nodes)
        if self.markers.shape != self.tau.shape or self.markers.ndim != 2 \
                or len(self.markers) != nbar:
            raise ValueError(f"markers and tau must share one ({nbar}, K) shape, "
                             f"got {self.markers.shape} and {self.tau.shape}")
        if self.L < 1:
            raise ValueError("polynomial order count L must be >= 1")
        if self.pair_variances is not None:
            self.pair_variances = np.asarray(self.pair_variances, float)
            if self.pair_variances.shape != (nbar,):
                raise ValueError("pair_variances must have one entry per pair")
            check_pair_variances(self.pair_variances, "delay variance")

    @property
    def K(self) -> int:
        return self.markers.shape[1]

    @property
    def n_pairs(self) -> int:
        return self.markers.shape[0]

    @property
    def weights(self) -> Optional[np.ndarray]:
        """(Nbar,) whitening weights 1/sigma_p of the pairs, or None for unit weights."""
        return None if self.pair_variances is None else 1.0 / np.sqrt(self.pair_variances)

    def _rows(self) -> np.ndarray:
        """Contiguous (Nbar, L+1, K) rows 1, t, ..., t^(L-1), tau of every pair."""
        rows = np.empty((self.n_pairs, self.L + 1, self.K))
        rows[:, 1] = self.markers  # overwritten by tau when L = 1
        _fill_powers(rows)
        rows[:, self.L] = self.tau
        return rows


def _fill_powers(rows: np.ndarray) -> None:
    """Fill a (..., L+1, K) row stack's rows 0 and 2, ..., L-1 with 1, t^2, ..., t^(L-1),
    for the markers t in its row 1; row 1 and row L (the delays) are left as they are.

    Each power is the one below it times t, so row ell is bit-identical to
    1 * t * ... * t multiplied left to right.
    """
    rows[..., 0, :] = 1.0
    for ell in range(2, rows.shape[-2] - 1):
        np.multiply(rows[..., ell - 1, :], rows[..., 1, :], out=rows[..., ell, :])


def build_design(exchanges: TimestampExchangeSet, L: int,
                 noise: Optional[NoiseModel] = None) -> DesignSystem:
    """Assemble the per-pair systems from an exchange set.

    The regressor markers are the lower-indexed node's recorded stamps, and
    the measurements are the signed marker differences.  The pairs are
    weighted by the delay variances of `noise`; without a noise model, or
    with one whose sigmas are all zero, the design is unweighted.

    Raises:
        ConfigError: where :class:`DesignSystem` rejects a pair variance.
    """
    noisy = noise is not None and np.any(noise.sigma)
    return DesignSystem(
        markers=exchanges.t_i,
        tau=exchanges.tau(),
        L=L,
        n_nodes=exchanges.n_nodes,
        pair_variances=effective_noise_covariance(noise, exchanges.n_nodes) if noisy else None,
    )


# A pair is rank deficient when a diagonal entry of its R factor falls below
# this fraction of the pair's largest one.
_RANK_RTOL = 1e-13


class _PairFit(NamedTuple):
    theta: np.ndarray  # (..., Nbar, L) scaled coefficients
    R: np.ndarray      # (..., Nbar, L, L) R factor of the whitened block V_p / sigma_p
    rss: np.ndarray    # (..., Nbar) whitened residual sum of squares
    bad: np.ndarray    # (..., Nbar) True where the block loses column rank

    @property
    def cov(self) -> np.ndarray:
        """(..., Nbar, L, L) scaled-domain covariance var_p (V_p^T V_p)^-1 = R^-1 R^-T."""
        rinv = np.linalg.inv(self.R)
        return rinv @ rinv.swapaxes(-1, -2)


def _fit_stack(rows: np.ndarray, weights: Optional[np.ndarray]) -> _PairFit:
    """Whitened least squares of every pair from its rows [1, t, ..., t^(L-1), tau].

    `rows` is a (..., Nbar, L+1, K) stack (see :meth:`DesignSystem._rows`),
    contiguous or strided (the experiment engine's is coefficient-major); it
    is whitened in place by the (Nbar,) `weights` 1/sigma_p, unless those are
    None.  One batched QR factors the whole (..., Nbar, K, L+1) stack
    [V_p | tau_p] / sigma_p; numpy's qr copies it, whatever its strides, into
    the column-major blocks LAPACK reads, so the layout changes no bit.  Its
    last column carries Q^T tau above the diagonal and the residual below,
    so Q is never formed, and neither are the normal equations.  This is the
    package's one rank test: a pair whose block loses column rank (repeated
    markers, fewer than L messages, or a block of zeros) is flagged in `bad`
    and solved against an identity R instead, so its theta and cov are
    finite but meaningless.
    """
    L, K = rows.shape[-2] - 1, rows.shape[-1]
    if weights is not None:
        rows *= weights[:, None, None]
    r = np.linalg.qr(rows.swapaxes(-1, -2), mode="r")
    if K < L:  # R has only K rows; the missing diagonal entries are zero
        r = np.concatenate([r, np.zeros(r.shape[:-2] + (L - K, L + 1))], axis=-2)
    R = r[..., :L, :L]
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    # <=, so that a block of zeros, whose largest entry is 0, is flagged too
    bad = np.any(diag <= _RANK_RTOL * diag.max(axis=-1, keepdims=True), axis=-1)
    if bad.any():
        R = np.where(bad[..., None, None], np.eye(L), R)
    return _PairFit(theta=np.linalg.solve(R, r[..., :L, L:])[..., 0], R=R,
                    rss=np.sum(r[..., L:, L] ** 2, axis=-1), bad=bad)


def _full_rank_fit(sys: DesignSystem) -> _PairFit:
    """:func:`_fit_stack` of every pair's Vandermonde block, raising where it flags a pair.

    Raises:
        RankDeficiencyError: naming every pair whose block loses column rank.
    """
    fit = _fit_stack(sys._rows(), sys.weights)
    bad = np.flatnonzero(fit.bad)
    if bad.size:
        pairs = canonical_pairs(sys.n_nodes)
        raise RankDeficiencyError(
            f"rank-deficient design; offending pairs {[pairs[p] for p in bad]}")
    return fit


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
    return RangeCoefficients(scaled=_full_rank_fit(sys).theta, n_nodes=sys.n_nodes)


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
        ConfigError: if a pair's bound of some order is not finite and > 0
            (a huge noise variance overflows it), naming the order and pair.
    """
    return _solve_with_crb(sys)[1]


def _solve_with_crb(sys: DesignSystem) -> tuple[RangeCoefficients, RangeCrb]:
    """:func:`wls_solve` and :func:`crb_theta` of one system from a single fit.

    Raises as :func:`crb_theta` does.
    """
    if sys.pair_variances is None:
        raise ValueError("crb_theta requires pair_variances on the design system")
    fit = _full_rank_fit(sys)
    f = scale_factors(sys.L)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected just below
        cov = fit.cov * np.outer(f, f)
    for ell in range(sys.L):
        check_pair_variances(cov[:, ell, ell], f"order-{ell} coefficient bound")
    return RangeCoefficients(scaled=fit.theta, n_nodes=sys.n_nodes), RangeCrb(cov=cov)
