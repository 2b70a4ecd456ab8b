"""Fisher information and Cramer-Rao bounds for relative positions and velocities.

Links are independent, so each noise covariance is diagonal over pairs and
is carried as an (Nbar,) vector of per-pair variances (a diagonal
Nbar x Nbar matrix is reduced to its diagonal; a nonzero off-diagonal entry
raises UnsupportedCovarianceError), each variance finite and > 0, the rule
of every pair variance (else ConfigError naming the field and the pair).
Each information matrix is then one weighted pair-difference Gram over the
canonical pairs p = (i, j),

    F = sum_p w_p a_p a_p^T,    a_p = (e_i - e_j) kron (z_i - z_j),

from the ranges for positions (z = x) and from the squared velocity
differences r rddot + rdot^2 for velocities (z = y), assembled in
O(Nbar P^2): off-diagonal blocks -w_p g_p g_p^T, diagonal blocks minus the
sum of their row.  Only pair differences enter, so callers pass X and Y as
they are: centering them changes F by rounding alone.  Translations and a
global rotation are unidentifiable, so for P = 2 both matrices are
structurally rank deficient by exactly 3 and the bound is the trace of the
pseudo-inverse truncated by that deficiency (inf where the measurements
leave a further direction uninformed, see `crb_trace`).

By default each pair is listed in both orderings (2 Nbar measurements),
which doubles every weight; duplicate_pairs=False gives the
Nbar-measurement variant (exactly half the information).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DegenerateGeometryError, UnsupportedCovarianceError
from .kinematics import RangeMatrices, canonical_pairs, check_pair_variances, pair_count, pair_index

__all__ = [
    "FisherInfo",
    "RangeNoiseCovariances",
    "fim_position",
    "fim_velocity",
    "crb_trace",
]


@dataclass
class FisherInfo:
    """Fisher information matrix with its structural rank deficiency.

    For a generic P-dimensional relative configuration the null space
    holds the P translations plus the P(P-1)/2 infinitesimal rotations.
    """

    matrix: np.ndarray
    structural_deficiency: int

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _pair_variances(sigma, name: str) -> np.ndarray:
    """(Nbar,) per-pair variances from a vector or a diagonal Nbar x Nbar matrix.

    Raises:
        UnsupportedCovarianceError: if `sigma` is neither a vector nor a
            square matrix, or a matrix has a nonzero or NaN off-diagonal entry.
        ConfigError: naming `name` and the first pair whose variance is
            zero, negative, NaN or infinite.
    """
    var = np.asarray(sigma, float)
    if var.ndim != 1:
        n = var.shape[0] if var.ndim == 2 else -1  # -1: no (n, n) shape matches
        # the off-diagonal entries: after the first, each run of n+1 entries
        # holds n off the diagonal, then one on it
        if var.shape != (n, n) or var.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].any():
            raise UnsupportedCovarianceError(f"{name} is not a diagonal pair covariance; "
                                             "links must be independent")
        var = var.diagonal().copy()
    check_pair_variances(var, name)
    return var


@dataclass
class RangeNoiseCovariances:
    """Per-pair variances of the estimated r, rdot and rddot coefficients.

    Each field is an (Nbar,) vector in canonical pair order, all three of one
    length (else ConfigError).  A diagonal Nbar x Nbar covariance matrix is
    also accepted and reduced to its diagonal; see `_pair_variances`.
    """

    Sigma_r: np.ndarray
    Sigma_rdot: np.ndarray
    Sigma_rddot: np.ndarray

    def __post_init__(self):
        for name in ("Sigma_r", "Sigma_rdot", "Sigma_rddot"):
            setattr(self, name, _pair_variances(getattr(self, name), name))
        lengths = [len(self.Sigma_r), len(self.Sigma_rdot), len(self.Sigma_rddot)]
        if len(set(lengths)) > 1:
            raise ConfigError(f"Sigma_r, Sigma_rdot, Sigma_rddot must share one length, "
                              f"got {lengths}")

    @classmethod
    def from_theta_crb(cls, crb) -> "RangeNoiseCovariances":
        """Per-pair variances of the first three orders of a range-coefficient bound."""
        if crb.L < 3:
            raise ValueError("need coefficient orders r, rdot, rddot (L >= 3)")
        return cls(*(crb.cov[:, ell, ell] for ell in range(3)))


def _check_pair_count(var: np.ndarray, n: int) -> None:
    if len(var) != pair_count(n):
        raise ValueError(f"{len(var)} pair variances for {n} nodes")


def _pair_fisher(Z: np.ndarray, w: np.ndarray) -> FisherInfo:
    """sum_p w_p a_p a_p^T with a_p = (e_i - e_j) kron (z_i - z_j), as an
    (N P) x (N P) information matrix ordered like vec(Z)."""
    P, n = Z.shape
    i, j = pair_index(n)
    g = Z.take(i, axis=1) - Z.take(j, axis=1)
    off = np.moveaxis(g[:, None, :] * g[None, :, :] * -w, -1, 0)
    F = np.zeros((n, n, P, P))
    F[i, j] = off
    F[j, i] = off
    F[np.arange(n), np.arange(n)] = -F.sum(axis=1)
    return FisherInfo(matrix=F.transpose(0, 2, 1, 3).reshape(n * P, n * P),
                      structural_deficiency=P + P * (P - 1) // 2)


def fim_position(Xrel: np.ndarray, Sigma_r, duplicate_pairs: bool = True) -> FisherInfo:
    """Fisher information of the stacked relative positions vec(Xrel).

    The Jacobian row of pair (i, j) is the unit direction
    (x_i - x_j)/d_ij placed in node i's block and negated in node j's, so
    the pair weight is 1/(d_ij^2 var_r).  Translating the whole
    configuration leaves the matrix unchanged.

    Raises:
        ConfigError: naming the first pair whose range variance is zero,
            negative, NaN or infinite.
        DegenerateGeometryError: if any two nodes coincide.
    """
    Xrel = np.asarray(Xrel, float)
    _, n = Xrel.shape
    var = _pair_variances(Sigma_r, "Sigma_r")
    _check_pair_count(var, n)
    i, j = pair_index(n)
    d2 = np.sum((Xrel.take(i, axis=1) - Xrel.take(j, axis=1)) ** 2, axis=0)
    if not np.all(d2):
        p = int(np.argmin(d2))
        raise DegenerateGeometryError(f"nodes {(int(i[p]), int(j[p]))} coincide")
    w = (2.0 if duplicate_pairs else 1.0) / (d2 * var)
    return _pair_fisher(Xrel, w)


def fim_velocity(Yrel: np.ndarray, rm: RangeMatrices, covs: RangeNoiseCovariances,
                 duplicate_pairs: bool = True) -> FisherInfo:
    """Fisher information of the stacked relative velocities vec(Yrel).

    The measurement for pair (i, j) is the squared velocity difference
    r rddot + rdot^2, whose Jacobian row is 2 (y_i - y_j) with pair signs.
    Its noise, to first order in the coefficient errors, is
    r q_rddot + rddot q_r + 2 rdot q_rdot, with per-pair variance

        s = r^2 var_rddot + rddot^2 var_r + 4 rdot^2 var_rdot,

    so the pair weight is 4/s.  Every variance of `covs` is > 0, so s is
    zero only for a pair at zero range in `rm` (r, rdot and rddot all zero),
    which raises DegenerateGeometryError naming the pair.  Equal velocities
    give F = 0, which `crb_trace` reads as inf.  `rm`, `covs` and Yrel must
    describe one network: another node or pair count raises ValueError.
    """
    Yrel = np.asarray(Yrel, float)
    if rm.n != Yrel.shape[1]:
        raise ValueError(f"range matrices of {rm.n} nodes for {Yrel.shape[1]} nodes")
    r, rdot, rddot = rm.pair_vectors()
    _check_pair_count(covs.Sigma_r, Yrel.shape[1])
    s = r**2 * covs.Sigma_rddot + rddot**2 * covs.Sigma_r + 4.0 * rdot**2 * covs.Sigma_rdot
    if not np.all(s > 0):
        p = int(np.argmin(s > 0))
        raise DegenerateGeometryError(f"nodes {canonical_pairs(Yrel.shape[1])[p]} are at zero "
                                      f"range in rm: their velocity measurement variance is "
                                      f"{float(s[p])!r}")
    w = (8.0 if duplicate_pairs else 4.0) / s
    return _pair_fisher(Yrel, w)


def crb_trace(fi: FisherInfo) -> float:
    """Trace of the pseudo-inverse of an information matrix, truncated by its
    structural rank deficiency.

    The `fi.structural_deficiency` smallest eigenvalues are the zeros of the
    relative-geometry null space (translations and rotations) and are
    excluded.  If any other eigenvalue is at or below the eigensolver's
    rounding scale, fi.size * eps times the largest (eps the float64 machine
    epsilon), a direction beyond that null space is not informed (equal or
    collinear velocities, collinear positions, F = 0) and the bound is inf.
    Above it, however small, the bound is the finite sum of the inverses.
    """
    lam = np.linalg.eigvalsh(fi.matrix)[fi.structural_deficiency:]
    if lam.size and not lam[0] > fi.size * np.finfo(float).eps * lam[-1]:
        return math.inf
    return float(np.sum(1.0 / lam))
