"""Dense network-wide WLS and theta-CRB, kept as a reference for the per-pair kernel.

The stacked design is the (Nbar K) x (Nbar L) matrix with columns grouped by
coefficient order, [r_all_pairs, rdot_all_pairs, ...], and the noise
covariance is the dense diagonal bdiag(var_p I_K).  Both are structurally
block diagonal, so production code never forms them; the tests compare the
batched per-pair solver against this direct route.
"""

import numpy as np

from relkin.ranging import scale_factors


def global_matrix(sys) -> np.ndarray:
    """Dense (Nbar K) x (Nbar L) design; columns grouped by coefficient order."""
    nbar, K, L = sys.n_pairs, sys.K, sys.L
    A = np.zeros((nbar * K, nbar * L))
    for p in range(nbar):
        block = np.vander(sys.markers[p], L, increasing=True)
        rows = slice(p * K, (p + 1) * K)
        for ell in range(L):
            A[rows, ell * nbar + p] = block[:, ell]
    return A


def noise_covariance(pair_variances, K: int) -> np.ndarray:
    """Dense (Nbar K) x (Nbar K) covariance bdiag(var_p I_K)."""
    return np.diag(np.repeat(np.asarray(pair_variances, float), K))


def _whitened(sys):
    var = np.ones(sys.n_pairs) if sys.pair_variances is None else sys.pair_variances
    w = np.repeat(1.0 / np.sqrt(var), sys.K)
    return global_matrix(sys) * w[:, None], sys.tau.ravel() * w


def wls(sys) -> np.ndarray:
    """(Nbar, L) scaled WLS coefficients from one lstsq on the whitened dense system."""
    A, b = _whitened(sys)
    theta, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    assert rank == sys.n_pairs * sys.L
    return theta.reshape(sys.L, sys.n_pairs).T


def crb(sys) -> np.ndarray:
    """(Nbar L) x (Nbar L) physical-coefficient bound inv(A^T S^-1 A), conjugated by f."""
    A = global_matrix(sys)
    fim = A.T @ np.linalg.inv(noise_covariance(sys.pair_variances, sys.K)) @ A
    f = np.repeat(scale_factors(sys.L, sys.c), sys.n_pairs)
    return np.linalg.inv(fim) * np.outer(f, f)


def per_pair_blocks(dense: np.ndarray, nbar: int, L: int) -> np.ndarray:
    """(Nbar, L, L) per-pair blocks of a coefficient-major (Nbar L)^2 matrix."""
    return np.einsum("lpmp->plm", dense.reshape(L, nbar, L, nbar))
