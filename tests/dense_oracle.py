"""Dense network-wide forms, kept as references for the structured production code.

The stacked design is the (Nbar K) x (Nbar L) matrix with columns grouped by
coefficient order, [r_all_pairs, rdot_all_pairs, ...], and the noise
covariance is the dense diagonal bdiag(var_p I_K).  Both are structurally
block diagonal, so production code never forms them; the tests compare the
batched per-pair solver against this direct route.

Likewise the position/velocity information matrices are checked against
J^T Sigma^-1 J from the dense Nbar x (N P) pair-difference Jacobian, and the
rotation system against the dense (I + J)(Yrel^T kron Xrel^T) with the
N^2 x N^2 commutation matrix J.  Orthogonal Procrustes is checked against the
SVD formula, which production code keeps only outside the plane.
"""

import numpy as np
from scipy.linalg import block_diag

from relkin.kinematics import canonical_pairs
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
    f = np.repeat(scale_factors(sys.L), sys.n_pairs)
    return np.linalg.inv(fim) * np.outer(f, f)


def per_pair_blocks(dense: np.ndarray, nbar: int, L: int) -> np.ndarray:
    """(Nbar, L, L) per-pair blocks of a coefficient-major (Nbar L)^2 matrix."""
    return np.einsum("lpmp->plm", dense.reshape(L, nbar, L, nbar))


def pair_difference_jacobian(Z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Nbar x (N P) Jacobian with row p holding +s_p g_p in node-i's block and
    -s_p g_p in node-j's, where g_p = z_i - z_j."""
    P, n = Z.shape
    pairs = canonical_pairs(n)
    J = np.zeros((len(pairs), n * P))
    for p, (i, j) in enumerate(pairs):
        g = scale[p] * (Z[:, i] - Z[:, j])
        J[p, i * P:(i + 1) * P] = g
        J[p, j * P:(j + 1) * P] = -g
    return J


def fim(J: np.ndarray, Sigma: np.ndarray, duplicate_pairs: bool) -> np.ndarray:
    """J^T Sigma^-1 J by a dense solve; duplicate_pairs stacks [J; J] against bdiag(Sigma, Sigma)."""
    if duplicate_pairs:
        J, Sigma = np.vstack([J, J]), block_diag(Sigma, Sigma)
    F = J.T @ np.linalg.solve(Sigma, J)
    return 0.5 * (F + F.T)


def fim_position(Xrel: np.ndarray, var_r: np.ndarray, duplicate_pairs: bool) -> np.ndarray:
    """Position information from unit-direction Jacobian rows and the dense diag(var_r)."""
    i, j = np.triu_indices(Xrel.shape[1], k=1)
    d = np.linalg.norm(Xrel[:, i] - Xrel[:, j], axis=0)
    return fim(pair_difference_jacobian(Xrel, 1.0 / d), np.diag(var_r), duplicate_pairs)


def velocity_covariance(rm, var_r, var_rdot, var_rddot) -> np.ndarray:
    """Dense Dr S_rddot Dr + Drddot S_r Drddot + 4 Drdot S_rdot Drdot."""
    dr, drdot, drddot = (np.diag(v) for v in rm.pair_vectors())
    return (dr @ np.diag(var_rddot) @ dr + drddot @ np.diag(var_r) @ drddot
            + 4.0 * drdot @ np.diag(var_rdot) @ drdot)


def fim_velocity(Yrel: np.ndarray, Sigma: np.ndarray, duplicate_pairs: bool) -> np.ndarray:
    """Velocity information from the Jacobian rows 2 g_p and a dense covariance."""
    J = pair_difference_jacobian(Yrel, np.full(Sigma.shape[0], 2.0))
    return fim(J, Sigma, duplicate_pairs)


def commutation_matrix(n: int) -> np.ndarray:
    """Permutation J with J vec(M) = vec(M^T) for n x n M (column-major vec)."""
    J = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            J[i + j * n, j + i * n] = 1.0
    return J


def rotation_system(Xrel: np.ndarray, Yrel: np.ndarray) -> np.ndarray:
    """The dense N^2 x P^2 matrix (I + J)(Yrel^T kron Xrel^T) of the rotation model."""
    n = Xrel.shape[1]
    return (np.eye(n * n) + commutation_matrix(n)) @ np.kron(Yrel.T, Xrel.T)


def rotation(Xrel: np.ndarray, Yrel: np.ndarray, Bxy: np.ndarray) -> tuple[np.ndarray, int]:
    """P x P rotation from lstsq on the dense rotation system, and the rank lstsq found."""
    P = Xrel.shape[0]
    G = rotation_system(Xrel, Yrel)
    h, _, rank, _ = np.linalg.lstsq(G, Bxy.reshape(-1, order="F"), rcond=None)
    return h.reshape(P, P, order="F"), int(rank)


def polar(A: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U V^T of every U S V^T in a (..., P, P) stack."""
    u, _, vt = np.linalg.svd(A)
    return u @ vt


def procrustes(Z: np.ndarray, Zhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal H = V U^T from the SVD U S V^T = Zhat Z^T, and ||Z - H Zhat||_F."""
    u, _, vt = np.linalg.svd(Zhat @ Z.swapaxes(-1, -2))
    H = vt.swapaxes(-1, -2) @ u.swapaxes(-1, -2)
    return H, np.linalg.norm(Z - H @ Zhat, axis=(-2, -1))
