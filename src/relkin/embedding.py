"""Relative positions, velocities and the velocity rotation from range matrices.

Double-centering the squared ranges and their derivative combinations gives
three kinematic Gram matrices:

    Bxx = -0.5 P R^o2 P            = Xc^T Xc
    Bxy = -P (R o Rdot) P          = Xc^T H Yc + Yc^T H^T Xc
    Byy = -0.5 P (R o Rddot + Rdot^o2) P = Yc^T Yc

where Xc, Yc are the centered node positions/velocities in their own frames
and H is the orthogonal matrix relating the velocity frame to the position
frame at t0.  Spectral factorization of Bxx and Byy yields the relative
position and velocity configurations (up to rotation/reflection); H is then
recovered from Bxy by vectorizing its bilinear model into a small linear
system.  Translations are unidentifiable from pairwise ranges and are fixed
to zero throughout, so positions propagate as Xc + t * H Yc, valid up to a
single global translation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import EmbeddingClampWarning, EmbeddingFailureError, IllPosedRotationError
from .kinematics import RangeMatrices, centering_matrix

__all__ = [
    "KinematicGrams",
    "RelativeSolution",
    "grams_from_ranges",
    "spectral_embed",
    "classical_mds",
    "rotation_model",
    "estimate_rotation",
    "solve_relative",
    "position_at_time",
    "procrustes_align",
]


@dataclass
class KinematicGrams:
    """Doubly centered Gram matrices of the relative kinematics.

    All three satisfy B 1 = 0.  Bxx and Byy are PSD with rank <= P when
    built from exact ranges; Bxy is symmetric but indefinite.
    """

    Bxx: np.ndarray
    Bxy: np.ndarray
    Byy: np.ndarray

    @property
    def n(self) -> int:
        return self.Bxx.shape[0]


def grams_from_ranges(rm: RangeMatrices) -> KinematicGrams:
    """Kinematic Grams from the range matrices via double centering."""
    pc = centering_matrix(rm.n)
    bxx = -0.5 * pc @ (rm.R**2) @ pc
    bxy = -pc @ (rm.R * rm.Rdot) @ pc
    byy = -0.5 * pc @ (rm.R * rm.Rddot + rm.Rdot**2) @ pc
    return KinematicGrams(Bxx=bxx, Bxy=bxy, Byy=byy)


def spectral_embed(B: np.ndarray, P: int) -> np.ndarray:
    """P x N configuration whose Gram reproduces the top of B.

    Takes the P algebraically largest eigenvalues and returns
    sqrt(Lambda) U^T.  Negative eigenvalues among the top P (noise in an
    estimated Gram) are clamped to zero with an EmbeddingClampWarning.
    Row signs are canonicalized (largest-magnitude entry positive) so the
    output is deterministic across eigensolver sign choices.

    Raises:
        EmbeddingFailureError: if no positive eigenvalue exists, i.e. the
            matrix admits no nonzero embedding.
    """
    B = np.asarray(B, float)
    n = B.shape[0]
    if not 1 <= P <= n:
        raise ValueError(f"need 1 <= P <= N, got P={P}, N={n}")
    lam, vec = np.linalg.eigh(B)
    lam, vec = lam[::-1], vec[:, ::-1]
    lam_top = lam[:P].copy()
    if lam_top[0] <= 0.0:
        raise EmbeddingFailureError(
            f"no positive eigenvalue (largest {lam_top[0]:.3e}); cannot embed in {P} dimensions"
        )
    n_neg = int(np.sum(lam_top < 0.0))
    if n_neg:
        warnings.warn(
            f"clamped {n_neg} negative eigenvalue(s) in a rank-{P} embedding",
            EmbeddingClampWarning,
            stacklevel=2,
        )
        lam_top = np.clip(lam_top, 0.0, None)
    config = np.sqrt(lam_top)[:, None] * vec[:, :P].T
    signs = np.sign(config[np.arange(P), np.argmax(np.abs(config), axis=1)])
    signs[signs == 0] = 1.0
    return config * signs[:, None]


def classical_mds(D: np.ndarray, P: int) -> np.ndarray:
    """Classical MDS embedding of one Euclidean distance matrix.

    The result is a valid configuration up to an arbitrary rotation,
    reflection and translation.
    """
    D = np.asarray(D, float)
    pc = centering_matrix(D.shape[0])
    return spectral_embed(-0.5 * pc @ (D**2) @ pc, P)


def _vec(M: np.ndarray) -> np.ndarray:
    return np.asarray(M).reshape(-1, order="F")


def rotation_model(Xrel: np.ndarray, Yrel: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Predicted cross Gram Xrel^T H Yrel + Yrel^T H^T Xrel."""
    return Xrel.T @ H @ Yrel + Yrel.T @ H.T @ Xrel


def estimate_rotation(Xrel: np.ndarray, Yrel: np.ndarray, Bxy: np.ndarray,
                      orthogonalize: bool = False) -> np.ndarray:
    """Rotation relating the velocity frame to the position frame.

    Vectorizing the bilinear model gives

        vec(Bxy) = (I + J)(Yrel^T kron Xrel^T) vec(H) = G vec(H)

    solved in the least-squares sense.  J, with J vec(M) = vec(M^T), only
    permutes rows and is never formed: viewing K = Yrel^T kron Xrel^T as
    (N, N, P^2), J K swaps the first two axes, which gives the dense G bit
    for bit in O(N^2 P^2).  The unconstrained solution does not enforce
    orthogonality; with exact inputs its orthogonality defect is at
    roundoff level.  Pass orthogonalize=True to project onto the
    orthogonal group via the polar factor.

    Raises:
        IllPosedRotationError: if G is column rank deficient (needs N >= P
            with full-row-rank configurations).
    """
    P, n = np.asarray(Xrel).shape
    K = np.kron(Yrel.T, Xrel.T)
    G = K + K.reshape(n, n, P * P).transpose(1, 0, 2).reshape(n * n, P * P)
    h, _, rank, _ = np.linalg.lstsq(G, _vec(Bxy), rcond=None)
    if rank < P * P:
        raise IllPosedRotationError(
            f"rotation system rank {rank} < {P * P}; configurations too degenerate"
        )
    H = h.reshape(P, P, order="F")
    if orthogonalize:
        u, _, vt = np.linalg.svd(H)
        H = u @ vt
    return H


@dataclass
class RelativeSolution:
    """Relative kinematic state: centered positions, velocities, and the
    rotation aligning the velocity frame with the position frame at t0.

    The position frame at t0 is the reference (its rotation fixed to the
    identity) and all translations are fixed to zero, matching the
    convention that only relative geometry is identifiable.
    """

    Xrel: np.ndarray
    Yrel: np.ndarray
    Hy: np.ndarray

    def position_at(self, dt: float) -> np.ndarray:
        return position_at_time(self, dt)


def solve_relative(rm: RangeMatrices, P: int, orthogonalize: bool = False) -> RelativeSolution:
    """Full relative-kinematics solve from range matrices."""
    grams = grams_from_ranges(rm)
    xrel = spectral_embed(grams.Bxx, P)
    yrel = spectral_embed(grams.Byy, P)
    hy = estimate_rotation(xrel, yrel, grams.Bxy, orthogonalize=orthogonalize)
    return RelativeSolution(Xrel=xrel, Yrel=yrel, Hy=hy)


def position_at_time(sol: RelativeSolution, dt: float) -> np.ndarray:
    """Relative positions dt seconds after t0: Xrel + dt * Hy Yrel.

    Valid up to one global translation; the rotation ambiguity is shared by
    all time instants, unlike per-instant classical MDS.
    """
    return sol.Xrel + dt * (sol.Hy @ sol.Yrel)


def procrustes_align(Z: np.ndarray, Zhat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Best orthogonal alignment of Zhat onto Z in Frobenius norm.

    Returns (H, H @ Zhat, ||Z - H Zhat||_F) where H minimizes the residual
    over the orthogonal group (reflections included): H = V U^T from the
    SVD U S V^T = Zhat Z^T.
    """
    Z = np.asarray(Z, float)
    Zhat = np.asarray(Zhat, float)
    if Z.shape != Zhat.shape:
        raise ValueError(f"shape mismatch: {Z.shape} vs {Zhat.shape}")
    u, _, vt = np.linalg.svd(Zhat @ Z.T)
    H = vt.T @ u.T
    aligned = H @ Zhat
    return H, aligned, float(np.linalg.norm(Z - aligned))
