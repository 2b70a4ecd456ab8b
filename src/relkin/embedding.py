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
from typing import NamedTuple, Optional

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
    "procrustes_align",
]


@dataclass
class KinematicGrams:
    """Doubly centered Gram matrices of the relative kinematics.

    All three satisfy B 1 = 0.  Bxx and Byy are PSD with rank <= P when
    built from exact ranges; Bxy is symmetric but indefinite.  Batched range
    matrices give (..., N, N) Grams.
    """

    Bxx: np.ndarray
    Bxy: np.ndarray
    Byy: np.ndarray

    @property
    def n(self) -> int:
        return self.Bxx.shape[-1]


def _centered(M: np.ndarray, scale: float) -> np.ndarray:
    """scale * P M P over the last two axes, with P the centering projector."""
    pc = centering_matrix(M.shape[-1])
    return scale * pc @ M @ pc


def grams_from_ranges(rm: RangeMatrices) -> KinematicGrams:
    """Kinematic Grams from the range matrices via double centering."""
    return KinematicGrams(Bxx=_centered(rm.R**2, -0.5),
                          Bxy=_centered(rm.R * rm.Rdot, -1.0),
                          Byy=_centered(rm.R * rm.Rddot + rm.Rdot**2, -0.5))


def _mds_gram(D: np.ndarray) -> np.ndarray:
    """Gram -0.5 P D^o2 P of (..., N, N) Euclidean distance matrices.  An
    entry that overflows comes back non-finite, without a warning, and fails
    its embedding."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _centered(np.asarray(D, float) ** 2, -0.5)


class _Embedding(NamedTuple):
    config: np.ndarray  # (..., P, N) sqrt(max(lambda, 0)) U^T, rows sign-canonicalized
    top: np.ndarray     # (..., P) the P algebraically largest eigenvalues, descending

    @property
    def failed(self) -> np.ndarray:
        """(...,) True where no eigenvalue is positive; config is then zero."""
        return self.top[..., 0] <= 0.0

    @property
    def n_clamped(self) -> np.ndarray:
        """(...,) negative eigenvalues among the top P, clamped to zero in config."""
        return np.count_nonzero(self.top < 0.0, axis=-1)


def _embed(B: np.ndarray, P: int) -> _Embedding:
    """Rank-P spectral embedding of every matrix in a (..., N, N) stack by one
    batched eigh; failures and clamps are reported, not raised or warned.  A
    matrix with a non-finite entry fails: its top eigenvalues read -inf."""
    B = np.asarray(B, float)
    n = B.shape[-1]
    if not 1 <= P <= n:
        raise ValueError(f"need 1 <= P <= N, got P={P}, N={n}")
    finite = np.isfinite(B).all(axis=(-2, -1))
    lam, vec = np.linalg.eigh(B if finite.all() else np.where(finite[..., None, None], B, 0.0))
    lam[~finite] = -np.inf
    top = lam[..., ::-1][..., :P]
    rows = vec[..., ::-1][..., :P].swapaxes(-1, -2)
    config = np.sqrt(np.where(top < 0.0, 0.0, top))[..., None] * rows
    peak = np.take_along_axis(config, np.argmax(np.abs(config), axis=-1)[..., None], axis=-1)
    signs = np.sign(peak)
    signs[signs == 0] = 1.0
    return _Embedding(config * signs, top)


def spectral_embed(B: np.ndarray, P: int) -> np.ndarray:
    """P x N configuration whose Gram reproduces the top of B.

    Takes the P algebraically largest eigenvalues and returns
    sqrt(Lambda) U^T.  Negative eigenvalues among the top P (noise in an
    estimated Gram) are clamped to zero with an EmbeddingClampWarning.
    Row signs are canonicalized (largest-magnitude entry positive) so the
    output is deterministic across eigensolver sign choices.

    Raises:
        EmbeddingFailureError: if B has a non-finite entry or no positive
            eigenvalue, i.e. it admits no nonzero embedding.
    """
    return _checked(_embed(B, P), "B")


def _checked(emb: _Embedding, name: str) -> np.ndarray:
    """The configuration of one embedding of `name`, as :func:`spectral_embed` returns it."""
    P = emb.top.shape[-1]
    if emb.failed:
        why = (f"{name} has a non-finite entry" if emb.top[0] == -np.inf
               else f"no positive eigenvalue (largest {emb.top[0]:.3e})")
        raise EmbeddingFailureError(f"{why}; cannot embed in {P} dimensions")
    if emb.n_clamped:
        warnings.warn(
            f"clamped {emb.n_clamped} negative eigenvalue(s) in a rank-{P} embedding",
            EmbeddingClampWarning,
            stacklevel=3,  # the line that called the public function calling this one
        )
    return emb.config


def classical_mds(D: np.ndarray, P: int) -> np.ndarray:
    """Classical MDS embedding of one Euclidean distance matrix.

    The result is a valid configuration up to an arbitrary rotation,
    reflection and translation.
    """
    return _checked(_embed(_mds_gram(D), P), "the Gram of D")


def rotation_model(Xrel: np.ndarray, Yrel: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Predicted cross Gram Xrel^T H Yrel + Yrel^T H^T Xrel."""
    return Xrel.T @ H @ Yrel + Yrel.T @ H.T @ Xrel


def estimate_rotation(Xrel: np.ndarray, Yrel: np.ndarray, Bxy: np.ndarray) -> np.ndarray:
    """Rotation relating the velocity frame to the position frame.

    Vectorizing the bilinear model gives

        vec(Bxy) = (I + J)(Yrel^T kron Xrel^T) vec(H) = G vec(H)

    solved in the least-squares sense.  J, with J vec(M) = vec(M^T), only
    permutes rows and is never formed: viewing K = Yrel^T kron Xrel^T as
    (N, N, P^2), J K swaps the first two axes, which gives the dense G bit
    for bit in O(N^2 P^2).  The unconstrained solution does not enforce
    orthogonality; with exact inputs its orthogonality defect is at
    roundoff level.

    Known limit: G's rank is read with lstsq's rcond cut, which misses a
    system rank deficient only up to the error (rounding included) of fitted
    Grams.  So velocities that are a linear map of the positions (Y = B X)
    can return a wrong H with no error: from noiseless fits of three 3-D
    networks of 7 nodes, the position at 2 s came out 0.20 to 0.44 m off.

    Raises:
        IllPosedRotationError: if G is column rank deficient, as it is for
            any centered configurations of fewer than 2P nodes (see
            :func:`_too_few_nodes`, which the message then names).  Rounding
            in fitted Grams can hide that deficiency from the rank cut, so
            :func:`solve_relative` refuses fewer than 2P nodes before solving.
    """
    P, n = np.shape(Xrel)
    H, rank = _rotation_stack(Xrel, Yrel, Bxy)
    if rank < P * P:
        raise IllPosedRotationError(f"rotation system rank {rank} < {P * P}; "
                                    f"{_too_few_nodes(n, P) or 'configurations too degenerate'}")
    return H


def _too_few_nodes(n: int, P: int) -> Optional[str]:
    """Why n nodes in P dimensions never have a recoverable rotation, or None.

    For centered Xrel and Yrel, as every embedding gives, the null space of
    the rotation system G (see :func:`estimate_rotation`) holds the
    antisymmetric part of W kron W, W the intersection of their row spaces.
    Both are P-dimensional within the (N - 1)-dimensional complement of the
    ones vector, so dim W >= 2P - N + 1, and any N < 2P leaves a null
    direction whatever the geometry.
    """
    if n >= 2 * P:
        return None
    return (f"N={n} nodes in P={P} dimensions: the velocity rotation needs at least 2P "
            f"nodes ({2 * P})")


def _rotation_stack(Xrel, Yrel, Bxy) -> tuple[np.ndarray, np.ndarray]:
    """Rotations of a (..., P, N) batch from one stacked SVD (numpy has no stacked lstsq).

    Singular values s <= eps max(N^2, P^2) s_max count as zero, as under
    lstsq's rcond=None.  Returns the (..., P, P) rotations and the (...,)
    rank of each system; a solution is valid only at full rank P^2.
    """
    Xrel, Yrel, Bxy = (np.asarray(m, float) for m in (Xrel, Yrel, Bxy))
    P, n = Xrel.shape[-2:]
    batch = Xrel.shape[:-2]
    A, B = Yrel.swapaxes(-1, -2), Xrel.swapaxes(-1, -2)
    K = (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(batch + (n, n, P * P))
    G = (K + K.swapaxes(-3, -2)).reshape(batch + (n * n, P * P))
    b = Bxy.swapaxes(-1, -2).reshape(batch + (n * n, 1))
    u, s, vt = np.linalg.svd(G, full_matrices=False)
    keep = s > np.finfo(float).eps * max(n * n, P * P) * s[..., :1]
    c = np.divide(u.swapaxes(-1, -2) @ b, s[..., None], out=np.zeros(s.shape + (1,)),
                  where=keep[..., None])
    H = (vt.swapaxes(-1, -2) @ c).reshape(batch + (P, P)).swapaxes(-1, -2)
    return H, np.count_nonzero(keep, axis=-1)


def _polar(A: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U V^T of every U S V^T in a (..., P, P) stack.

    It is the orthogonal H (reflections included) that maximizes tr(H^T A).
    In the plane that has a closed form.  For A = [[a, b], [c, d]] the best
    rotation is [[a+d, b-c], [c-b, a+d]] / rot with rot = hypot(a+d, c-b)
    = its tr(H^T A), and the best reflection [[a-d, b+c], [b+c, d-a]] / ref
    with ref = hypot(a-d, b+c); the factor is the rotation when rot >= ref.
    As rot^2 - ref^2 = 4 det A, that is when det A >= 0, decided without
    forming products that could overflow.  Both vanish only at A = 0, whose
    factor is taken to be I.  Every other P takes one batched SVD.
    """
    A = np.asarray(A, float)
    if A.shape[-2:] != (2, 2):
        u, _, vt = np.linalg.svd(A)
        return u @ vt
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    rot, ref = np.hypot(a + d, c - b), np.hypot(a - d, b + c)
    s = np.where(rot < ref, -1.0, 1.0)  # +1 for a rotation, -1 for a reflection
    h = np.maximum(rot, ref)
    zero = h == 0.0
    p, h = np.where(zero, 1.0, a + s * d), np.where(zero, 1.0, h)
    p, q = p / h, (c - s * b) / h
    return np.stack([p, -s * q, q, s * p], axis=-1).reshape(A.shape)


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
        """Relative positions dt seconds after t0: Xrel + dt * Hy Yrel.

        Valid up to one global translation; the rotation ambiguity is shared
        by all time instants, unlike per-instant classical MDS.
        """
        return self.Xrel + dt * (self.Hy @ self.Yrel)


# What solve_relative raises after its node count, in the order it checks its stages
_SOLVE_ERRORS = (EmbeddingFailureError, IllPosedRotationError)


class _Solve(NamedTuple):
    emb: _Embedding     # (..., 2, P, N) embeddings of Bxx, then Byy
    hy: np.ndarray      # (..., P, P) rotations, in _rotation_stack's memory layout
    cause: np.ndarray   # (...,) 0 if solve_relative returns, else 1 + the _SOLVE_ERRORS index
    clamps: np.ndarray  # (...,) EmbeddingClampWarnings it warns first (0, 1 or 2)


def _solve_stack(grams: KinematicGrams, P: int) -> _Solve:
    """:func:`solve_relative` on a (..., N, N) stack of Grams of N >= 2P nodes
    by one eigh and one SVD, with what it would raise and warn coded per network."""
    emb = _embed(np.stack([grams.Bxx, grams.Byy], axis=-3), P)
    hy, rank = _rotation_stack(emb.config[..., 0, :, :], emb.config[..., 1, :, :], grams.Bxy)
    # solve_relative warns for an embedding only if it and those before it succeeded
    passed = ~np.logical_or.accumulate(emb.failed, axis=-1)
    cause = np.select([~passed[..., -1], rank < P * P], [1, 2], 0)
    return _Solve(emb, hy, cause, np.count_nonzero((emb.n_clamped > 0) & passed, axis=-1))


def solve_relative(rm: RangeMatrices, P: int) -> RelativeSolution:
    """Full relative-kinematics solve from range matrices (:func:`_solve_stack` of one).

    Raises:
        IllPosedRotationError: before any solve, naming the rule, for fewer
            than 2P nodes, whose centered embeddings never carry a
            recoverable rotation (see :func:`_too_few_nodes`); otherwise as
            :func:`estimate_rotation` does.
        EmbeddingFailureError: as :func:`spectral_embed` does for Bxx, then
            Byy, or naming the one of them whose entries overflowed.
    """
    few = _too_few_nodes(rm.n, P)
    if few:
        raise IllPosedRotationError(few)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram fails its embedding
        grams = grams_from_ranges(rm)
    sol = _solve_stack(grams, P)
    xrel = _checked(_Embedding(sol.emb.config[0], sol.emb.top[0]), "Bxx")
    yrel = _checked(_Embedding(sol.emb.config[1], sol.emb.top[1]), "Byy")
    if sol.cause:  # an ill-posed rotation: estimate_rotation raises on the same system
        estimate_rotation(xrel, yrel, grams.Bxy)
    return RelativeSolution(Xrel=xrel, Yrel=yrel, Hy=sol.hy)


def procrustes_align(Z: np.ndarray, Zhat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Best orthogonal alignment of Zhat onto Z in Frobenius norm.

    Returns (H, H @ Zhat, ||Z - H Zhat||_F) where H minimizes the residual
    over the orthogonal group (reflections included): H is the orthogonal
    polar factor of Z Zhat^T (Schoenemann's solution), in closed form in the
    plane and from an SVD otherwise.  Leading axes of Z and Zhat broadcast,
    giving one alignment per item (one batched kernel call) and an array of
    residuals.
    """
    Z = np.asarray(Z, float)
    Zhat = np.asarray(Zhat, float)
    if Z.shape[-2:] != Zhat.shape[-2:]:
        raise ValueError(f"shape mismatch: {Z.shape} vs {Zhat.shape}")
    H = _polar(Z @ Zhat.swapaxes(-1, -2))
    aligned = H @ Zhat
    d = (Z - aligned).reshape(aligned.shape[:-2] + (1, -1))
    # a stacked (1 x PN)(PN x 1) product is the BLAS dot that np.linalg.norm takes
    resid = np.sqrt((d @ d.swapaxes(-1, -2))[..., 0, 0])
    return H, aligned, float(resid) if resid.ndim == 0 else resid
