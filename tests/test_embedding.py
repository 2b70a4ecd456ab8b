import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings

from relkin import (
    EmbeddingClampWarning,
    EmbeddingFailureError,
    IllPosedRotationError,
    KinematicGrams,
    RangeMatrices,
    builtin_trajectory,
    centering_matrix,
    classical_mds,
    estimate_rotation,
    grams_from_ranges,
    procrustes_align,
    range_matrices,
    solve_relative,
    spectral_embed,
)
from relkin import embedding
from relkin.embedding import (_SOLVE_ERRORS, _embed, _mds_gram, _polar, _rotation_stack,
                              _solve_stack, rotation_model)
from relkin.kinematics import TrajectorySet

import dense_oracle
from test_kinematics import geometries


def edm(traj, t):
    """Euclidean distance matrix of the configuration at time t."""
    pos = traj.position_at(t)
    return np.linalg.norm(pos[:, :, None] - pos[:, None, :], axis=0)


def truth_grams(traj):
    """Independent oracle: the Gram identities evaluated directly from the
    true positions and velocities (no range matrices involved)."""
    pc = centering_matrix(traj.N)
    x, y = traj.X, traj.Y
    return pc @ x.T @ x @ pc, pc @ (x.T @ y + y.T @ x) @ pc, pc @ y.T @ y @ pc


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def random_trajectory(rng, n, p=2):
    return TrajectorySet(X=rng.uniform(-400, 400, (p, n)), Y=rng.uniform(-10, 10, (p, n)))


class TestGrams:
    def test_two_node_hand_example(self):
        rm = RangeMatrices(R=[[0.0, 2.0], [2.0, 0.0]], Rdot=np.zeros((2, 2)),
                           Rddot=np.zeros((2, 2)))
        g = grams_from_ranges(rm)
        assert np.allclose(g.Bxx, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(g.Bxy, 0.0)
        assert np.allclose(g.Byy, 0.0)

    def test_static_network(self):
        traj = TrajectorySet(X=[[0.0, 2.0, 1.0], [0.0, 0.0, 3.0]], Y=np.zeros((2, 3)))
        g = grams_from_ranges(range_matrices(traj))
        assert np.allclose(g.Bxy, 0.0, atol=1e-12)
        assert np.allclose(g.Byy, 0.0, atol=1e-12)

    def test_fixture_matches_direct_identities(self):
        traj = builtin_trajectory("cluster5")
        g = grams_from_ranges(range_matrices(traj))
        bxx, bxy, byy = truth_grams(traj)
        scale = np.linalg.norm(bxx)
        assert np.linalg.norm(g.Bxx - bxx) / scale < 1e-9
        assert np.linalg.norm(g.Bxy - bxy) / np.linalg.norm(bxy) < 1e-9
        assert np.linalg.norm(g.Byy - byy) / np.linalg.norm(byy) < 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_random_trajectories_match_direct_identities(self, seed):
        traj = random_trajectory(np.random.default_rng(seed), n=6)
        g = grams_from_ranges(range_matrices(traj))
        for built, direct in zip((g.Bxx, g.Bxy, g.Byy), truth_grams(traj)):
            denom = max(np.linalg.norm(direct), 1.0)
            assert np.linalg.norm(built - direct) / denom < 1e-9

    def test_doubly_centered(self):
        g = grams_from_ranges(range_matrices(builtin_trajectory("cluster5")))
        for b in (g.Bxx, g.Bxy, g.Byy):
            assert np.allclose(b @ np.ones(5), 0.0, atol=1e-7)
            assert np.allclose(b, b.T)

    def test_translation_invariance(self):
        traj = builtin_trajectory("cluster5")
        moved = TrajectorySet(X=traj.X + np.array([[77.0], [-31.0]]),
                              Y=traj.Y + np.array([[2.5], [1.0]]))
        g0 = grams_from_ranges(range_matrices(traj))
        g1 = grams_from_ranges(range_matrices(moved))
        assert np.allclose(g0.Bxx, g1.Bxx, atol=1e-6)
        assert np.allclose(g0.Bxy, g1.Bxy, atol=1e-6)
        assert np.allclose(g0.Byy, g1.Byy, atol=1e-6)
        # the whole downstream solution is translation invariant too
        s0 = solve_relative(range_matrices(traj), P=2)
        s1 = solve_relative(range_matrices(moved), P=2)
        assert np.allclose(s0.Xrel, s1.Xrel, atol=1e-6)
        assert np.allclose(s0.Yrel, s1.Yrel, atol=1e-8)
        assert np.allclose(s0.Hy, s1.Hy, atol=1e-8)


class TestSpectralEmbed:
    def test_collinear_points_give_rank_one_configuration(self):
        x = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        pc = centering_matrix(3)
        config = spectral_embed(pc @ x.T @ x @ pc, P=2)
        assert np.linalg.norm(config[1]) < 1e-7

    def test_fixture_position_embedding(self):
        traj = builtin_trajectory("cluster5")
        g = grams_from_ranges(range_matrices(traj))
        config = spectral_embed(g.Bxx, P=2)
        _, _, resid = procrustes_align(traj.X @ centering_matrix(5), config)
        assert resid < 1e-8

    def test_fixture_velocity_embedding(self):
        traj = builtin_trajectory("cluster5")
        g = grams_from_ranges(range_matrices(traj))
        config = spectral_embed(g.Byy, P=2)
        _, _, resid = procrustes_align(traj.Y @ centering_matrix(5), config)
        assert resid < 1e-8

    def test_gram_reconstruction(self):
        traj = builtin_trajectory("cluster5")
        g = grams_from_ranges(range_matrices(traj))
        config = spectral_embed(g.Bxx, P=2)
        assert np.linalg.norm(config.T @ config - g.Bxx) / np.linalg.norm(g.Bxx) < 1e-9

    def test_negative_top_eigenvalue_clamped_with_warning(self):
        b = np.diag([4.0, -1.0])
        with pytest.warns(EmbeddingClampWarning):
            config = spectral_embed(b, P=2)
        assert np.allclose(config[1], 0.0)

    def test_all_negative_fails(self):
        with pytest.raises(EmbeddingFailureError):
            spectral_embed(-np.eye(3), P=2)

    def test_non_finite_entry_fails_naming_the_matrix(self):
        b = np.eye(3)
        b[0, 1] = np.inf
        with pytest.raises(EmbeddingFailureError, match="^B has a non-finite entry"):
            spectral_embed(b, P=2)

    def test_sign_canonicalization_deterministic(self):
        traj = builtin_trajectory("cluster5")
        g = grams_from_ranges(range_matrices(traj))
        a = spectral_embed(g.Bxx, P=2)
        b = spectral_embed(g.Bxx.copy(), P=2)
        assert np.array_equal(a, b)
        rows = np.arange(2)
        assert np.all(a[rows, np.argmax(np.abs(a), axis=1)] > 0)


def test_clamp_warnings_point_at_the_caller(monkeypatch):
    # each public entry point warns at the line that called it, so filters by
    # module and the default once-per-location display see the caller
    rm = range_matrices(builtin_trajectory("cluster5"))
    clamps = np.diag([4.0, -1.0, -2.0, -0.5, -3.0])
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])  # not Euclidean
    monkeypatch.setattr(embedding, "grams_from_ranges",
                        lambda _: KinematicGrams(Bxx=clamps, Bxy=np.zeros((5, 5)), Byy=-np.eye(5)))
    for call in (lambda: spectral_embed(clamps, P=2), lambda: classical_mds(d, P=3),
                 lambda: solve_relative(rm, 2)):
        with pytest.warns(EmbeddingClampWarning) as caught:
            try:
                call()
            except EmbeddingFailureError:  # solve_relative's Byy, after Bxx warned
                pass
        assert [w.filename for w in caught] == [__file__]


class TestClassicalMds:
    def test_exact_edm_recovery(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4)) * 10
        traj = TrajectorySet(X=x, Y=np.zeros((2, 4)))
        d = edm(traj, 0.0)
        config = classical_mds(d, P=2)
        _, _, resid = procrustes_align(x @ centering_matrix(4), config)
        assert resid < 1e-9

    def test_two_points_unit_spread(self):
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        config = classical_mds(d, P=1)
        assert sorted(config[0]) == pytest.approx([-1.0, 1.0])

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 5)) * 3
        d = edm(TrajectorySet(X=x, Y=np.zeros((2, 5))), 0.0)
        a = classical_mds(d, P=2)
        b = classical_mds(2.5 * d, P=2)
        assert np.allclose(b, 2.5 * a, rtol=1e-9, atol=1e-12)

    def test_overflowing_distance_fails_without_warning(self):
        # 1e200 squared overflows the Gram; the failure is the clean error
        # alone, with no RuntimeWarning (which this suite raises as an error)
        d = np.array([[0.0, 1.0, 1e200], [1.0, 0.0, 1.0], [1e200, 1.0, 0.0]])
        with pytest.raises(EmbeddingFailureError, match="^the Gram of D has a non-finite entry"):
            classical_mds(d, P=2)


class TestRotation:
    def test_commutation_matrix_transposes_vec(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        J = dense_oracle.commutation_matrix(4)
        assert np.allclose(J @ m.reshape(-1, order="F"), m.T.reshape(-1, order="F"))
        assert np.allclose(J @ J, np.eye(16))

    def test_identity_recovery(self):
        traj = builtin_trajectory("cluster5")
        pc = centering_matrix(5)
        xr, yr = traj.X @ pc, traj.Y @ pc
        bxy = rotation_model(xr, yr, np.eye(2))
        hy = estimate_rotation(xr, yr, bxy)
        assert np.allclose(hy, np.eye(2), atol=1e-10)

    def test_quarter_turn_recovery(self):
        traj = builtin_trajectory("cluster5")
        pc = centering_matrix(5)
        xr, yr = traj.X @ pc, traj.Y @ pc
        h_true = rotation(np.pi / 2)
        bxy = rotation_model(xr, yr, h_true)
        hy = estimate_rotation(xr, yr, bxy)
        assert np.allclose(hy, h_true, atol=1e-8)

    def test_noiseless_pipeline_residual_and_orthogonality(self):
        traj = builtin_trajectory("cluster5")
        g = grams_from_ranges(range_matrices(traj))
        xr = spectral_embed(g.Bxx, P=2)
        yr = spectral_embed(g.Byy, P=2)
        hy = estimate_rotation(xr, yr, g.Bxy)
        resid = np.linalg.norm(rotation_model(xr, yr, hy) - g.Bxy)
        assert resid / np.linalg.norm(g.Bxy) < 1e-12
        assert np.linalg.norm(hy.T @ hy - np.eye(2)) < 1e-8

    def test_rank_deficient_inputs_rejected(self):
        xr = np.zeros((2, 5))
        xr[0] = [-2, -1, 0, 1, 2]
        with pytest.raises(IllPosedRotationError):
            estimate_rotation(xr, xr, np.zeros((5, 5)))

    def test_matches_brute_force_cost_minimizer(self):
        # independent oracle: derivative-free minimization of the raw cost
        # must land on the vectorized least-squares solution
        from scipy.optimize import minimize

        traj = builtin_trajectory("cluster5")
        pc = centering_matrix(5)
        rng = np.random.default_rng(3)
        xr = traj.X @ pc + 0.5 * rng.normal(size=(2, 5))
        yr = traj.Y @ pc + 0.1 * rng.normal(size=(2, 5))
        bxy = rotation_model(traj.X @ pc, traj.Y @ pc, np.eye(2)) \
            + 5.0 * rng.normal(size=(5, 5))
        bxy = 0.5 * (bxy + bxy.T)
        h_ls = estimate_rotation(xr, yr, bxy)
        cost = lambda h: np.linalg.norm(bxy - rotation_model(xr, yr, h.reshape(2, 2))) ** 2
        res = minimize(cost, np.zeros(4), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
        assert np.allclose(h_ls, res.x.reshape(2, 2), atol=5e-6)

    @pytest.mark.parametrize("n", [3, 5, 12, 30])
    def test_matches_dense_commutation_system(self, n):
        # the permuted rows equal the dense (I + J) K product bit for bit; the
        # stacked SVD solve then differs from lstsq's by rounding only, which
        # stays within a few eps of the largest entry on these systems
        rng = np.random.default_rng(n)
        xr, yr = rng.normal(size=(2, n)), rng.normal(size=(2, n))
        bxy = rng.normal(size=(n, n))
        bxy = bxy + bxy.T
        want, rank = dense_oracle.rotation(xr, yr, bxy)
        got, got_rank = _rotation_stack(xr, yr, bxy)
        assert got_rank == rank == 4
        assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.max(np.abs(want))
        assert np.array_equal(estimate_rotation(xr, yr, bxy), got)

    @pytest.mark.parametrize("second_row", [[0, 0, 0, 0, 0], [2, -1, -2, -1, 2]],
                             ids=["rank_1", "rank_3"])
    def test_rank_matches_dense_lstsq_when_ill_posed(self, second_row):
        xr = np.array([[-2.0, -1, 0, 1, 2], second_row])
        bxy = np.add.outer(np.arange(5.0), np.arange(5.0))
        rank = dense_oracle.rotation(xr, xr, bxy)[1]
        assert rank < 4
        assert _rotation_stack(xr, xr, bxy)[1] == rank


class TestPositionAtTime:
    def test_zero_offset_returns_positions(self):
        sol = solve_relative(range_matrices(builtin_trajectory("cluster5")), P=2)
        assert np.array_equal(sol.position_at(0.0), sol.Xrel)

    def test_static_network_constant(self):
        # an all-zero velocity Gram has no spectral embedding; the static
        # case is represented by a zero relative velocity in the solution
        traj = TrajectorySet(X=[[0.0, 5.0, 1.0], [0.0, 0.0, 4.0]], Y=np.zeros((2, 3)))
        g = grams_from_ranges(range_matrices(traj))
        assert np.allclose(g.Byy, 0.0, atol=1e-12)
        with pytest.raises(EmbeddingFailureError):
            spectral_embed(g.Byy, P=2)
        from relkin import RelativeSolution

        sol = RelativeSolution(Xrel=spectral_embed(g.Bxx, P=2),
                               Yrel=np.zeros((2, 3)), Hy=np.eye(2))
        for dt in (-2.0, 0.0, 4.0):
            assert np.array_equal(sol.position_at(dt), sol.Xrel)

    def test_fixture_propagation_matches_truth(self):
        traj = builtin_trajectory("cluster5")
        pc = centering_matrix(5)
        sol = solve_relative(range_matrices(traj), P=2)
        for dt in (-3.0, 1.0, 3.0):
            truth = traj.position_at(dt) @ pc
            _, _, resid = procrustes_align(truth, sol.position_at(dt) @ pc)
            assert resid < 1e-7

    def test_shared_frame_across_instants(self):
        # one Procrustes rotation computed at t0 must align every instant
        traj = builtin_trajectory("cluster5")
        pc = centering_matrix(5)
        sol = solve_relative(range_matrices(traj), P=2)
        h, _, _ = procrustes_align(traj.X @ pc, sol.Xrel)
        for dt in (-2.0, 0.5, 2.5):
            truth = traj.position_at(dt) @ pc
            assert np.linalg.norm(h @ sol.position_at(dt) - truth) < 1e-6


@settings(max_examples=150, deadline=None)
@given(traj=geometries())
def test_propagation_shares_one_frame_on_random_geometries(traj):
    # noiseless Xrel + t Hy Yrel is the centered truth under one orthogonal H
    # for every t (arXiv:1401.5925); the error is roundoff amplified by the
    # condition number of the rotation system, which is the same in the true
    # frame as in the estimated one
    # equal velocities leave no Yrel to embed: solve_relative raises, as a
    # static network does (see test_static_network_constant)
    assume(np.any(traj.Y != traj.Y[:, :1]))
    pc = centering_matrix(traj.N)
    xc, yc = traj.X @ pc, traj.Y @ pc
    s = np.linalg.svd(dense_oracle.rotation_system(xc, yc), compute_uv=False)
    assume(s[-1] > 1e-10 * s[0])  # rank deficient to working precision
    sol = solve_relative(range_matrices(traj), traj.P)
    h, _, _ = procrustes_align(xc, sol.Xrel)
    for dt in np.linspace(-10.0, 10.0, 5):
        err = np.linalg.norm(h @ sol.position_at(dt) - traj.position_at(dt) @ pc)
        scale = np.linalg.norm(xc) + abs(dt) * np.linalg.norm(yc)
        assert err <= 1e-12 * (s[0] / s[-1]) * scale


class TestProcrustes:
    def test_recovers_applied_rotation(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 6))
        q = rotation(0.7)
        h, aligned, resid = procrustes_align(z, q.T @ z)
        assert np.allclose(h, q, atol=1e-12)
        assert resid < 1e-12
        assert np.allclose(aligned, z, atol=1e-12)

    def test_identity_when_equal(self):
        z = np.random.default_rng(3).normal(size=(2, 5))
        h, aligned, resid = procrustes_align(z, z)
        assert resid < 1e-12
        assert np.allclose(h @ z, z, atol=1e-12)

    def test_orthogonality_of_factor(self):
        rng = np.random.default_rng(8)
        h, _, _ = procrustes_align(rng.normal(size=(2, 7)), rng.normal(size=(2, 7)))
        assert np.linalg.norm(h.T @ h - np.eye(2)) < 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_residual_bounded_by_perturbation(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(2, 6))
        pert = 1e-3 * rng.normal(size=(2, 6))
        _, _, resid = procrustes_align(z, z + pert)
        assert resid <= np.linalg.norm(pert) + 1e-12

    def test_reflection_allowed(self):
        z = np.random.default_rng(9).normal(size=(2, 5))
        flip = np.diag([1.0, -1.0])
        h, _, resid = procrustes_align(z, flip @ z)
        assert resid < 1e-12
        assert np.linalg.det(h) == pytest.approx(-1.0, abs=1e-9)


class TestPolarFactor:
    """The planar closed form against the SVD formula it replaces."""

    def test_closed_form_matches_svd(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(400, 2, 2)) * 10.0 ** rng.uniform(-6, 6, (400, 1, 1))
        det = np.linalg.det(A)
        assert (det < 0).any() and (det > 0).any()
        H = _polar(A)
        want = dense_oracle.polar(A)
        assert np.all(np.linalg.det(H) * det > 0)
        assert np.max(np.abs(H - want)) <= 1e-12

    def test_huge_entries_keep_the_determinant_sign(self):
        # a*d and b*c would overflow to inf here, hiding that det A < 0
        A = np.array([[1e200, 2e200], [1e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = _polar(A)
        assert np.max(np.abs(H - dense_oracle.polar(A))) <= 1e-12

    @pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
    def test_procrustes_matches_svd(self, batch):
        rng = np.random.default_rng(len(batch))
        z = rng.normal(size=batch + (2, 6))
        zhat = rng.normal(size=batch + (2, 6))
        zhat[..., 1, :] *= np.where(rng.random(batch + (1,)) < 0.5, -1.0, 1.0)
        H, aligned, resid = procrustes_align(z, zhat)
        want_h, want_resid = dense_oracle.procrustes(z, zhat)
        assert np.max(np.abs(H - want_h)) <= 1e-12
        assert np.max(np.abs(aligned - want_h @ zhat)) <= 1e-12
        assert np.max(np.abs(resid - want_resid)) <= 1e-12 * np.max(want_resid)

    def test_rank_one_cross_covariance(self):
        # collinear estimates make Z Zhat^T rank one: a rotation and a
        # reflection then align equally well and map Zhat to the same place
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 2, 6))
        zhat = np.array([1.5, -0.5])[:, None] * rng.normal(size=(5, 1, 6))
        assert np.allclose(np.linalg.det(z @ zhat.swapaxes(-1, -2)), 0.0, atol=1e-12)
        H, aligned, resid = procrustes_align(z, zhat)
        want_h, want_resid = dense_oracle.procrustes(z, zhat)
        assert np.allclose(H.swapaxes(-1, -2) @ H, np.eye(2), atol=1e-12)
        assert np.max(np.abs(aligned - want_h @ zhat)) <= 1e-12
        assert np.max(np.abs(resid - want_resid)) <= 1e-12 * np.max(want_resid)

    def test_zero_cross_covariance_is_identity_without_warning(self):
        z = np.random.default_rng(7).normal(size=(2, 2, 5))
        zhat = np.stack([np.zeros((2, 5)), z[1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H, aligned, resid = procrustes_align(z, zhat)
            assert np.array_equal(_polar(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(H[0], np.eye(2))
        assert np.array_equal(aligned[0], np.zeros((2, 5)))
        assert resid[0] == np.linalg.norm(z[0])
        assert np.allclose(H[1], np.eye(2), atol=1e-12) and resid[1] < 1e-12

    @pytest.mark.parametrize("P", [1, 3])
    def test_other_dimensions_keep_the_svd(self, P):
        rng = np.random.default_rng(P)
        z, zhat = rng.normal(size=(4, P, 6)), rng.normal(size=(4, P, 6))
        H, _, resid = procrustes_align(z, zhat)
        want_h, want_resid = dense_oracle.procrustes(z, zhat)
        assert np.max(np.abs(H - want_h)) <= 1e-12
        assert np.max(np.abs(resid - want_resid)) <= 1e-12 * np.max(want_resid)
        A = rng.normal(size=(4, P, P))
        assert np.max(np.abs(_polar(A) - dense_oracle.polar(A))) <= 1e-12

    def test_planar_batch_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("planar alignment called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rng = np.random.default_rng(8)
        procrustes_align(rng.normal(size=(2, 6)), rng.normal(size=(50, 2, 6)))
        _polar(rng.normal(size=(3, 2, 2)))


def noisy_range_stack(n_items, seed, scale=5.0):
    """Range matrices of the fixture with symmetric noise, one set per item."""
    rm = range_matrices(builtin_trajectory("cluster5"))
    rng = np.random.default_rng(seed)
    out = []
    for m in (rm.R, rm.Rdot, rm.Rddot):
        noise = rng.normal(size=(n_items, 5, 5)) * scale * np.abs(m).mean() / 100
        noise = np.triu(noise, 1)
        out.append(m + noise + noise.swapaxes(-1, -2))
    return RangeMatrices(*out)


class TestBatchedKernels:
    """Every batched kernel equals the single-item public function bit for bit."""

    def test_grams_stack_equals_per_item(self):
        rm = noisy_range_stack(4, 0)
        g = grams_from_ranges(rm)
        assert g.Bxx.shape == (4, 5, 5) and g.n == 5
        for b in range(4):
            one = grams_from_ranges(RangeMatrices(rm.R[b], rm.Rdot[b], rm.Rddot[b]))
            for name in ("Bxx", "Bxy", "Byy"):
                assert np.array_equal(getattr(g, name)[b], getattr(one, name))

    def test_embed_stack_equals_spectral_embed_with_failures_and_clamps(self):
        gram = grams_from_ranges(range_matrices(builtin_trajectory("cluster5"))).Bxx
        stack = np.stack([gram, np.diag([4.0, -1.0, -2.0, -0.5, -3.0]),
                          -np.eye(5), np.zeros((5, 5))])
        emb = _embed(stack, 2)
        assert emb.failed.tolist() == [False, False, True, True]
        assert emb.n_clamped.tolist() == [0, 1, 2, 0]
        for b, B in enumerate(stack):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", EmbeddingClampWarning)
                try:
                    config = spectral_embed(B, P=2)
                except EmbeddingFailureError:
                    assert emb.failed[b]
                    assert np.array_equal(emb.config[b], np.zeros((2, 5)))
                    continue
            assert not emb.failed[b]
            assert np.array_equal(emb.config[b], config)
            assert len(caught) == int(emb.n_clamped[b] > 0)

    def test_solve_stack_codes_what_solve_relative_raises_and_warns(self, monkeypatch):
        rm = range_matrices(builtin_trajectory("cluster5"))
        clean = grams_from_ranges(rm)
        noisy = grams_from_ranges(noisy_range_stack(1, 0))
        with np.errstate(over="ignore", invalid="ignore"):  # theta 1e200 read from a file
            huge = grams_from_ranges(RangeMatrices(np.where(rm.R == rm.R[0, 1], 1e200, rm.R),
                                                   rm.Rdot, rm.Rddot))
        bad, clamps = -np.eye(5), np.diag([4.0, -1.0, -2.0, -0.5, -3.0])
        embed_failure = (EmbeddingFailureError, r"no positive eigenvalue \(largest -1.000e\+00\)")
        ill_posed = (IllPosedRotationError, "rotation system rank [0-3] < 4; configurations")
        cases = [  # (Bxx, Bxy, Byy), what solve_relative raises, its clamp warnings
            ((clean.Bxx, clean.Bxy, clean.Byy), None, 0),
            ((noisy.Bxx[0], noisy.Bxy[0], noisy.Byy[0]), None, 0),
            ((bad, clean.Bxy, clean.Byy), embed_failure, 0),
            ((clamps, clean.Bxy, bad), embed_failure, 1),
            ((clean.Bxx, clean.Bxy, clamps), ill_posed, 1),
            ((clean.Bxx, clean.Bxy, clean.Bxx), ill_posed, 0),  # Yrel = Xrel: H + H^T alone
            ((huge.Bxx, huge.Bxy, huge.Byy),
             (EmbeddingFailureError, "^Bxx has a non-finite entry; cannot embed in 2"), 0),
        ]
        sol = _solve_stack(KinematicGrams(*(np.stack(m) for m in zip(*(c[0] for c in cases)))), 2)
        for b, (grams, raised, warned) in enumerate(cases):
            monkeypatch.setattr(embedding, "grams_from_ranges",
                                lambda _, g=KinematicGrams(*grams): g)
            assert sol.clamps[b] == warned
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", EmbeddingClampWarning)
                if raised:
                    assert _SOLVE_ERRORS[sol.cause[b] - 1] is raised[0]
                    with pytest.raises(raised[0], match=raised[1]):
                        solve_relative(rm, 2)
                else:
                    assert sol.cause[b] == 0
                    one = solve_relative(rm, 2)
                    assert np.array_equal(one.Xrel, sol.emb.config[b, 0])
                    assert np.array_equal(one.Yrel, sol.emb.config[b, 1])
                    assert np.array_equal(one.Hy, sol.hy[b])
            assert [w.category for w in caught] == [EmbeddingClampWarning] * warned

    def test_mds_stack_equals_classical_mds(self):
        traj = builtin_trajectory("cluster5")
        d = np.stack([edm(traj, t) for t in (-3.0, 0.0, 1.5)])
        emb = _embed(_mds_gram(d), 2)
        for b in range(3):
            assert np.array_equal(emb.config[b], classical_mds(d[b], P=2))

    @pytest.mark.parametrize("P, n", [(2, 5), (3, 7)], ids=["P=2", "P=3"])
    def test_rotation_stack_equals_estimate_rotation(self, P, n):
        rng = np.random.default_rng(1)
        xr, yr = rng.normal(size=(4, P, n)), rng.normal(size=(4, P, n))
        bxy = rng.normal(size=(4, n, n))
        bxy = bxy + bxy.swapaxes(-1, -2)
        xr[2] = yr[2] = 0.0
        xr[2, 0] = yr[2, 0] = np.arange(n) - (n - 1) / 2  # rank-one configurations: ill posed
        H, rank = _rotation_stack(xr, yr, bxy)
        assert rank.tolist() == [P * P, P * P, 1, P * P]
        for b in (0, 1, 3):
            assert np.array_equal(H[b], estimate_rotation(xr[b], yr[b], bxy[b]))
        with pytest.raises(IllPosedRotationError):
            estimate_rotation(xr[2], yr[2], bxy[2])

    def test_procrustes_stack_equals_per_item(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(2, 6))
        ests = np.stack([rotation(a) @ truth + 0.1 * rng.normal(size=(2, 6)) for a in range(5)])
        for z in (truth, np.stack([truth + k for k in range(5)])):
            H, aligned, resid = procrustes_align(z, ests)
            assert resid.shape == (5,)
            for b in range(5):
                h1, a1, r1 = procrustes_align(z if z.ndim == 2 else z[b], ests[b])
                assert np.array_equal(H[b], h1) and np.array_equal(aligned[b], a1)
                assert resid[b] == r1

    def test_procrustes_residual_is_the_frobenius_norm(self):
        rng = np.random.default_rng(3)
        z, zhat = rng.normal(size=(2, 7)), rng.normal(size=(2, 7))
        _, aligned, resid = procrustes_align(z, zhat)
        assert resid == np.linalg.norm(z - aligned)
