import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relkin import (
    DegenerateGeometryError,
    ExchangeConfig,
    FisherInfo,
    NoiseModel,
    RangeNoiseCovariances,
    build_design,
    builtin_trajectory,
    canonical_pairs,
    centering_matrix,
    crb_theta,
    crb_trace,
    fim_position,
    fim_velocity,
    range_matrices,
    simulate_exchanges,
)
from relkin.exceptions import ConfigError, UnsupportedCovarianceError
from relkin.kinematics import RangeMatrices, TrajectorySet, pair_count

import dense_oracle
from test_kinematics import geometries


def fixture_covariances(traj, k=100, sigma_m=0.1):
    noise = NoiseModel.from_pair_sigma(sigma_m, unit="m")
    ex = simulate_exchanges(traj, ExchangeConfig(K=k), NoiseModel(0.0), seed=0)
    crb = crb_theta(build_design(ex, L=4, noise=noise))
    return RangeNoiseCovariances.from_theta_crb(crb)


def n_small_eigs(fi: FisherInfo, rel=1e-10):
    lam = np.linalg.eigvalsh(fi.matrix)
    return int(np.sum(lam <= rel * lam[-1]))


def rotation_generator_vec(z):
    s = np.array([[0.0, -1.0], [1.0, 0.0]])
    return (s @ z).T.reshape(-1)


class TestFimPosition:
    def test_fixture_rank_deficient_by_three(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        fx = fim_position(traj.X @ centering_matrix(5), covs.Sigma_r)
        assert fx.structural_deficiency == 3
        assert n_small_eigs(fx) == 3
        assert np.linalg.matrix_rank(fx.matrix) == 7

    def test_translation_invariance(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        a = fim_position(traj.X, covs.Sigma_r).matrix
        b = fim_position(traj.X + np.array([[55.0], [-20.0]]), covs.Sigma_r).matrix
        assert np.allclose(a, b, rtol=1e-9)

    def test_null_space_holds_translations_and_rotation(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        xc = traj.X @ centering_matrix(5)
        fx = fim_position(xc, covs.Sigma_r).matrix
        scale = np.linalg.norm(fx)
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            v = np.tile(e, 5)
            assert np.linalg.norm(fx @ v) / (scale * np.linalg.norm(v)) < 1e-9
        v = rotation_generator_vec(xc)
        assert np.linalg.norm(fx @ v) / (scale * np.linalg.norm(v)) < 1e-9

    def test_duplicate_pair_convention_doubles_information(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        xc = traj.X @ centering_matrix(5)
        full = fim_position(xc, covs.Sigma_r, duplicate_pairs=True).matrix
        half = fim_position(xc, covs.Sigma_r, duplicate_pairs=False).matrix
        assert np.allclose(full, 2.0 * half, rtol=1e-12)

    def test_coincident_nodes_rejected(self):
        x = np.array([[0.0, 0.0, 3.0], [1.0, 1.0, 2.0]])
        with pytest.raises(DegenerateGeometryError):
            fim_position(x, np.eye(3))


class TestFimVelocity:
    def test_fixture_rank_deficient_by_three(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        fy = fim_velocity(traj.Y @ centering_matrix(5), range_matrices(traj), covs)
        assert n_small_eigs(fy) == 3

    def test_null_space_holds_translations_and_rotation(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        yc = traj.Y @ centering_matrix(5)
        fy = fim_velocity(yc, range_matrices(traj), covs).matrix
        scale = np.linalg.norm(fy)
        v = rotation_generator_vec(yc)
        assert np.linalg.norm(fy @ v) / (scale * np.linalg.norm(v)) < 1e-9

    def test_velocity_scaling_homogeneity(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        rm = range_matrices(traj)
        yc = traj.Y @ centering_matrix(5)
        f1 = fim_velocity(yc, rm, covs).matrix
        f2 = fim_velocity(3.0 * yc, rm, covs).matrix
        assert np.allclose(f2, 9.0 * f1, rtol=1e-10)

    @pytest.mark.parametrize("y", [(2.0, 1.0), (3.7, -1.3), (0.1, 0.2)],
                             ids=lambda y: "{:g},{:g}".format(*y))
    def test_equal_velocities_are_uninformed(self, y):
        # uncentered, the velocity differences are exactly zero, so F is too;
        # centering would leave rounding noise that reads as a finite bound
        traj = TrajectorySet(X=builtin_trajectory("cluster5").X,
                             Y=np.tile(np.array(y)[:, None], (1, 5)))
        covs = fixture_covariances(traj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fy = fim_velocity(traj.Y, range_matrices(traj), covs)
        assert np.all(fy.matrix == 0.0)
        assert crb_trace(fy) == np.inf

    def test_zero_range_pair_is_degenerate(self):
        # every variance is > 0, so s = r^2 var_rddot + rddot^2 var_r +
        # 4 rdot^2 var_rdot vanishes only where the pair's r, rdot, rddot do
        traj = builtin_trajectory("cluster5")
        r, rdot, rddot = range_matrices(traj).pair_vectors()
        for v in (r, rdot, rddot):
            v[3] = 0.0  # pair (0, 4)
        rm = RangeMatrices.from_pair_vectors(5, r, rdot, rddot)
        with pytest.raises(DegenerateGeometryError,
                           match=r"^nodes \(0, 4\) are at zero range in rm: .* is 0\.0$"):
            fim_velocity(traj.Y @ centering_matrix(5), rm, fixture_covariances(traj))

    def test_range_matrices_of_another_network_rejected(self):
        # a 2-node rm's one pair would broadcast over cluster5's 10 pairs and
        # give a finite but wrong bound (trace 0.298 where cluster5's own is 0.306)
        traj = builtin_trajectory("cluster5")
        two = TrajectorySet(X=traj.X[:, :2], Y=traj.Y[:, :2])
        with pytest.raises(ValueError, match=r"^range matrices of 2 nodes for 5 nodes$"):
            fim_velocity(traj.Y, range_matrices(two), fixture_covariances(traj))

    def test_random_generic_configurations_rank_law(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            traj = TrajectorySet(X=rng.uniform(-400, 400, (2, n)),
                                 Y=rng.uniform(-10, 10, (2, n)))
            covs = fixture_covariances(traj, k=40)
            pc = centering_matrix(n)
            fx = fim_position(traj.X @ pc, covs.Sigma_r)
            fy = fim_velocity(traj.Y @ pc, range_matrices(traj), covs)
            assert n_small_eigs(fx) == 3
            assert n_small_eigs(fy) == 3


# The FIM rank law (arXiv:1401.5925) on random networks in the plane and in
# space: both information matrices have rank PN - P(P+1)/2 (P translations
# and P(P-1)/2 rotations) when the centered positions, respectively
# velocities, span the P dimensions.  A nearly collinear, respectively
# coplanar, X or Y has a true but tiny further eigenvalue, so draws within
# 1% of that are skipped.  Over 3,000 planar draws the others kept it above
# 3e-7 of the largest eigenvalue, and the three structural ones stayed below
# 5e-16; over 2,000 spatial draws of 4..7 nodes the six structural ones
# stayed below 5e-16 and the smallest kept one above 1.4e-7.
@settings(max_examples=150, deadline=None)
@given(traj=geometries(dims=(2, 3)))
def test_rank_law_on_random_geometries(traj):
    P, pc = traj.P, centering_matrix(traj.N)
    xc, yc = traj.X @ pc, traj.Y @ pc
    for z in (xc, yc):
        s = np.linalg.svd(z, compute_uv=False)
        assume(s[P - 1] > 1e-2 * s[0])
    covs = fixture_covariances(traj, k=20)
    for fi in (fim_position(xc, covs.Sigma_r), fim_velocity(yc, range_matrices(traj), covs)):
        assert fi.size == P * traj.N
        assert n_small_eigs(fi) == P * (P + 1) // 2  # rank PN - P(P+1)/2


def random_case(rng, n):
    """Generic n-node trajectory with independent random per-pair variances."""
    traj = TrajectorySet(X=rng.uniform(-400, 400, (2, n)), Y=rng.uniform(-10, 10, (2, n)))
    nbar = n * (n - 1) // 2
    covs = RangeNoiseCovariances(*(10.0 ** rng.uniform(-4, -1, nbar) for _ in range(3)))
    return traj, covs


def assert_matches(F, dense, rtol=1e-12):
    assert np.max(np.abs(F - dense)) <= rtol * np.max(np.abs(dense))


class TestDenseOracle:
    """The pair-difference Grams equal J^T Sigma^-1 J from the dense Jacobian."""

    @pytest.mark.parametrize("duplicate_pairs", [True, False])
    def test_position_matches_dense_solve(self, duplicate_pairs):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(4, 13))
            traj, covs = random_case(rng, n)
            xc = traj.X @ centering_matrix(n)
            F = fim_position(xc, covs.Sigma_r, duplicate_pairs=duplicate_pairs).matrix
            assert_matches(F, dense_oracle.fim_position(xc, covs.Sigma_r, duplicate_pairs))

    @pytest.mark.parametrize("duplicate_pairs", [True, False])
    def test_velocity_matches_dense_solve(self, duplicate_pairs):
        rng = np.random.default_rng(12)
        for _ in range(8):
            n = int(rng.integers(4, 13))
            traj, covs = random_case(rng, n)
            yc = traj.Y @ centering_matrix(n)
            rm = range_matrices(traj)
            F = fim_velocity(yc, rm, covs, duplicate_pairs=duplicate_pairs).matrix
            S = dense_oracle.velocity_covariance(rm, covs.Sigma_r, covs.Sigma_rdot,
                                                 covs.Sigma_rddot)
            assert_matches(F, dense_oracle.fim_velocity(yc, S, duplicate_pairs))

    def test_diagonal_matrix_form_equals_vector_form(self):
        traj, covs = random_case(np.random.default_rng(13), 6)
        dense = RangeNoiseCovariances(np.diag(covs.Sigma_r), np.diag(covs.Sigma_rdot),
                                      np.diag(covs.Sigma_rddot))
        assert dense.Sigma_r.shape == (15,)
        xc, yc = traj.X @ centering_matrix(6), traj.Y @ centering_matrix(6)
        rm = range_matrices(traj)
        assert np.array_equal(fim_position(xc, np.diag(covs.Sigma_r)).matrix,
                              fim_position(xc, covs.Sigma_r).matrix)
        assert np.array_equal(fim_velocity(yc, rm, dense).matrix,
                              fim_velocity(yc, rm, covs).matrix)

    def test_non_diagonal_covariance_rejected(self):
        traj = builtin_trajectory("cluster5")
        correlated = np.eye(10)
        correlated[0, 3] = correlated[3, 0] = 0.5
        with pytest.raises(UnsupportedCovarianceError):
            RangeNoiseCovariances(np.eye(10), correlated, np.eye(10))
        with pytest.raises(UnsupportedCovarianceError):
            fim_position(traj.X, correlated)

    @pytest.mark.parametrize("make", [
        lambda: np.where(np.eye(10, k=7), np.nan, np.eye(10)),
        lambda: np.eye(10) + np.eye(10, k=2) - np.eye(10, k=-2),
        lambda: np.eye(10)[:, :9],
        lambda: np.ones((2, 5, 5)),
        lambda: np.float64(1.0),
    ], ids=["nan-off-diagonal", "cancelling-off-diagonal", "non-square", "three-d", "scalar"])
    def test_non_pair_covariance_shape_rejected(self, make):
        with pytest.raises(UnsupportedCovarianceError):
            RangeNoiseCovariances(np.ones(10), make(), np.ones(10))


BAD_VARIANCES, BAD_IDS = [0.0, -1e-4, np.inf, np.nan], ["zero", "negative", "inf", "nan"]


class TestInvalidVariances:
    """A pair variance must be finite and > 0, and the three fields share one length."""

    @pytest.mark.parametrize("bad", BAD_VARIANCES, ids=BAD_IDS)
    @pytest.mark.parametrize("field", ["Sigma_r", "Sigma_rdot", "Sigma_rddot"])
    def test_rejected_naming_field_and_pair(self, field, bad):
        fields = dict.fromkeys(("Sigma_r", "Sigma_rdot", "Sigma_rddot"), np.full(10, 0.01))
        fields[field] = np.where(np.arange(10) == 4, bad, 0.01)
        with pytest.raises(ConfigError, match=rf"^{field} of pair \(1, 2\) is {bad!r};"):
            RangeNoiseCovariances(**fields)

    @pytest.mark.parametrize("bad", BAD_VARIANCES, ids=BAD_IDS)
    def test_position_bound_rejects_vector_and_matrix(self, bad):
        xc = builtin_trajectory("cluster5").X @ centering_matrix(5)
        var = np.where(np.arange(10) == 9, bad, 0.01)
        for sigma in (var, np.diag(var)):
            with pytest.raises(ConfigError, match=r"^Sigma_r of pair \(3, 4\)"):
                fim_position(xc, sigma)

    @pytest.mark.parametrize("length", [1, 7])
    def test_lengths_must_agree(self, length):
        with pytest.raises(ConfigError, match=rf"share one length, got \[10, {length}, 10\]"):
            RangeNoiseCovariances(np.full(10, 0.01), np.full(length, 0.01), np.full(10, 0.01))


class TestScale:
    def test_n100_bounds_and_solve_stay_small(self):
        # the pair-difference Grams keep N=100 bounds in O(Nbar P^2) memory;
        # dense N^2 x N^2 / Nbar x Nbar forms would need over 1 GB here
        import tracemalloc

        from relkin import solve_relative

        n = 100
        rng = np.random.default_rng(100)
        traj = TrajectorySet(X=rng.uniform(-400, 400, (2, n)), Y=rng.uniform(-10, 10, (2, n)))
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        ex = simulate_exchanges(traj, ExchangeConfig(K=20), NoiseModel(0.0), seed=0)
        crb = crb_theta(build_design(ex, L=4, noise=noise))
        rm = range_matrices(traj)
        pc = centering_matrix(n)
        tracemalloc.start()
        try:
            covs = RangeNoiseCovariances.from_theta_crb(crb)
            fx = fim_position(traj.X @ pc, covs.Sigma_r)
            fy = fim_velocity(traj.Y @ pc, rm, covs)
            traces = crb_trace(fx), crb_trace(fy)
            sol = solve_relative(rm, P=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert all(np.isfinite(t) and t > 0 for t in traces)
        assert sol.Hy.shape == (2, 2)
        for fi in (fx, fy):
            assert fi.size == 2 * n
            assert fi.size - n_small_eigs(fi) == 2 * n - 3


class TestCrbTrace:
    def test_diagonal_pseudo_inverse(self):
        fi = FisherInfo(matrix=np.diag([2.0, 2.0, 0.0]), structural_deficiency=1)
        assert crb_trace(fi) == pytest.approx(1.0)

    def test_inverse_scaling(self):
        rng = np.random.default_rng(1)
        j = rng.normal(size=(8, 5))
        f = j.T @ j
        assert crb_trace(FisherInfo(3.0 * f, 0)) == \
            pytest.approx(crb_trace(FisherInfo(f, 0)) / 3.0, rel=1e-10)

    @staticmethod
    def rotated_spectrum(eigenvalues):
        # one structural zero, so the second smallest eigenvalue is the
        # least informed direction the bound keeps
        q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))
        return FisherInfo(matrix=q @ np.diag(eigenvalues) @ q.T, structural_deficiency=1)

    @pytest.mark.parametrize("eigenvalues", [[3.0, 2.0, 0.0, 0.0], [3.0, 2.0, 1e-17, 0.0],
                                             [0.0] * 4], ids=["null", "near-null", "zero"])
    def test_uninformed_direction_beyond_structural_is_inf(self, eigenvalues):
        # near-null: 1e-17 lies below the rounding scale 4 eps 3 = 2.7e-15
        assert crb_trace(self.rotated_spectrum(eigenvalues)) == np.inf

    def test_small_direction_above_rounding_scale_is_finite(self):
        # 1e-11 of the largest is small, but far above the rounding scale; its
        # eigenvalue carries an absolute error of a few eps, so rel=1e-4
        fi = self.rotated_spectrum([3.0, 2.0, 1e-11, 0.0])
        assert crb_trace(fi) == pytest.approx(1 / 3 + 1 / 2 + 1e11, rel=1e-4)

    def test_generic_fixture_drops_exactly_the_structural_zeros(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        pc = centering_matrix(5)
        for fi in (fim_position(traj.X @ pc, covs.Sigma_r),
                   fim_velocity(traj.Y @ pc, range_matrices(traj), covs)):
            # on a generic geometry a relative cutoff finds the same kept eigenvalues
            lam = np.linalg.eigvalsh(fi.matrix)
            kept = lam[lam > 1e-10 * lam[-1]]
            assert len(kept) == fi.size - fi.structural_deficiency
            assert crb_trace(fi) == float(np.sum(1.0 / kept))

    def test_rotation_invariance(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj)
        pc = centering_matrix(5)
        xc = traj.X @ pc
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        t0 = crb_trace(fim_position(xc, covs.Sigma_r))
        t1 = crb_trace(fim_position(q @ xc, covs.Sigma_r))
        assert t1 == pytest.approx(t0, rel=1e-9)

    def test_fixture_reference_values_finite(self):
        traj = builtin_trajectory("cluster5")
        covs = fixture_covariances(traj, k=100, sigma_m=0.1)
        pc = centering_matrix(5)
        rx = np.sqrt(crb_trace(fim_position(traj.X @ pc, covs.Sigma_r)))
        ry = np.sqrt(crb_trace(fim_velocity(traj.Y @ pc, range_matrices(traj), covs)))
        assert 0.0 < rx < 1.0   # sub-meter floor at 0.1 m pair noise, K=100
        assert 0.0 < ry < 1.0


@st.composite
def planar_fims(draw, kind):
    """(TrajectorySet, [FisherInfo]) of an uncentered planar network of 3..48
    nodes, positions on a 1 mm grid within 1 km and velocities on a 1 mm/s
    grid within 20 m/s, with random per-pair variances.  Kind "generic"
    gives both information matrices; "equal-velocities",
    "collinear-velocities" and "collinear-positions" (exactly so on the
    integer grid, before scaling to meters) give the one they leave
    uninformed."""
    n = draw(st.integers(3, 48))
    ints = lambda bound, size, unique=False: np.array(draw(st.lists(
        st.integers(-bound, bound), min_size=size, max_size=size, unique=unique)), float)

    def line(bound, unique):
        direction = ints(9, 2)
        assume(direction.any())
        s = ints(bound // 10, n, unique)
        return (ints(bound, 2)[:, None] + direction[:, None] * s) / 1e3

    # distinct first coordinates keep the nodes apart
    X = line(10**6, True) if kind == "collinear-positions" else \
        np.stack([ints(10**6, n, True), ints(10**6, n)]) / 1e3
    if kind == "equal-velocities":
        Y = np.tile(ints(20_000, 2)[:, None], (1, n)) / 1e3
    elif kind == "collinear-velocities":
        Y = line(20_000, False)
    else:
        Y = ints(20_000, 2 * n).reshape(2, n) / 1e3
    traj = TrajectorySet(X=X, Y=Y)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = RangeNoiseCovariances(*(10.0 ** rng.uniform(-4, -1, pair_count(n)) for _ in range(3)))
    fx = lambda: fim_position(X, covs.Sigma_r)
    fy = lambda: fim_velocity(Y, range_matrices(traj), covs)
    fims = [f() for f in {"generic": (fx, fy), "collinear-positions": (fx,)}.get(kind, (fy,))]
    return traj, fims


# crb_trace's one rule on uncentered inputs: an exactly degenerate geometry
# reads inf (its extra null eigenvalues stay below the rounding scale
# fi.size eps lambda_max), a generic one the sum of the inverses of its
# 2N - 3 kept eigenvalues.
@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(["equal-velocities", "collinear-velocities",
                             "collinear-positions"]).flatmap(planar_fims))
def test_crb_trace_inf_on_degenerate_geometries(case):
    _, (fi,) = case
    assert crb_trace(fi) == np.inf


@settings(max_examples=100, deadline=None)
@given(case=planar_fims("generic"))
def test_crb_trace_sums_kept_inverses_on_generic_geometries(case):
    traj, fims = case
    pc = centering_matrix(traj.N)
    for z in (traj.X @ pc, traj.Y @ pc):  # skip draws within 1% of collinear
        s = np.linalg.svd(z, compute_uv=False)
        assume(s[1] > 1e-2 * s[0])
    for fi in fims:
        lam = np.linalg.eigvalsh(fi.matrix)[fi.structural_deficiency:]
        assert crb_trace(fi) == float(np.sum(1.0 / lam)) < np.inf


class TestRmseAboveBound:
    def test_aligned_rmse_not_meaningfully_below_rcrb(self):
        # moderate-noise Monte Carlo: the aligned position RMSE may exceed
        # the bound but must not undercut it
        from relkin import solve_relative, wls_solve
        from trial_oracle import rmse_matrix_aligned

        traj = builtin_trajectory("cluster5")
        k, sigma = 60, 0.1
        noise = NoiseModel.from_pair_sigma(sigma, unit="m")
        cfg = ExchangeConfig(K=k)
        covs = fixture_covariances(traj, k=k, sigma_m=sigma)
        pc = centering_matrix(5)
        rcrb = np.sqrt(crb_trace(fim_position(traj.X @ pc, covs.Sigma_r)))
        estimates = []
        for trial in range(120):
            ex = simulate_exchanges(traj, cfg, noise, seed=99, stream=(trial,))
            coeffs = wls_solve(build_design(ex, L=4, noise=noise))
            estimates.append(solve_relative(coeffs.to_range_matrices(), P=2).Xrel)
        rmse = rmse_matrix_aligned(estimates, traj.X)
        assert rmse >= 0.9 * rcrb
        assert rmse <= 3.0 * rcrb
