import numpy as np
import pytest

from relkin import (
    DesignSystem,
    ExchangeConfig,
    NoiseModel,
    RankDeficiencyError,
    RangeCoefficients,
    TimestampExchangeSet,
    build_design,
    builtin_trajectory,
    crb_theta,
    order_select,
    pairwise_solve,
    range_matrices,
    rescale,
    simulate_exchanges,
    unscale,
    wls_solve,
)
from relkin.kinematics import TrajectorySet, canonical_pairs

import dense_oracle

C = 3e8


def single_pair_system(markers, tau, L, var=None):
    return DesignSystem(
        markers=np.asarray(markers, float)[None, :],
        tau=np.asarray(tau, float)[None, :],
        L=L,
        n_nodes=2,
        c=C,
        pair_variances=None if var is None else np.array([var]),
    )


class TestDesign:
    def test_vandermonde_block_order_two(self):
        sys = single_pair_system([0, 1, 2], [0, 0, 0], L=2)
        assert np.array_equal(sys.vandermonde()[0], [[1, 0], [1, 1], [1, 2]])

    def test_vandermonde_third_column(self):
        sys = single_pair_system([0, 1, 2], [0, 0, 0], L=3)
        assert np.array_equal(sys.vandermonde()[0][:, 2], [0, 1, 4])

    def test_global_first_block_is_kron_identity_ones(self):
        markers = np.zeros((3, 2))
        markers[:] = [0.0, 1.0]
        sys = DesignSystem(markers=markers, tau=np.zeros((3, 2)), L=1, n_nodes=3, c=C)
        assert np.array_equal(dense_oracle.global_matrix(sys), np.kron(np.eye(3), np.ones((2, 1))))

    def test_repeated_markers_rejected_with_pair_name(self):
        markers = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        with pytest.raises(RankDeficiencyError, match=r"\(0,2\)"):
            DesignSystem(markers=markers, tau=np.zeros((3, 3)), L=2, n_nodes=3, c=C)

    def test_build_from_exchanges(self):
        traj = builtin_trajectory("cluster5")
        ex = simulate_exchanges(traj, ExchangeConfig(K=8), NoiseModel(0.0), seed=0)
        sys = build_design(ex, L=4, noise=NoiseModel.from_pair_sigma(0.1, unit="m"))
        assert sys.K == 8 and sys.n_pairs == 10
        assert np.allclose(sys.pair_variances, (0.1 / C) ** 2)

    def test_noiseless_model_gives_unit_weights(self):
        traj = builtin_trajectory("cluster5")
        ex = simulate_exchanges(traj, ExchangeConfig(K=8), NoiseModel(0.0), seed=0)
        assert build_design(ex, L=3, noise=NoiseModel(0.0)).pair_variances is None

    def test_partially_silent_nodes_rejected(self):
        traj = TrajectorySet(X=[[0.0, 300.0, 100.0], [0.0, 0.0, 400.0]],
                             Y=np.zeros((2, 3)))
        noise = NoiseModel(sigma=np.array([0.0, 0.0, 1e-9]), unit="s")
        ex = simulate_exchanges(traj, ExchangeConfig(K=6), noise, seed=0)
        with pytest.raises(ValueError, match="zero delay variance"):
            build_design(ex, L=2, noise=noise)


class TestWls:
    def test_exact_interpolation(self):
        sys = single_pair_system([0, 1, 2], [2.0, 2.5, 3.0], L=2)
        coeffs = wls_solve(sys)
        assert coeffs.scaled[0] == pytest.approx([2.0, 0.5], abs=1e-12)

    def test_noiseless_fixture_recovery_exact_delays(self):
        # with physically exact delays, the L=4 fit carries the quartic
        # Taylor truncation; block vector-relative errors frozen from the
        # direct oracle: ~5e-7 (r), ~3e-6 (rdot), ~4e-3 (rddot)
        traj = builtin_trajectory("cluster5")
        ex = simulate_exchanges(traj, ExchangeConfig(K=10), NoiseModel(0.0), seed=0)
        coeffs = wls_solve(build_design(ex, L=4))
        r, rdot, rddot = range_matrices(traj).pair_vectors()
        phys = coeffs.physical
        assert np.linalg.norm(phys[:, 0] - r) / np.linalg.norm(r) < 1e-6
        assert np.linalg.norm(phys[:, 1] - rdot) / np.linalg.norm(rdot) < 1e-5
        assert np.linalg.norm(phys[:, 2] - rddot) / np.linalg.norm(rddot) < 1e-2

    def test_noiseless_fixture_recovery_polynomial_delays(self):
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=10, delay_model="taylor")
        ex = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        coeffs = wls_solve(build_design(ex, L=4))
        r, rdot, rddot = range_matrices(traj).pair_vectors()
        phys = coeffs.physical
        assert np.linalg.norm(phys[:, 0] - r) / np.linalg.norm(r) < 1e-9
        assert np.linalg.norm(phys[:, 1] - rdot) / np.linalg.norm(rdot) < 1e-8
        assert np.linalg.norm(phys[:, 2] - rddot) / np.linalg.norm(rddot) < 1e-6

    def test_variance_scale_invariance(self):
        traj = builtin_trajectory("cluster5")
        ex = simulate_exchanges(traj, ExchangeConfig(K=12),
                                NoiseModel.from_pair_sigma(0.2, unit="m"), seed=3)
        var = np.full(10, 1e-18)
        a = wls_solve(build_design(ex, L=3, pair_variances=var))
        b = wls_solve(build_design(ex, L=3, pair_variances=7.5 * var))
        assert np.allclose(a.scaled, b.scaled, rtol=1e-12)

    def test_single_pair_matches_global(self):
        sys = single_pair_system([0.0, 0.5, 1.0, 1.5], [1.0, 1.2, 1.5, 1.9], L=3)
        assert np.allclose(wls_solve(sys).scaled, dense_oracle.wls(sys), atol=1e-14)

    def test_near_coincident_markers_rejected_by_rank_rule(self):
        # distinct in float64, so the design is accepted, but two markers one
        # ulp apart leave the (0,2) block numerically rank 3 of 4
        markers = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0 + 2**-52, 2.0],
                            [0.0, 1.0, 2.0, 3.0]])
        sys = DesignSystem(markers=markers, tau=np.zeros((3, 4)), L=4, n_nodes=3, c=C,
                           pair_variances=np.ones(3))
        for solver in (wls_solve, crb_theta):
            with pytest.raises(RankDeficiencyError, match=r"offending pairs \[\(0, 2\)\]"):
                solver(sys)

    def test_interpolatory_pair_with_k_equals_l(self):
        sys = single_pair_system([0.0, 1.0, 2.0], [1.0, 2.0, 4.5], L=3)
        coeffs = pairwise_solve(sys)
        fitted = sys.vandermonde()[0] @ coeffs.scaled[0]
        assert np.allclose(fitted, sys.tau[0], atol=1e-12)


class TestEfficiency:
    def test_wls_unbiased_and_attains_bound(self):
        # Monte Carlo at the reference setup with model-consistent delays:
        # per-entry mean errors stay inside three standard errors of an
        # efficient unbiased estimator, and the vector RMSE/RCRB ratios sit
        # in [0.97, 1.10].  (Physically exact delays add a deterministic
        # truncation bias of up to ~7 standard errors on the worst pair's
        # second derivative, asserted separately below.)
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        cfg = ExchangeConfig(K=100, delay_model="taylor")
        n_exp = 400
        ex0 = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        crb = crb_theta(build_design(ex0, L=4, noise=noise))
        truth = np.column_stack(range_matrices(traj).pair_vectors())
        errors = np.empty((n_exp, 10, 3))
        for trial in range(n_exp):
            ex = simulate_exchanges(traj, cfg, noise, seed=210, stream=(trial,))
            phys = wls_solve(build_design(ex, L=4, noise=noise)).physical
            errors[trial] = phys[:, :3] - truth
        for ell in range(3):
            per_pair_rcrb = crb.per_pair_rcrb(ell)
            mean_err = np.abs(errors[:, :, ell].mean(axis=0))
            assert np.all(mean_err < 3.0 * per_pair_rcrb / np.sqrt(n_exp))
            rmse = np.sqrt(np.mean(np.sum(errors[:, :, ell] ** 2, axis=1)))
            assert 0.97 <= rmse / crb.rcrb(ell) <= 1.10

    def test_exact_delay_bias_bounded_by_truncation(self):
        # under exact delays the noiseless fit error IS the deterministic
        # truncation bias; the worst entry (the shortest, most curved
        # baseline's second derivative) measures 0.38 of the per-pair bound
        # noise at K=100, sigma=0.1 m, inflating the vector RMSE/RCRB ratio
        # by under one percent
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        ex = simulate_exchanges(traj, ExchangeConfig(K=100), NoiseModel(0.0), seed=0)
        bias = wls_solve(build_design(ex, L=4)).physical[:, :3] - np.column_stack(
            range_matrices(traj).pair_vectors())
        crb = crb_theta(build_design(ex, L=4, noise=noise))
        for ell in range(3):
            assert np.all(np.abs(bias[:, ell]) < 0.5 * crb.per_pair_rcrb(ell))


class TestDistributedEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_global_equals_stacked_pairwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        traj = TrajectorySet(X=rng.uniform(-500, 500, (2, n)), Y=rng.uniform(-8, 8, (2, n)))
        k = int(rng.integers(6, 30))
        noise = NoiseModel(sigma=rng.uniform(1e-10, 1e-9, n), unit="s")
        ex = simulate_exchanges(traj, ExchangeConfig(K=k), noise, seed=seed)
        sys = build_design(ex, L=4, noise=noise)
        a, b = pairwise_solve(sys).scaled, dense_oracle.wls(sys)
        assert np.max(np.abs(a - b)) < 1e-12


class TestRescale:
    def test_identity_speed(self):
        assert rescale(np.array([7.0]), c=1.0) == pytest.approx([7.0])

    def test_factorial_diagonal_map(self):
        theta = rescale(np.array([1e-6, 1e-9, 1e-12]), c=3e8)
        assert theta == pytest.approx([300.0, 0.3, 6e-4], rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        scaled = rng.normal(size=(4, 5))
        back = unscale(rescale(scaled, c=3e8), c=3e8)
        assert np.allclose(back, scaled, rtol=1e-15)

    def test_coefficients_physical_property(self):
        coeffs = RangeCoefficients(scaled=np.array([[1e-6, 2e-9, 3e-12]]), n_nodes=2, c=C)
        assert coeffs.physical[0] == pytest.approx([300.0, 0.6, 1.8e-3])
        rm = coeffs.to_range_matrices()
        assert rm.R[0, 1] == pytest.approx(300.0)
        assert rm.Rddot[1, 0] == pytest.approx(1.8e-3)


class TestCrbTheta:
    def test_single_pair_order_one(self):
        k, sigma = 8, 2e-9
        sys = single_pair_system(np.linspace(-3, 3, k), np.zeros(k), L=1, var=sigma**2)
        crb = crb_theta(sys)
        assert crb.block(0)[0, 0] == pytest.approx(C**2 * sigma**2 / k, rel=1e-12)

    def test_doubling_messages_halves_range_variance(self):
        sigma = 1e-9
        var = {}
        for k in (10, 20):
            sys = single_pair_system(np.linspace(-3, 3, k), np.zeros(k), L=1, var=sigma**2)
            var[k] = crb_theta(sys).block(0)[0, 0]
        assert var[20] == pytest.approx(var[10] / 2, rel=1e-12)

    def test_added_measurements_never_hurt_any_coefficient(self):
        sigma = 1e-9
        base = np.linspace(-3, 3, 10)
        extra = np.concatenate([base, np.linspace(-2.7, 2.7, 9)])
        small = crb_theta(single_pair_system(base, np.zeros(10), L=4, var=sigma**2))
        large = crb_theta(single_pair_system(extra, np.zeros(19), L=4, var=sigma**2))
        diag = lambda crb: np.diagonal(crb.cov, axis1=1, axis2=2)
        assert np.all(diag(large) <= diag(small) + 1e-30)

    def test_block_layout_matches_network(self):
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        ex = simulate_exchanges(traj, ExchangeConfig(K=20), NoiseModel(0.0), seed=0)
        sys = build_design(ex, L=4, noise=noise)
        crb = crb_theta(sys)
        assert crb.cov.shape == (10, 4, 4)
        # identical grids and variances: every pair shares one per-pair bound
        for ell in range(4):
            d = np.diag(crb.block(ell))
            assert np.allclose(d, d[0])
        assert crb.rcrb(0) == pytest.approx(np.sqrt(10 * crb.block(0)[0, 0]))

    def test_requires_variances(self):
        sys = single_pair_system([0, 1, 2], [0, 0, 0], L=2)
        with pytest.raises(ValueError):
            crb_theta(sys)

    def test_qr_bound_matches_explicit_normal_inverse(self):
        # independent route: invert the dense network-wide A^T S^-1 A and
        # conjugate by the rescaling map; the per-pair QR path must agree
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        ex = simulate_exchanges(traj, ExchangeConfig(K=25), NoiseModel(0.0), seed=0)
        sys = build_design(ex, L=4, noise=noise)
        crb = crb_theta(sys)
        direct = dense_oracle.per_pair_blocks(dense_oracle.crb(sys), sys.n_pairs, 4)
        assert np.allclose(crb.cov, direct, rtol=1e-9)

    def test_bound_unaffected_by_direction_policy(self):
        # the bound depends on the markers and covariance only; direction
        # flags live in the measurements
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        covs = {}
        for policy in ("one_way", "alternating"):
            cfg = ExchangeConfig(K=16, direction_policy=policy)
            ex = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
            covs[policy] = crb_theta(build_design(ex, L=4, noise=noise)).cov
        assert np.array_equal(covs["one_way"], covs["alternating"])


class TestOrderSelect:
    def test_constant_delays_select_one(self):
        traj = TrajectorySet(X=[[0.0, 400.0], [0.0, 0.0]], Y=np.zeros((2, 2)))
        ex = simulate_exchanges(traj, ExchangeConfig(K=12), NoiseModel(0.0), seed=0)
        chosen, coeffs = order_select(ex, L_max=4)
        assert chosen == 1
        assert coeffs.L == 1

    def test_exact_linear_delays_select_two(self):
        # purely radial motion keeps the delay linear in time
        traj = TrajectorySet(X=[[0.0, 3e4], [0.0, 0.0]], Y=[[0.0, 5.0], [0.0, 0.0]])
        ex = simulate_exchanges(traj, ExchangeConfig(K=12, delay_model="taylor"),
                                NoiseModel(0.0), seed=0)
        chosen, _ = order_select(ex, L_max=4)
        assert chosen == 2

    def test_fixture_noisy_selection(self):
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        ex = simulate_exchanges(traj, ExchangeConfig(K=100), noise, seed=11)
        chosen, _ = order_select(ex, L_max=6, noise=noise)
        assert chosen in (3, 4)
