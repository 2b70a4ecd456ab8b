import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relkin import (
    ConfigError,
    DesignSystem,
    ExchangeConfig,
    NoiseModel,
    RankDeficiencyError,
    RangeCoefficients,
    TimestampExchangeSet,
    build_design,
    builtin_trajectory,
    centering_matrix,
    crb_theta,
    pairwise_solve,
    procrustes_align,
    range_matrices,
    simulate_exchanges,
    solve_relative,
    wls_solve,
)
from relkin.kinematics import TrajectorySet, _pair_kinematics, canonical_pairs
from relkin.ranging import _fit_pairs, _fit_stack, scale_factors

import dense_oracle
from test_kinematics import geometries

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
        assert np.array_equal(sys._rows()[0, :2], [[1, 1, 1], [0, 1, 2]])

    def test_vandermonde_third_column(self):
        sys = single_pair_system([0, 1, 2], [0, 0, 0], L=3)
        assert np.array_equal(sys._rows()[0, 2], [0, 1, 4])

    def test_global_first_block_is_kron_identity_ones(self):
        markers = np.zeros((3, 2))
        markers[:] = [0.0, 1.0]
        sys = DesignSystem(markers=markers, tau=np.zeros((3, 2)), L=1, n_nodes=3, c=C)
        assert np.array_equal(dense_oracle.global_matrix(sys), np.kron(np.eye(3), np.ones((2, 1))))

    def test_repeated_markers_rejected_with_pair_name(self):
        markers = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        sys = DesignSystem(markers=markers, tau=np.zeros((3, 3)), L=2, n_nodes=3, c=C,
                           pair_variances=np.ones(3))
        for solve in (wls_solve, crb_theta):
            with pytest.raises(RankDeficiencyError, match=r"offending pairs \[\(0, 2\)\]"):
                solve(sys)

    def test_fewer_messages_than_coefficients_rejected(self):
        # K < L leaves R with only K rows: every pair is rank deficient
        markers = np.tile([0.0, 1.0], (3, 1))
        sys = DesignSystem(markers=markers, tau=np.zeros((3, 2)), L=3, n_nodes=3, c=C,
                           pair_variances=np.ones(3))
        for solve in (wls_solve, crb_theta):
            with pytest.raises(RankDeficiencyError,
                               match=r"offending pairs \[\(0, 1\), \(0, 2\), \(1, 2\)\]"):
                solve(sys)

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
        with pytest.raises(ValueError, match=r"^delay variance of pair \(0, 1\) is 0\.0;"):
            build_design(ex, L=2, noise=noise)

    @pytest.mark.parametrize("bad", [0.0, -1e-18, np.inf, np.nan],
                             ids=["zero", "negative", "inf", "nan"])
    def test_invalid_pair_variance_rejected_naming_pair(self, bad):
        # the rule of every pair variance: finite and > 0
        var = np.where(np.arange(3) == 2, bad, 1e-18)
        with pytest.raises(ConfigError, match=rf"^delay variance of pair \(1, 2\) is {bad!r}; "
                                              r"a pair variance must be finite and > 0$"):
            DesignSystem(markers=np.tile([0.0, 1.0, 2.0], (3, 1)), tau=np.zeros((3, 3)), L=2,
                         n_nodes=3, c=C, pair_variances=var)


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
        design = lambda v: DesignSystem(markers=ex.t_i, tau=ex.tau(), L=3, n_nodes=5, c=ex.c,
                                        pair_variances=v)
        a = wls_solve(design(var))
        b = wls_solve(design(7.5 * var))
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
        fitted = np.vander(sys.markers[0], 3, increasing=True) @ coeffs.scaled[0]
        assert np.allclose(fitted, sys.tau[0], atol=1e-12)


# Noiseless exactness on random planar networks (arXiv:1401.5925).
@settings(max_examples=150, deadline=None)
@given(traj=geometries(dims=(2, 2)))
def test_noiseless_taylor_recovery_on_random_geometries(traj):
    ex = simulate_exchanges(traj, ExchangeConfig(K=20, delay_model="taylor"),
                            NoiseModel(0.0), seed=0)
    coeffs = wls_solve(build_design(ex, L=4))
    # Taylor delays are exactly cubic in t, so the L=4 fit errs by roundoff
    # alone: each delay carries about half an ulp of the largest marker M,
    # and delta = c eps M bounds every fitted coefficient's error in its own
    # unit (m, m/s, m/s^2).  Over 12,000 draws the largest error was 0.19 delta.
    delta = ex.c * np.finfo(float).eps * max(np.abs(ex.t_i).max(), np.abs(ex.t_j).max())
    for est, true in zip(coeffs.physical.T, _pair_kinematics(traj.X, traj.Y)[:3]):
        assert np.max(np.abs(est - true)) <= delta
    # First-order propagation of a delta coefficient error: the Grams and the
    # embedding carry it to delta |xc| / s_x in Xrel and delta |xc| / s_y in
    # Yrel (s_x, s_y the smallest singular values of xc, yc), and the
    # rotation system, of condition 1 / rho, carries both into Hy.  A draw
    # whose bound reaches 1% of s_x or s_y leaves the first-order regime and
    # is skipped.  Over 12,000 draws the errors reached 0.091 of bound_x and
    # 0.030 of bound_y.
    assume(np.any(traj.Y != traj.Y[:, :1]))
    pc = centering_matrix(traj.N)
    xc, yc = traj.X @ pc, traj.Y @ pc
    sx, sy = (np.linalg.svd(z, compute_uv=False)[-1] for z in (xc, yc))
    s = np.linalg.svd(dense_oracle.rotation_system(xc, yc), compute_uv=False)
    rho = s[-1] / s[0]
    assume(min(sx, sy, rho) > 0)
    nx, ny = np.linalg.norm(xc), np.linalg.norm(yc)
    bound_x = delta * nx / sx
    bound_y = delta * ((1 + ny / sx + nx / sy) / rho + nx / sy)
    assume(bound_x < 1e-2 * sx and bound_y < 1e-2 * sy)
    sol = solve_relative(coeffs.to_range_matrices(), P=2)
    h, _, _ = procrustes_align(xc, sol.Xrel)
    assert np.linalg.norm(h @ sol.Xrel - xc) <= bound_x
    assert np.linalg.norm(h @ sol.Hy @ sol.Yrel - yc) <= bound_y


# Direction invariance on random planar networks: the measured delay
# e (t_j - t_i) is the same whichever node transmits, so one-way and
# alternating exchanges fit the same coefficients.  They differ by roundoff
# alone, where t + tau and t - tau round differently on either side of a
# power of two, so each stays within the noiseless recovery test's delta of
# the truth.  Over 4,000 draws with K in 4..40 the largest difference was
# 0.18 delta.
@settings(max_examples=150, deadline=None)
@given(traj=geometries(dims=(2, 2)), K=st.integers(4, 40))
def test_direction_invariance_on_random_geometries(traj, K):
    fits, stamps = [], []
    for policy in ("one_way", "alternating"):
        cfg = ExchangeConfig(K=K, direction_policy=policy, delay_model="taylor")
        ex = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        fits.append(wls_solve(build_design(ex, L=4)).physical)
        stamps += [ex.t_i, ex.t_j]
    delta = C * np.finfo(float).eps * max(np.abs(t).max() for t in stamps)
    assert np.max(np.abs(fits[0] - fits[1])) <= delta


class TestBatchedFit:
    """_fit_stack on a stack of several designs' rows, as the Monte Carlo engine calls it."""

    def test_stack_equals_per_design_fits(self):
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.5, unit="m")
        singles = [build_design(simulate_exchanges(traj, ExchangeConfig(K=12), noise, 3,
                                                   stream=(t,)), 4, noise=noise)
                   for t in range(3)]
        fit = _fit_stack(np.stack([d._rows() for d in singles]), singles[0].weights)
        assert fit.theta.shape == (3, 10, 4) and not fit.bad.any()
        f = scale_factors(4, C)
        for t, single in enumerate(singles):
            assert np.array_equal(fit.theta[t], wls_solve(single).scaled)
            assert np.array_equal(fit.cov[t] * np.outer(f, f), crb_theta(single).cov)
            assert np.array_equal(fit.rss[t], _fit_pairs(single).rss)

    def test_rank_mask_flags_only_the_deficient_block(self):
        good = np.array([[0.0, 1.0, 2.0, 3.0]] * 3)
        near = good.copy()
        near[1] = [0.0, 1.0, 1.0 + 2**-52, 2.0]  # pair (0,2): numerically rank 3 of 4
        tau = np.random.default_rng(0).normal(size=(2, 3, 4))
        design = lambda markers, tau: DesignSystem(markers=markers, tau=tau, L=4, n_nodes=3,
                                                   c=C, pair_variances=np.ones(3))
        fit = _fit_stack(np.stack([design(good, tau[0])._rows(), design(near, tau[1])._rows()]),
                         np.ones(3))
        assert fit.bad.tolist() == [[False, False, False], [False, True, False]]
        assert np.all(np.isfinite(fit.theta)) and np.all(np.isfinite(fit.cov))
        assert np.array_equal(fit.theta[0], wls_solve(design(good, tau[0])).scaled)
        assert np.array_equal(fit.theta[1][[0, 2]], _fit_pairs(design(near, tau[1])).theta[[0, 2]])
        with pytest.raises(RankDeficiencyError, match=r"offending pairs \[\(0, 2\)\]"):
            wls_solve(design(near, tau[1]))


    def test_zero_block_is_flagged(self):
        # a zero weight (an infinite variance) whitens pair (0, 2) to a block of
        # zeros: its largest diagonal entry is 0, so only `diag <= tol * max` flags it
        markers = np.tile([0.0, 1.0, 2.0, 3.0, 5.0], (3, 1))
        tau = np.random.default_rng(1).normal(size=(3, 5))
        rows = DesignSystem(markers=markers, tau=tau, L=3, n_nodes=3, c=C)._rows()
        want = _fit_stack(rows.copy(), np.ones(3))
        fit = _fit_stack(rows, np.array([1.0, 0.0, 1.0]))
        assert not rows[1].any()
        assert fit.bad.tolist() == [False, True, False]
        assert np.all(np.isfinite(fit.theta))
        assert np.array_equal(fit.theta[[0, 2]], want.theta[[0, 2]])


@pytest.mark.parametrize("n_nodes, shape", [(5, (3, 10, 7)), (2, (7,))], ids=["3-D", "1-D"])
@pytest.mark.parametrize("make", [
    lambda n, m: TimestampExchangeSet(n_nodes=n, t_i=m, t_j=m, e=np.ones(m.shape, int)),
    lambda n, m: DesignSystem(markers=m, tau=m, L=3, n_nodes=n, c=C),
], ids=["exchange-set", "design"])
def test_one_network_per_object(make, n_nodes, shape):
    # both types hold one network's (Nbar, K) arrays; trial batching is the engine's
    with pytest.raises(ValueError, match=r"must share one \(\d+, K\) shape"):
        make(n_nodes, np.zeros(shape))


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
        coeffs = RangeCoefficients(scaled=np.array([[7.0]]), n_nodes=2, c=1.0)
        assert coeffs.physical[0] == pytest.approx([7.0])

    def test_factorial_diagonal_map(self):
        coeffs = RangeCoefficients(scaled=np.array([[1e-6, 1e-9, 1e-12]]), n_nodes=2, c=3e8)
        assert coeffs.physical[0] == pytest.approx([300.0, 0.3, 6e-4], rel=1e-15)

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
