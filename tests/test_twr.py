import numpy as np
import pytest

from relkin import (
    ExchangeConfig,
    InputError,
    NoiseModel,
    RelkinError,
    TimestampExchangeSet,
    UnsupportedCovarianceError,
    builtin_trajectory,
    canonical_pairs,
    effective_noise_covariance,
    generate_timestamps,
    range_derivatives,
    simulate_exchanges,
)
from relkin.kinematics import TrajectorySet, taylor_range
from relkin.rng import derive_rng

import dense_oracle

C = 3e8


class TestConfig:
    def test_linear_spacing_three_markers(self):
        cfg = ExchangeConfig(K=3, interval=(-3.0, 3.0))
        assert np.allclose(generate_timestamps(cfg)[0], [-3.0, 0.0, 3.0])

    def test_hundred_markers_endpoints(self):
        grid = generate_timestamps(ExchangeConfig(K=100))[0]
        assert grid.shape == (100,)
        assert grid[0] == -3.0 and grid[-1] == 3.0
        assert np.allclose(np.diff(grid), np.diff(grid)[0])

    def test_two_markers(self):
        assert np.allclose(generate_timestamps(ExchangeConfig(K=2, interval=(0.0, 1.0)))[0], [0, 1])

    def test_shared_grid_per_pair(self):
        grids = generate_timestamps(ExchangeConfig(K=5), n_pairs=3)
        assert grids.shape == (3, 5)
        assert np.allclose(grids, grids[0])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            ExchangeConfig(K=1, interval=(2.0, 2.0))

    def test_direction_policies(self):
        assert np.all(ExchangeConfig(K=4).directions() == [1, 1, 1, 1])
        alt = ExchangeConfig(K=4, direction_policy="alternating").directions()
        assert np.all(alt == [1, -1, 1, -1])
        custom = ExchangeConfig(K=3, direction_policy=[-1, 1, -1]).directions()
        assert np.all(custom == [-1, 1, -1])
        with pytest.raises(ValueError):
            ExchangeConfig(K=3, direction_policy=[1, 2, 1])
        with pytest.raises(ValueError):
            ExchangeConfig(K=3, direction_policy=[1, 1])


class TestNoiseModel:
    def test_pair_variances_sum_node_variances(self):
        cov = effective_noise_covariance(NoiseModel(sigma=np.array([1.0, np.sqrt(3.0)])), 2, 4, c=C)
        assert cov.pair_variances == pytest.approx([4.0])

    def test_equal_nodes_blocks(self):
        s = 0.5
        cov = effective_noise_covariance(NoiseModel(sigma=np.sqrt(s)), 3, 2, c=C)
        assert cov.pair_variances == pytest.approx([2 * s, 2 * s, 2 * s])
        full = dense_oracle.noise_covariance(cov.pair_variances, cov.K)
        assert full.shape == (6, 6)
        assert np.allclose(full, np.diag([2 * s] * 6))

    def test_pair_sigma_constructor(self):
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        cov = effective_noise_covariance(noise, 5, 100, c=C)
        # per-pair delay std equals 0.1 m / c for every pair
        assert np.allclose(np.sqrt(cov.pair_variances), 0.1 / C)

    def test_correlated_mode_unsupported(self):
        with pytest.raises(UnsupportedCovarianceError):
            effective_noise_covariance(NoiseModel(0.1, pairwise_independent=False), 3, 2)

    def test_meter_unit_scaling(self):
        assert NoiseModel(sigma=3.0, unit="m").node_std_seconds(2, c=C) == pytest.approx([1e-8, 1e-8])
        assert NoiseModel(sigma=2e-9, unit="s").node_std_seconds(1, c=C) == pytest.approx([2e-9])


class TestSimulation:
    def test_static_noiseless_delay(self):
        traj = TrajectorySet(X=[[0.0, 300.0, 0.0], [0.0, 0.0, 600.0]], Y=np.zeros((2, 3)))
        ex = simulate_exchanges(traj, ExchangeConfig(K=4), NoiseModel(0.0), seed=1)
        tau = ex.tau()
        assert np.allclose(tau[0], 300.0 / C)
        assert np.allclose(tau[1], 600.0 / C)
        assert np.all(tau > 0)

    def test_exact_delays_match_taylor_series_to_truncation(self):
        # noiseless delays agree with the cubic range expansion up to the
        # quartic remainder; for this fixture the worst pair reaches ~4e-5
        # relative at the interval edge (frozen from the direct oracle)
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=50)
        ex = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        grid = generate_timestamps(cfg)[0]
        worst = 0.0
        for p, (i, j) in enumerate(canonical_pairs(traj.N)):
            rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
            series = taylor_range(rd, grid, order=4) / C
            rel = np.max(np.abs(ex.tau()[p] - series) / series)
            worst = max(worst, rel)
        assert worst < 5e-5
        assert worst > 1e-6  # the exact model really is not the polynomial

    def test_taylor_delay_model_is_polynomial(self):
        # markers carry second-scale magnitudes, so recovering a microsecond
        # delay from their difference quantizes at the float64 resolution of
        # the marker (~7e-16 s); the polynomial model is exact to that floor
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=50, delay_model="taylor", model_order=4)
        ex = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        grid = generate_timestamps(cfg)[0]
        for p, (i, j) in enumerate(canonical_pairs(traj.N)):
            rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
            series = taylor_range(rd, grid, order=4) / C
            assert np.allclose(ex.tau()[p], series, rtol=0, atol=2e-15)

    def test_same_seed_bit_identical(self):
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=10)
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        a = simulate_exchanges(traj, cfg, noise, seed=42, stream=(3, 7))
        b = simulate_exchanges(traj, cfg, noise, seed=42, stream=(3, 7))
        assert np.array_equal(a.t_i, b.t_i)
        assert np.array_equal(a.t_j, b.t_j)
        c = simulate_exchanges(traj, cfg, noise, seed=42, stream=(3, 8))
        assert not np.array_equal(a.t_i, c.t_i)

    def test_direction_flip_keeps_delays_and_markers(self):
        traj = builtin_trajectory("cluster5")
        one = simulate_exchanges(traj, ExchangeConfig(K=6), NoiseModel(0.0), seed=0)
        alt = simulate_exchanges(
            traj, ExchangeConfig(K=6, direction_policy="alternating"), NoiseModel(0.0), seed=0
        )
        assert np.array_equal(one.t_i, alt.t_i)
        assert np.allclose(one.tau(), alt.tau())
        # receiver marker really moves to the other side of the grid instant
        assert not np.array_equal(one.t_j, alt.t_j)

    def test_reception_marker_offset_by_delay(self):
        traj = builtin_trajectory("cluster5")
        ex = simulate_exchanges(traj, ExchangeConfig(K=6), NoiseModel(0.0), seed=0)
        grid = generate_timestamps(ExchangeConfig(K=6))[0]
        for p, (i, j) in enumerate(canonical_pairs(traj.N)):
            d = np.array([np.linalg.norm(traj.position_at(t)[:, i] - traj.position_at(t)[:, j])
                          for t in grid])
            assert np.allclose(ex.t_j[p], grid + d / C, rtol=1e-15)

    def test_noise_approximation_validity(self):
        # the exact noisy system differs from clean-regressor-plus-additive-
        # noise only through marker perturbations of the regressor; at these
        # magnitudes that term is far below a thousandth of the noise itself
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=40)
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        full = simulate_exchanges(traj, cfg, noise, seed=5)
        clean = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=5)
        sig = noise.node_std_seconds(traj.N, C)
        diffs = []
        retained = []
        for p, (i, j) in enumerate(canonical_pairs(traj.N)):
            q_i = full.t_i[p] - clean.t_i[p]
            q_j = full.t_j[p] - clean.t_j[p]
            additive = full.e[p] * (q_j - q_i)
            exact_noise = full.tau()[p] - clean.tau()[p]
            diffs.append(np.abs(exact_noise - additive))
            retained.append(np.std(additive))
        assert np.max(diffs) < 1e-3 * np.mean(retained)

    def test_csv_round_trip_exact(self, tmp_path):
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=7, direction_policy="alternating")
        ex = simulate_exchanges(traj, cfg, NoiseModel.from_pair_sigma(0.1), seed=9)
        path = tmp_path / "exchanges.csv"
        ex.to_csv(path)
        back = TimestampExchangeSet.from_csv(path)
        assert back.n_nodes == ex.n_nodes
        assert np.array_equal(back.t_i, ex.t_i)
        assert np.array_equal(back.t_j, ex.t_j)
        assert np.array_equal(back.e, ex.e)

    def test_csv_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,k,E,T_tx,T_rx\n0,2,0,1,0.0,1.0e-06\n")
        with pytest.raises(ValueError, match="missing pairs"):
            TimestampExchangeSet.from_csv(path)

    @staticmethod
    def edited_csv(tmp_path, row, **fields):
        """Two-node, K=3 exchange file with data row `row` (0-based) edited."""
        traj = TrajectorySet(X=[[0.0, 300.0], [0.0, 0.0]], Y=np.zeros((2, 2)))
        ex = simulate_exchanges(traj, ExchangeConfig(K=3), NoiseModel(0.0), seed=0)
        path = tmp_path / "edited.csv"
        ex.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        values = lines[row + 1].split(",")
        for name, value in fields.items():
            values[header.index(name)] = value
        lines[row + 1] = ",".join(values)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_csv_duplicate_row_rejected(self, tmp_path):
        # k=0 twice leaves slot k=1 unfilled; it must not enter the fit as 0.0
        path = self.edited_csv(tmp_path, 1, k="0")
        with pytest.raises(InputError, match=r"duplicate \(i, j, k\)"):
            TimestampExchangeSet.from_csv(path)

    def test_csv_out_of_range_k_rejected(self, tmp_path):
        path = self.edited_csv(tmp_path, 2, k="3")
        with pytest.raises(InputError, match=r"k must lie in 0\.\.2"):
            TimestampExchangeSet.from_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_timestamp_rejected(self, tmp_path, value):
        path = self.edited_csv(tmp_path, 1, T_rx=value)
        with pytest.raises(InputError, match="non-finite timestamp"):
            TimestampExchangeSet.from_csv(path)

    @pytest.mark.parametrize("text", ["", "i,j,k,E,T_tx,T_rx\n", "i,j,k,E,T_tx,T_rx\n\n"])
    def test_csv_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(InputError):
            TimestampExchangeSet.from_csv(path)

    @pytest.mark.parametrize("fields", [{"E": "0"}, {"k": "1.5"}, {"T_tx": "abc"},
                                        {"i": "1"}, {"i": "-1"}],
                             ids=["flag_zero", "fractional_k", "non_numeric", "i_not_below_j",
                                  "negative_i"])
    def test_csv_malformed_value_rejected(self, tmp_path, fields):
        path = self.edited_csv(tmp_path, 1, **fields)
        with pytest.raises(InputError):
            TimestampExchangeSet.from_csv(path)

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,k,T_tx,T_rx\n0,1,0,0.0,1.0e-06\n")
        with pytest.raises(InputError, match="lacks the columns"):
            TimestampExchangeSet.from_csv(path)

    def test_input_error_is_a_value_error(self):
        assert issubclass(InputError, ValueError) and issubclass(InputError, RelkinError)


def test_derive_rng_order_independent():
    a = derive_rng(7, 1, 2).standard_normal(4)
    b = derive_rng(7, 1, 3).standard_normal(4)
    a2 = derive_rng(7, 1, 2).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
