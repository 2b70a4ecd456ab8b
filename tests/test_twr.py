import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relkin import (
    ConfigError,
    ExchangeConfig,
    InputError,
    NoiseModel,
    RelkinError,
    TimestampExchangeSet,
    builtin_trajectory,
    canonical_pairs,
    effective_noise_covariance,
    generate_timestamps,
    range_derivatives,
    simulate_exchanges,
)
from relkin.kinematics import TrajectorySet, taylor_range
from relkin.twr import _clean_exchanges, _draw_exchanges, _exchange_states, _write_columns

import dense_oracle
import two_way
from trial_oracle import derive_rng

C = 3e8


def write_csv_per_row(ex, path):
    """Reference exchange-CSV writer, one message at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("i", "j", "k", "E", "T_tx", "T_rx"))
        for p, (i, j) in enumerate(ex.pairs):
            for k in range(ex.K):
                if ex.e[p, k] == 1:
                    tx, rx = ex.t_i[p, k], ex.t_j[p, k]
                else:
                    tx, rx = ex.t_j[p, k], ex.t_i[p, k]
                writer.writerow([i, j, k, ex.e[p, k], repr(float(tx)), repr(float(rx))])


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


@pytest.mark.parametrize("make", [
    lambda: ExchangeConfig(K=10, interval=(0, float("inf"))),
    lambda: ExchangeConfig(K=2.5),
    lambda: ExchangeConfig(K=True),
    lambda: NoiseModel(sigma=float("nan")),
    lambda: NoiseModel(sigma=float("inf")),
], ids=["infinite-interval", "float-K", "bool-K", "nan-sigma", "inf-sigma"])
def test_bad_schedule_or_noise_value_rejected(make):
    with pytest.raises(ConfigError) as info:
        make()
    assert isinstance(info.value, ValueError)


def test_taylor_delay_model_has_no_order():
    # the taylor model always keeps the four closed-form terms, so the fit
    # order L steers the fit alone: no schedule field or parameter sets it
    with pytest.raises(TypeError, match="model_order"):
        ExchangeConfig(K=10, model_order=4)
    assert list(ExchangeConfig.__dataclass_fields__) == ["K", "interval", "delay_model"]
    with pytest.raises(TypeError, match="order"):
        taylor_range(range_derivatives(*np.eye(2), np.zeros(2), np.zeros(2)), 0.0, order=4)


class TestNoiseModel:
    def test_pair_variances_sum_node_variances(self):
        var = effective_noise_covariance(NoiseModel(sigma=np.array([1.0, np.sqrt(3.0)])), 2, c=C)
        assert var == pytest.approx([4.0])

    def test_equal_nodes_blocks(self):
        s = 0.5
        var = effective_noise_covariance(NoiseModel(sigma=np.sqrt(s)), 3, c=C)
        assert var == pytest.approx([2 * s, 2 * s, 2 * s])
        full = dense_oracle.noise_covariance(var, 2)
        assert full.shape == (6, 6)
        assert np.allclose(full, np.diag([2 * s] * 6))

    def test_pair_sigma_constructor(self):
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        var = effective_noise_covariance(noise, 5, c=C)
        # per-pair delay std equals 0.1 m / c for every pair
        assert np.allclose(np.sqrt(var), 0.1 / C)

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
            series = taylor_range(rd, grid) / C
            rel = np.max(np.abs(ex.tau()[p] - series) / series)
            worst = max(worst, rel)
        assert worst < 5e-5
        assert worst > 1e-6  # the exact model really is not the polynomial

    def test_taylor_delay_model_is_polynomial(self):
        # markers carry second-scale magnitudes, so recovering a microsecond
        # delay from their difference quantizes at the float64 resolution of
        # the marker (~7e-16 s); the polynomial model is exact to that floor
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=50, delay_model="taylor")
        ex = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        grid = generate_timestamps(cfg)[0]
        for p, (i, j) in enumerate(canonical_pairs(traj.N)):
            rd = range_derivatives(traj.X[:, i], traj.X[:, j], traj.Y[:, i], traj.Y[:, j])
            series = taylor_range(rd, grid) / C
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

    def test_stream_addresses_and_draw_order(self):
        # pair p draws one (2, K) block from stream (seed, *stream, p): row 0
        # perturbs the lower node's marker, row 1 the higher node's
        traj = builtin_trajectory("cluster5")
        cfg = ExchangeConfig(K=8)
        noise = NoiseModel(sigma=[1e-9, 2e-9, 3e-9, 4e-9, 5e-9])
        ex = simulate_exchanges(traj, cfg, noise, seed=42, stream=(3, 7))
        clean = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
        grid = generate_timestamps(cfg)[0]
        for p, (i, j) in enumerate(canonical_pairs(traj.N)):
            q = derive_rng(42, 3, 7, p).standard_normal((2, cfg.K))
            assert np.array_equal(ex.t_i[p], grid + noise.sigma[i] * q[0])
            assert np.array_equal(ex.t_j[p], clean.t_j[p] + noise.sigma[j] * q[1])

    @pytest.mark.parametrize("cfg, flags", [
        (ExchangeConfig(K=7), two_way.alternating(7)),
        (ExchangeConfig(K=7, delay_model="taylor"), None),
    ], ids=["exact", "taylor"])
    def test_batched_draws_equal_per_stream_simulations(self, cfg, flags):
        # row b of one batched seeding draws what simulating stream b alone
        # draws, for one-way and for alternating exchanges
        traj = builtin_trajectory("cluster5")
        noise = NoiseModel.from_pair_sigma(0.3, unit="m")
        streams = [(2, t) for t in range(4)]
        clean = _clean_exchanges(traj, cfg) if flags is None \
            else two_way.exchanges(traj, cfg, flags)
        states = _exchange_states(11, streams, 10)
        assert states.shape == (4, 10, 4)
        for b, stream in enumerate(streams):
            drawn = _draw_exchanges(clean, noise, states[b])
            one = simulate_exchanges(traj, cfg, noise, 11, stream=stream) if flags is None \
                else two_way.exchanges(traj, cfg, flags, noise, 11, stream)
            assert drawn.t_i.shape == (10, 7) and (drawn.n_pairs, drawn.K) == (10, 7)
            for name in ("t_i", "t_j", "e"):
                assert np.array_equal(getattr(drawn, name), getattr(one, name))
            assert np.array_equal(drawn.tau(), one.tau())

    @pytest.mark.parametrize("cfg, flags", [
        (ExchangeConfig(K=9), two_way.alternating(9)),
        (ExchangeConfig(K=9, delay_model="taylor"), None),
    ], ids=["exact", "taylor"])
    def test_clean_set_equals_zero_noise_simulation(self, cfg, flags):
        # a zero draw adds only +/-0.0, so no normals are needed for the clean set
        traj = builtin_trajectory("cluster5")
        if flags is None:
            clean = _clean_exchanges(traj, cfg)
            sim = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=5, stream=(1, 2))
        else:
            clean = two_way.exchanges(traj, cfg, flags)
            sim = two_way.exchanges(traj, cfg, flags, NoiseModel(0.0), seed=5, stream=(1, 2))
        for name in ("t_i", "t_j", "e"):
            got, want = getattr(clean, name), getattr(sim, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_non_integer_stream_rejected(self):
        traj = builtin_trajectory("cluster5")
        with pytest.raises(TypeError):
            simulate_exchanges(traj, ExchangeConfig(K=4), NoiseModel(0.0), seed=0, stream=(1.5,))

    def test_direction_flip_keeps_delays_and_markers(self):
        traj = builtin_trajectory("cluster5")
        one = simulate_exchanges(traj, ExchangeConfig(K=6), NoiseModel(0.0), seed=0)
        alt = two_way.exchanges(traj, ExchangeConfig(K=6), two_way.alternating(6))
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
        ex = two_way.exchanges(traj, ExchangeConfig(K=7), two_way.alternating(7),
                               NoiseModel.from_pair_sigma(0.1), seed=9)
        path = tmp_path / "exchanges.csv"
        ex.to_csv(path)
        back = TimestampExchangeSet.from_csv(path)
        assert back.n_nodes == ex.n_nodes
        assert np.array_equal(back.t_i, ex.t_i)
        assert np.array_equal(back.t_j, ex.t_j)
        assert np.array_equal(back.e, ex.e)

    @pytest.mark.parametrize("flags", [two_way.alternating(7), [1, -1, -1, 1, -1, 1, 1]],
                             ids=["alternating", "direction_policy1"])
    def test_csv_bytes_match_per_row_writer(self, tmp_path, flags):
        traj = builtin_trajectory("cluster5")
        ex = two_way.exchanges(traj, ExchangeConfig(K=7), flags,
                               NoiseModel.from_pair_sigma(0.1), seed=5)
        ex.to_csv(tmp_path / "got.csv")
        write_csv_per_row(ex, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_csv_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,k,E,T_tx,T_rx\n0,2,0,1,0.0,1.0e-06\n")
        with pytest.raises(ValueError, match="missing pairs"):
            TimestampExchangeSet.from_csv(path)

    def test_csv_missing_message_rejected(self, tmp_path):
        ex = simulate_exchanges(builtin_trajectory("cluster5"), ExchangeConfig(K=3),
                                NoiseModel(0.0), seed=0)
        path = tmp_path / "exchanges.csv"
        ex.to_csv(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))  # drop the last message of pair (3, 4)
        with pytest.raises(InputError, match=r"pair \(3, 4\) has 2 messages, expected 3"):
            TimestampExchangeSet.from_csv(path)

    @pytest.mark.parametrize("expected_n", [4, 6])
    def test_csv_node_count_mismatch_rejected(self, tmp_path, expected_n):
        ex = simulate_exchanges(builtin_trajectory("cluster5"), ExchangeConfig(K=3),
                                NoiseModel(0.0), seed=0)
        path = tmp_path / "exchanges.csv"
        ex.to_csv(path)
        assert TimestampExchangeSet.from_csv(path, expected_n=5).n_nodes == 5
        with pytest.raises(InputError, match=f"holds 5 nodes, expected {expected_n}"):
            TimestampExchangeSet.from_csv(path, expected_n=expected_n)

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
                                        {"i": "1"}, {"i": "-1"}, {"k": "-1"}],
                             ids=["flag_zero", "fractional_k", "non_numeric", "i_not_below_j",
                                  "negative_i", "negative_k"])
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


# The fields relkin writes: integers, repr'd floats (the edge cases drawn
# often) and the fixed names and empty time stamps of `relkin solve`.
_FIELDS = st.one_of(
    st.integers(),
    st.floats().map(repr),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                     2.2250738585072014e-308, 1e300]).map(repr),
    st.sampled_from(["Xrel", "Yrel", "Hy", "Xk", ""]),
)


@st.composite
def _tables(draw):
    n_cols = draw(st.integers(2, 6))
    n_rows = draw(st.integers(0, 12))
    header = [f"c{c}" for c in range(n_cols)]
    columns = [draw(st.lists(_FIELDS, min_size=n_rows, max_size=n_rows)) for _ in header]
    return header, columns


@settings(max_examples=150, deadline=None)
@given(table=_tables(), as_iterators=st.booleans())
def test_write_columns_matches_csv_writer(tmp_path_factory, table, as_iterators):
    header, columns = table
    path = tmp_path_factory.mktemp("rows") / "got.csv"
    _write_columns(path, header, *(iter(c) if as_iterators else c for c in columns))
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    assert path.read_bytes() == want.getvalue().encode()
