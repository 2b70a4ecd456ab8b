import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import relkin
import relkin.experiments as exp_mod
from relkin import (
    SPEED_OF_LIGHT,
    ConfigError,
    ExchangeConfig,
    ExperimentConfig,
    IllPosedRotationError,
    NoiseModel,
    RangeNoiseCovariances,
    RankDeficiencyError,
    RmseReport,
    TrajectorySet,
    build_design,
    builtin_trajectory,
    centering_matrix,
    check_report,
    crb_theta,
    default_suite,
    emit_outputs,
    fim_position,
    fim_velocity,
    procrustes_align,
    range_matrices,
    run_experiment,
    simulate_exchanges,
    solve_relative,
    wls_solve,
)
from relkin.cli import main
from relkin.experiments import ReportRow
from relkin.ranging import _fit_stack
from relkin.rng import _draw_normals
from relkin.twr import _draw_exchanges, _exchange_states

import dense_oracle
import trial_oracle
from test_kinematics import geometries
from trial_oracle import rmse_matrix_aligned, rmse_vector

# the failing configs fail at the parent of the batched engine too, with
# these counts; the engine must reproduce them from its masks
SIGMA_FAILING = dict(kind="sigma_sweep", sweep=[10.0], K=10, trials=60, seed=3)
TIME_GRID_FAILING = dict(kind="time_grid", sweep=[-3.0, 0.0, 3.0], K=10, sigma_m=10.0,
                         trials=60, seed=4)


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestRmseVector:
    def test_exact_estimates_give_zero(self):
        z = np.array([1.0, -2.0, 3.0])
        assert rmse_vector(np.tile(z, (8, 1)), z) == 0.0

    def test_single_trial_norm(self):
        assert rmse_vector([[3.0, 4.0]], [0.0, 0.0]) == pytest.approx(5.0)

    def test_gaussian_scalar_statistics(self):
        rng = np.random.default_rng(0)
        est = rng.normal(0.0, 1.0, size=(10_000, 1))
        assert 0.97 <= rmse_vector(est, np.zeros(1)) <= 1.03


class TestRmseMatrixAligned:
    def test_rotated_estimates_align_to_zero(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2, 6))
        ests = [rotation(a) @ z for a in rng.uniform(0, 2 * np.pi, 12)]
        assert rmse_matrix_aligned(ests, z) < 1e-12

    def test_column_offset_removed_by_centering(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 5))
        ests = [z + np.array([[4.0], [-1.0]])]
        assert rmse_matrix_aligned(ests, z) < 1e-12

    def test_residual_bounded_by_perturbation(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(2, 5))
        pert = 1e-2 * rng.normal(size=(2, 5))
        assert rmse_matrix_aligned([z + pert], z) <= np.linalg.norm(pert) + 1e-12


class TestConfig:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="k_sweep", sweep=[])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="nope", sweep=[1])

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "fixture": "cluster5",
            "sweep": {"K": [10, 20]},
            "sigma_m": 0.2,
            "trials": 7,
            "seed": 5,
        }))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.kind == "k_sweep"
        assert cfg.sweep == [10, 20]
        assert cfg.trials == 7
        back = cfg.to_dict()
        assert back["sweep"] == {"K": [10, 20]}

    def test_json_sigma_sweep_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"sigma_db_m": [-10, -5, 0]}, "trials": 3}))
        cfg = ExperimentConfig.from_json(path, trials=9)
        assert cfg.kind == "sigma_sweep" and cfg.trials == 9

    def test_json_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": {"K": [10]}, "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("config", [
        dict(kind="k_sweep", sweep=[3, 10]),
        dict(kind="sigma_sweep", sweep=[-10.0], K=3),
        dict(kind="time_grid", sweep=[0.0, 1.0], K=3),
    ], ids=["k_sweep", "sigma_sweep", "time_grid"])
    def test_messages_below_order_rejected(self, config):
        # K = 3 messages cannot fit L = 4 coefficients at any sweep point
        with pytest.raises(ConfigError, match="K=3 is below L=4"):
            ExperimentConfig(**config, L=4)

    def test_messages_equal_to_order_accepted(self):
        # a k_sweep's own K is no sweep point, so only its sweep values count
        assert ExperimentConfig(kind="k_sweep", sweep=[4], K=3, L=4).sweep == [4]

    @pytest.mark.parametrize("sweep, interval, bad", [
        ([10, -50], (-3.0, 3.0), "10"),
        ([0.0, -3.0000001], (-3.0, 3.0), "-3.0000001"),
        ([1.5, 0.0], (1.0, 2.0), "0.0"),
    ], ids=["above", "just-below", "custom-interval"])
    def test_time_grid_outside_interval_rejected(self, sweep, interval, bad):
        with pytest.raises(ConfigError, match=rf"^time_grid values must lie in interval "
                                              rf"\[{interval[0]}, {interval[1]}\], got {bad}$"):
            ExperimentConfig(kind="time_grid", sweep=sweep, interval=interval)

    @pytest.mark.parametrize("config, named", [
        (dict(kind="sigma_sweep", sweep=[-10, 1500]), "sigma_db_m value 1500"),
        (dict(kind="time_grid", sweep=[0, 1], sigma_m=1e150), "sigma_m=1e+150"),
        (dict(kind="k_sweep", sweep=[10], sigma_m=1e110), "sigma_m=1e+110"),
        (dict(kind="k_sweep", sweep=[10], sigma_m=4.3e8, interval=(0, 1)), "sigma_m=430000000.0"),
    ], ids=["sigma-sweep", "time-grid", "k-sweep", "custom-interval"])
    def test_noise_at_interval_length_rejected(self, config, named):
        # a per-node marker std (sigma_m / sqrt(2) / c seconds) at or above the
        # interval's length swamps the schedule; at 1e150 m the powers of the
        # noisy markers overflow the fit, at 1e110 m every trial is rank deficient
        with pytest.raises(ConfigError, match=rf"^{re.escape(named)} puts a per-node marker std of \S+ s "
                                              r"at or above the interval's length"):
            ExperimentConfig(**config)

    def test_noise_below_interval_length_accepted(self):
        # 4e8 m is a per-node marker std of 0.94 s, inside a 1 s interval
        assert ExperimentConfig(kind="k_sweep", sweep=[10], sigma_m=4e8, interval=(0, 1)).sigma_m \
            == 4e8

    def test_time_grid_inside_interval_snaps_to_markers(self):
        # K = 7 markers on [-3, 3] are one second apart; the edges are inside
        cfg = ExperimentConfig(kind="time_grid", sweep=[-3, 3, 0.4, 1.6], K=7, trials=1)
        point = exp_mod._new_point(exp_mod.load_trajectory(cfg.fixture), cfg, 0)
        assert point.times.tolist() == [-3.0, 3.0, 0.0, 2.0]


class TestRunExperiment:
    def test_noiseless_single_trial_sanity(self):
        # polynomial delay model: the whole pipeline is exact and every RMSE
        # collapses to numerical noise, at L = 4 and at L = 5, whose fifth
        # coefficient fits zero (every RMSE <= 7.4e-7 at K = 100, 1.6e-6 at
        # K = 10)
        for K, L, bound in ((10, 4, 1e-6), (100, 5, 1e-5)):
            cfg = ExperimentConfig(kind="k_sweep", sweep=[K], sigma_m=0.0, trials=1,
                                   seed=0, L=L, delay_model="taylor")
            report = run_experiment(cfg)
            for row in report.rows:
                assert row.rmse < bound
                assert row.n_fail == 0

    def test_k_sweep_rmse_decreases_and_tracks_rcrb(self):
        cfg = ExperimentConfig(kind="k_sweep", sweep=[10, 60], trials=60, seed=2)
        report = run_experiment(cfg)
        for q in ("r", "rdot", "rddot"):
            rows = report.quantity_rows(q)
            assert rows[0].rmse > rows[1].rmse
            assert rows[1].rmse == pytest.approx(rows[1].rcrb, rel=0.12)

    def test_sigma_sweep_values_are_db_meters(self):
        cfg = ExperimentConfig(kind="sigma_sweep", sweep=[-10.0, 0.0], K=40,
                               trials=40, seed=3)
        report = run_experiment(cfg)
        r_rows = report.quantity_rows("r")
        # ten dB of noise is a factor 10 in sigma, hence in the bound
        assert r_rows[1].rcrb == pytest.approx(10 * r_rows[0].rcrb, rel=1e-9)
        assert r_rows[1].rmse > r_rows[0].rmse

    def test_time_grid_reports_both_estimators(self):
        cfg = ExperimentConfig(kind="time_grid", sweep=[-3.0, 0.0, 3.0], K=20,
                               trials=30, seed=4)
        report = run_experiment(cfg)
        assert len(report.quantity_rows("Xk_dynamic")) == 3
        assert len(report.quantity_rows("Xk_cmds")) == 3
        # sweep values snap to the marker grid
        for row in report.rows:
            assert np.min(np.abs(np.linspace(-3, 3, 20) - row.sweep_value)) < 1e-12

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(kind="k_sweep", sweep=[15], trials=12, seed=9)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.rmse == rb.rmse


class TestFailureAccounting:
    def test_failed_trials_counted_not_dropped_silently(self, monkeypatch):
        real = exp_mod._group_chunk
        embed_failure = 1 + exp_mod._TRIAL_ERRORS.index(exp_mod.EmbeddingFailureError)

        def flaky(group, trials):
            # fail two of the trials as a failed spectral embedding would
            (res,) = real(group, trials)  # one point, one trial table
            cause = res.cause.copy()
            cause[np.isin(np.asarray(trials), (1, 3))] = embed_failure
            return [res._replace(cause=cause)]

        monkeypatch.setattr(exp_mod, "_group_chunk", flaky)
        cfg = ExperimentConfig(kind="k_sweep", sweep=[12], trials=6, seed=0)
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.n_fail == 2
            assert np.isfinite(row.rmse)
            assert row.failures == {"EmbeddingFailureError": 2}

    def test_causes_follow_the_order_of_trial_errors(self, monkeypatch):
        # each failure is coded as 1 + the index of its type in _TRIAL_ERRORS,
        # so reordering the tuple names the same failures
        want = run_experiment(ExperimentConfig(**SIGMA_FAILING)).rows
        assert {name for row in want for name in row.failures} == {"IllPosedRotationError"}
        monkeypatch.setattr(exp_mod, "_TRIAL_ERRORS", exp_mod._TRIAL_ERRORS[::-1])
        assert run_experiment(ExperimentConfig(**SIGMA_FAILING)).rows == want

    def test_manifest_splits_failures_by_cause(self, tmp_path):
        report = run_experiment(ExperimentConfig(**SIGMA_FAILING))
        emit_outputs(report, tmp_path)
        csv_rows = (tmp_path / "experiment_sigma_sweep.csv").read_text().splitlines()[1:]
        assert {line.rsplit(",", 1)[1] for line in csv_rows} == {"1"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (point,) = manifest["trial_outcomes"][0]
        assert point["sweep_value"] == 10.0
        assert point["quantities"] == ["r", "rdot", "rddot", "Xrel", "Yrel", "Hy"]
        assert sum(point["failures"].values()) == 1
        assert point["clamped"] >= 1

    def test_time_grid_outcomes_cover_every_row(self, tmp_path):
        report = run_experiment(ExperimentConfig(**TIME_GRID_FAILING))
        emit_outputs(report, tmp_path)
        outcomes = json.loads((tmp_path / "manifest.json").read_text())["trial_outcomes"][0]
        rows = iter(report.rows)
        for point in outcomes:
            for q in point["quantities"]:
                row = next(rows)
                assert (row.sweep_value, row.quantity) == (point["sweep_value"], q)
                assert sum(point["failures"].values()) == row.n_fail == 4
        assert next(rows, None) is None


REFERENCE_ROWS = Path(__file__).resolve().parents[1] / "bench/reference/mc_suite_seed0.json"


def test_default_suite_rows_match_reference():
    # the benchmark's pinned seed-0 rows, compared to 1e-9 relative as it does
    want = json.loads(REFERENCE_ROWS.read_text())["rows"]
    reports = exp_mod._run_experiments(default_suite(trials=200, seed=0))
    assert [r.kind for r in reports] == list(want)
    for report in reports:
        got = [[r.sweep_value, r.quantity, r.rmse, r.rcrb, r.n_fail] for r in report.rows]
        assert len(got) == len(want[report.kind])
        for got_row, want_row in zip(got, want[report.kind]):
            assert all(math.isclose(a, b, rel_tol=1e-9) if isinstance(b, float) else a == b
                       for a, b in zip(got_row, want_row)), (report.kind, got_row, want_row)


def _assert_rows_match(got, want, rtol=1e-12):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.sweep_value, a.quantity) == (b.sweep_value, b.quantity)
        assert (a.n_fail, a.failures, a.clamped) == (b.n_fail, b.failures, b.clamped)
        assert a.rmse == pytest.approx(b.rmse, rel=rtol, abs=0)
        assert (a.rcrb is None) == (b.rcrb is None)
        if a.rcrb is not None:
            assert a.rcrb == pytest.approx(b.rcrb, rel=rtol, abs=0)


class TestEngineMatchesOracle:
    """The batched engine against the per-trial loops of `trial_oracle`."""

    @pytest.mark.parametrize("config, n_fail", [
        (dict(kind="k_sweep", sweep=[10, 40], trials=40, seed=1), 0),
        (SIGMA_FAILING, 1),
        (TIME_GRID_FAILING, 4),
    ])
    def test_rows_match_per_trial_oracle(self, config, n_fail):
        cfg = ExperimentConfig(**config)
        want = trial_oracle.run_experiment(cfg)
        assert {row.n_fail for row in want if row.quantity != "Xk_cmds"} == {n_fail}
        _assert_rows_match(run_experiment(cfg).rows, want)

    def test_failed_and_clamped_embeddings_match_oracle(self, monkeypatch):
        # real runs practically never fail an embedding, so the Grams of some
        # trials are shifted, picked by their content so that both routes
        # pick the same trials: Bxx far below zero fails its embedding (its
        # negative eigenvalues are then no clamp, and Byy is never reached),
        # and Byy shifted between its top two eigenvalues clamps one
        import relkin.embedding as emb_mod
        real = emb_mod.grams_from_ranges

        def shifted(rm):
            g = real(rm)
            eye = np.eye(g.n)
            fail_x = (np.floor(1e4 * g.Bxy[..., 0, 1]) % 2 == 0)[..., None, None]
            clamp_y = (np.floor(1e4 * g.Bxy[..., 0, 2]) % 2 == 0)[..., None, None]
            trace_x, trace_y = (np.trace(b, axis1=-2, axis2=-1)[..., None, None]
                                for b in (g.Bxx, g.Byy))
            return emb_mod.KinematicGrams(Bxx=np.where(fail_x, -g.Bxx - trace_x * eye, g.Bxx),
                                          Bxy=g.Bxy,
                                          Byy=np.where(clamp_y, g.Byy - trace_y / 2 * eye, g.Byy))

        monkeypatch.setattr(emb_mod, "grams_from_ranges", shifted)
        monkeypatch.setattr(exp_mod, "grams_from_ranges", shifted)
        cfg = ExperimentConfig(kind="time_grid", sweep=[0.0], K=20, trials=30, seed=0)
        want = trial_oracle.run_experiment(cfg)
        dynamic = want[0]
        assert dynamic.failures["EmbeddingFailureError"] > 0 and dynamic.clamped > 0
        assert dynamic.failures["IllPosedRotationError"] > 0
        _assert_rows_match(run_experiment(cfg).rows, want)


class TestOnePass:
    """The engine's draw-and-fit pass against the staged library path it folds."""

    @pytest.mark.parametrize("delay_model", ["exact", "taylor"])
    @pytest.mark.parametrize("sigma_m", [0.0, 0.1], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("K", [4, 10, 100], ids=["K=L", "K=10", "K=100"])
    @pytest.mark.parametrize("kind", ["k_sweep", "time_grid"])
    def test_bits_equal_draw_design_fit(self, kind, K, sigma_m, delay_model):
        sweep = [K] if kind == "k_sweep" else [-3.0, 0.0, 2.0]
        cfg = ExperimentConfig(kind=kind, sweep=sweep, K=K, sigma_m=sigma_m, L=4, trials=7,
                               seed=11, delay_model=delay_model)
        traj = exp_mod.load_trajectory(cfg.fixture)
        pt = exp_mod._new_point(traj, cfg, 2, K) if kind == "k_sweep" else \
            exp_mod._new_point(traj, cfg, 0)
        trials, n_pairs = range(2, 9), pt.clean.n_pairs
        states = _exchange_states(cfg.seed, [pt.stream + (t,) for t in trials], n_pairs)
        # drawn longer, as in a stream group whose largest K is K + 25: the fit
        # reads the first 2K normals of each row; the stack lies at the front
        # of a larger scratch
        q = _draw_normals(states.reshape(-1, 4), (2 * (K + 25),)).reshape(7, n_pairs, -1)
        scratch = np.full(7 * n_pairs * (K + 25) * (cfg.L + 1), np.nan)
        theta, rank_bad, snap_tau = exp_mod._fit_draw(pt, q, scratch)

        noise = exp_mod._point_model(cfg, K if kind == "k_sweep" else None)[1]
        assert snap_tau.shape == (7, 10, len(pt.markers))
        for t in range(len(trials)):
            design = build_design(_draw_exchanges(pt.clean, noise, states[t]), cfg.L, noise=noise)
            fit = _fit_stack(design._rows(), design.weights)
            assert (design.pair_variances is None) == (sigma_m == 0.0)
            assert np.array_equal(theta[t], fit.theta)
            assert rank_bad[t] == fit.bad.any()
            assert np.array_equal(snap_tau[t], design.tau[:, pt.markers])


class TestChunking:
    @pytest.mark.parametrize("config", [
        dict(kind="k_sweep", sweep=[10, 30], trials=23, seed=5),
        dict(TIME_GRID_FAILING, trials=23),
    ])
    def test_rows_independent_of_chunk_size(self, monkeypatch, config):
        cfg = ExperimentConfig(**config)
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 1)  # one trial per chunk
        single = run_experiment(cfg).rows
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 2**40)  # every trial in one chunk
        whole = run_experiment(cfg).rows
        assert single == whole

    def test_outer_chunk_spans_ragged_sub_chunks(self, monkeypatch):
        cfg = ExperimentConfig(kind="k_sweep", sweep=[10, 30], trials=23, seed=5)
        outer, inner = [], []
        real_chunk, real_fit = exp_mod._chunk_table, exp_mod._fit_draw

        def chunk(pt, theta, rank_bad, snap_tau):
            outer.append((pt.clean.K, len(theta)))
            return real_chunk(pt, theta, rank_bad, snap_tau)

        def fit(pt, q, scratch):
            inner.append((pt.clean.K, len(q)))
            return real_fit(pt, q, scratch)

        monkeypatch.setattr(exp_mod, "_chunk_table", chunk)
        monkeypatch.setattr(exp_mod, "_fit_draw", fit)
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 2**12)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 1)  # the calls are recorded here
        middle = run_experiment(cfg).rows
        # each sweep point is one task and one post-fit chunk of 2**12 // 75 =
        # 54 trials at most; its draw and fit run in sub-chunks of
        # 4 * 2**12 // (Nbar K (L + 1)) trials: 32 at K=10, 10 at K=30, the
        # heavier point's task first
        assert outer == [(30, 23), (10, 23)]
        assert inner == [(30, 10), (30, 10), (30, 3), (10, 23)]
        # at 2**10 a post-fit chunk holds 13 trials, so each point runs in
        # two tasks, each one _chunk_table call; sub-chunks hold 2 and 8 trials
        outer.clear()
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 2**10)
        assert run_experiment(cfg).rows == middle
        assert outer == [(30, 13), (30, 10), (10, 13), (10, 10)]
        for doubles in (1, 2**40):  # one trial per chunk, every trial in one chunk
            monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", doubles)
            assert run_experiment(cfg).rows == middle

    def test_traced_peak_stays_small_at_many_trials(self, monkeypatch):
        # 1000 trials of K=100: one chunk of them all traces about 140 MB
        cfg = ExperimentConfig(kind="k_sweep", sweep=[100], trials=1000, seed=0)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 1)  # tracemalloc sees this process only
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_time_grid_traced_peak_stays_small_at_many_trials(self, monkeypatch):
        # the default time grid embeds 100 snapshot matrices per trial
        cfg = default_suite(trials=1000)[2]
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 1)  # tracemalloc sees this process only
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestStreamGroups:
    """Sweep points that read the same noise streams draw them once per run."""

    def test_default_suite_draws_each_stream_once(self, monkeypatch):
        drawn = []
        real_draw = exp_mod._draw_normals

        def draw(states, shape):
            drawn.append(np.array(states))
            return real_draw(states, shape)

        monkeypatch.setattr(exp_mod, "_draw_normals", draw)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 1)  # the calls are recorded here
        trials = 7
        exp_mod._run_experiments(default_suite(trials=trials))
        states = np.concatenate(drawn)
        # 10 stream prefixes, 7 trials and 10 pairs: each (s, t, p) once, not
        # once per point that reads it (170 per trial)
        assert len(states) == 100 * trials
        assert len(np.unique(states, axis=0)) == len(states)


FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="no fork start method")


def _workers_and_rows(cfg):
    report = run_experiment(cfg)
    return report.workers, report.rows


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this relkin, within two minutes."""
    src = str(Path(relkin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


class TestPool:
    """The outer chunks of an experiment run in a fork pool of min(chunks, CPUs) workers."""

    @pytest.mark.parametrize("config, chunk_doubles", [
        (dict(kind="k_sweep", sweep=[10, 30, 60], trials=23, seed=5), None),
        (dict(SIGMA_FAILING, sweep=[10.0, -10.0]), None),
        (TIME_GRID_FAILING, 2**10),  # 13 trials an outer chunk: five chunks
    ], ids=["k_sweep", "sigma_sweep_failing", "time_grid_failing"])
    def test_rows_independent_of_worker_count(self, monkeypatch, config, chunk_doubles):
        if chunk_doubles:
            monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", chunk_doubles)
        cfg = ExperimentConfig(**config)
        reports = {}
        for cpus in (1, 2):
            monkeypatch.setattr(exp_mod, "_cpus", lambda n=cpus: n)
            reports[cpus] = run_experiment(cfg)
        assert (reports[1].workers, reports[2].workers) == (1, 2 if FORK else 1)
        assert reports[1].rows == reports[2].rows
        if cfg.kind != "k_sweep":  # failed and clamped trials included
            assert any(row.n_fail for row in reports[1].rows)
            assert any(row.clamped for row in reports[1].rows)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_shared_run_matches_separate_runs(self, monkeypatch, cpus):
        # post-fit chunks of 13 trials at a k/sigma point and of 4 on the time
        # grid of 9 report times, so the group's spans are the time grid's
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 2**10)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: cpus)
        # one seed and trial count: k point s, sigma point s and the time grid
        # read stream (s, t, p).  Sigma point 0 (10 dB-meters, K=10) and the
        # time grid simulate the same noisy exchanges, and both read the
        # leading normals of k point 0's K=30 draw
        cfgs = [ExperimentConfig(kind="k_sweep", sweep=[30, 10], trials=30, seed=4),
                ExperimentConfig(kind="sigma_sweep", sweep=[10.0, 0.0], K=10, trials=30, seed=4),
                ExperimentConfig(**dict(TIME_GRID_FAILING, sweep=list(np.linspace(-3, 3, 9)),
                                        trials=30))]
        shared = exp_mod._run_experiments(cfgs)
        assert [r.rows for r in shared] == [run_experiment(cfg).rows for cfg in cfgs]
        assert [r.workers for r in shared] == [2 if FORK and cpus == 2 else 1] * 3

    def test_trial_counts_form_separate_groups(self, monkeypatch):
        # two configs of one seed and stream prefix but different trial
        # counts read the same streams, yet form two groups, each drawing
        # them for its own trials, and give the rows of separate runs
        cfgs = [ExperimentConfig(kind="k_sweep", sweep=[30, 10], trials=7, seed=4),
                ExperimentConfig(kind="sigma_sweep", sweep=[10.0], K=10, trials=12, seed=4)]
        spans = []
        real = exp_mod._group_chunk

        def chunk(group, trials):
            spans.append(([pt.cfg.kind for pt in group], trials))
            return real(group, trials)

        monkeypatch.setattr(exp_mod, "_group_chunk", chunk)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 1)  # the calls are recorded here
        shared = exp_mod._run_experiments(cfgs)
        # k point 0 and sigma point 0 read stream (0, t, p), but run apart
        assert sorted(spans) == [(["k_sweep"], range(7)), (["k_sweep"], range(7)),
                                 (["sigma_sweep"], range(12))]
        assert [r.rows for r in shared] == [run_experiment(cfg).rows for cfg in cfgs]

    @needs_fork
    def test_cli_run_starts_one_pool(self, monkeypatch, tmp_path):
        import concurrent.futures

        started = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 2)
        assert main(["experiment", "--trials", "3", "--out", str(tmp_path)]) == 0
        assert started == [2]  # one pool of two workers for all three experiments
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["workers"] == [2, 2, 2]

    def test_one_chunk_runs_here(self, monkeypatch):
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 2)
        assert run_experiment(ExperimentConfig(kind="k_sweep", sweep=[10], trials=3)).workers == 1

    @needs_fork
    def test_worker_error_reaches_caller(self, monkeypatch, tmp_path, capsys):
        real, parent = exp_mod._group_chunk, os.getpid()
        message = "pair (0, 1) lost rank in the chunk of sweep point 1"

        def failing(group, trials):
            # raises only in a worker, so a serial run would pass
            if group[0].stream == (1,) and os.getpid() != parent:
                raise RankDeficiencyError(message)
            return real(group, trials)

        monkeypatch.setattr(exp_mod, "_group_chunk", failing)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 2)
        cfg = ExperimentConfig(kind="k_sweep", sweep=[10, 20, 30], trials=4)
        with pytest.raises(RankDeficiencyError) as info:
            run_experiment(cfg)
        assert type(info.value) is RankDeficiencyError
        assert str(info.value) == message

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        capsys.readouterr()
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    @needs_fork
    def test_daemonic_caller_runs_serially(self, monkeypatch):
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 2)
        cfg = ExperimentConfig(kind="k_sweep", sweep=[10, 20], trials=3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            workers, rows = pool.apply_async(_workers_and_rows, (cfg,)).get(timeout=120)
        assert workers == 1
        assert rows == run_experiment(cfg).rows

    @needs_fork
    def test_dead_worker_raises_instead_of_waiting(self):
        # a worker killed mid-chunk, as for memory, ends the run with an error
        proc = _python(textwrap.dedent("""
            import os, signal
            import relkin.experiments as exp_mod
            from relkin import ExperimentConfig, run_experiment

            real, parent = exp_mod._group_chunk, os.getpid()

            def dying(group, trials):
                if group[0].stream == (1,) and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(group, trials)

            exp_mod._group_chunk, exp_mod._cpus = dying, lambda: 2
            try:
                run_experiment(ExperimentConfig(kind="k_sweep", sweep=[10, 20, 30], trials=4))
            except Exception as exc:
                print(type(exc).__name__)
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "BrokenProcessPool"

    def test_import_leaves_multiprocessing_out(self):
        proc = _python("import sys, relkin.cli; print('multiprocessing' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_numpy_random_out(self):
        # the parent process never draws (its trials run in workers), so
        # numpy.random loads on the first draw only
        proc = _python("import sys, relkin, relkin.cli; print('numpy.random' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


@st.composite
def engine_runs(draw):
    """A random network, planar of 4..7 nodes or 3-D of 6 or 7, and the
    keywords of 1..3 experiment configs, each on cluster5 or that network
    (fixture None).

    The network is drawn as test_bounds' rank-law networks are, positions
    within 500 m and velocities within 10 m/s, and kept where its noiseless
    rotation, the reference of the Hy rows, exists: in the plane where both
    span it, in space where both span it (see `_spans_space`) and the
    rotation system is more than 1 % from rank deficient, as in
    test_noiseless_taylor_exactness_on_random_3d_geometries.  Fewer than 2P
    nodes never carry that rotation, and setup rejects them (see
    TestNodeCount).  Seeds 0 and 1 make configs share noise streams, so
    stream groups form; a later config may repeat the first with another
    trial count, so points that share their streams and noisy exchanges run
    in two groups."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2 * P, 7))
    net = TrajectorySet(X=rng.uniform(-500, 500, (P, n)), Y=rng.uniform(-10, 10, (P, n)))
    xc, yc = (z - z.mean(axis=1, keepdims=True) for z in (net.X, net.Y))
    if P == 2:
        for zc in (xc, yc):
            s = np.linalg.svd(zc, compute_uv=False)
            assume(s[1] > 1e-2 * s[0])
    else:
        assume(_spans_space(xc) and _spans_space(yc))
        sv = np.linalg.svd(dense_oracle.rotation_system(xc, yc), compute_uv=False)
        assume(sv[-1] > 0.01 * sv[0])
    cfgs = []
    for _ in range(draw(st.integers(1, 3))):
        if cfgs and draw(st.booleans()):
            cfgs.append(dict(cfgs[0], trials=draw(st.integers(1, 30))))
            continue
        kind = draw(st.sampled_from(sorted(exp_mod._KINDS)))
        delay_model = draw(st.sampled_from(["exact", "taylor"]))
        L = draw(st.integers(3, 5))
        values = {"k_sweep": st.integers(L, 60), "sigma_sweep": st.integers(-20, 10),
                  "time_grid": st.integers(-3, 3)}[kind]
        sweep = draw(st.lists(values, min_size=1, max_size=3))
        sweep += draw(st.lists(st.sampled_from(sweep), max_size=1))  # maybe a repeat
        cfgs.append(dict(kind=kind, sweep=sweep, K=draw(st.integers(L, 60)), L=L,
                         delay_model=delay_model, sigma_m=draw(st.sampled_from([0.1, 1.0])),
                         trials=draw(st.integers(1, 30)), seed=draw(st.integers(0, 1)),
                         fixture=draw(st.sampled_from(["cluster5", None]))))
    return net, cfgs


def _row_bits(rows):
    """`rows` with each float as its hex digits, so that nan equals nan."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))
            for row in rows]


# The engine's contract on generated runs: a shared run gives the rows of
# separate runs bit for bit, whatever the process count and chunk budget,
# and a run of at most 3 trials gives the per-trial oracle's rows.
@settings(max_examples=20, deadline=None)
@given(run=engine_runs())
def test_generated_runs_match_separate_runs_and_oracle(tmp_path_factory, run):
    net, kwargs = run
    path = tmp_path_factory.mktemp("net") / "net.json"
    net.save(path)
    cfgs = [ExperimentConfig(**dict(kw, fixture=kw["fixture"] or str(path))) for kw in kwargs]
    default = exp_mod._CHUNK_DOUBLES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp_mod, "_cpus", lambda: 1)
        separate = [run_experiment(cfg).rows for cfg in cfgs]
        for cpus, doubles in itertools.product((1, 2), (2**9, default)):
            mp.setattr(exp_mod, "_cpus", lambda n=cpus: n)
            mp.setattr(exp_mod, "_CHUNK_DOUBLES", doubles)
            shared = exp_mod._run_experiments(cfgs)
            assert [_row_bits(r.rows) for r in shared] == [_row_bits(rows) for rows in separate]
    for cfg, rows in zip(cfgs, separate):
        if cfg.trials <= 3:
            want = trial_oracle.run_experiment(cfg)
            # a row every trial failed has no RMSE on either side
            assert [math.isnan(r.rmse) for r in rows] == [math.isnan(r.rmse) for r in want]
            _assert_rows_match(*([dataclasses.replace(r, rmse=0.0) if math.isnan(r.rmse) else r
                                  for r in side] for side in (rows, want)))


class TestThreeDimensions:
    """The pipeline, its bounds and the engine on a random 3-D network of 7 nodes."""

    traj = TrajectorySet(X=np.random.default_rng(0).uniform(-500, 500, (3, 7)),
                         Y=np.random.default_rng(1).uniform(-10, 10, (3, 7)))

    def test_noiseless_taylor_pipeline_recovers_kinematics(self):
        # the polynomial delays are exact but for the rounding of the markers:
        # one float64 ulp at the interval edge (3 s) is a delay quantum of
        # c * eps * 3 s, about 2e-7 m.  Ten quanta bound each aligned residual
        # (velocities per second); this network reads 0.04, 1.8 and 2.8 quanta
        # for Xrel, Yrel and Xk(2 s), and 40 random ones at most 0.1, 5.2 and 9
        traj, pc = self.traj, centering_matrix(7)
        quantum = SPEED_OF_LIGHT * np.finfo(float).eps * 3.0
        ex = simulate_exchanges(traj, ExchangeConfig(K=100, delay_model="taylor"),
                                NoiseModel(0.0), seed=0)
        sol = solve_relative(wls_solve(build_design(ex, L=4)).to_range_matrices(), P=3)
        for truth, est in ((traj.X, sol.Xrel), (traj.Y, sol.Yrel),
                           (traj.position_at(2.0), sol.position_at(2.0))):
            assert procrustes_align(truth @ pc, est @ pc)[2] < 10 * quantum

    def test_both_fims_have_rank_3n_minus_6(self):
        # three translations and three rotations span each null space
        traj, pc = self.traj, centering_matrix(7)
        ex = simulate_exchanges(traj, ExchangeConfig(K=20), NoiseModel(0.0), seed=0)
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        covs = RangeNoiseCovariances.from_theta_crb(crb_theta(build_design(ex, L=4, noise=noise)))
        for fi in (fim_position(traj.X @ pc, covs.Sigma_r),
                   fim_velocity(traj.Y @ pc, range_matrices(traj), covs)):
            lam = np.linalg.eigvalsh(fi.matrix)
            assert (fi.size, fi.structural_deficiency) == (21, 6)
            assert np.count_nonzero(lam > 1e-10 * lam[-1]) == 3 * 7 - 6

    @pytest.mark.parametrize("config", [
        dict(kind="k_sweep", sweep=[20, 100]),
        dict(kind="sigma_sweep", sweep=[-10.0], K=30),
        dict(kind="time_grid", sweep=[-3.0, 0.0, 2.0], K=30),
    ], ids=["k_sweep", "sigma_sweep", "time_grid"])
    def test_run_experiment_through_a_fixture_path(self, tmp_path, config):
        path = tmp_path / "net3d.json"
        self.traj.save(path)
        report = run_experiment(ExperimentConfig(**config, fixture=str(path), trials=3))
        assert len(report.rows) == len(config["sweep"]) * len(exp_mod._KINDS[report.kind].quantities)
        for row in report.rows:
            assert np.isfinite(row.rmse) and row.n_fail == 0
            assert row.rcrb is None or np.isfinite(row.rcrb)


def _spans_space(zc):
    """Whether the centered P x N `zc` spans space: its Gram's smallest
    eigenvalue above 3 % of its largest."""
    lam = np.linalg.eigvalsh(zc @ zc.T)
    return lam[0] > 0.03 * lam[-1]


# Noiseless taylor exactness on generated 3-D networks of 6 or 7 nodes (2P
# at least).  Kept are draws whose positions and velocities span space,
# whose motion over the 3 s half-interval is 1 % to 10x their extent (the
# speed ratio), and whose rotation system is 1 % away from rank deficient;
# hypothesis often draws Y = B X (Y = X among them), whose rotation no
# ranges fix.  The residual in delay quanta grows as the motion shrinks,
# Yrel's about as 1 / speed ratio, and Xk(2 s) with it.  Over 3 x 1,000 kept
# examples the worst read 0.13, 18.7 and 29.1 quanta for Xrel, Yrel and
# Xk(2 s); over 6,000 numpy-drawn networks at speed ratios of 0.010 to
# 0.0125 they read 0.17, 19.6 and 44.7.  The bounds, 1, 50 and 100 quanta,
# are over twice each.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(traj=geometries(dims=(3, 3), min_nodes=6))
def test_noiseless_taylor_exactness_on_random_3d_geometries(traj):
    pc = centering_matrix(traj.N)
    xc, yc = traj.X @ pc, traj.Y @ pc
    assume(_spans_space(xc) and _spans_space(yc))
    assume(0.01 <= 3.0 * np.linalg.norm(yc) / np.linalg.norm(xc) <= 10.0)
    sv = np.linalg.svd(dense_oracle.rotation_system(xc, yc), compute_uv=False)
    assume(sv[-1] > 0.01 * sv[0])
    quantum = SPEED_OF_LIGHT * np.finfo(float).eps * 3.0
    ex = simulate_exchanges(traj, ExchangeConfig(K=100, delay_model="taylor"), NoiseModel(0.0),
                            seed=0)
    sol = solve_relative(wls_solve(build_design(ex, L=4)).to_range_matrices(), P=3)
    for truth, est, bound in ((traj.X, sol.Xrel, 1), (traj.Y, sol.Yrel, 50),
                              (traj.position_at(2.0), sol.position_at(2.0), 100)):
        assert procrustes_align(truth @ pc, est @ pc)[2] < bound * quantum


class TestNodeCount:
    """Fewer than 2P nodes never carry a velocity rotation: an experiment's
    setup rejects them, and `relkin solve` refuses them, naming the rule,
    before it solves the rotation."""

    @staticmethod
    def network(P, n):
        rng = np.random.default_rng(n)
        return TrajectorySet(X=rng.uniform(-500, 500, (P, n)), Y=rng.uniform(-10, 10, (P, n)))

    @staticmethod
    def solve(tmp_path, traj, exch=ExchangeConfig(K=20, delay_model="taylor"),
              noise=NoiseModel(0.0), seed=0, P=None):
        """`relkin solve --dim P` (default the network's) of the network's fit
        to exchanges simulated at `seed`; its exit status."""
        ex = simulate_exchanges(traj, exch, noise, seed=seed)
        ex.to_csv(tmp_path / "exchanges.csv")
        assert main(["estimate", "--exchanges", str(tmp_path / "exchanges.csv"),
                     "--sigma-meters", "0.1", "--out", str(tmp_path / "theta.csv")]) == 0
        return main(["solve", "--theta", str(tmp_path / "theta.csv"),
                     "--dim", str(P or traj.P), "--out", str(tmp_path / "solution.csv")])

    @staticmethod
    def rule(P, n):
        return f"N={n} nodes in P={P} dimensions: the velocity rotation needs at least 2P nodes "

    @pytest.mark.parametrize("P, n", [(2, 3), (3, 5)])
    @pytest.mark.parametrize("config", [
        dict(kind="sigma_sweep", sweep=[-10.0], K=20),
        dict(kind="time_grid", sweep=[0.0], K=20),
    ], ids=["sigma_sweep", "time_grid"])
    def test_experiment_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                 P, n, config):
        monkeypatch.setattr(exp_mod, "_map_tasks", None)  # no trial may run
        self.network(P, n).save(tmp_path / "net.json")
        cfg = ExperimentConfig(**config, fixture=str(tmp_path / "net.json"), trials=3)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
        capsys.readouterr()
        assert main(["experiment", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: {self.rule(P, n)}({2 * P})\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("P, n", [(2, 3), (3, 5)])
    def test_solve_exits_2_naming_the_rule(self, tmp_path, capsys, P, n):
        capsys.readouterr()
        assert self.solve(tmp_path, self.network(P, n)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: N={n} nodes ")
        assert err.endswith(f"{self.rule(P, n)}({2 * P})\n")
        assert not (tmp_path / "solution.csv").exists()

    def test_noisy_fit_of_too_few_nodes_is_refused(self, tmp_path, capsys):
        # cluster5's 5 nodes in P = 3: a noisy fit's Byy can lift the rotation
        # system's null direction above the rank cut (11 of these 40 seeds;
        # Hy entries up to 1.1e6 at seed 8), so the 2P rule comes before any solve
        traj, exch = builtin_trajectory("cluster5"), ExchangeConfig(K=100)
        noise = NoiseModel.from_pair_sigma(0.1, unit="m")
        rule = f"^{self.rule(3, 5)}\\(6\\)$"
        for seed in range(40):
            coeffs = wls_solve(build_design(simulate_exchanges(traj, exch, noise, seed=seed),
                                            4, noise=noise))
            with pytest.raises(IllPosedRotationError, match=rule):
                solve_relative(coeffs.to_range_matrices(), 3)
        capsys.readouterr()
        assert self.solve(tmp_path, traj, exch, noise, seed=8, P=3) == 2
        assert capsys.readouterr().err == f"error: {self.rule(3, 5)}(6)\n"
        assert not (tmp_path / "solution.csv").exists()

    @pytest.mark.parametrize("P, n", [(2, 4), (3, 6)])
    def test_two_p_nodes_run(self, tmp_path, P, n):
        traj = self.network(P, n)
        traj.save(tmp_path / "net.json")
        for config in (dict(kind="sigma_sweep", sweep=[-10.0], K=20),
                       dict(kind="time_grid", sweep=[0.0], K=20)):
            cfg = ExperimentConfig(**config, fixture=str(tmp_path / "net.json"), trials=3)
            assert all(row.n_fail == 0 and np.isfinite(row.rmse)
                       for row in run_experiment(cfg).rows)
        assert self.solve(tmp_path, traj) == 0


def _hand_report(kind, values, rmse_rcrb):
    """A report of hand-set rows in engine order: (rmse, rcrb) = rmse_rcrb(value, quantity)."""
    rows = [ReportRow(float(v), q, *rmse_rcrb(v, q), 0)
            for v in values for q in exp_mod._KINDS[kind].quantities]
    return RmseReport(kind=kind, rows=rows, config=None)


class TestChecks:
    COEFFS = ("r", "rdot", "rddot")

    def test_k_sweep_check_passes_at_scale(self):
        cfg = ExperimentConfig(kind="k_sweep", sweep=[40], trials=400, seed=12)
        assert check_report(run_experiment(cfg)) == []

    def test_check_flags_violations(self):
        # rdot just below the band at the largest K; the smaller K is not gated
        report = _hand_report("k_sweep", [10, 20], lambda v, q: (
            (0.096 if q == "rdot" else 0.1) if v == 20 else 0.3, 0.1))
        assert check_report(report) == [
            "k_sweep: RMSE/RCRB for rdot at sweep=20 is 0.9600, outside [0.97, 1.15]"]

    def test_sigma_sweep_gated_at_smallest_noise_only(self):
        values = [-10.0, -5.0, 0.0]
        good_at_least = _hand_report("sigma_sweep", values,
                                     lambda v, q: (0.1 if v == -10.0 else 0.5, 0.1))
        assert check_report(good_at_least) == []
        bad_at_least = _hand_report("sigma_sweep", values,
                                    lambda v, q: (0.5 if v == -10.0 else 0.1, 0.1))
        assert check_report(bad_at_least) == [
            f"sigma_sweep: RMSE/RCRB for {q} at sweep=-10 is 5.0000, outside [0.97, 1.15]"
            for q in self.COEFFS]

    def test_noiseless_point_fails_for_want_of_a_bound(self):
        report = _hand_report("k_sweep", [10], lambda v, q: (1e-9, None))
        assert check_report(report) == [
            f"k_sweep: RMSE/RCRB for {q} at sweep=10 is nan, outside [0.97, 1.15]"
            for q in self.COEFFS]

    @staticmethod
    def time_grid(dynamic, cmds):
        """A time grid at t = -3, 0, 3 with RMSEs dynamic(t) and cmds(t)."""
        return _hand_report("time_grid", [-3.0, 0.0, 3.0], lambda t, q: (
            dynamic(t) if q == "Xk_dynamic" else cmds(t), None))

    def test_time_grid_passes(self):
        assert check_report(self.time_grid(lambda t: 1 + abs(t), lambda t: 3.0)) == []

    @pytest.mark.parametrize("dynamic, cmds, message", [
        (lambda t: 5 + abs(t), lambda t: 3.0,
         "time_grid: dynamic RMSE 5 not below classical MDS 3 at t=0"),
        (lambda t: 1.0, lambda t: 3.0,
         "time_grid: dynamic RMSE at |t|=3 does not exceed its value at t=0"),
        (lambda t: 1 + abs(t), lambda t: 3.0 + 0.3 * abs(t),
         "time_grid: classical MDS spread 0.231 exceeds 0.2 of median"),
        (lambda t: 1 + abs(t), lambda t: 3.0 if t <= 0 else float("nan"),
         "time_grid: classical MDS spread nan exceeds 0.2 of median"),
    ], ids=["dynamic-not-below-cmds", "dynamic-not-degrading", "cmds-spread", "cmds-nan"])
    def test_time_grid_flags_each_rule(self, dynamic, cmds, message):
        assert check_report(self.time_grid(dynamic, cmds)) == [message]

    @pytest.mark.parametrize("times", [[0.0], [-1.0, 1.0]], ids=["one-time", "symmetric"])
    def test_time_grid_of_one_distinct_abs_t_has_no_edge_rule(self, times):
        # the report time nearest t = 0 is also the edge, so there is nothing to degrade toward
        report = lambda dynamic: _hand_report("time_grid", times, lambda t, q: (
            dynamic if q == "Xk_dynamic" else 3.0, None))
        assert check_report(report(1.0)) == []
        assert check_report(report(5.0)) == [
            f"time_grid: dynamic RMSE 5 not below classical MDS 3 at t={times[0]:g}"]


class TestEmit:
    def test_files_written_per_kind(self, tmp_path):
        reports = []
        for kind, sweep in (("k_sweep", [10]), ("sigma_sweep", [-10.0]), ("time_grid", [0.0])):
            cfg = ExperimentConfig(kind=kind, sweep=sweep, K=15, trials=4, seed=0)
            reports.append(run_experiment(cfg))
        written = emit_outputs(reports, tmp_path)
        names = {p.name for p in written}
        assert {"experiment_k_sweep.csv", "experiment_sigma_sweep.csv",
                "experiment_time_grid.csv", "manifest.json"} <= names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["experiments"]) == 3
        header = (tmp_path / "experiment_k_sweep.csv").read_text().splitlines()[0]
        assert header == "sweep_value,quantity,rmse,rcrb,n_fail"

    def test_manifest_records_environment(self, tmp_path):
        emit_outputs(run_experiment(ExperimentConfig(kind="k_sweep", sweep=[10], trials=2)),
                     tmp_path)
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"] and env["platform"]

    def test_path_fixture_run_writes_its_manifest(self, tmp_path):
        # manifest.json, written after every trial and CSV, holds the fixture
        # as JSON, which has no path type
        builtin_trajectory("cluster5").save(tmp_path / "net.json")
        cfg = ExperimentConfig(kind="k_sweep", sweep=[10], trials=2,
                               fixture=tmp_path / "net.json")
        assert cfg.fixture == str(tmp_path / "net.json")
        emit_outputs(run_experiment(cfg), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["experiments"][0]["fixture"] == str(tmp_path / "net.json")

    def test_manifest_records_processes(self, tmp_path):
        reports = [run_experiment(ExperimentConfig(kind="k_sweep", sweep=[10, 20], trials=2)),
                   run_experiment(ExperimentConfig(kind="time_grid", sweep=[0.0], trials=2))]
        emit_outputs(reports, tmp_path)
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["cpus"] == exp_mod._cpus() >= 1
        assert env["workers"] == [r.workers for r in reports]
        assert all(w >= 1 for w in env["workers"])

    @staticmethod
    def assert_csvs_hold(report, out):
        """Every line of the report's two CSVs ends in CRLF, and each cell holds
        its ReportRow value: floats bit for bit, an empty rcrb exactly where
        the bound is None."""
        def same(cell, want):
            return cell == "" if want is None else float(cell).hex() == float(want).hex()

        texts = [(out / f"{stem}_{report.kind}.csv").read_bytes().decode()
                 for stem in ("experiment", "plot")]
        for text in texts:
            assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n")
        _, *rows = [line.split(",") for line in texts[0].splitlines()]
        assert len(rows) == len(report.rows)
        for cells, row in zip(rows, report.rows):
            assert cells[1] == row.quantity and cells[4] == str(row.n_fail)
            assert same(cells[0], row.sweep_value) and same(cells[2], row.rmse)
            assert same(cells[3], row.rcrb)
        # one plot line per sweep value, in the experiment file's order
        header, *rows = [line.split(",") for line in texts[1].splitlines()]
        n_quantities = len(exp_mod._KINDS[report.kind].quantities)
        assert len(rows) * n_quantities == len(report.rows)
        for i, cells in enumerate(rows):
            point = {r.quantity: r for r in report.rows[i * n_quantities:(i + 1) * n_quantities]}
            assert same(cells[0], report.rows[i * n_quantities].sweep_value)
            for name, cell in zip(header[1:], cells[1:], strict=True):
                stat, quantity = name.split("_", 1)
                assert same(cell, getattr(point[quantity], stat))

    def test_byte_identical_rerun(self, tmp_path):
        def produce(where):
            cfg = ExperimentConfig(kind="k_sweep", sweep=[12, 24], trials=10, seed=33)
            report = run_experiment(cfg)
            emit_outputs(report, where)
            self.assert_csvs_hold(report, where)
            return (where / "experiment_k_sweep.csv").read_bytes(), \
                   (where / "plot_k_sweep.csv").read_bytes()

        a = produce(tmp_path / "a")
        b = produce(tmp_path / "b")
        assert a == b

    @pytest.mark.parametrize("kind, sweep", [
        ("k_sweep", [10, 10]),
        ("time_grid", [0.3, 0.35]),  # both snap to the marker at t = 1/3
    ])
    def test_plot_keeps_repeated_sweep_values(self, tmp_path, kind, sweep):
        report = run_experiment(ExperimentConfig(kind=kind, sweep=sweep, K=10, trials=3))
        emit_outputs(report, tmp_path)
        self.assert_csvs_hold(report, tmp_path)
        plot = (tmp_path / f"plot_{kind}.csv").read_text().splitlines()
        assert len(plot) == 3
        assert report.rows[0].sweep_value == report.rows[-1].sweep_value
        # two separately seeded k points; one time, twice, on the same trials
        assert (plot[1] == plot[2]) == (kind == "time_grid")

    def test_plot_file_layout(self, tmp_path):
        cfg = ExperimentConfig(kind="time_grid", sweep=[-3.0, 3.0], K=10, trials=4, seed=0)
        report = run_experiment(cfg)
        emit_outputs(report, tmp_path)
        self.assert_csvs_hold(report, tmp_path)
        header = (tmp_path / "plot_time_grid.csv").read_text().splitlines()[0]
        assert header == "sweep_value,rmse_Xk_dynamic,rmse_Xk_cmds"
