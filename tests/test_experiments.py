import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relkin
import relkin.experiments as exp_mod
from relkin import (
    ConfigError,
    ExperimentConfig,
    RankDeficiencyError,
    RmseReport,
    check_report,
    default_suite,
    emit_outputs,
    run_experiment,
)
from relkin.cli import main
from relkin.experiments import ReportRow
from relkin.ranging import _fit_pairs, build_design
from relkin.twr import _draw_exchanges, _exchange_states

import trial_oracle
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


class TestRunExperiment:
    def test_noiseless_single_trial_sanity(self):
        # polynomial delay model: the whole pipeline is exact and every RMSE
        # collapses to numerical noise
        cfg = ExperimentConfig(kind="k_sweep", sweep=[10], sigma_m=0.0, trials=1,
                               seed=0, delay_model="taylor")
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.rmse < 1e-6
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
        real = exp_mod._trial_chunk
        embed_failure = 1 + exp_mod._TRIAL_ERRORS.index(exp_mod.EmbeddingFailureError)

        def flaky(pt, trials):
            # fail two of the trials as a failed spectral embedding would
            res = real(pt, trials)
            cause = res.cause.copy()
            cause[np.isin(np.asarray(trials), (1, 3))] = embed_failure
            return res._replace(cause=cause)

        monkeypatch.setattr(exp_mod, "_trial_chunk", flaky)
        cfg = ExperimentConfig(kind="k_sweep", sweep=[12], trials=6, seed=0)
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.n_fail == 2
            assert np.isfinite(row.rmse)
            assert row.failures == {"EmbeddingFailureError": 2}

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

    def test_orthogonalized_rotation_matches_oracle(self):
        cfg = ExperimentConfig(kind="sigma_sweep", sweep=[-10.0, 0.0], K=30, trials=25,
                               seed=7, orthogonalize=True)
        _assert_rows_match(run_experiment(cfg).rows, trial_oracle.run_experiment(cfg))


class TestOnePass:
    """The engine's draw-and-fit pass against the staged library path it folds."""

    @pytest.mark.parametrize("delay_model", ["exact", "taylor"])
    @pytest.mark.parametrize("sigma_m", [0.0, 0.1], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("K", [4, 10, 100], ids=["K=L", "K=10", "K=100"])
    @pytest.mark.parametrize("kind", ["k_sweep", "time_grid"])
    def test_bits_equal_draw_design_fit(self, monkeypatch, kind, K, sigma_m, delay_model):
        sweep = [K] if kind == "k_sweep" else [-3.0, 0.0, 2.0]
        cfg = ExperimentConfig(kind=kind, sweep=sweep, K=K, sigma_m=sigma_m, L=4, trials=7,
                               seed=11, delay_model=delay_model)
        traj = exp_mod.load_trajectory(cfg.fixture)
        pt = exp_mod._sweep_point(traj, cfg, 2, K) if kind == "k_sweep" else \
            exp_mod._time_grid_point(traj, cfg)
        # sub-chunks of 3 trials: 3, 3 and a ragged 1
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 3 * pt.clean.n_pairs * K * (cfg.L + 1))
        trials = range(2, 9)
        theta, rank_bad, snap_tau = exp_mod._fit_trials(pt, trials)

        noise = exp_mod._point_model(cfg, K if kind == "k_sweep" else None)[1]
        states = _exchange_states(cfg.seed, [pt.stream + (t,) for t in trials], pt.clean.n_pairs)
        assert snap_tau.shape == (7, 10, len(pt.markers))
        for t in range(len(trials)):
            design = build_design(_draw_exchanges(pt.clean, noise, states[t]), cfg.L, noise=noise)
            fit = _fit_pairs(design)
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
        real_chunk, real_draw = exp_mod._trial_chunk, exp_mod._draw_and_fit

        def chunk(pt, trials):
            outer.append(len(trials))
            return real_chunk(pt, trials)

        def draw(pt, states, rows):
            inner.append(len(states))
            return real_draw(pt, states, rows)

        monkeypatch.setattr(exp_mod, "_trial_chunk", chunk)
        monkeypatch.setattr(exp_mod, "_draw_and_fit", draw)
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 2**12)
        monkeypatch.setattr(exp_mod, "_cpus", lambda: 1)  # the calls are recorded here
        middle = run_experiment(cfg).rows
        # each sweep point is one outer chunk; its draw and fit run in
        # sub-chunks of 2**12 // (Nbar K (L + 1)) trials: 8 at K=10, 2 at K=30
        assert outer == [23, 23]
        assert inner == [8, 8, 7] + [2] * 11 + [1]
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
        monkeypatch.setattr(exp_mod, "_CHUNK_DOUBLES", 2**10)  # 13 trials an outer chunk
        monkeypatch.setattr(exp_mod, "_cpus", lambda: cpus)
        cfgs = [ExperimentConfig(kind="k_sweep", sweep=[10, 30], trials=10, seed=5),
                ExperimentConfig(**dict(TIME_GRID_FAILING, trials=30))]  # three outer chunks
        shared = exp_mod._run_experiments(cfgs)
        assert [r.rows for r in shared] == [run_experiment(cfg).rows for cfg in cfgs]
        assert [r.workers for r in shared] == [2 if FORK and cpus == 2 else 1] * 2

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
        real, parent = exp_mod._trial_chunk, os.getpid()
        message = "pair (0, 1) lost rank in the chunk of sweep point 1"

        def failing(pt, trials):
            # raises only in a worker, so a serial run would pass
            if pt.stream == (1,) and os.getpid() != parent:
                raise RankDeficiencyError(message)
            return real(pt, trials)

        monkeypatch.setattr(exp_mod, "_trial_chunk", failing)
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

            real, parent = exp_mod._trial_chunk, os.getpid()

            def dying(pt, trials):
                if pt.stream == (1,) and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(pt, trials)

            exp_mod._trial_chunk, exp_mod._cpus = dying, lambda: 2
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
