import csv
import gc
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from relkin import (
    ExchangeConfig,
    NoiseModel,
    builtin_trajectory,
    centering_matrix,
    procrustes_align,
    range_matrices,
    simulate_exchanges,
)
from relkin.cli import main


@pytest.fixture()
def exchange_csv(tmp_path):
    traj = builtin_trajectory("cluster5")
    ex = simulate_exchanges(traj, ExchangeConfig(K=20, delay_model="taylor"),
                            NoiseModel(0.0), seed=0)
    path = tmp_path / "exchanges.csv"
    ex.to_csv(path)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEstimate:
    def test_writes_theta_and_rcrb(self, exchange_csv, tmp_path):
        out = tmp_path / "theta.csv"
        rc = main(["estimate", "--exchanges", str(exchange_csv), "--order", "4",
                   "--sigma-meters", "0.1", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 10 * 4
        traj = builtin_trajectory("cluster5")
        r_true = range_matrices(traj).pair_vectors()[0]
        got = {(int(r["i"]), int(r["j"])): float(r["theta"])
               for r in rows if r["order"] == "0"}
        for p, (i, j) in enumerate([(a, b) for a in range(5) for b in range(a + 1, 5)]):
            assert got[(i, j)] == pytest.approx(r_true[p], rel=1e-8)
        assert all(float(r["rcrb"]) > 0 for r in rows)

    def test_solver_switch_removed(self, exchange_csv, tmp_path):
        # one per-pair solver serves every caller, so there is no mode to pick
        for flag in ("--pairwise", "--global"):
            with pytest.raises(SystemExit) as exc:
                main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                      flag, "--out", str(tmp_path / "a.csv")])
            assert exc.value.code == 2

    @pytest.mark.parametrize("sigma", ["0", "-0.1", "nan", "inf"])
    def test_nonpositive_sigma_is_clean_error(self, exchange_csv, tmp_path, sigma):
        out = tmp_path / "theta.csv"
        rc = main(["estimate", "--exchanges", str(exchange_csv), f"--sigma-meters={sigma}",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["duplicate", "k_out_of_range", "nan_timestamp",
                                      "missing_pair", "empty"])
    def test_malformed_exchanges_are_clean_errors(self, exchange_csv, tmp_path, edit):
        lines = exchange_csv.read_text().splitlines()
        fields = lines[2].split(",")  # i, j, k, E, T_tx, T_rx of pair (0,1), k=1
        if edit == "duplicate":
            lines[2] = lines[1]
        elif edit == "k_out_of_range":
            lines[2] = ",".join(fields[:2] + ["20"] + fields[3:])
        elif edit == "nan_timestamp":
            lines[2] = ",".join(fields[:5] + ["nan"])
        elif edit == "missing_pair":
            lines = [line for line in lines if not line.startswith("0,1,")]
        else:
            lines = []
        exchange_csv.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "theta.csv"
        rc = main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_missing_file_is_clean_error(self, tmp_path):
        rc = main(["estimate", "--exchanges", str(tmp_path / "nope.csv"),
                   "--sigma-meters", "0.1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestSolve:
    def test_round_trip_geometry(self, exchange_csv, tmp_path):
        theta = tmp_path / "theta.csv"
        main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
              "--out", str(theta)])
        out = tmp_path / "solution.csv"
        # the = form lets comma-joined negative times through argparse
        rc = main(["solve", "--theta", str(theta), "--times=-1.0,0.0,1.0",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        xrel = np.zeros((2, 5))
        for r in rows:
            if r["quantity"] == "Xrel":
                xrel[int(r["row"]), int(r["col"])] = float(r["value"])
        traj = builtin_trajectory("cluster5")
        _, _, resid = procrustes_align(traj.X @ centering_matrix(5), xrel)
        assert resid < 1e-5
        times = {r["time"] for r in rows if r["quantity"] == "Xk"}
        assert times == {"-1.0", "0.0", "1.0"}


class TestCrb:
    def test_writes_quantities(self, tmp_path):
        out = tmp_path / "crb.csv"
        rc = main(["crb", "--fixture", "cluster5", "--messages", "50",
                   "--sigma-meters", "0.1", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        quantities = [r["quantity"] for r in rows]
        assert quantities == ["r", "rdot", "rddot", "order_3", "Xrel", "Yrel"]
        assert all(float(r["rcrb"]) > 0 for r in rows)

    def test_output_file_closed(self, tmp_path, monkeypatch):
        # a leaked handle warns from its finalizer, where the error surfaces
        # through sys.unraisablehook instead of propagating
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        out = tmp_path / "crb.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            rc = main(["crb", "--messages", "20", "--sigma-meters", "0.1", "--out", str(out)])
            gc.collect()
        assert rc == 0
        assert unraisable == []
        assert [r["quantity"] for r in read_rows(out)] == [
            "r", "rdot", "rddot", "order_3", "Xrel", "Yrel"]

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan"])
    def test_nonpositive_sigma_is_clean_error(self, tmp_path, sigma):
        out = tmp_path / "crb.csv"
        rc = main(["crb", "--messages", "20", f"--sigma-meters={sigma}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestExperiment:
    def test_config_run_and_check(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": [40]}, "trials": 400, "seed": 12}))
        out = tmp_path / "results"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out), "--check"])
        assert rc == 0
        assert (out / "experiment_k_sweep.csv").exists()
        assert (out / "plot_k_sweep.csv").exists()
        assert (out / "manifest.json").exists()

    def test_invalid_config_is_clean_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": []}}))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert not (tmp_path / "r").exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": [15]}, "trials": 8, "seed": 1}))
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        main(["experiment", "--config", str(cfg), "--out", str(out_a)])
        main(["experiment", "--config", str(cfg), "--out", str(out_b)])
        main(["experiment", "--config", str(cfg), "--seed", "2", "--out", str(out_c)])
        read = lambda d: (d / "experiment_k_sweep.csv").read_bytes()
        assert read(out_a) == read(out_b)
        assert read(out_a) != read(out_c)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "relkin", "crb", "--messages", "20", "--sigma-meters", "0.1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,rcrb")
