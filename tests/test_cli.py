import argparse
import csv
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from relkin import (
    ExchangeConfig,
    NoiseModel,
    RangeMatrices,
    TimestampExchangeSet,
    build_design,
    builtin_trajectory,
    canonical_pairs,
    centering_matrix,
    crb_theta,
    procrustes_align,
    range_matrices,
    simulate_exchanges,
    solve_relative,
    wls_solve,
)
from relkin import cli
from relkin.cli import main
from relkin.exceptions import DegenerateVelocityWarning
from relkin.experiments import _root_crbs
from relkin.twr import _clean_exchanges


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


def read_theta_per_row(path):
    """Reference coefficient-CSV parse, one row at a time: (N, range matrices)."""
    per_pair = {}
    for rec in read_rows(path):
        per_pair.setdefault((int(rec["i"]), int(rec["j"])), {})[int(rec["order"])] = \
            float(rec["theta"])
    n = max(j for _, j in per_pair) + 1
    return n, RangeMatrices.from_pair_vectors(
        n, *([per_pair[pair][ell] for pair in canonical_pairs(n)] for ell in range(3)))


def write_solution_per_cell(path, sol, times):
    """Reference solution-CSV writer: one repr per matrix entry, in row order."""
    rows = [("quantity", "time", "row", "col", "value")]
    mats = [("Xrel", "", sol.Xrel), ("Yrel", "", sol.Yrel), ("Hy", "", sol.Hy)]
    mats += [("Xk", repr(float(t)), sol.position_at(t)) for t in times]
    for name, stamp, mat in mats:
        for r in range(mat.shape[0]):
            for c in range(mat.shape[1]):
                rows.append((name, stamp, r, c, repr(float(mat[r, c]))))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture()
def theta_csv(exchange_csv, tmp_path):
    path = tmp_path / "theta.csv"
    assert main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                 "--out", str(path)]) == 0
    return path


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

    def test_one_fit_matches_separate_solve_and_bound(self, exchange_csv, tmp_path):
        # theta and the rcrb come from one fit; the file must be what the
        # separate wls_solve and crb_theta calls give, byte for byte
        out = tmp_path / "theta.csv"
        assert main(["estimate", "--exchanges", str(exchange_csv), "--order", "3",
                     "--sigma-meters", "0.2", "--out", str(out)]) == 0
        design = build_design(TimestampExchangeSet.from_csv(exchange_csv), 3,
                              noise=NoiseModel.from_pair_sigma(0.2, unit="m"))
        phys, crb = wls_solve(design).physical, crb_theta(design)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [("i", "j", "order", "theta", "rcrb")]
                + [(i, j, ell, repr(float(phys[p, ell])), repr(float(crb.per_pair_rcrb(ell)[p])))
                   for p, (i, j) in enumerate(canonical_pairs(5)) for ell in range(3)])
        assert out.read_bytes() == want.read_bytes()

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
                                      "missing_pair", "missing_message", "empty"])
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
        elif edit == "missing_message":
            lines = lines[:-1]  # pair (3, 4) is one message short
        else:
            lines = []
        exchange_csv.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "theta.csv"
        rc = main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_truncated_file_against_node_count(self, exchange_csv, tmp_path, capsys):
        out = tmp_path / "theta.csv"
        argv = ["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                "--out", str(out)]
        assert main(argv + ["--nodes", "5"]) == 0
        whole = out.read_bytes()
        out.unlink()
        # cut after pair (0, 1): on its own the file is a whole 2-node network
        lines = exchange_csv.read_text().splitlines(keepends=True)
        exchange_csv.write_text("".join(lines[:1 + 20]))
        capsys.readouterr()
        assert main(argv + ["--nodes", "5"]) == 2
        assert "holds 2 nodes, expected 5" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0
        assert out.read_bytes() == whole[:len(out.read_bytes())]  # pair (0, 1)'s rows alone
        assert [(r["i"], r["j"]) for r in read_rows(out)] == [("0", "1")] * 4

    def test_order_above_messages_is_clean_error(self, tmp_path, capsys):
        ex = simulate_exchanges(builtin_trajectory("cluster5"), ExchangeConfig(K=3),
                                NoiseModel.from_pair_sigma(0.1), seed=0)
        ex.to_csv(tmp_path / "exchanges.csv")
        out = tmp_path / "theta.csv"
        argv = ["estimate", "--exchanges", str(tmp_path / "exchanges.csv"),
                "--sigma-meters", "0.1", "--out", str(out)]
        capsys.readouterr()
        assert main(argv + ["--order", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: --order must be at most the file's messages per pair (3), got 4\n")
        assert not out.exists()
        assert main(argv + ["--order", "3"]) == 0

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


    @pytest.mark.parametrize("flags, times, orthogonalize", [
        (["--times=-1.0,0,2.5,2.5"], [-1.0, 0.0, 2.5, 2.5], False),
        ([], np.linspace(-3.0, 3.0, 7), False),
        (["--grid", "-1", "4", "6", "--orthogonalize"], np.linspace(-1.0, 4.0, 6), True),
    ], ids=["times", "default-grid", "grid-orthogonalize"])
    def test_matches_per_cell_writer(self, theta_csv, tmp_path, flags, times, orthogonalize):
        # the column writer must give the bytes of one repr per matrix entry
        out = tmp_path / "solution.csv"
        assert main(["solve", "--theta", str(theta_csv), *flags, "--out", str(out)]) == 0
        _, rm = read_theta_per_row(theta_csv)
        want = tmp_path / "want.csv"
        write_solution_per_cell(want, solve_relative(rm, 2, orthogonalize=orthogonalize), times)
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("direction_policy", ["one_way", "alternating"])
    def test_matches_per_row_parse(self, tmp_path, monkeypatch, direction_policy):
        # the array reader must hand solve exactly what a per-row parse gives
        traj = builtin_trajectory("cluster5")
        ex = simulate_exchanges(traj, ExchangeConfig(K=30, direction_policy=direction_policy),
                                NoiseModel.from_pair_sigma(0.1), seed=4)
        ex.to_csv(tmp_path / "exchanges.csv")
        theta = tmp_path / "theta.csv"
        assert main(["estimate", "--exchanges", str(tmp_path / "exchanges.csv"),
                     "--sigma-meters", "0.1", "--out", str(theta)]) == 0
        argv = ["solve", "--theta", str(theta), "--times=-2.5,0.5,3"]
        assert main(argv + ["--out", str(tmp_path / "got.csv")]) == 0
        monkeypatch.setattr(cli, "_read_theta_csv",
                            lambda path, expected_n: read_theta_per_row(path))
        assert main(argv + ["--out", str(tmp_path / "want.csv")]) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("edit", ["no_rddot", "duplicate", "non_numeric", "no_theta_column",
                                      "nan_theta", "negative_order", "fractional_order",
                                      "swapped_pair"])
    def test_malformed_theta_is_clean_error(self, exchange_csv, tmp_path, edit):
        theta = tmp_path / "theta.csv"
        main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
              "--out", str(theta)])
        lines = theta.read_text().splitlines()
        fields = lines[1].split(",")  # i, j, order, theta, rcrb of pair (0,1), order 0
        if edit == "no_rddot":
            lines = [line for line in lines if line.split(",")[2] != "2"]
        elif edit == "duplicate":
            lines.append(lines[1])
        elif edit == "non_numeric":
            lines[1] = ",".join(fields[:3] + ["abc"] + fields[4:])
        elif edit == "no_theta_column":
            lines = [",".join(line.split(",")[:3] + line.split(",")[4:]) for line in lines]
        elif edit == "nan_theta":
            lines[1] = ",".join(fields[:3] + ["nan"] + fields[4:])
        elif edit == "negative_order":
            lines[1] = ",".join(fields[:2] + ["-1"] + fields[3:])
        elif edit == "fractional_order":
            lines[1] = ",".join(fields[:2] + ["1.5"] + fields[3:])
        else:
            lines[1] = ",".join([fields[1], fields[0]] + fields[2:])
        theta.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "solution.csv"
        rc = main(["solve", "--theta", str(theta), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_truncated_file_against_node_count(self, theta_csv, tmp_path, capsys):
        out = tmp_path / "solution.csv"
        argv = ["solve", "--theta", str(theta_csv), "--dim", "1", "--out", str(out)]
        assert main(argv + ["--nodes", "5"]) == 0
        out.unlink()
        # cut after pair (0, 1)'s four orders: on its own a whole 2-node network
        lines = theta_csv.read_text().splitlines(keepends=True)
        theta_csv.write_text("".join(lines[:1 + 4]))
        capsys.readouterr()
        assert main(argv + ["--nodes", "5"]) == 2
        assert "holds 2 nodes, expected 5" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 0
        assert "(N=2, P=1," in capsys.readouterr().out


class TestParserCache:
    """main builds its parser once per process; no call leaks into the next."""

    def test_built_once(self, theta_csv, tmp_path, monkeypatch):
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                            lambda self, **kw: built.append(self.prog) or add_subparsers(self, **kw))
        cli.build_parser.cache_clear()
        out = str(tmp_path / "out.csv")
        assert main(["solve", "--theta", str(theta_csv), "--out", out]) == 0
        assert main(["solve", "--theta", str(theta_csv), "--dim", "0", "--out", out]) == 2
        assert main(["crb", "--messages", "20", "--out", out]) == 0
        with pytest.raises(SystemExit):
            main(["solve", "--no-such-flag"])
        assert built == ["relkin"]

    def test_flags_do_not_carry_over(self, theta_csv, tmp_path, monkeypatch):
        seen = []

        def spy(rm, P, orthogonalize=False):
            seen.append(orthogonalize)
            return solve_relative(rm, P, orthogonalize=orthogonalize)

        monkeypatch.setattr(cli, "solve_relative", spy)
        out = tmp_path / "solution.csv"
        assert main(["solve", "--theta", str(theta_csv), "--times=-1,1", "--orthogonalize",
                     "--out", str(out)]) == 0
        assert main(["solve", "--theta", str(theta_csv), "--out", str(out)]) == 0
        assert seen == [True, False]
        times = [r["time"] for r in read_rows(out) if r["quantity"] == "Xk"]
        assert sorted(set(times), key=float) == list(map(repr, np.linspace(-3.0, 3.0, 7).tolist()))

    def test_replaced_handler_takes_effect(self, theta_csv, tmp_path, monkeypatch):
        argv = ["solve", "--theta", str(theta_csv), "--out", str(tmp_path / "solution.csv")]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "_cmd_solve", lambda args: calls.append(args.theta) or 7)
        assert main(argv) == 7
        assert calls == [str(theta_csv)]


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

    def test_file_and_stdout_match_csv_writer(self, tmp_path, capsys):
        traj = builtin_trajectory("cluster5")
        design = build_design(_clean_exchanges(traj, ExchangeConfig(K=20)), 5,
                              noise=NoiseModel.from_pair_sigma(0.1, unit="m"))
        crb, x_rcrb, y_rcrb = _root_crbs(traj, design)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(("quantity", "rcrb"))
        for ell, name in enumerate(["r", "rdot", "rddot", "order_3", "order_4"]):
            writer.writerow((name, repr(crb.rcrb(ell))))
        writer.writerows([("Xrel", repr(x_rcrb)), ("Yrel", repr(y_rcrb))])
        argv = ["crb", "--messages", "20", "--order", "5"]
        out = tmp_path / "crb.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.getvalue().encode()
        capsys.readouterr()
        assert main(argv) == 0  # --out - writes to stdout
        assert capsys.readouterr().out == want.getvalue()

    @pytest.mark.parametrize("X, Y, uninformed", [
        ([[0.0, 100.0, 50.0, 20.0], [0.0, 0.0, 80.0, 30.0]], [[2.0] * 4, [1.0] * 4], "Yrel"),
        ([[0.0, 30.0, 70.0, 100.0], [0.0, 15.0, 35.0, 50.0]],
         [[2.0, -1.0, 0.5, 1.5], [1.0, 0.5, -2.0, 0.0]], "Xrel"),
        ([[0.0, 100.0, 50.0, 20.0], [0.0, 0.0, 80.0, 30.0]],
         [[2.0, -1.0, 0.5, 1.5], [4.0, -2.0, 1.0, 3.0]], "Yrel"),
    ], ids=["equal-velocities", "collinear-positions", "collinear-velocities"])
    def test_degenerate_fixture_bound_is_inf(self, tmp_path, X, Y, uninformed):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"P": 2, "N": 4, "X": X, "Y": Y}))
        out = tmp_path / "crb.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateVelocityWarning)
            assert main(["crb", "--fixture", str(path), "--messages", "50",
                         "--out", str(out)]) == 0
        rcrb = {r["quantity"]: float(r["rcrb"]) for r in read_rows(out)}
        informed = {"Xrel": "Yrel", "Yrel": "Xrel"}[uninformed]
        assert rcrb[uninformed] == np.inf
        assert 0.0 < rcrb[informed] < np.inf

    def test_messages_below_order_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "crb.csv"
        assert main(["crb", "--messages", "3", "--order", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --messages must be at least --order (4), got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan"])
    def test_nonpositive_sigma_is_clean_error(self, tmp_path, sigma):
        out = tmp_path / "crb.csv"
        rc = main(["crb", "--messages", "20", f"--sigma-meters={sigma}", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


    @pytest.mark.parametrize("text", [
        json.dumps({"X": [[0.0, 300.0, 0.0], [0.0, 0.0, 400.0]]}),
        json.dumps({"X": [[0.0, 300.0, 0.0], [0.0, 0.0, 400.0]], "Y": [[1.0, 2.0], [0.0, 1.0]]}),
        "{",
    ], ids=["no_Y", "shape_mismatch", "not_json"])
    def test_malformed_fixture_is_clean_error(self, tmp_path, capsys, text):
        path = tmp_path / "fixture.json"
        path.write_text(text)
        out = tmp_path / "crb.csv"
        rc = main(["crb", "--fixture", str(path), "--messages", "20", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text, cause", [
        ('{"X": [[0, 10, NaN], [0, 0, 5]], "Y": [[1, 0, 0], [0, 1, 0]]}', "X of node 2"),
        ('{"X": [[0, 10, 3], [0, 0, 5]], "Y": [[1, 0, Infinity], [0, 1, 0]]}', "Y of node 2"),
        ('{"X": [[0, 10, null], [0, 0, 5]], "Y": [[1, 0, 0], [0, 1, 0]]}', "X of node 2"),
        ('{"P": 2.7, "X": [[0, 10, 3], [0, 0, 5]], "Y": [[1, 0, 0], [0, 1, 0]]}',
         "declared P=2.7 is not the integer 2 X gives"),
    ], ids=["nan", "inf", "null", "P=2.7"])
    def test_unusable_fixture_values_are_clean_errors(self, tmp_path, capsys, text, cause):
        # before, NaN/null surfaced as a zero-range pair and P=2.7 was read as 2
        path = tmp_path / "fixture.json"
        path.write_text(text)
        out = tmp_path / "crb.csv"
        rc = main(["crb", "--fixture", str(path), "--messages", "20", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err
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

    @pytest.mark.parametrize("text", [
        '{"sweep": {"K": []}}',
        '{"sweep": {"K": [10]}',
        "",
        "[1, 2]",
        '"x"',
        "null",
        '{"trials": 2}',
        '{"sweep": {"K": [10], "sigma_db_m": [0]}}',
        '{"sweep": [10]}',
        '{"sweep": {"N": [5]}}',
    ], ids=["empty-sweep", "truncated-json", "empty-file", "list-top-level",
            "string-top-level", "null-top-level", "missing-sweep", "two-sweep-keys",
            "sweep-not-object", "unknown-sweep-key"])
    def test_invalid_config_is_clean_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
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

    @pytest.mark.parametrize("config, band, reason", [
        ({"sigma_m": 0}, None, "RMSE/RCRB for r at sweep=10 is nan, outside [0.97, 1.15]"),
        ({}, (2.0, 3.0), "RMSE/RCRB for r at sweep=10 is "),
    ], ids=["noiseless-point", "ratio-outside-band"])
    def test_failed_check_exits_1_with_fail_lines(self, tmp_path, capsys, monkeypatch,
                                                  config, band, reason):
        import relkin.experiments as exp_mod

        if band:
            monkeypatch.setattr(exp_mod, "_RATIO_BAND", band)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": [10]}, "trials": 3, **config}))
        out = tmp_path / "r"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--check"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL ")]
        assert len(fails) == 3  # r, rdot and rddot
        assert fails[0].startswith(f"FAIL k_sweep: {reason}")
        assert (out / "experiment_k_sweep.csv").exists()  # written before the check


    @pytest.mark.parametrize("argv, config", [
        (["--ci", "--seed", "-1"], {}),
        ([], {"seed": 1.5}),
        ([], {"seed": "7"}),
        ([], {"seed": True}),
        ([], {"trials": 2.5}),
        ([], {"trials": "200"}),
    ], ids=["negative-seed-flag", "float-seed", "string-seed", "bool-seed", "float-trials",
            "string-trials"])
    def test_bad_seed_or_trials_is_clean_error(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": [10]}, "trials": 2, **config}))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r"), *argv])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("config", [
        {"L": "4"},
        {"L": 0},
        {"K": 2.5},
        {"K": 0},
        {"sweep": {"K": [10.5]}},
        {"sweep": {"K": [0]}},
        {"sweep": {"K": 5}},
        {"sweep": {"K": "10"}},
        {"sigma_m": -1},
        {"sigma_m": float("nan")},
        {"sigma_m": "0.1"},
        {"sigma_m": [0.1, 0.2]},
        {"sigma_m": [0.1] * 5},
        {"sweep": {"sigma_db_m": [float("inf")]}},
        {"sweep": {"sigma_db_m": [4000]}},
        {"sweep": {"time_grid": ["0"]}},
        {"interval": [3, -3]},
        {"interval": [0, float("inf")]},
        {"interval": [1]},
        {"interval": 3},
        {"delay_model": "bogus"},
        {"delay_model": "taylor", "L": 5},
        {"c": -1},
        {"c": 0},
        {"c": "3e8"},
        {"orthogonalize": "no"},
        {"orthogonalize": 1},
        {"L": 2},
        {"L": 2, "sigma_m": 0},
        {"sweep": {"time_grid": [0.0]}, "L": 1},
        {"sigma_m": 1e-300},
        {"sigma_m": 1e300},
        {"sweep": {"sigma_db_m": [-3000]}},
        {"sweep": {"sigma_db_m": [3000]}},
    ], ids=["string-L", "zero-L", "float-K", "zero-K", "float-K-sweep", "zero-K-sweep",
            "scalar-K-sweep", "string-K-sweep", "negative-sigma", "nan-sigma", "string-sigma",
            "two-sigmas", "per-node-sigmas", "inf-sigma-sweep",
            "overflowing-sigma-sweep", "string-time-grid", "reversed-interval",
            "infinite-interval", "short-interval", "scalar-interval", "bogus-delay-model",
            "taylor-beyond-order-4", "negative-c", "zero-c", "string-c", "string-orthogonalize",
            "int-orthogonalize", "L-2", "L-2-noiseless", "time-grid-L-1",
            "underflowing-pair-variance", "overflowing-pair-variance",
            "underflowing-sigma-sweep-variance", "overflowing-sigma-sweep-variance"])
    def test_bad_config_value_is_clean_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": [10]}, "trials": 2, **config}))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("config", [
        {"sweep": {"K": [3, 10]}},
        {"sweep": {"sigma_db_m": [-10]}, "K": 3},
        {"sweep": {"time_grid": [0, 1]}, "K": 3},
    ], ids=["k_sweep", "sigma_sweep", "time_grid"])
    def test_messages_below_order_is_clean_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "L": 4, **config}))
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: K=3 is below L=4")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, config_trials, expected", [
        (["--ci"], 50, 50),
        (["--ci", "--trials", "30"], 50, 30),
        (["--ci", "--trials", "300"], 50, 200),
        (["--ci"], 300, 200),
    ])
    def test_ci_caps_trials(self, tmp_path, argv, config_trials, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"K": [10]}, "K": 10, "trials": config_trials}))
        out = tmp_path / "r"
        assert main(["experiment", "--config", str(cfg), "--out", str(out), *argv]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["trials"] for e in manifest["experiments"]] == [expected]


@pytest.mark.parametrize("argv", [
    ["crb", "--messages", "0"],
    ["crb", "--order", "2"],
    ["crb", "--c", "-1"],
    ["crb", "--interval", "3", "-3"],
    ["solve", "--dim", "0"],
    ["solve", "--dim", "6"],
    ["solve", "--times=a"],
    ["solve", "--grid", "0", "1", "2.5"],
    ["estimate", "--order", "0"],
    ["estimate", "--c", "nan"],
    ["estimate", "--nodes", "1"],
    ["solve", "--nodes", "1"],
], ids=["crb-zero-messages", "crb-order-2", "crb-negative-c", "crb-reversed-interval",
        "solve-zero-dim", "solve-dim-above-n", "solve-nonnumeric-times", "solve-fractional-grid",
        "estimate-zero-order", "estimate-nan-c", "estimate-one-node", "solve-one-node"])
def test_bad_flag_value_is_clean_error(exchange_csv, tmp_path, capsys, argv):
    theta = tmp_path / "theta.csv"
    assert main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                 "--out", str(theta)]) == 0
    before = {"estimate": ["--exchanges", str(exchange_csv), "--sigma-meters", "0.1"],
              "solve": ["--theta", str(theta)], "crb": []}[argv[0]]
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main([argv[0], *before, *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[1].partition('=')[0]} must be ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["crb", "--sigma-meters", "1e-300"],
    ["crb", "--c", "1e-300"],
    ["estimate", "--sigma-meters", "1e-300"],
    ["estimate", "--sigma-meters", "0.1", "--c", "1e-300"],
], ids=["crb-underflowing-variance", "crb-overflowing-variance",
        "estimate-underflowing-variance", "estimate-overflowing-variance"])
def test_unrepresentable_delay_variance_is_clean_error(exchange_csv, tmp_path, capsys, argv):
    # each flag is in range, but the pair delay variance (sigma / c)**2
    # underflows to zero or overflows to inf, which no weighting can use
    extra = ["--exchanges", str(exchange_csv)] if argv[0] == "estimate" else []
    out = tmp_path / "out.csv"
    assert main([*argv, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delay variance" in err
    assert not out.exists()


# One data row naming node 10**9: only pairs (0, 10**9) of about 5e17 are present.
HUGE_EXCHANGES = "i,j,k,E,T_tx,T_rx\n0,1000000000,0,1,0.0,1e-06\n"
HUGE_THETA = "i,j,order,theta\n0,1000000000,0,1.0\n"
_AS_CAP = 1536 * 2**20  # bytes of address space; ample for a normal read


def _capped(code: str, *args) -> subprocess.CompletedProcess:
    """Run `code` with sys.argv[1:] = args in a fresh interpreter whose address
    space is capped at _AS_CAP, so a reader that sizes anything by N fails
    with MemoryError instead of exhausting the machine."""
    pytest.importorskip("resource")  # POSIX only
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    preamble = (f"import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({_AS_CAP}, {_AS_CAP}))\n")
    return subprocess.run([sys.executable, "-c", preamble + code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


class TestHugeNodeIndex:
    """A node index far beyond the rows is a missing-pairs error, raised
    before anything is sized by N."""

    def test_exchange_reader(self, tmp_path):
        path = tmp_path / "exchanges.csv"
        path.write_text(HUGE_EXCHANGES)
        proc = _capped("from relkin import InputError, TimestampExchangeSet\n"
                       "try:\n"
                       "    TimestampExchangeSet.from_csv(sys.argv[1])\n"
                       "except InputError as exc:\n"
                       "    print(exc)\n", path)
        assert proc.returncode == 0, proc.stderr
        assert "missing pairs [(0, 1), (0, 2)" in proc.stdout

    @pytest.mark.parametrize("argv, text", [
        (["estimate", "--sigma-meters", "0.1", "--exchanges"], HUGE_EXCHANGES),
        (["solve", "--theta"], HUGE_THETA),
    ], ids=["estimate", "solve"])
    def test_cli_exits_2(self, tmp_path, argv, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "out.csv"
        proc = _capped("from relkin.cli import main\nsys.exit(main(sys.argv[1:]))\n",
                       *argv, path, "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "missing pairs" in proc.stderr
        assert not out.exists()


class TestHugeCount:
    """A count flag whose arrays outgrow memory ends in a clean error, not a
    MemoryError traceback."""

    @pytest.mark.parametrize("argv", [
        ["crb", "--messages", "1000000000"],
        ["solve", "--grid", "0", "1", "1e9"],
    ], ids=["crb-messages", "solve-grid"])
    def test_cli_exits_2(self, exchange_csv, tmp_path, argv):
        theta = tmp_path / "theta.csv"
        assert main(["estimate", "--exchanges", str(exchange_csv), "--sigma-meters", "0.1",
                     "--out", str(theta)]) == 0
        before = {"solve": ["--theta", theta], "crb": []}[argv[0]]
        out = tmp_path / "out.csv"
        proc = _capped("from relkin.cli import main\nsys.exit(main(sys.argv[1:]))\n",
                       argv[0], *before, *argv[1:], "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "relkin", "crb", "--messages", "20", "--sigma-meters", "0.1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("quantity,rcrb")
