"""The benchmark's workloads: inputs from the seed, one op, and output checks.

A workload builds its inputs in setup() (repeatable; each call rewrites the
same files), runs one op per op(i) call through relkin's public entry points
only, and checks that op's outputs in check(i), returning the names of the
checks that failed.  The checks hold for any seed.  Every workload is a
closed loop with one caller: an op starts when the previous one is checked.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from relkin import (
    RangeNoiseCovariances,
    centering_matrix,
    cli,
    crb_trace,
    default_suite,
    fim_position,
    fim_velocity,
    load_trajectory,
    range_matrices,
)

import netgen

HERE = Path(__file__).resolve().parent


def run_cli(argv) -> tuple[int, str]:
    """relkin.cli.main in-process; its console output is returned, not printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def solution_matrices(rows, shape) -> dict:
    """`relkin solve` output as {(quantity, time or None): matrix}, for the P x N quantities."""
    out = {}
    for rec in rows:
        if rec["quantity"] == "Hy":
            continue
        key = (rec["quantity"], float(rec["time"]) if rec["time"] else None)
        mat = out.setdefault(key, np.full(shape, np.nan))
        mat[int(rec["row"]), int(rec["col"])] = float(rec["value"])
    return out


def aligned_error(truth_c: np.ndarray, est: np.ndarray) -> float:
    """Frobenius error of est after centering and the best orthogonal alignment."""
    est_c = est - est.mean(axis=1, keepdims=True)
    u, _, vt = np.linalg.svd(est_c @ truth_c.T)
    return float(np.linalg.norm(truth_c - vt.T @ u.T @ est_c))


def _row_values(rec) -> list:
    """An experiment CSV row as [sweep_value, quantity, rmse, rcrb or None, n_fail]."""
    rcrb = None if rec["rcrb"] == "" else float(rec["rcrb"])
    return [float(rec["sweep_value"]), rec["quantity"], float(rec["rmse"]), rcrb, int(rec["n_fail"])]


def _same(a, b, rel_tol=1e-9) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel_tol) or (math.isnan(a) and math.isnan(b))
    return a == b


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.notes = {}  # recorded in the run record, never gated

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One untimed pass so lazy imports and first-call costs stay out of the ops."""
        self.op(0)

    def op(self, i: int) -> dict:
        """Run op i; return the durations (s) of its named parts."""
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        raise NotImplementedError

    def report(self, ops: list[dict]) -> dict:
        """This workload's own metrics over its untraced ops, {name: (value, unit)}."""
        return {}


class McSuite(Workload):
    name = "mc_suite"
    why = ("`relkin experiment --check` on the default suite: thousands of tiny N=5 "
           "pipeline passes, so per-call Python overhead dominates; trial-loop "
           "vectorization shows here.")
    # The CLI's --ci count; one suite took 10-17 s at it on a shared 2-CPU VM.
    TRIALS = 200
    # The program's --check holds the RMSE/CRB ratio of r, rdot and rddot at the
    # most informative sweep point to [0.97, 1.15].  At 200 trials one ratio has
    # a standard deviation of about 1.6% (1/sqrt(2 * 10 pairs * 200)), so 0.97
    # is two deviations below 1 and that check fails on some seeds: ratios down
    # to 0.971 showed on 12 seeds, and at 50 trials 3 of 8 seeds failed.  The
    # benchmark gates its own band, five deviations below 1, and records the
    # program's verdict.  The time-grid invariants are gated as the program
    # states them.
    RATIO_BAND = (0.92, 1.15)
    REFERENCE = HERE / "reference" / "mc_suite_seed0.json"
    KINDS = ("k_sweep", "sigma_sweep", "time_grid")

    def setup(self):
        self.out = self.workdir / "experiment"
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = json.loads(self.REFERENCE.read_text()) if self.seed == 0 else None

    def warmup(self):
        run_cli(["experiment", "--trials", "2", "--seed", str(self.seed),
                 "--out", str(self.workdir / "warmup")])

    def op(self, i):
        self.status, self.console = run_cli(
            ["experiment", "--trials", str(self.TRIALS), "--seed", str(self.seed),
             "--out", str(self.out), "--check"])
        return {}

    def check(self, i):
        fails = []
        if self.status not in (0, 1):  # 1 is a failed invariant check, anything else an error
            fails.append("mc.exit_status")
        verdicts = [line for line in self.console.splitlines() if line.startswith("FAIL")]
        self.notes.setdefault("program_check_failures", []).extend(verdicts)
        if any(line.startswith("FAIL time_grid") for line in verdicts):
            fails.append("mc.time_grid_invariants")
        rows = {kind: [_row_values(r) for r in read_rows(self.out / f"experiment_{kind}.csv")]
                for kind in self.KINDS}
        lo, hi = self.RATIO_BAND
        for kind, best in (("k_sweep", max), ("sigma_sweep", min)):
            point = best(r[0] for r in rows[kind])
            ratios = [r[2] / r[3] for r in rows[kind]
                      if r[0] == point and r[1] in ("r", "rdot", "rddot")]
            if len(ratios) != 3 or not all(lo <= x <= hi for x in ratios):
                fails.append(f"mc.{kind}_rmse_over_rcrb")
        if not all(math.isfinite(r[2]) for rs in rows.values() for r in rs):
            fails.append("mc.nonfinite_rmse")
        if self.reference is not None:
            # equal to 1e-9 relative, so a reordered summation still passes;
            # byte identity of the CSVs is recorded, not gated
            ref = self.reference["rows"]
            if not all(len(rows[k]) == len(ref[k]) and all(
                    _same(a, b) for got, want in zip(rows[k], ref[k]) for a, b in zip(got, want))
                    for k in self.KINDS):
                fails.append("mc.rows_vs_seed_commit")
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(self.out.glob("*.csv"))}
            self.notes["csv_byte_identical_to_seed_commit"] = digests == self.reference["sha256"]
        return fails

    def report(self, ops):
        points = sum(1 if c.kind == "time_grid" else len(c.sweep)
                     for c in default_suite(trials=self.TRIALS))
        seconds = sum(o["seconds"] for o in ops)
        return {"mc_trials_per_s": (points * self.TRIALS * len(ops) / seconds, "1/s")}


class NetworkN12(Workload):
    name = "network_n12"
    why = ("one random 12-node network (66 pairs, K=100) through `relkin estimate`, "
           "`solve` and `crb`: ranging's dense global design does ~95% of the work; "
           "the per-pair kernel shows here and CSV I/O is then the floor.")
    N = 12
    POOL = 8  # networks generated in setup; ops cycle through them

    def setup(self):
        self.nets = [netgen.make_network(self.seed, self.N, k, self.workdir, exchange_csv=True)
                     for k in range(self.POOL)]
        self.theta = self.workdir / "theta.csv"
        self.solution = self.workdir / "solution.csv"
        self.crb = self.workdir / "crb.csv"

    def op(self, i):
        net = self.nets[i % self.POOL]
        sigma = str(netgen.SIGMA_M)
        steps = {
            "estimate_s": ["estimate", "--exchanges", str(net.exchange_csv), "--order",
                           str(netgen.L), "--sigma-meters", sigma, "--out", str(self.theta)],
            "solve_s": ["solve", "--theta", str(self.theta), "--out", str(self.solution)],
            "crb_s": ["crb", "--fixture", str(net.traj_json), "--messages", str(netgen.K),
                      "--sigma-meters", sigma, "--order", str(netgen.L), "--out", str(self.crb)],
        }
        parts, self.statuses = {}, []
        for part, argv in steps.items():
            t0 = time.perf_counter()
            self.statuses.append(run_cli(argv)[0])
            parts[part] = time.perf_counter() - t0
        return parts

    def check(self, i):
        if any(self.statuses):
            return ["n12.cli_exit"]
        fails = []
        exchanges = self.nets[i % self.POOL].exchanges
        theta, rcrb = self._reference_fit(exchanges)
        got_theta = np.full_like(theta, np.nan)
        got_rcrb = np.full_like(theta, np.nan)
        index = {pair: p for p, pair in enumerate(exchanges.pairs)}
        for rec in read_rows(self.theta):
            p, ell = index[(int(rec["i"]), int(rec["j"]))], int(rec["order"])
            got_theta[p, ell], got_rcrb[p, ell] = float(rec["theta"]), float(rec["rcrb"])
        # the estimate must agree with the per-pair fit far below its own noise
        if not np.all(np.abs(got_theta - theta) <= 1e-6 * rcrb):
            fails.append("n12.theta_vs_lstsq")
        if not np.allclose(got_rcrb, rcrb, rtol=1e-6, atol=0):
            fails.append("n12.rcrb_vs_inv_vtv")
        crb = {r["quantity"]: float(r["rcrb"]) for r in read_rows(self.crb)}
        network_rcrb = self._grid_rcrb()
        if not all(math.isclose(crb[q], network_rcrb[ell], rel_tol=1e-6)
                   for ell, q in enumerate(("r", "rdot", "rddot"))):
            fails.append("n12.crb_vs_inv_vtv")
        if not (crb["Xrel"] > 0 and crb["Yrel"] > 0 and math.isfinite(crb["Xrel"] + crb["Yrel"])):
            fails.append("n12.crb_position_velocity")
        sol = read_rows(self.solution)
        if not all(math.isfinite(float(r["value"])) for r in sol):
            fails.append("n12.solution_nonfinite")
        return fails

    @staticmethod
    def _pair_variance(c):
        return (netgen.SIGMA_M / c) ** 2

    @staticmethod
    def _scale(c):
        return c * np.array([math.factorial(ell) for ell in range(netgen.L)], float)

    def _reference_fit(self, ex):
        """Per-pair np.linalg.lstsq on the Vandermonde blocks, and the inv(V^T V) bound."""
        f = self._scale(ex.c)
        var = self._pair_variance(ex.c)
        tau = ex.tau()
        theta = np.empty((ex.n_pairs, netgen.L))
        rcrb = np.empty_like(theta)
        for p in range(ex.n_pairs):
            V = np.vander(ex.t_i[p], netgen.L, increasing=True)
            theta[p] = np.linalg.lstsq(V, tau[p], rcond=None)[0] * f
            rcrb[p] = f * np.sqrt(var * np.diag(np.linalg.inv(V.T @ V)))
        return theta, rcrb

    def _grid_rcrb(self):
        """Network root-CRB per order for the clean marker grid: sqrt(Nbar var [inv(V^T V)]_ll)."""
        c = self.nets[0].exchanges.c
        grid = np.linspace(*netgen.INTERVAL, netgen.K)
        V = np.vander(grid, netgen.L, increasing=True)
        nbar = self.N * (self.N - 1) // 2
        var = nbar * self._pair_variance(c) * np.diag(np.linalg.inv(V.T @ V))
        return self._scale(c) * np.sqrt(var)

    def report(self, ops):
        return _network_report(ops)


class LargeN48(Workload):
    name = "large_n48"
    why = ("one random 48-node network (1128 pairs): `relkin solve` on a fitted theta CSV, "
           "then fim_position/fim_velocity/crb_trace at truth; bounds (~95%) and the "
           "N^2 x N^2 rotation system dominate, ranging does no timed work.")
    N = 48
    POOL = 3
    # The aligned Xrel/Yrel errors of one estimate must stay below this multiple
    # of the (each pair measured once) root-CRB at truth.  Over 60 generated
    # networks the ratio measured 1.3-1.7 for Xrel and 1.5-2.2 for Yrel, and
    # at most 2.1 for the propagated Xk over 24 networks.
    ERROR_MULTIPLE = 4.0

    def setup(self):
        self.nets = [netgen.make_network(self.seed, self.N, k, self.workdir, theta_csv=True)
                     for k in range(self.POOL)]
        self.solution = self.workdir / "solution.csv"

    def op(self, i):
        net = self.nets[i % self.POOL]
        t0 = time.perf_counter()
        self.status = run_cli(["solve", "--theta", str(net.theta_csv), "--out", str(self.solution)])[0]
        t1 = time.perf_counter()
        traj = load_trajectory(str(net.traj_json))
        pc = centering_matrix(traj.N)
        block = netgen.pair_crb()
        nbar = traj.N * (traj.N - 1) // 2
        covs = RangeNoiseCovariances(*(block.block(ell)[0, 0] * np.eye(nbar) for ell in range(3)))
        self.fx = fim_position(traj.X @ pc, covs.Sigma_r, duplicate_pairs=False)
        self.fy = fim_velocity(traj.Y @ pc, range_matrices(traj), covs, duplicate_pairs=False)
        self.rcrb = (math.sqrt(crb_trace(self.fx)), math.sqrt(crb_trace(self.fy)))
        t2 = time.perf_counter()
        return {"solve_s": t1 - t0, "bounds_s": t2 - t1}

    def check(self, i):
        if self.status != 0:
            return ["n48.cli_exit"]
        fails = []
        traj = self.nets[i % self.POOL].traj
        rx, ry = self.rcrb
        # Xk(t) = Xrel + t Hy Yrel also tests Hy; its bound grows as rx + |t| ry
        targets = {("Xrel", None): (traj.X, rx), ("Yrel", None): (traj.Y, ry)}
        mats = solution_matrices(read_rows(self.solution), traj.X.shape)
        targets.update({(q, t): (traj.position_at(t), rx + abs(t) * ry)
                        for q, t in mats if q == "Xk"})
        ratios = {}
        for (name, t), (truth, bound) in targets.items():
            est = mats.get((name, t), np.full(truth.shape, np.nan))
            truth_c = truth - truth.mean(axis=1, keepdims=True)
            err = aligned_error(truth_c, est) if np.all(np.isfinite(est)) else math.inf
            ratios[f"{name}" if t is None else f"{name}@{t:g}"] = err / bound
            if not err <= self.ERROR_MULTIPLE * bound and f"n48.{name}_error_vs_rcrb" not in fails:
                fails.append(f"n48.{name}_error_vs_rcrb")
        self.notes.setdefault("error_over_rcrb", []).append(ratios)
        for name, fim in (("fim_position", self.fx), ("fim_velocity", self.fy)):
            lam = np.linalg.eigvalsh(fim.matrix)
            if int(np.sum(lam > 1e-10 * lam[-1])) != 2 * self.N - 3:
                fails.append(f"n48.{name}_rank")
        return fails

    def report(self, ops):
        out = _network_report(ops)
        for part in ("solve_s", "bounds_s"):
            values = [o[part] for o in ops if part in o]
            out[f"{part}_p50"] = (float(np.median(values)), "s")
        return out


def _network_report(ops):
    times = [o["seconds"] for o in ops]
    out = {"network_s_p50": (float(np.median(times)), "s"),
           "networks_per_s": (len(times) / sum(times), "1/s")}
    for p in (99, 95, 90, 75):
        if len(times) * (100 - p) / 100 >= 10:
            out[f"network_s_p{p}"] = (float(np.percentile(times, p)), "s")
            break
    out["network_samples"] = (len(times), "count")
    return out


WORKLOADS = {w.name: w for w in (McSuite, NetworkN12, LargeN48)}
