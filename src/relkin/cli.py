"""Command line interface.

Subcommands:
    estimate    fit range coefficients from an exchange CSV
    solve       relative positions/velocities/rotation from a coefficient CSV
    crb         root Cramer-Rao bounds for a fixture and exchange setup
    experiment  Monte Carlo RMSE experiments with optional invariant checks
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import RangeNoiseCovariances, crb_trace, fim_position, fim_velocity
from .embedding import position_at_time, solve_relative
from .exceptions import ConfigError, RelkinError
from .experiments import (
    ExperimentConfig,
    check_report,
    default_suite,
    emit_outputs,
    run_experiment,
)
from .kinematics import (
    RangeMatrices,
    canonical_pairs,
    centering_matrix,
    load_trajectory,
    range_matrices,
)
from .ranging import build_design, crb_theta, wls_solve
from .twr import ExchangeConfig, NoiseModel, SPEED_OF_LIGHT, TimestampExchangeSet, simulate_exchanges


def _pair_noise(sigma_meters: float) -> NoiseModel:
    """Noise model for a per-pair delay std of --sigma-meters, which must be positive."""
    if not (math.isfinite(sigma_meters) and sigma_meters > 0):
        raise ConfigError(f"--sigma-meters must be positive and finite, got {sigma_meters}")
    return NoiseModel.from_pair_sigma(sigma_meters, unit="m")


def _cmd_estimate(args) -> int:
    noise = _pair_noise(args.sigma_meters)
    exchanges = TimestampExchangeSet.from_csv(args.exchanges, c=args.c)
    design = build_design(exchanges, args.order, noise=noise)
    coeffs = wls_solve(design)
    crb = crb_theta(design)
    rows = [("i", "j", "order", "theta", "rcrb")]
    phys = coeffs.physical
    per_pair = np.column_stack([crb.per_pair_rcrb(ell) for ell in range(args.order)])
    for p, (i, j) in enumerate(coeffs.pairs):
        for ell in range(args.order):
            rows.append((i, j, ell, repr(float(phys[p, ell])), repr(float(per_pair[p, ell]))))
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out} ({len(rows) - 1} coefficient rows)")
    return 0


def _read_theta_csv(path):
    per_pair = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            key = (int(rec["i"]), int(rec["j"]))
            per_pair.setdefault(key, {})[int(rec["order"])] = float(rec["theta"])
    if not per_pair:
        raise RelkinError(f"no coefficient rows in {path}")
    n = max(max(i, j) for i, j in per_pair) + 1
    pairs = canonical_pairs(n)
    if set(per_pair) != set(pairs):
        raise RelkinError(f"{path} does not cover all {len(pairs)} node pairs")
    cols = []
    for ell in range(3):
        cols.append([per_pair[pair].get(ell, 0.0) for pair in pairs])
    return n, RangeMatrices.from_pair_vectors(n, *cols)


def _cmd_solve(args) -> int:
    n, rm = _read_theta_csv(args.theta)
    sol = solve_relative(rm, args.dim, orthogonalize=args.orthogonalize)
    if args.times:
        times = [float(t) for t in args.times.split(",")]
    else:
        start, stop, num = args.grid
        times = list(np.linspace(start, stop, int(num)))
    rows = [("quantity", "time", "row", "col", "value")]
    for name, mat in (("Xrel", sol.Xrel), ("Yrel", sol.Yrel), ("Hy", sol.Hy)):
        for r in range(mat.shape[0]):
            for c_ in range(mat.shape[1]):
                rows.append((name, "", r, c_, repr(float(mat[r, c_]))))
    for t in times:
        xk = position_at_time(sol, t)
        for r in range(xk.shape[0]):
            for c_ in range(xk.shape[1]):
                rows.append(("Xk", repr(float(t)), r, c_, repr(float(xk[r, c_]))))
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out} (N={n}, P={args.dim}, {len(times)} time samples)")
    return 0


def _cmd_crb(args) -> int:
    noise = _pair_noise(args.sigma_meters)
    traj = load_trajectory(args.fixture)
    cfg = ExchangeConfig(K=args.messages, interval=tuple(args.interval), c=args.c)
    clean = simulate_exchanges(traj, cfg, NoiseModel(0.0), seed=0)
    design = build_design(clean, args.order, noise=noise)
    crb = crb_theta(design)
    covs = RangeNoiseCovariances.from_theta_crb(crb)
    pc = centering_matrix(traj.N)
    fx = fim_position(traj.X @ pc, covs.Sigma_r)
    fy = fim_velocity(traj.Y @ pc, range_matrices(traj), covs)
    names = ["r", "rdot", "rddot"] + [f"order_{ell}" for ell in range(3, args.order)]
    rows = [("quantity", "rcrb")]
    for ell, name in enumerate(names):
        rows.append((name, repr(float(crb.rcrb(ell)))))
    rows.append(("Xrel", repr(float(np.sqrt(crb_trace(fx))))))
    rows.append(("Yrel", repr(float(np.sqrt(crb_trace(fy))))))
    if args.out == "-":
        csv.writer(sys.stdout).writerows(rows)
        return 0
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.ci:
        overrides["trials"] = 200
    elif args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        configs = [ExperimentConfig.from_json(args.config, **overrides)]
    else:
        configs = default_suite(**{"trials": 1000, **overrides})
    reports = [run_experiment(cfg) for cfg in configs]
    written = emit_outputs(reports, args.out)
    for path in written:
        print(f"wrote {path}")
    if args.check:
        status = 0
        for report in reports:
            failures = check_report(report)
            if failures:
                status = 1
                for msg in failures:
                    print(f"FAIL {msg}")
            else:
                print(f"PASS {report.kind}: invariant checks satisfied")
        return status
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relkin",
        description="Relative kinematics of anchorless mobile networks from two-way ranging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="fit range coefficients from an exchange CSV")
    p_est.add_argument("--exchanges", required=True, help="CSV with columns i,j,k,E,T_tx,T_rx")
    p_est.add_argument("--order", type=int, default=4, help="polynomial coefficient count L")
    p_est.add_argument("--sigma-meters", type=float, required=True,
                       help="per-pair delay noise std in meters (known covariance)")
    p_est.add_argument("--c", type=float, default=SPEED_OF_LIGHT)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=_cmd_estimate)

    p_sol = sub.add_parser("solve", help="relative kinematics from a coefficient CSV")
    p_sol.add_argument("--theta", required=True, help="CSV written by `relkin estimate`")
    p_sol.add_argument("--dim", type=int, default=2, help="embedding dimension P")
    p_sol.add_argument("--times", help="comma-separated evaluation times (seconds)")
    p_sol.add_argument("--grid", nargs=3, type=float, metavar=("START", "STOP", "NUM"),
                       default=(-3.0, 3.0, 7), help="time grid when --times is absent")
    p_sol.add_argument("--orthogonalize", action="store_true",
                       help="project the rotation estimate onto the orthogonal group")
    p_sol.add_argument("--out", required=True)
    p_sol.set_defaults(func=_cmd_solve)

    p_crb = sub.add_parser("crb", help="root CRBs for a fixture and exchange setup")
    p_crb.add_argument("--fixture", default="cluster5", help="built-in name or JSON path")
    p_crb.add_argument("--messages", type=int, default=100, help="messages per pair K")
    p_crb.add_argument("--sigma-meters", type=float, default=0.1)
    p_crb.add_argument("--order", type=int, default=4)
    p_crb.add_argument("--interval", nargs=2, type=float, default=(-3.0, 3.0))
    p_crb.add_argument("--c", type=float, default=SPEED_OF_LIGHT)
    p_crb.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    p_crb.set_defaults(func=_cmd_crb)

    p_exp = sub.add_parser("experiment", help="run Monte Carlo RMSE experiments")
    p_exp.add_argument("--config", help="experiment JSON; omit to run the default suite")
    p_exp.add_argument("--trials", type=int, default=None,
                       help="override the trial count (config or 1000 otherwise)")
    p_exp.add_argument("--ci", action="store_true", help="fast mode: 200 trials")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", default="results", help="output directory")
    p_exp.add_argument("--check", action="store_true",
                       help="verify report invariants; nonzero exit on failure")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RelkinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
