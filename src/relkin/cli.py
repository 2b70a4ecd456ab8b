"""Command line interface.

Subcommands:
    estimate    fit range coefficients from an exchange CSV
    solve       relative positions/velocities/rotation from a coefficient CSV
    crb         root Cramer-Rao bounds for a fixture and exchange setup
    experiment  Monte Carlo RMSE experiments with optional invariant checks
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .embedding import solve_relative
from .exceptions import ConfigError, InputError, RelkinError
from .experiments import (
    ExperimentConfig,
    _root_crbs,
    _run_experiments,
    check_report,
    default_suite,
    emit_outputs,
)
from .kinematics import RangeMatrices, canonical_pairs, load_trajectory, pair_count, pair_index
from .ranging import _solve_with_crb, build_design
from .twr import (
    ExchangeConfig,
    NoiseModel,
    SPEED_OF_LIGHT,
    TimestampExchangeSet,
    _clean_exchanges,
    _read_pair_table,
    _reject_rows,
    _write_columns,
    _write_rows,
)


def _require(ok: bool, flag: str, what: str, value) -> None:
    """Raise ConfigError for a command-line flag value outside its range."""
    if not ok:
        raise ConfigError(f"{flag} must be {what}, got {value}")


def _positive(flag: str, value: float) -> float:
    _require(math.isfinite(value) and value > 0, flag, "positive and finite", value)
    return value


def _pair_noise(sigma_meters: float) -> NoiseModel:
    """Noise model for a per-pair delay std of --sigma-meters, which must be positive."""
    return NoiseModel.from_pair_sigma(_positive("--sigma-meters", sigma_meters), unit="m")


def _cmd_estimate(args) -> int:
    noise = _pair_noise(args.sigma_meters)
    _require(args.order >= 1, "--order", "at least 1", args.order)
    _require(args.nodes is None or args.nodes >= 2, "--nodes", "at least 2", args.nodes)
    _positive("--c", args.c)
    exchanges = TimestampExchangeSet.from_csv(args.exchanges, c=args.c, expected_n=args.nodes)
    L = args.order
    coeffs, crb = _solve_with_crb(build_design(exchanges, L, noise=noise))
    i, j = pair_index(exchanges.n_nodes)
    per_pair = np.column_stack([crb.per_pair_rcrb(ell) for ell in range(L)])
    _write_columns(args.out, ("i", "j", "order", "theta", "rcrb"),
                   np.repeat(i, L).tolist(), np.repeat(j, L).tolist(),
                   np.tile(np.arange(L), len(i)).tolist(),
                   map(repr, coeffs.physical.ravel().tolist()), map(repr, per_pair.ravel().tolist()))
    print(f"wrote {args.out} ({len(i) * L} coefficient rows)")
    return 0


def _read_theta_csv(path, expected_n: int | None = None):
    """Network size and (r, rdot, rddot) range matrices from a coefficient CSV.

    N is one more than the largest j, so a file cut short after its first
    pairs reads as a smaller network unless `expected_n` states N.

    Raises:
        InputError: on a missing column, a non-numeric field, a negative or
            fractional order, a non-finite theta, a repeated (i, j, order)
            row, another node count than `expected_n`, a node pair left
            out, or a pair without its order 0, 1 and 2 rows.
    """
    data, n, p = _read_pair_table(path, ("i", "j", "order", "theta"), n_int=3,
                                  expected_n=expected_n)
    order, theta = data[:, 2], data[:, 3]
    _reject_rows(path, data, order < 0, "order must be >= 0")
    _reject_rows(path, data, ~np.isfinite(theta), "theta must be finite")
    key = np.lexsort((order, p))  # stable, so a repeat sorts after the row it repeats
    repeat = np.zeros(len(data), bool)
    repeat[key[1:][(np.diff(p[key]) == 0) & (np.diff(order[key]) == 0)]] = True
    _reject_rows(path, data, repeat, "repeated (i, j, order) row")
    low = order < 3
    coeffs = np.full((pair_count(n), 3), np.nan)  # theta is finite, so NaN marks a gap
    coeffs[p[low], order[low].astype(np.intp)] = theta[low]
    lacking = np.flatnonzero(np.isnan(coeffs).any(axis=1))
    if lacking.size:
        pairs = canonical_pairs(n)
        raise InputError(f"{path} lacks an order 0, 1 or 2 row for pair(s) "
                         f"{[pairs[q] for q in lacking[:3]]}")
    return n, RangeMatrices.from_pair_vectors(n, *coeffs.T)


def _cmd_solve(args) -> int:
    _require(args.nodes is None or args.nodes >= 2, "--nodes", "at least 2", args.nodes)
    n, rm = _read_theta_csv(args.theta, expected_n=args.nodes)
    _require(1 <= args.dim <= n, "--dim", f"between 1 and the node count {n}", args.dim)
    if args.times:
        try:
            times = [float(t) for t in args.times.split(",")]
        except ValueError:
            times = [math.nan]  # rejected just below
        _require(all(map(math.isfinite, times)), "--times", "comma-separated finite numbers",
                 repr(args.times))
    else:
        start, stop, num = args.grid
        _require(math.isfinite(start) and math.isfinite(stop) and num >= 1 and num == int(num),
                 "--grid", "finite START and STOP and an integer NUM >= 1", args.grid)
        times = np.linspace(start, stop, int(num)).tolist()
    sol = solve_relative(rm, args.dim, orthogonalize=args.orthogonalize)
    # one block of rows per matrix, its cells in row-major order
    names, stamps, mats = zip(("Xrel", "", sol.Xrel), ("Yrel", "", sol.Yrel), ("Hy", "", sol.Hy),
                              *(("Xk", repr(t), sol.position_at(t)) for t in times))
    sizes = [m.size for m in mats]
    rows, cols = np.concatenate([np.indices(m.shape).reshape(2, -1) for m in mats], axis=1)
    _write_columns(args.out, ("quantity", "time", "row", "col", "value"),
                   np.repeat(names, sizes).tolist(), np.repeat(stamps, sizes).tolist(),
                   rows.tolist(), cols.tolist(),
                   map(repr, np.concatenate([m.ravel() for m in mats]).tolist()))
    print(f"wrote {args.out} (N={n}, P={args.dim}, {len(times)} time samples)")
    return 0


def _cmd_crb(args) -> int:
    noise = _pair_noise(args.sigma_meters)
    _require(args.messages >= 1, "--messages", "at least 1", args.messages)
    _require(args.order >= 3, "--order", "at least 3 (r, rdot and rddot)", args.order)
    start, stop = args.interval
    _require(math.isfinite(start) and math.isfinite(stop) and start < stop, "--interval",
             "two finite, increasing times", args.interval)
    traj = load_trajectory(args.fixture)
    cfg = ExchangeConfig(K=args.messages, interval=(start, stop), c=_positive("--c", args.c))
    crb, x_rcrb, y_rcrb = _root_crbs(
        traj, build_design(_clean_exchanges(traj, cfg), args.order, noise=noise))
    names = ["r", "rdot", "rddot"] + [f"order_{ell}" for ell in range(3, args.order)]
    rcrbs = [crb.rcrb(ell) for ell in range(args.order)] + [x_rcrb, y_rcrb]
    table = (("quantity", "rcrb"), names + ["Xrel", "Yrel"], map(repr, rcrbs))
    if args.out == "-":
        _write_rows(sys.stdout, *table)
        return 0
    _write_columns(args.out, *table)
    print(f"wrote {args.out}")
    return 0


_CI_TRIALS = 200


def _cmd_experiment(args) -> int:
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        configs = [ExperimentConfig.from_json(args.config, **overrides)]
    else:
        configs = default_suite(**{"trials": 1000, **overrides})
    if args.ci:
        configs = [replace(cfg, trials=min(cfg.trials, _CI_TRIALS)) for cfg in configs]
    reports = _run_experiments(configs)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use.

    It holds no handler: :func:`main` looks up ``_cmd_<command>`` by name on
    each call, so a replaced handler takes effect after the parser exists.
    """
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
    p_est.add_argument("--nodes", type=int, default=None,
                       help="expected node count N; a file naming another N is an error")
    p_est.add_argument("--out", required=True)

    p_sol = sub.add_parser("solve", help="relative kinematics from a coefficient CSV")
    p_sol.add_argument("--theta", required=True, help="CSV written by `relkin estimate`")
    p_sol.add_argument("--dim", type=int, default=2, help="embedding dimension P")
    p_sol.add_argument("--times", help="comma-separated evaluation times (seconds)")
    p_sol.add_argument("--grid", nargs=3, type=float, metavar=("START", "STOP", "NUM"),
                       default=(-3.0, 3.0, 7), help="time grid when --times is absent")
    p_sol.add_argument("--orthogonalize", action="store_true",
                       help="project the rotation estimate onto the orthogonal group")
    p_sol.add_argument("--nodes", type=int, default=None,
                       help="expected node count N; a file naming another N is an error")
    p_sol.add_argument("--out", required=True)

    p_crb = sub.add_parser("crb", help="root CRBs for a fixture and exchange setup")
    p_crb.add_argument("--fixture", default="cluster5", help="built-in name or JSON path")
    p_crb.add_argument("--messages", type=int, default=100, help="messages per pair K")
    p_crb.add_argument("--sigma-meters", type=float, default=0.1)
    p_crb.add_argument("--order", type=int, default=4)
    p_crb.add_argument("--interval", nargs=2, type=float, default=(-3.0, 3.0))
    p_crb.add_argument("--c", type=float, default=SPEED_OF_LIGHT)
    p_crb.add_argument("--out", default="-", help="output CSV path, or - for stdout")

    p_exp = sub.add_parser("experiment", help="run Monte Carlo RMSE experiments")
    p_exp.add_argument("--config", help="experiment JSON; omit to run the default suite")
    p_exp.add_argument("--trials", type=int, default=None,
                       help="override the trial count (config or 1000 otherwise)")
    p_exp.add_argument("--ci", action="store_true",
                       help=f"fast mode: at most {_CI_TRIALS} trials per experiment")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", default="results", help="output directory")
    p_exp.add_argument("--check", action="store_true",
                       help="verify report invariants; nonzero exit on failure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (RelkinError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
