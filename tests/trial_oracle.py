"""Per-trial Monte Carlo loops, kept as the reference for the batched engine.

Each trial runs the public single-trial pipeline (simulate_exchanges,
build_design, wls_solve, solve_relative, classical_mds, procrustes_align)
and is counted as failed by the exception it raises, in pipeline order.
A trial counts as clamped when the pipeline warned EmbeddingClampWarning.
The rows carry the same fields as `run_experiment`'s, so the tests compare
the engine against this direct route row by row.  The engine's aligned
RMSE goes through procrustes_align inline; `rmse_vector` and
`rmse_matrix_aligned` state it per trial, and `derive_rng` states the
engine's batched stream seeding one stream at a time.
"""

import warnings
from collections import Counter

import numpy as np

from relkin import (
    DesignSystem,
    EmbeddingClampWarning,
    EmbeddingFailureError,
    ExchangeConfig,
    IllPosedRotationError,
    NoiseModel,
    RangeNoiseCovariances,
    RankDeficiencyError,
    SPEED_OF_LIGHT,
    build_design,
    centering_matrix,
    classical_mds,
    crb_theta,
    crb_trace,
    effective_noise_covariance,
    fim_position,
    fim_velocity,
    generate_timestamps,
    load_trajectory,
    procrustes_align,
    range_matrices,
    simulate_exchanges,
    solve_relative,
    wls_solve,
)
from relkin.experiments import ReportRow

TRIAL_ERRORS = (RankDeficiencyError, EmbeddingFailureError, IllPosedRotationError)
QUANTITIES = ("r", "rdot", "rddot", "Xrel", "Yrel", "Hy")


def derive_rng(seed, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by an integer path under a master seed:
    ``SeedSequence(seed, spawn_key=path)``, which relkin.rng seeds in batches."""
    key = tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def rmse_vector(estimates, truth) -> float:
    """sqrt(mean over trials of the squared error norm) for vector quantities."""
    estimates = np.atleast_2d(np.asarray(estimates, float))
    err = estimates - np.asarray(truth, float)[None, :]
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def rmse_matrix_aligned(estimates, truth) -> float:
    """Matrix RMSE after centering and optimal orthogonal alignment per trial.

    Truth and estimates are both column-centered (the spectral estimates are
    centered by construction; truth must match), then each trial estimate is
    rotated onto the truth before the residual enters the mean.
    """
    pc = centering_matrix(np.shape(truth)[-1])
    _, _, resid = procrustes_align(np.asarray(truth, float) @ pc,
                                   np.asarray(estimates, float) @ pc)
    return float(np.sqrt(np.mean(resid**2)))


def _point_rcrbs(traj, exch_cfg, noise, L):
    """Root-CRBs at one sweep point, from the clean marker grid.  The FIMs read
    only pair differences, so X and Y go in as they are."""
    clean = simulate_exchanges(traj, exch_cfg, NoiseModel(0.0), seed=0)
    var = effective_noise_covariance(noise, traj.N, clean.c)
    theta_crb = crb_theta(DesignSystem(markers=clean.t_i, tau=clean.tau(), L=L, n_nodes=traj.N,
                                       c=clean.c, pair_variances=var))
    covs = RangeNoiseCovariances.from_theta_crb(theta_crb)
    fx = fim_position(traj.X, covs.Sigma_r)
    fy = fim_velocity(traj.Y, range_matrices(traj), covs)
    return {"r": theta_crb.rcrb(0), "rdot": theta_crb.rcrb(1), "rddot": theta_crb.rcrb(2),
            "Xrel": float(np.sqrt(crb_trace(fx))), "Yrel": float(np.sqrt(crb_trace(fy))),
            "Hy": None}


def _estimate_once(traj, exch_cfg, noise, L, seed, stream):
    """One pipeline pass: simulate, fit coefficients, solve relative kinematics."""
    exchanges = simulate_exchanges(traj, exch_cfg, noise, seed, stream=stream)
    coeffs = wls_solve(build_design(exchanges, L, noise=noise))
    sol = solve_relative(coeffs.to_range_matrices(), traj.P)
    return exchanges, coeffs, sol


def _guarded(fn, *args):
    """(result or None, exception type name or None, clamp warned) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EmbeddingClampWarning)
        try:
            out, err = fn(*args), None
        except TRIAL_ERRORS as exc:
            out, err = None, type(exc).__name__
    return out, err, any(issubclass(w.category, EmbeddingClampWarning) for w in caught)


def _aligned_sq_error(truth_c, est, pc):
    _, _, resid = procrustes_align(truth_c, est @ pc)
    return resid**2


def _rmse(sq):
    return float(np.sqrt(np.mean(sq))) if sq else float("nan")


def sweep_point(traj, cfg, s_idx, value):
    if cfg.kind == "k_sweep":
        K, sigma_m = int(value), cfg.sigma_m
    else:
        K, sigma_m = cfg.K, 10.0 ** (float(value) / 10.0)
    exch_cfg = ExchangeConfig(K=K, interval=cfg.interval, delay_model=cfg.delay_model)
    noise = NoiseModel.from_pair_sigma(sigma_m, unit="m")
    pc = centering_matrix(traj.N)
    r_true, rdot_true, rddot_true = range_matrices(traj).pair_vectors()
    xc_true, yc_true = traj.X @ pc, traj.Y @ pc
    if sigma_m > 0:
        rcrbs = _point_rcrbs(traj, exch_cfg, noise, cfg.L)
    else:
        rcrbs = dict.fromkeys(QUANTITIES, None)
    _, _, ref_sol = _estimate_once(traj, exch_cfg, NoiseModel(0.0), cfg.L, cfg.seed, (s_idx, 0))

    sq = {q: [] for q in QUANTITIES}
    failures, clamped = Counter(), 0
    for trial in range(cfg.trials):
        out, err, warned = _guarded(_estimate_once, traj, exch_cfg, noise, cfg.L, cfg.seed,
                                    (s_idx, trial))
        clamped += warned
        if err:
            failures[err] += 1
            continue
        _, coeffs, sol = out
        phys = coeffs.physical
        sq["r"].append(np.sum((phys[:, 0] - r_true) ** 2))
        sq["rdot"].append(np.sum((phys[:, 1] - rdot_true) ** 2))
        sq["rddot"].append(np.sum((phys[:, 2] - rddot_true) ** 2))
        sq["Xrel"].append(_aligned_sq_error(xc_true, sol.Xrel, pc))
        sq["Yrel"].append(_aligned_sq_error(yc_true, sol.Yrel, pc))
        sq["Hy"].append(np.sum((sol.Hy - ref_sol.Hy) ** 2))
    n_fail = sum(failures.values())
    return [ReportRow(float(value), q, _rmse(sq[q]), rcrbs[q], n_fail, dict(failures), clamped)
            for q in QUANTITIES]


def time_grid(traj, cfg):
    exch_cfg = ExchangeConfig(K=cfg.K, interval=cfg.interval, delay_model=cfg.delay_model)
    noise = NoiseModel.from_pair_sigma(cfg.sigma_m, unit="m")
    pc = centering_matrix(traj.N)
    markers = generate_timestamps(exch_cfg, 1)[0]
    idxs = [int(np.argmin(np.abs(markers - float(t)))) for t in cfg.sweep]
    times = markers[idxs]
    truth_c = [traj.position_at(t) @ pc for t in times]

    dr_sq = [[] for _ in idxs]
    cmds_sq = [[] for _ in idxs]
    dr_failures, dr_clamped = Counter(), 0
    cmds_fail = [0] * len(idxs)
    cmds_clamped = [0] * len(idxs)
    for trial in range(cfg.trials):
        out, err, warned = _guarded(_estimate_once, traj, exch_cfg, noise, cfg.L, cfg.seed,
                                    (0, trial))
        dr_clamped += warned
        if err:
            dr_failures[err] += 1
            continue
        exchanges, _, sol = out
        tau = exchanges.tau()
        for m, (idx, t) in enumerate(zip(idxs, times)):
            dr_sq[m].append(_aligned_sq_error(truth_c[m], sol.position_at(t), pc))
            d_snap = np.zeros((traj.N, traj.N))
            d_snap[np.triu_indices(traj.N, k=1)] = SPEED_OF_LIGHT * tau[:, idx]
            d_snap = d_snap + d_snap.T
            xk, err, warned = _guarded(classical_mds, d_snap, traj.P)
            cmds_clamped[m] += warned
            if err:
                cmds_fail[m] += 1
                continue
            cmds_sq[m].append(_aligned_sq_error(truth_c[m], xk, pc))

    dr_fail = sum(dr_failures.values())
    rows = []
    for m, t in enumerate(times):
        cmds_failures = dr_failures + Counter({EmbeddingFailureError.__name__: cmds_fail[m]})
        rows.append(ReportRow(float(t), "Xk_dynamic", _rmse(dr_sq[m]), None, dr_fail,
                              dict(dr_failures), dr_clamped))
        rows.append(ReportRow(float(t), "Xk_cmds", _rmse(cmds_sq[m]), None,
                              dr_fail + cmds_fail[m], dict(cmds_failures), cmds_clamped[m]))
    return rows


def run_experiment(cfg):
    """The rows `relkin.run_experiment(cfg)` reports, one trial at a time."""
    traj = load_trajectory(cfg.fixture)
    if cfg.kind == "time_grid":
        return time_grid(traj, cfg)
    return [row for s_idx, value in enumerate(cfg.sweep)
            for row in sweep_point(traj, cfg, s_idx, value)]
