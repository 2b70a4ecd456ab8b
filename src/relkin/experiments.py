"""Monte Carlo harness: RMSE of the full pipeline against the root-CRB.

Three experiment kinds mirror the standard evaluation of the estimator:

  * ``k_sweep``     - RMSE of the range coefficients, the relative
    position/velocity configurations and the velocity rotation as the
    message count K grows, with root-CRB overlays.
  * ``sigma_sweep`` - the same quantities against the delay noise level,
    swept in dB-meters (sigma_m = 10**(value/10)).
  * ``time_grid``   - RMSE of the relative positions over the measurement
    interval, comparing the dynamic-ranging propagation Xrel + t H Yrel
    against per-instant classical MDS snapshots from the same exchanges.

One engine runs the trials, on three levels.  The top level is a pool of
processes: every sweep point of the experiments in a run is set up first,
with its bounds, and the outer trial chunks of all of them form one ordered
task list, which a fork pool of min(chunks, CPUs in the affinity mask)
workers maps (serially when that is one, where fork is missing, and inside
a daemonic process).  The parent joins each point's chunks in trial order, so
every reduction sees the same arrays in the same order whatever the process
count.  Below it are two levels of contiguous trial chunks, each sized so
its largest stacked array stays near _CHUNK_DOUBLES.  An outer chunk is
bounded by what a trial keeps after its fit (theta, the three Grams, the
time grid's snapshot matrices); at N=5 it holds 436 trials at a k/sigma
sweep point, and 13 on the default time grid of 100 instants.  It derives
the seed words of every (trial, pair) noise stream once, then draws and
fits its trials in sub-chunks bounded by the whitened (Nbar, K, L+1) QR
stack, keeping only theta, the rank flags and the snapshot delays of each.
Every later stage runs once per outer chunk, batched over its trials: one
eigh for all embeddings including the time grid's classical-MDS snapshots,
one SVD for all the rotations' least squares and one for all Procrustes
alignments; no stage loops over trials.  A trial that would raise in the
single-trial pipeline is masked out and counted under its exception type;
trials whose embedding clamped a negative eigenvalue are counted too.

Trials are seeded through derived streams keyed by (sweep point, trial,
pair), so reports are reproducible bit-for-bit and do not depend on how the
trials are batched or chunked, or on how many processes run them.
Matrix-valued quantities are compared after centering both truth and
estimate and removing the optimal orthogonal alignment, since only relative
geometry is identifiable.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__ as _version
from .bounds import RangeNoiseCovariances, crb_trace, fim_position, fim_velocity
from .embedding import (
    _embed,
    _mds_gram,
    _rotation_stack,
    grams_from_ranges,
    procrustes_align,
    solve_relative,
)
from .exceptions import (
    ConfigError,
    EmbeddingFailureError,
    IllPosedRotationError,
    RankDeficiencyError,
)
from .kinematics import (
    TrajectorySet,
    _pair_kinematics,
    _symmetric,
    centering_matrix,
    load_trajectory,
    range_matrices,
)
from .ranging import (DesignSystem, RangeCoefficients, RangeCrb, _fit_pairs, build_design,
                      crb_theta, wls_solve)
from .twr import (
    ExchangeConfig,
    NoiseModel,
    SPEED_OF_LIGHT,
    TimestampExchangeSet,
    _clean_exchanges,
    _draw_exchanges,
    _exchange_states,
    _is_finite,
    _is_int,
    generate_timestamps,
)

__all__ = [
    "ExperimentConfig",
    "RmseReport",
    "ReportRow",
    "run_experiment",
    "default_suite",
    "check_report",
    "emit_outputs",
]

# What ends a trial, in pipeline order: the ranging fit, the spectral
# embeddings, the rotation solve.
_TRIAL_ERRORS = (
    RankDeficiencyError,
    EmbeddingFailureError,
    IllPosedRotationError,
)


def _db_meters(value) -> float:
    """sigma_m of a sigma-sweep value in dB-meters, 10**(value/10); inf where that overflows."""
    try:
        return 10.0 ** (float(value) / 10.0)
    except OverflowError:
        return math.inf


class _Kind(NamedTuple):
    sweep_key: str                # the key of the JSON "sweep" object that selects the kind
    quantities: tuple[str, ...]   # the report's quantities, in plot column order


_SWEEP_QUANTITIES = ("r", "rdot", "rddot", "Xrel", "Yrel", "Hy")
_KINDS = {
    "k_sweep": _Kind("K", _SWEEP_QUANTITIES),
    "sigma_sweep": _Kind("sigma_db_m", _SWEEP_QUANTITIES),
    "time_grid": _Kind("time_grid", ("Xk_dynamic", "Xk_cmds")),
}


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment.

    The sweep list is interpreted per kind: message counts for ``k_sweep``,
    dB-meter noise levels for ``sigma_sweep``, and report times (snapped to
    the nearest transmit marker) for ``time_grid``.  L must be at least 3,
    since the pipeline reads r, rdot and rddot.  The message schedule and
    noise values are validated by building the ExchangeConfig of every sweep
    point and the NoiseModel of sigma_m and of every noise level, so a bad
    value raises their ConfigError.
    """

    kind: str
    sweep: list
    fixture: str = "cluster5"
    K: int = 100
    sigma_m: float = 0.1
    interval: tuple[float, float] = (-3.0, 3.0)
    L: int = 4
    trials: int = 1000
    seed: int = 0
    c: float = SPEED_OF_LIGHT
    delay_model: str = "exact"
    orthogonalize: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"kind must be one of {tuple(_KINDS)}, got {self.kind!r}")
        self.sweep = list(self.sweep)
        if not self.sweep:
            raise ConfigError("sweep must be a nonempty list")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_int(self.L) or self.L < 3:
            raise ConfigError(f"L must be an integer >= 3 (r, rdot and rddot), got {self.L!r}")
        self.trials, self.seed = int(self.trials), int(self.seed)
        for value in self.sweep:
            if not _is_finite(value):
                raise ConfigError(f"{self.kind} values must be finite numbers, got {value!r}")
        if not isinstance(self.orthogonalize, (bool, np.bool_)):
            raise ConfigError(f"orthogonalize must be true or false, got {self.orthogonalize!r}")
        exch = _exchange_config(self, self.K)
        self.K, self.L, self.interval, self.c = exch.K, exch.model_order, exch.interval, exch.c
        if self.kind == "k_sweep":
            for K in self.sweep:
                _exchange_config(self, K)
        NoiseModel.from_pair_sigma(self.sigma_m)
        if self.kind == "sigma_sweep":
            for level in self.sweep:
                NoiseModel.from_pair_sigma(_db_meters(level))

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """Load a config file of the documented JSON schema.

        The sweep is given as a one-key object selecting the kind:
        ``{"sweep": {"K": [...]}}, {"sweep": {"sigma_db_m": [...]}}`` or
        ``{"sweep": {"time_grid": [...]}}``.
        """
        data = json.loads(Path(path).read_text())
        try:
            sweep_obj = data.pop("sweep")
        except KeyError:
            raise ConfigError(f"{path}: missing required key 'sweep'")
        keys = "/".join(spec.sweep_key for spec in _KINDS.values())
        if not isinstance(sweep_obj, dict) or len(sweep_obj) != 1:
            raise ConfigError(f"{path}: sweep must hold exactly one of {keys}")
        key, values = next(iter(sweep_obj.items()))
        kind = next((kind for kind, spec in _KINDS.items() if spec.sweep_key == key), None)
        if kind is None:
            raise ConfigError(f"{path}: unknown sweep key {key!r}")
        known = set(cls.__dataclass_fields__) - {"kind", "sweep"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        data.update(overrides)
        return cls(kind=kind, sweep=list(values), **data)

    def to_dict(self) -> dict:
        return {
            "fixture": self.fixture,
            "sweep": {_KINDS[self.kind].sweep_key: list(self.sweep)},
            "K": self.K,
            "sigma_m": self.sigma_m,
            "interval": list(self.interval),
            "L": self.L,
            "trials": self.trials,
            "seed": self.seed,
            "c": self.c,
            "delay_model": self.delay_model,
            "orthogonalize": self.orthogonalize,
        }


@dataclass
class ReportRow:
    """One (sweep value, quantity) result over the trials of a sweep point.

    `failures` splits the `n_fail` failed trials by exception type name;
    `clamped` counts the trials whose spectral embedding clamped a negative
    eigenvalue to zero (for ``Xk_cmds``, the snapshot's embedding).
    """

    sweep_value: float
    quantity: str
    rmse: float
    rcrb: Optional[float]
    n_fail: int
    failures: dict[str, int] = field(default_factory=dict)
    clamped: int = 0


@dataclass
class RmseReport:
    kind: str
    rows: list[ReportRow]
    config: ExperimentConfig
    wall_seconds: float = 0.0
    workers: int = 1  # processes that ran the trials

    def value(self, sweep_value, quantity) -> ReportRow:
        """The row of `quantity` whose sweep value passes np.isclose's default
        test against `sweep_value`: |a - b| <= 1e-8 + 1e-5 |b|."""
        tol = 1e-8 + 1e-5 * abs(sweep_value)
        for row in self.rows:
            if row.quantity == quantity and (row.sweep_value == sweep_value
                                             or abs(row.sweep_value - sweep_value) <= tol):
                return row
        raise KeyError(f"no row for ({sweep_value}, {quantity})")

    def quantity_rows(self, quantity) -> list[ReportRow]:
        return [r for r in self.rows if r.quantity == quantity]


def _root_crbs(traj: TrajectorySet, design: DesignSystem) -> tuple[RangeCrb, float, float]:
    """The range-coefficient bound and the Xrel and Yrel root-CRBs at the truth,
    from the weighted design of one setup's noise-free exchanges."""
    theta_crb = crb_theta(design)
    covs = RangeNoiseCovariances.from_theta_crb(theta_crb)
    pc = centering_matrix(traj.N)
    fx = fim_position(traj.X @ pc, covs.Sigma_r)
    fy = fim_velocity(traj.Y @ pc, range_matrices(traj), covs)
    return theta_crb, float(np.sqrt(crb_trace(fx))), float(np.sqrt(crb_trace(fy)))


class _Point(NamedTuple):
    """What every trial of one sweep point shares."""

    traj: TrajectorySet
    noise: NoiseModel
    cfg: ExperimentConfig
    stream: tuple[int, ...]        # trial t of the point simulates stream (*stream, t)
    markers: np.ndarray            # (M,) marker indices of the classical-MDS snapshots
    times: np.ndarray              # (M,) their instants, where the dynamic estimate is also taken
    clean: TimestampExchangeSet    # (Nbar, K) noise-free exchanges
    hy_ref: np.ndarray             # (P, P) reference of the Hy error: the noiseless
                                   # rotation at a k/sigma point, zero on the time grid


class _Trials(NamedTuple):
    """Per-trial outcomes of a run of trials; every array leads with the trial axis."""

    cause: np.ndarray          # 0 on success, else 1 + the index into _TRIAL_ERRORS
    clamped: np.ndarray        # a top-P eigenvalue of Bxx or Byy was clamped to zero
    coeff_sq: np.ndarray       # (T, 3) squared errors of the r, rdot, rddot vectors
    hy_sq: np.ndarray          # (T,) squared error of the rotation estimate
    aligned_sq: np.ndarray     # (T, 2 + 2M) aligned squared errors: Xrel, Yrel,
                               # M dynamic positions, M snapshot embeddings
    snap_failed: np.ndarray    # (T, M) snapshot Gram without a positive eigenvalue
    snap_clamped: np.ndarray   # (T, M) snapshot embedding clamped an eigenvalue


# Bound, in doubles, on the largest array stacked over the trials of one
# chunk (about 256 KB).  Each level of the engine sizes its own chunks by it:
# an outer chunk by what a trial keeps after its fit (theta, the three Grams
# and the time grid's snapshot matrices), a sub-chunk of it by the whitened
# (Nbar, K, L + 1) QR stack of the draw and the fit.  Chunks keep the working
# set small whatever the trial count; they do not change any result.
_CHUNK_DOUBLES = 2**15


def _trials_per_chunk(doubles_per_trial: int) -> int:
    return max(1, _CHUNK_DOUBLES // doubles_per_trial)


def _trial_chunk(pt: _Point, trials: range) -> _Trials:
    """The whole pipeline for a contiguous run of trials, each stage batched over them.

    The seed words of every (trial, pair) noise stream are derived once.  The
    draw and the fit run over sub-chunks, each keeping only theta, the rank
    flags and the snapshot delays; every later stage runs once over all the
    trials.  A trial fails at the first stage that would raise in the
    single-trial pipeline (the ranging fit, either spectral embedding, the
    rotation); the stages after it still run on its finite placeholder
    values and are masked out.
    """
    traj, cfg, n, P = pt.traj, pt.cfg, pt.traj.N, pt.traj.P
    n_trials, n_pairs = len(trials), pt.clean.n_pairs
    states = _exchange_states(cfg.seed, [pt.stream + (t,) for t in trials], n_pairs)
    theta = np.empty((n_trials, n_pairs, cfg.L))
    rank_bad = np.empty(n_trials, bool)
    snap_tau = np.empty((n_trials, n_pairs, len(pt.markers)))
    step = _trials_per_chunk(n_pairs * pt.clean.K * (cfg.L + 1))
    for lo in range(0, n_trials, step):
        sub = slice(lo, lo + step)
        ex = _draw_exchanges(pt.clean, pt.noise, states[sub])
        design = build_design(ex, cfg.L, noise=pt.noise)
        fit = _fit_pairs(design)
        theta[sub], rank_bad[sub] = fit.theta, fit.bad.any(axis=-1)
        snap_tau[sub] = design.tau[..., pt.markers]

    coeffs = RangeCoefficients(scaled=theta, n_nodes=n, c=cfg.c)
    grams = grams_from_ranges(coeffs.to_range_matrices())
    snaps = _symmetric(n, cfg.c * snap_tau.swapaxes(-1, -2))
    emb = _embed(np.concatenate([grams.Bxx[:, None], grams.Byy[:, None], _mds_gram(snaps)],
                                axis=1), P)
    xrel, yrel = emb.config[:, 0], emb.config[:, 1]
    # as in spectral_embed, an embedding that failed has not clamped
    failed = emb.failed
    clamped = (emb.n_clamped > 0) & ~failed
    embed_bad = failed[:, 0] | failed[:, 1]
    ok = ~rank_bad & ~embed_bad
    hy, rank = _rotation_stack(xrel, yrel, grams.Bxy, cfg.orthogonalize, where=ok)
    dynamic = xrel[:, None] + pt.times[:, None, None] * (hy @ yrel)[:, None]
    pc = centering_matrix(n)
    truth = np.array([traj.X, traj.Y] + [traj.position_at(t) for t in pt.times] * 2) @ pc
    estimates = np.concatenate([emb.config[:, :2], dynamic, emb.config[:, 2:]], axis=1) @ pc
    _, _, resid = procrustes_align(truth, estimates)
    phys = coeffs.physical
    coeff_true = _pair_kinematics(traj.X, traj.Y)
    return _Trials(
        cause=np.select([rank_bad, embed_bad, ok & (rank < P * P)], [1, 2, 3], 0),
        clamped=~rank_bad & (clamped[:, 0] | (~failed[:, 0] & clamped[:, 1])),
        coeff_sq=np.stack([np.sum((phys[..., ell] - coeff_true[ell]) ** 2, axis=-1)
                           for ell in range(3)], axis=-1),
        # summed here, where hy keeps the memory order its rounding follows (a
        # worker's hy would come back C-ordered)
        hy_sq=np.sum((hy - pt.hy_ref) ** 2, axis=(-2, -1)),
        aligned_sq=resid**2,
        snap_failed=failed[:, 2:],
        snap_clamped=clamped[:, 2:],
    )


def _outer_chunks(pt: _Point) -> list[range]:
    """The contiguous trial ranges of one sweep point's outer chunks."""
    n, n_snaps = pt.traj.N, len(pt.markers)
    step = _trials_per_chunk(max(pt.clean.n_pairs * pt.cfg.L, 3 * n * n, n_snaps * n * n))
    return [range(lo, min(lo + step, pt.cfg.trials)) for lo in range(0, pt.cfg.trials, step)]


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# the (point, trials) tasks of the pool this process works in, set by the pool's
# initializer in each worker, never in the parent
_TASKS: list[tuple[_Point, range]] = []


def _adopt_tasks(tasks: list[tuple[_Point, range]]) -> None:
    global _TASKS
    _TASKS = tasks


def _pooled_chunk(i: int) -> _Trials:
    # looked up at call time, so a module attribute patched before the fork holds
    return _trial_chunk(*_TASKS[i])


def _map_chunks(tasks: list[tuple[_Point, range]]) -> tuple[list[_Trials], int]:
    """`_trial_chunk` of every (point, trials) task, in task order, and the
    number of processes that ran them.

    The tasks go to a fork pool of min(tasks, CPUs) workers, which inherit
    them rather than receive them pickled; only the results travel back.
    They run here instead when that is one worker, where fork is missing,
    and inside a daemonic process, which may not have children.  An
    exception in a worker is raised here with its type and message, and a
    worker that dies (say, killed for memory) raises BrokenProcessPool
    rather than leaving the map waiting, as a multiprocessing.Pool would.
    """
    workers = min(len(tasks), _cpus())
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods() \
                and not multiprocessing.current_process().daemon:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_adopt_tasks, initargs=(tasks,)) as pool:
                return list(pool.map(_pooled_chunk, range(len(tasks)))), workers
    return [_trial_chunk(pt, trials) for pt, trials in tasks], 1


def _failures(cause: np.ndarray) -> dict[str, int]:
    """Failed trials per exception type name."""
    counts = np.bincount(cause, minlength=len(_TRIAL_ERRORS) + 1)[1:]
    return {err.__name__: int(k) for err, k in zip(_TRIAL_ERRORS, counts) if k}


def _rmse(sq: np.ndarray) -> float:
    return float(np.sqrt(np.mean(sq))) if sq.size else float("nan")


def _exchange_config(cfg: ExperimentConfig, K: int) -> ExchangeConfig:
    """The message schedule of a sweep point with K messages per pair."""
    return ExchangeConfig(K=K, interval=cfg.interval, c=cfg.c, delay_model=cfg.delay_model,
                          model_order=cfg.L)


def _sweep_point(traj, cfg, s_idx, value):
    """A k/sigma sweep point, and the reduction of its trials to its report rows."""
    if cfg.kind == "k_sweep":
        K, sigma_m = int(value), cfg.sigma_m
    else:
        K, sigma_m = cfg.K, _db_meters(value)
    noise = NoiseModel.from_pair_sigma(sigma_m, unit="m")
    clean = _clean_exchanges(traj, _exchange_config(cfg, K))
    rcrbs = dict.fromkeys(_SWEEP_QUANTITIES)
    design = build_design(clean, cfg.L, noise=noise)
    if design.pair_variances is not None:  # noisy: the bounds exist
        theta_crb, rcrbs["Xrel"], rcrbs["Yrel"] = _root_crbs(traj, design)
        rcrbs.update(r=theta_crb.rcrb(0), rdot=theta_crb.rcrb(1), rddot=theta_crb.rcrb(2))

    def rows(res: _Trials) -> list[ReportRow]:
        ok = res.cause == 0
        sq = {"r": res.coeff_sq[:, 0], "rdot": res.coeff_sq[:, 1], "rddot": res.coeff_sq[:, 2],
              "Xrel": res.aligned_sq[:, 0], "Yrel": res.aligned_sq[:, 1], "Hy": res.hy_sq}
        n_fail, clamped = int(np.count_nonzero(~ok)), int(res.clamped.sum())
        return [ReportRow(float(value), q, _rmse(sq[q][ok]), rcrbs[q], n_fail,
                          _failures(res.cause), clamped)
                for q in _SWEEP_QUANTITIES]

    # the noiseless solution fixes the reference frame for the rotation
    hy_ref = solve_relative(wls_solve(build_design(clean, cfg.L)).to_range_matrices(), traj.P,
                            orthogonalize=cfg.orthogonalize).Hy
    return _Point(traj, noise, cfg, (s_idx,), markers=np.zeros(0, np.intp), times=np.zeros(0),
                  clean=clean, hy_ref=hy_ref), rows


def _time_grid_point(traj, cfg):
    """The one point of a time grid, and the reduction of its trials to its report rows."""
    exch_cfg = _exchange_config(cfg, cfg.K)
    noise = NoiseModel.from_pair_sigma(cfg.sigma_m, unit="m")
    grid = generate_timestamps(exch_cfg, 1)[0]
    idxs = np.array([int(np.argmin(np.abs(grid - float(t)))) for t in cfg.sweep], np.intp)
    times = grid[idxs]

    def rows(res: _Trials) -> list[ReportRow]:
        ok = res.cause == 0
        dr_fail, failures = int(np.count_nonzero(~ok)), _failures(res.cause)
        dr_sq, cmds_sq = np.split(res.aligned_sq[:, 2:], 2, axis=1)
        out = []
        for m, t in enumerate(times):
            snap_ok = ok & ~res.snap_failed[:, m]
            snap_fail = int(np.count_nonzero(ok & res.snap_failed[:, m]))
            cmds_failures = dict(failures)
            if snap_fail:
                name = EmbeddingFailureError.__name__
                cmds_failures[name] = cmds_failures.get(name, 0) + snap_fail
            out.append(ReportRow(float(t), "Xk_dynamic", _rmse(dr_sq[ok, m]), None, dr_fail,
                                 dict(failures), int(res.clamped.sum())))
            out.append(ReportRow(float(t), "Xk_cmds", _rmse(cmds_sq[snap_ok, m]), None,
                                 dr_fail + snap_fail, cmds_failures,
                                 int(np.count_nonzero(ok & res.snap_clamped[:, m]))))
        return out

    return _Point(traj, noise, cfg, (0,), markers=idxs, times=times,
                  clean=_clean_exchanges(traj, exch_cfg), hy_ref=np.zeros((traj.P, traj.P))), rows


def run_experiment(cfg: ExperimentConfig) -> RmseReport:
    """Run one experiment; deterministic given (config, seed)."""
    return _run_experiments([cfg])[0]


def _run_experiments(cfgs: list[ExperimentConfig]) -> list[RmseReport]:
    """One report per config, with the rows separate `run_experiment` calls give.

    Every sweep point of every config is set up first, with its bounds; the
    outer trial chunks of all of them then run as one task list, through
    one pool (see `_map_chunks`), and each point's chunks are joined in
    trial order.  So the reports share one measurement: `wall_seconds` is
    the whole run's wall time, `workers` its pool's size.
    """
    start = time.perf_counter()
    setups = []  # (config index, sweep point, reduction of its trials to report rows)
    for c, cfg in enumerate(cfgs):
        traj = load_trajectory(cfg.fixture)
        points = [_time_grid_point(traj, cfg)] if cfg.kind == "time_grid" else \
            [_sweep_point(traj, cfg, s_idx, value) for s_idx, value in enumerate(cfg.sweep)]
        setups += [(c, pt, reduce) for pt, reduce in points]
    spans = [_outer_chunks(pt) for _, pt, _ in setups]
    chunks, workers = _map_chunks([(pt, trials) for (_, pt, _), span in zip(setups, spans)
                                   for trials in span])
    parts = iter(chunks)
    rows = [[] for _ in cfgs]
    for (c, _, reduce), span in zip(setups, spans):
        rows[c].extend(reduce(_Trials(*map(np.concatenate, zip(*islice(parts, len(span)))))))
    wall = time.perf_counter() - start
    return [RmseReport(kind=cfg.kind, rows=cfg_rows, config=cfg, wall_seconds=wall,
                       workers=workers) for cfg, cfg_rows in zip(cfgs, rows)]


def default_suite(trials: int = 1000, seed: int = 0, fixture: str = "cluster5",
                  **overrides) -> list[ExperimentConfig]:
    """The three standard experiments: K sweep, noise sweep, time grid.

    The three share stream addresses: k-sweep point s, sigma-sweep point s
    and the time grid (prefix ``(0,)``) all draw pair p of trial t from
    stream ``(s, t, p)`` of one seed.  So the time grid's noisy exchanges are
    bit-identical to those of the sigma sweep's first point (at the default
    K=100 and sigma_m=0.1, which is -10 dB-meters), and k-sweep point s
    draws the leading normals of sigma-sweep point s's streams.
    """
    base = dict(fixture=fixture, trials=trials, seed=seed, **overrides)
    k_cfg = ExperimentConfig(kind="k_sweep", sweep=list(range(10, 101, 10)), **base)
    s_cfg = ExperimentConfig(kind="sigma_sweep", sweep=list(range(-10, 1, 2)), **base)
    t_cfg = ExperimentConfig(kind="time_grid", sweep=list(np.linspace(*k_cfg.interval, k_cfg.K)),
                             **base)
    return [k_cfg, s_cfg, t_cfg]


def check_report(report: RmseReport, ratio_band: tuple[float, float] = (0.97, 1.15),
                 cmds_spread: float = 0.2) -> list[str]:
    """Invariant checks for a finished report; returns violation messages.

    k_sweep / sigma_sweep: at the most informative sweep point (largest K,
    respectively smallest noise) the RMSE/RCRB ratio of each range
    coefficient must sit in `ratio_band`.  time_grid: dynamic ranging beats
    the per-instant classical MDS at the reference instant, degrades toward
    the interval edges, and classical MDS stays within `cmds_spread` of its
    median across the grid.
    """
    failures = []
    if report.kind in ("k_sweep", "sigma_sweep"):
        best = max(r.sweep_value for r in report.rows) if report.kind == "k_sweep" \
            else min(r.sweep_value for r in report.rows)
        for q in ("r", "rdot", "rddot"):
            row = report.value(best, q)
            ratio = row.rmse / row.rcrb
            if not ratio_band[0] <= ratio <= ratio_band[1]:
                failures.append(
                    f"{report.kind}: RMSE/RCRB for {q} at sweep={best:g} is "
                    f"{ratio:.4f}, outside [{ratio_band[0]}, {ratio_band[1]}]"
                )
    else:
        dr = report.quantity_rows("Xk_dynamic")
        cm = report.quantity_rows("Xk_cmds")
        t0_idx = int(np.argmin([abs(r.sweep_value) for r in dr]))
        edge_idx = int(np.argmax([abs(r.sweep_value) for r in dr]))
        if not dr[t0_idx].rmse < cm[t0_idx].rmse:
            failures.append(
                f"time_grid: dynamic RMSE {dr[t0_idx].rmse:.4g} not below classical "
                f"MDS {cm[t0_idx].rmse:.4g} at t={dr[t0_idx].sweep_value:g}"
            )
        if not dr[edge_idx].rmse > dr[t0_idx].rmse:
            failures.append(
                f"time_grid: dynamic RMSE at |t|={abs(dr[edge_idx].sweep_value):g} does "
                f"not exceed its value at t={dr[t0_idx].sweep_value:g}"
            )
        cm_vals = np.array([r.rmse for r in cm])
        med = float(np.median(cm_vals))
        spread = float(np.max(np.abs(cm_vals - med))) / med
        if spread > cmds_spread:
            failures.append(
                f"time_grid: classical MDS spread {spread:.3f} exceeds {cmds_spread} of median"
            )
    return failures


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _trial_outcomes(report: RmseReport) -> list[dict]:
    """Failed trials by exception type name and the count of trials that
    clamped an eigenvalue, one entry per sweep value and run of consecutive
    quantities sharing them (all six at a k/sigma sweep point)."""
    out = []
    for row in report.rows:
        last = out[-1] if out else None
        if last and (last["sweep_value"], last["failures"], last["clamped"]) == \
                (row.sweep_value, row.failures, row.clamped):
            last["quantities"].append(row.quantity)
        else:
            out.append({"sweep_value": row.sweep_value, "quantities": [row.quantity],
                        "failures": row.failures, "clamped": row.clamped})
    return out


def emit_outputs(reports, out_dir) -> list[Path]:
    """Write result CSVs, per-figure plot data, and the run manifest.

    One ``experiment_<kind>.csv`` per report with columns
    (sweep_value, quantity, rmse, rcrb, n_fail), one ``plot_<kind>.csv``
    with the same data in wide columns, and ``manifest.json`` recording the
    full configuration and seed, per experiment the trial outcomes of every
    sweep point (see :func:`_trial_outcomes`), and the Python, numpy and
    platform versions, the CPUs in the affinity mask and, per experiment, the
    number of processes that ran its trials.  Reruns with the same seed
    produce byte-identical CSVs, whatever the process count.
    """
    if isinstance(reports, RmseReport):
        reports = [reports]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for report in reports:
        path = out / f"experiment_{report.kind}.csv"
        lines = ["sweep_value,quantity,rmse,rcrb,n_fail"]
        for row in report.rows:
            lines.append(",".join([
                _fmt(row.sweep_value), row.quantity, _fmt(row.rmse),
                _fmt(row.rcrb), str(row.n_fail),
            ]))
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

        quantities = _KINDS[report.kind].quantities
        plot_path = out / f"plot_{report.kind}.csv"
        header = ["sweep_value"]
        for q in quantities:
            header.append(f"rmse_{q}")
            if any(r.rcrb is not None for r in report.quantity_rows(q)):
                header.append(f"rcrb_{q}")
        sweep_vals = sorted({r.sweep_value for r in report.rows})
        plines = [",".join(header)]
        for v in sweep_vals:
            cells = [_fmt(v)]
            for q in quantities:
                row = report.value(v, q)
                cells.append(_fmt(row.rmse))
                if f"rcrb_{q}" in header:
                    cells.append(_fmt(row.rcrb))
            plines.append(",".join(cells))
        plot_path.write_text("\n".join(plines) + "\n")
        written.append(plot_path)

    manifest = {
        "package_version": _version,
        # derived noise streams follow numpy's SeedSequence/PCG64 seeding
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform(), "cpus": _cpus(),
                        "workers": [r.workers for r in reports]},
        "experiments": [r.config.to_dict() for r in reports],
        "trial_outcomes": [_trial_outcomes(r) for r in reports],
        "wall_seconds": [r.wall_seconds for r in reports],
        "outputs": [p.name for p in written],
    }
    mpath = out / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(mpath)
    return written
