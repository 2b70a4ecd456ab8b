"""Random planar networks for the benchmark, derived from the workload seed.

Positions are uniform over a 2 km square with a minimum pair separation,
velocities have a few m/s, and every pair exchanges K messages with delay
noise sigma.  The same (seed, size, index) always gives the same network and
the same files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relkin import (
    ExchangeConfig,
    NoiseModel,
    TimestampExchangeSet,
    TrajectorySet,
    build_design,
    crb_theta,
    pairwise_solve,
    simulate_exchanges,
)

SIDE_M = 2000.0          # positions uniform over a SIDE_M x SIDE_M square
MIN_SEPARATION_M = 50.0
SPEED_M_S = (1.0, 8.0)   # speed range; direction uniform
K = 100
SIGMA_M = 0.1
L = 4
INTERVAL = (-3.0, 3.0)


@dataclass
class Network:
    """One generated network: its truth, its noisy exchanges and its files."""

    traj: TrajectorySet
    exchanges: TimestampExchangeSet
    traj_json: Path
    exchange_csv: Path | None = None
    theta_csv: Path | None = None


def exchange_config() -> ExchangeConfig:
    return ExchangeConfig(K=K, interval=INTERVAL)


def noise_model() -> NoiseModel:
    return NoiseModel.from_pair_sigma(SIGMA_M, unit="m")


def random_trajectory(rng: np.random.Generator, n: int) -> TrajectorySet:
    """n nodes with pairwise separations of at least MIN_SEPARATION_M."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-SIDE_M / 2, SIDE_M / 2, size=2)
        if all(np.hypot(*(cand - p)) >= MIN_SEPARATION_M for p in pts):
            pts.append(cand)
    speed = rng.uniform(*SPEED_M_S, size=n)
    heading = rng.uniform(0.0, 2.0 * np.pi, size=n)
    Y = np.vstack([speed * np.cos(heading), speed * np.sin(heading)])
    return TrajectorySet(X=np.array(pts).T, Y=Y)


def pair_crb():
    """Theta-CRB of one pair on the shared marker grid.

    Every pair has the same markers and delay variance, so this 1-pair block
    times the identity is the exact network-wide bound.
    """
    two = TrajectorySet(X=np.array([[0.0, 1000.0], [0.0, 0.0]]), Y=np.zeros((2, 2)))
    clean = simulate_exchanges(two, exchange_config(), NoiseModel(0.0), seed=0)
    return crb_theta(build_design(clean, L, noise=noise_model()))


def write_theta_csv(path: Path, exchanges: TimestampExchangeSet) -> None:
    """Per-pair fit in the `relkin estimate` output format (i,j,order,theta,rcrb)."""
    coeffs = pairwise_solve(build_design(exchanges, L, noise=noise_model()))
    crb = pair_crb()
    rcrb = [float(crb.per_pair_rcrb(ell)[0]) for ell in range(L)]
    phys = coeffs.physical
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("i", "j", "order", "theta", "rcrb"))
        for p, (i, j) in enumerate(coeffs.pairs):
            for ell in range(L):
                writer.writerow((i, j, ell, repr(float(phys[p, ell])), repr(rcrb[ell])))


def make_network(seed: int, n: int, index: int, out_dir: Path,
                 exchange_csv: bool = False, theta_csv: bool = False) -> Network:
    """Generate network `index` of size n and write its input files to out_dir."""
    rng = np.random.default_rng([seed, n, index])
    traj = random_trajectory(rng, n)
    exchanges = simulate_exchanges(traj, exchange_config(), noise_model(), seed, stream=(n, index))
    stem = out_dir / f"net{n}_{index}"
    net = Network(traj=traj, exchanges=exchanges, traj_json=stem.with_suffix(".json"))
    traj.save(net.traj_json)
    if exchange_csv:
        net.exchange_csv = stem.with_name(stem.name + "_exchanges.csv")
        exchanges.to_csv(net.exchange_csv)
    if theta_csv:
        net.theta_csv = stem.with_name(stem.name + "_theta.csv")
        write_theta_csv(net.theta_csv, exchanges)
    return net
