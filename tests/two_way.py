"""Exchange sets in which either node of a pair may transmit, for tests.

relkin simulates one-way exchanges (every flag e = +1), while a recorded
exchange file may carry E = -1 rows, where the higher-indexed node
transmitted.  The delays e o (t_j - t_i) do not depend on which node
transmits; `exchanges` builds such sets so that tests can check it.
"""

import numpy as np

from relkin import TimestampExchangeSet, generate_timestamps
from relkin.twr import _clean_delays, _draw_exchanges, _exchange_states


def alternating(K):
    """The K flags +1, -1, +1, ..."""
    return np.resize([1, -1], K)


def exchanges(traj, cfg, flags, noise=None, seed=0, stream=()):
    """The exchanges of `traj` under `cfg` in which every pair's message k is
    sent by its lower-indexed node where flags[k] = +1, and by the other node
    where flags[k] = -1.

    t_i sits on the transmit grid and t_j = t_i + e * delay, with the delays
    `simulate_exchanges` uses.  Without `noise` the set is noise-free; with
    it, pair p's markers are perturbed from the stream (seed, *stream, p), as
    `simulate_exchanges` perturbs them.
    """
    delays = _clean_delays(traj, cfg)
    grid = generate_timestamps(cfg, len(delays))
    e = np.tile(np.asarray(flags, int), (len(delays), 1))
    clean = TimestampExchangeSet(n_nodes=traj.N, t_i=grid, t_j=grid + e * delays, e=e)
    if noise is None:
        return clean
    return _draw_exchanges(clean, noise, _exchange_states(seed, [stream], len(delays))[0])
