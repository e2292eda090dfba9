"""A stored batch on run's own streams, for tests that read W itself.

run reduces every block in its workers and keeps no W; stored_batch fills
the same blocks with run's per-block function, one after another in this
process, and packs them into a TrajectoryBatch that stores w
generation-major (w.T is C-contiguous).
"""

import numpy as np

from bprelab import SimConfig, TrajectoryBatch, simulate


def stored_batch(cfg: SimConfig) -> TrajectoryBatch:
    """cfg's batch with its w, status and status_gen; no a_hat, whatever cfg.rho_grid holds."""
    shared, fill = simulate._block_filler(cfg)
    w = np.empty((cfg.n_max + 1, cfg.replicas)).T
    status = np.empty(cfg.replicas, dtype=np.int8)
    status_gen = np.empty(cfg.replicas, dtype=np.int32)
    for block, lo in enumerate(range(0, cfg.replicas, simulate.BLOCK_ROWS)):
        rows = slice(lo, lo + simulate.BLOCK_ROWS)
        fill(block, w[rows], status[rows], status_gen[rows])
    return TrajectoryBatch(
        mode=cfg.mode,
        n_max=cfg.n_max,
        replicas=cfg.replicas,
        master_seed=cfg.master_seed,
        pop_cap=cfg.pop_cap,
        rho_grid=(),
        w=w,
        a_hat=np.empty((cfg.replicas, 0, cfg.n_max)),
        status=status,
        status_gen=status_gen,
        path=shared,
    )
