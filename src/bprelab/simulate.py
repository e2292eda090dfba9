"""Monte Carlo trajectory engine for (Z_n, W_n) paths and weighted increment sums.

Replicas are simulated in blocks of BLOCK_ROWS rows. Block b draws from its
own generator seeded by ``SeedSequence(master_seed, spawn_key=(b,))``, so a
batch depends only on its config, not on which process draws a block. The
blocks are dealt round-robin to min(usable CPUs, blocks) workers, the calling
process and ``os.fork`` children, which write w, status and status_gen into
one shared anonymous mapping; a batch is bit-identical at any worker count
and at any ``threads`` value. The mapping holds w generation-major: w[i, n]
is replica i's W_n, but generation n's values for all replicas are one
contiguous run, so the simulator's per-generation writes and every reduction
over one generation touch contiguous memory. Threads would not help: numpy's
multinomial sampler holds the GIL. Workers are forked, not spawned, because a
spawned interpreter would pay a fresh numpy import, a large share of a
batch's time.

Within a block, an annealed batch first draws every row's environment states
from the same rows x n_max uniforms that ``Generator.choice`` would draw,
mapped to generation-major one-byte law indices by counting the cut points of
choice's cdf (computed once per batch) at or below each uniform; a one-state
mixture needs no draw, so it advances the stream past those uniforms instead.
Each generation is then one multinomial call over the block's live rows, a
slice until the first row stops and an index after, against a table of their
laws taken from the union-support pmf rows, while each live row's log P_n is
one running vector of the law log means and exp(-log P_n) is taken on the
live rows only. Where every row shares its path (a quenched path, a one-state
mixture), each generation draws against one pmf row and scales by one 1/P_n
vector. Generation totals are drawn exactly (multinomial category counts of
the parent population dotted with the support, which is the exact law of the
sum of per-individual draws); populations above pop_cap stop simulating and
are flagged.

The weighted increment sums A_hat_n(rho) and Q_n(rho)^2 at the (rho, n) keys
of one call come from one pass over w, BLOCK_ROWS rows at a time, as matrix
products of the increments with the weights rho^k [k <= n], written straight
into the result rows (``increment_sums``); the square-function bracket runs
one such pass per n, so a batch holds one n's sums at a time, and empties the
slot after its last bracket. The accumulator identity's residuals at every
(rho, n) come from a pass of their own (``identity_residuals``) that keeps
only running maxima past a block. Both passes read the increments straight
from generation-major w into one C-order block that every block reuses, and
pad a lone key's weights with a zero row, so a key's bits do not depend on
the other keys of its pass. The batch keeps each pass's last result in a slot
of its own: ``sums`` and ``residuals``. Each pass's key domain has one
owner, ``_sums_refusal`` and ``_residual_refusal``: it decides the keys the
pass leaves out and the keys its per-key call (``sums_at``,
``increment_identity_check``) refuses, leaving the slot as it was.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from .environment import EnvPath, Environment, FixedPath, IIDMixture
from .errors import ParameterError, SimulationError
from .offspring import OffspringLaw

STATUS_COMPLETED = 0
STATUS_EXTINCT = 1
STATUS_CAPPED = 2

_DUMP_FORMAT = 2

# rows per seed stream; changing it changes every simulated number
BLOCK_ROWS = 4096
STREAM_SCHEME = "SeedSequence(master_seed, spawn_key=(block,))"

MODE_QUENCHED = "quenched"
MODE_ANNEALED = "annealed"

# Generation totals use counts dotted with the support; keep the worst-case
# total inside int64 so the dot product cannot wrap.
_INT64_SAFE = 2**62


def pop_cap_fits(env: Environment, pop_cap: int) -> bool:
    """Whether pop_cap times env's largest offspring count stays below _INT64_SAFE (see above)."""
    laws = env.states if isinstance(env, IIDMixture) else env.laws
    return pop_cap * max(law.max_support for law in laws) < _INT64_SAFE


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation batch.

    mode "quenched" samples a single environment path from path_seed (or the
    fixed path's prefix) shared by every replica; "annealed" gives each
    replica its own i.i.d. path from its block's stream. bprelab itself asks
    for no accumulators and leaves rho_grid empty; the field remains only
    because the benchmark under bench/ still sets it, and goes with that use.
    """

    env: Environment
    mode: str
    n_max: int
    replicas: int
    master_seed: int
    path_seed: int | None = None
    pop_cap: int = 10_000_000
    rho_grid: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in (MODE_QUENCHED, MODE_ANNEALED):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.n_max < 1:
            raise ParameterError("n_max must be >= 1")
        if self.replicas < 1:
            raise ParameterError("replicas must be >= 1")
        if self.pop_cap < 1000:
            raise ParameterError("pop_cap must be >= 1000")
        if any(r < 1.0 for r in self.rho_grid):
            raise ParameterError("rho grid values must be >= 1")
        if self.mode == MODE_ANNEALED and not isinstance(self.env, IIDMixture):
            raise ParameterError("annealed mode needs an i.i.d. mixture environment")
        if (
            self.mode == MODE_QUENCHED
            and isinstance(self.env, IIDMixture)
            and self.path_seed is None
        ):
            raise ParameterError("quenched mode on a mixture needs a path_seed")
        if not pop_cap_fits(self.env, self.pop_cap):
            raise ParameterError("pop_cap too large for exact int64 totals")

    def block_seed(self, block: int) -> np.random.SeedSequence:
        """Seed of the stream behind rows block*BLOCK_ROWS .. (block+1)*BLOCK_ROWS - 1."""
        return np.random.SeedSequence(self.master_seed, spawn_key=(block,))


@dataclass
class TrajectoryBatch:
    """Simulated W_n trajectories.

    w[i, n] is replica i's W_n for n = 0..n_max. A simulated w is stored
    generation-major (w.T is C-contiguous), so a column w[:, n] is contiguous;
    a loaded one keeps its dump's order and reads the same. a_hat[i, j, n] is
    A_hat_n(rho_j) = sum_{k<=n} rho_j^k (W_{k+1} - W_k) for n = 0..n_max-1,
    filled only for a SimConfig.rho_grid. bprelab's own batches leave both
    empty and take A_hat_n from increment_sums, whose last pass is sums
    (identity_residuals' is residuals); rho_grid and a_hat remain only
    because the benchmark under bench/ still reads them, and go with that use.
    """

    mode: str
    n_max: int
    replicas: int
    master_seed: int
    pop_cap: int
    rho_grid: tuple[float, ...]
    w: np.ndarray
    a_hat: np.ndarray
    status: np.ndarray
    status_gen: np.ndarray
    path: EnvPath | None = None
    meta: dict = field(default_factory=dict)
    sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    residuals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # sums and residuals are cached from w, so w must not change under them
        self.w.flags.writeable = False

    @property
    def uncapped(self) -> np.ndarray:
        return self.status != STATUS_CAPPED

    @property
    def capped_fraction(self) -> float:
        return float(np.mean(self.status == STATUS_CAPPED))

    def save(self, path) -> None:
        """Versioned binary dump (npz)."""
        meta = {
            "format": _DUMP_FORMAT,
            "mode": self.mode,
            "n_max": self.n_max,
            "replicas": self.replicas,
            "master_seed": self.master_seed,
            "stream_scheme": STREAM_SCHEME,
            "block_rows": BLOCK_ROWS,
            "pop_cap": self.pop_cap,
            "rho_grid": list(self.rho_grid),
            "path_pmfs": [law.as_mapping() for law in self.path.laws] if self.path else None,
            "path_seed": self.path.seed if self.path else None,
        }
        np.savez_compressed(
            path,
            w=self.w,
            a_hat=self.a_hat,
            status=self.status,
            status_gen=self.status_gen,
            meta=np.array(json.dumps(meta)),
        )

    @classmethod
    def load(cls, path) -> "TrajectoryBatch":
        data = np.load(path, allow_pickle=False)
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != _DUMP_FORMAT:
            raise ParameterError(f"unsupported dump format {meta.get('format')!r}")
        env_path = None
        if meta["path_pmfs"] is not None:
            laws = [OffspringLaw({int(k): v for k, v in pmf.items()}) for pmf in meta["path_pmfs"]]
            env_path = EnvPath(laws, seed=meta["path_seed"])
        return cls(
            mode=meta["mode"],
            n_max=meta["n_max"],
            replicas=meta["replicas"],
            master_seed=meta["master_seed"],
            pop_cap=meta["pop_cap"],
            rho_grid=tuple(meta["rho_grid"]),
            w=data["w"],
            a_hat=data["a_hat"],
            status=data["status"],
            status_gen=data["status_gen"],
            path=env_path,
            meta=meta,
        )


def quenched_path(env: Environment, length: int, seed: int | None) -> EnvPath:
    """The path every replica of a quenched batch shares.

    A fixed path gives its prefix and ignores seed; a mixture draws length
    states from the generator seeded by ``SeedSequence(seed)``.
    """
    if isinstance(env, FixedPath):
        return env.sample_path(length)
    path = env.sample_path(length, np.random.default_rng(np.random.SeedSequence(seed)))
    path.seed = seed
    return path


def _law_table(laws) -> tuple[np.ndarray, np.ndarray]:
    """Union support of the laws, and one pmf row per law over that support."""
    # a sorted set, not np.unique, whose first call imports numpy.ma (13-17 ms)
    support = np.array(sorted({int(v) for law in laws for v in law.values}), dtype=np.int64)
    pvals = np.zeros((len(laws), support.size))
    for row, law in zip(pvals, laws):
        row[np.searchsorted(support, law.values)] = law.probs
    return support, pvals


def _choice_cdf(weights) -> np.ndarray:
    """The cdf that ``Generator.choice`` searches for a draw with probabilities weights."""
    cdf = np.cumsum(weights, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf


def _draw_states(rng: np.random.Generator, cdf: np.ndarray, rows: int, n_max: int) -> np.ndarray:
    """Generation-major law indices: states[n, i] is row i's law at generation n.

    The same rows x n_max uniforms that ``rng.choice(len(cdf), size=(rows, n_max),
    p=weights)`` draws, each mapped to the number of cdf[:-1] entries at or
    below it: choice's ``searchsorted(cdf, u, side="right")``, since every u < 1
    = cdf[-1]. One byte per state while there are at most 256 laws.
    """
    u = rng.random((rows, n_max)).T
    states = np.zeros((n_max, rows), dtype=np.min_scalar_type(len(cdf) - 1))
    above = np.empty((n_max, rows), dtype=bool)
    for cut in cdf[:-1]:
        states += np.greater_equal(u, cut, out=above)
    return states


def _simulate_block(rng: np.random.Generator, states: np.ndarray, support: np.ndarray,
                    pvals: np.ndarray, log_means: np.ndarray, pop_cap: int, w: np.ndarray,
                    status: np.ndarray, status_gen: np.ndarray) -> None:
    """Fill one block's rows, one multinomial call per generation over the live rows.

    states[n] is the law of generation n: one index into pvals and log_means
    for every row when states is 1-D (a shared path, drawn against its one
    pmf row, which numpy draws from as from a table of its copies, and scaled
    by one 1/P_n vector), else one index per row. Per-row laws keep each live
    row's log P_n as one running vector, adding the law log means generation
    by generation, as a cumulative sum would. Rows that die out or pass
    pop_cap stay frozen; the live rows are a slice until the first row stops,
    then an index. w[:, 0], status and status_gen arrive holding 1, completed
    and -1.
    """
    shared = states.ndim == 1
    if shared:
        pinv = np.exp(-np.cumsum(log_means[states]))
    else:
        log_p = np.zeros(len(status))
    live = slice(None)
    z = np.ones(len(status), dtype=np.int64)
    for n in range(len(states)):
        # frozen rows carry their last value; while every row lives, the draw writes the column
        if not isinstance(live, slice):
            w[:, n + 1] = w[:, n]
        if not z.size:
            continue
        if shared:
            z = rng.multinomial(z, pvals[states[n]]) @ support
            w[live, n + 1] = z * pinv[n]
        else:
            law = states[n, live]
            log_p += np.take(log_means, law)
            z = rng.multinomial(z, np.take(pvals, law, axis=0)) @ support
            w[live, n + 1] = z * np.exp(-log_p)
        stop = (z == 0) | (z > pop_cap)
        if stop.any():
            if isinstance(live, slice):
                live = np.arange(len(status))
            gone, keep = live[stop], ~stop
            status[gone] = np.where(z[stop] == 0, STATUS_EXTINCT, STATUS_CAPPED)
            status_gen[gone] = n + 1
            live, z = live[keep], z[keep]
            if not shared:
                log_p = log_p[keep]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork or the affinity mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shared_outputs(replicas: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w, status_gen and status as views of one anonymous mapping that forked children share.

    w is laid out generation-major: the mapping holds n_max + 1 rows of
    replicas values, and w is their transpose, so w[i, n] is replica i's W_n
    and w[:, n] is one contiguous row. A page is first touched by the worker
    that writes it, so each worker faults in its own pages.
    """
    w_bytes, gen_bytes = replicas * (n_max + 1) * 8, replicas * 4
    # an anonymous mmap is MAP_SHARED by default: a child's writes land in the parent's pages
    buf = mmap.mmap(-1, w_bytes + gen_bytes + replicas)
    w = np.frombuffer(buf, dtype=np.float64, count=replicas * (n_max + 1)).reshape(n_max + 1, replicas).T
    status_gen = np.frombuffer(buf, dtype=np.int32, count=replicas, offset=w_bytes)
    status = np.frombuffer(buf, dtype=np.int8, count=replicas, offset=w_bytes + gen_bytes)
    return w, status_gen, status


def _fork_worker(fill, worker: int) -> int:
    """Fork a child that runs fill(worker) and leaves by os._exit; returns its pid.

    The child exits 0 on success, else 1 after writing its traceback to fd 2.
    It never returns into the caller, flushes the parent's inherited stdio
    buffers or runs atexit hooks, so nothing the parent printed is repeated.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        fill(worker)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def run(cfg: SimConfig, threads: int = 1) -> TrajectoryBatch:
    """Simulate the batch block by block, each block from its own seed stream.

    Blocks go round-robin to min(usable CPUs, blocks) workers: this process
    takes blocks 0, k, 2k, ... and forked children the others, all writing
    into one shared mapping; every child is reaped before run returns or
    raises, and a failed child raises SimulationError. Since each block has
    its own stream, the output is bit-identical at any worker count. threads
    must be >= 1 and is otherwise ignored.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    shared: EnvPath | None = None
    if cfg.mode == MODE_QUENCHED:
        shared = quenched_path(cfg.env, cfg.n_max, cfg.path_seed)

    replicas, n_max = cfg.replicas, cfg.n_max
    w, status_gen, status = _shared_outputs(replicas, n_max)
    w[:, 0] = 1.0
    status[:] = STATUS_COMPLETED
    status_gen[:] = -1

    laws = cfg.env.states if shared is None else shared.laws
    support, pvals = _law_table(laws)
    log_means = np.array([law.log_mean for law in laws])
    # the one law index per generation where every row shares its path: law n
    # of a quenched path at generation n, law 0 of a one-state mixture throughout
    path_states = np.arange(n_max) if shared is not None else np.zeros(n_max, dtype=np.intp)
    cdf = None if shared is not None else _choice_cdf(cfg.env.weights)
    starts = range(0, replicas, BLOCK_ROWS)
    workers = min(_usable_cpus(), len(starts))

    def fill(worker: int) -> None:
        for block in range(worker, len(starts), workers):
            lo = starts[block]
            hi = min(lo + BLOCK_ROWS, replicas)
            rng = np.random.default_rng(cfg.block_seed(block))
            if shared is not None:
                states = path_states
            elif len(laws) == 1:
                # every row draws the one law; skip the one double per state that choice would take
                rng.bit_generator.advance((hi - lo) * n_max)
                states = path_states
            else:
                states = _draw_states(rng, cdf, hi - lo, n_max)
            _simulate_block(rng, states, support, pvals, log_means, cfg.pop_cap,
                            w[lo:hi], status[lo:hi], status_gen[lo:hi])

    children: list[int] = []
    try:
        for worker in range(1, workers):
            children.append(_fork_worker(fill, worker))
        fill(0)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    failed = {worker: code for worker, code in enumerate(codes, 1) if code}
    if failed:
        raise SimulationError(
            f"{len(failed)} of {workers - 1} forked simulation workers failed "
            f"(exit status by worker: {failed}); each printed its traceback to stderr")

    a_hat = np.empty((replicas, len(cfg.rho_grid), n_max))
    rho_pows = np.array([[r**k for k in range(n_max)] for r in cfg.rho_grid])
    if rho_pows.size:
        for lo in starts:
            hi = min(lo + BLOCK_ROWS, replicas)
            a_hat[lo:hi] = np.cumsum(rho_pows * np.diff(w[lo:hi], axis=1)[:, None, :], axis=2)

    return TrajectoryBatch(
        mode=cfg.mode,
        n_max=n_max,
        replicas=replicas,
        master_seed=cfg.master_seed,
        pop_cap=cfg.pop_cap,
        rho_grid=tuple(cfg.rho_grid),
        w=w,
        a_hat=a_hat,
        status=status,
        status_gen=status_gen,
        path=shared,
    )


def _weights(keys, top: int) -> np.ndarray:
    """The matrix of rho^k [k <= n] over k <= top, one row per (rho, n) key, and a zero row
    after a lone key.

    numpy hands a one-row product to a matrix-vector kernel, whose rounding
    follows the layout it is given; with at least two rows every pass runs the
    matrix-matrix kernel, so a key's sums do not depend on the other keys of
    its pass.
    """
    rows = [[rho**k if k <= n else 0.0 for k in range(top + 1)] for rho, n in keys]
    return np.array(rows + [[0.0] * (top + 1)] * (len(rows) == 1))


def _blocks(rows: int):
    """(lo, hi) of each BLOCK_ROWS slice of rows."""
    return ((lo, min(lo + BLOCK_ROWS, rows)) for lo in range(0, rows, BLOCK_ROWS))


def _sums_refusal(batch: TrajectoryBatch, rho: float, n: int) -> str | None:
    """increment_sums' key domain, finite rho >= 1 and 0 <= n < n_max: None inside, else the refusal."""
    inside = math.isfinite(rho) and rho >= 1.0 and 0 <= n < batch.n_max
    return None if inside else f"increment sums need a finite rho >= 1 and 0 <= n < {batch.n_max}; got ({rho}, {n})"


def _residual_refusal(batch: TrajectoryBatch, rho: float, n: int) -> str | None:
    """identity_residuals' key domain, finite rho > 1 and 0 <= n < n_max - 1: None inside, else the refusal."""
    inside = math.isfinite(rho) and rho > 1.0 and 0 <= n < batch.n_max - 1
    return None if inside else f"the identity needs a finite rho > 1 and 0 <= n < {batch.n_max - 1}; got ({rho}, {n})"


def increment_sums(batch: TrajectoryBatch, keys) -> dict:
    """Refill the slot batch.sums: (rho, n) -> every row's A_hat_n(rho) and Q_n(rho)^2.

    Per BLOCK_ROWS rows, the increments d_k = W_{k+1} - W_k, k <= top (the
    largest n), are read straight from generation-major w into one C-order
    (top+1) x rows block of scratch that every block reuses. The matrix W of
    rho^k [k <= n], padded by _weights to two rows for a lone key, multiplies
    them, then the squared increments are multiplied by W*W, straight into the
    result rows; the slot holds 2 x len(W) rows of float64.
    """
    keys = [key for key in dict.fromkeys(keys) if _sums_refusal(batch, *key) is None]
    batch.sums = {}
    if keys:
        w, top = batch.w, max(n for _, n in keys)
        weights = _weights(keys, top)
        squares = weights * weights
        a_hat, q2 = np.empty((2, len(weights), len(w)))
        d_buf = np.empty((top + 1) * min(BLOCK_ROWS, len(w)))
        for lo, hi in _blocks(len(w)):
            d = np.subtract(w.T[1 : top + 2, lo:hi], w.T[: top + 1, lo:hi],
                            out=d_buf[: (top + 1) * (hi - lo)].reshape(top + 1, hi - lo))
            np.matmul(weights, d, out=a_hat[:, lo:hi])
            np.matmul(squares, np.multiply(d, d, out=d), out=q2[:, lo:hi])
        batch.sums = {key: (a_hat[j], q2[j]) for j, key in enumerate(keys)}
    return batch.sums


def sums_at(batch: TrajectoryBatch, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_hat_n(rho), Q_n(rho)^2) on every row: from the batch's slot, else a one-key pass."""
    if refusal := _sums_refusal(batch, rho, n):
        raise ParameterError(refusal)
    return batch.sums.get((rho, n)) or increment_sums(batch, [(rho, n)])[rho, n]


def identity_residuals(batch: TrajectoryBatch, keys) -> dict:
    """Refill the slot batch.residuals: (rho, n) -> the accumulator identity's residual.

    With W replaced by the proxy W_N, N = n_max, A_n = sum_{k<=n} rho^k
    (W_N - W_k) must equal rho/(rho-1) A_hat_n + rho^{n+1}/(rho-1)
    (W_N - W_{n+1}) - (W_N - 1)/(rho-1) exactly. The residual is the largest
    |A_n - rhs| over rows, relative to max(1, largest |A_n|, largest |rhs|).

    Per BLOCK_ROWS rows, one reused buffer holds the increments, whose product
    with _weights gives every key's A_hat_n as in increment_sums, and then the
    C-order W_N - W_k. Key by key, A_n is one matrix-vector product over its
    first n + 1 columns, the right-hand side follows the formula's order, and
    only running maxima outlive a block.
    """
    keys = [key for key in dict.fromkeys(keys) if _residual_refusal(batch, *key) is None]
    batch.residuals = {}
    if not keys:
        return batch.residuals
    w, n_max, top = batch.w, batch.n_max, max(n for _, n in keys)
    weights = _weights(keys, top)
    rows = min(BLOCK_ROWS, len(w))
    buf, a_hat = np.empty((top + 1) * rows), np.empty((len(weights), rows))
    maxima = np.full((len(keys), 3), -np.inf)
    for lo, hi in _blocks(len(w)):
        size, w_proxy = hi - lo, w[lo:hi, n_max]
        block = buf[: (top + 1) * size]
        d = np.subtract(w.T[1 : top + 2, lo:hi], w.T[: top + 1, lo:hi], out=block.reshape(top + 1, size))
        np.matmul(weights, d, out=a_hat[:, :size])
        telescoped = np.subtract(w_proxy[:, None], w[lo:hi, : top + 1], out=block.reshape(size, top + 1))
        for j, (rho, n) in enumerate(keys):
            lhs = telescoped[:, : n + 1] @ rho ** np.arange(n + 1)
            rhs = (a_hat[j, :size] * (rho / (rho - 1.0))
                   + (w_proxy - w[lo:hi, n + 1]) * (rho ** (n + 1) / (rho - 1.0))
                   - (w_proxy - 1.0) / (rho - 1.0))
            sides = np.abs(lhs - rhs).max(), np.abs(lhs).max(), np.abs(rhs).max()
            np.maximum(maxima[j], sides, out=maxima[j])
    batch.residuals = {key: diff / max(1.0, lhs_max, rhs_max)
                       for key, (diff, lhs_max, rhs_max) in zip(keys, maxima.tolist())}
    return batch.residuals


def increment_identity_check(batch: TrajectoryBatch, rho: float, n: int) -> float:
    """Largest relative residual of the accumulator identity across replicas.

    From the batch's slot (see identity_residuals), else a one-key pass that
    replaces it; a key outside the pass's domain leaves the slot as it was.
    """
    if refusal := _residual_refusal(batch, rho, n):
        raise ParameterError(refusal)
    residual = batch.residuals.get((rho, n))
    return identity_residuals(batch, [(rho, n)])[rho, n] if residual is None else residual
