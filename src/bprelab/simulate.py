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
with one ``choice`` call, which takes one 64-bit output per state; a
one-state mixture needs no draw, so it advances the stream past those outputs
instead. Each generation is then one multinomial call over the block's live
rows against a table of the laws on their union support, or against the one
pmf row of that generation's law when every row shares its path (a quenched
path, a one-state mixture), whose P_n is then computed once. Generation
totals are drawn exactly (multinomial category counts of the parent
population dotted with the support, which is the exact law of the sum of
per-individual draws); populations above pop_cap stop simulating and are
flagged.

The weighted increment sums A_hat_n(rho) and Q_n(rho)^2 at every (rho, n) a
relation asks for come from one pass over w, BLOCK_ROWS rows at a time, as
matrix products of the increments with the weights rho^k [k <= n], written
straight into the result rows (``increment_sums``). The accumulator
identity's residuals at every (rho, n) come from a pass of their own
(``identity_residuals``) that keeps only running maxima past a block, so no
per-row array outlives one. Each pass allocates its scratch once and reuses
it for every block, and the batch keeps each pass's last result in a slot of
its own: ``sums`` and ``residuals``.
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
        max_support = max(
            law.max_support
            for law in (
                self.env.states if isinstance(self.env, IIDMixture) else self.env.laws
            )
        )
        if self.pop_cap * max_support >= _INT64_SAFE:
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


def _simulate_block(rng: np.random.Generator, state: np.ndarray, support: np.ndarray,
                    pvals: np.ndarray, pinv: np.ndarray, pop_cap: int, w: np.ndarray,
                    status: np.ndarray, status_gen: np.ndarray) -> None:
    """Fill one block's rows, one multinomial call per generation over live rows.

    state[i, n] indexes the law row i uses at generation n (a stride-0 state
    shares one path across rows), pinv[i, n] is 1 / P_n on row i's path;
    rows that die out or pass pop_cap stay frozen.
    w[:, 0], status and status_gen arrive holding 1, completed and -1.
    """
    rows, n_max = state.shape
    # a stride-0 state gives every row one law per generation: pass its pmf
    # row, not a table of copies; numpy draws the same stream from either
    one_law = state.strides[0] == 0
    live = np.arange(rows)
    z = np.ones(rows, dtype=np.int64)
    for n in range(n_max):
        w[:, n + 1] = w[:, n]
        if not live.size:
            continue
        law = pvals[state[0, n]] if one_law else pvals[state[live, n]]
        z = rng.multinomial(z, law) @ support
        w[live, n + 1] = z * pinv[live, n + 1]
        stop = (z == 0) | (z > pop_cap)
        if stop.any():
            gone = live[stop]
            status[gone] = np.where(z[stop] == 0, STATUS_EXTINCT, STATUS_CAPPED)
            status_gen[gone] = n + 1
            live, z = live[~stop], z[~stop]


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
    law_log_means = np.array([law.log_mean for law in laws])
    starts = range(0, replicas, BLOCK_ROWS)
    workers = min(_usable_cpus(), len(starts))

    def fill(worker: int) -> None:
        for block in range(worker, len(starts), workers):
            lo = starts[block]
            hi = min(lo + BLOCK_ROWS, replicas)
            rng = np.random.default_rng(cfg.block_seed(block))
            if shared is not None:
                state = np.arange(n_max)[None, :]
            elif len(laws) == 1:
                # every row draws the one law; skip the one double per state that choice would take
                rng.bit_generator.advance((hi - lo) * n_max)
                state = np.zeros((1, n_max), dtype=np.int64)
            else:
                state = rng.choice(len(laws), size=(hi - lo, n_max), p=cfg.env.weights)
            # one state row is every row's path: its P_n is computed once
            log_p = np.zeros((len(state), n_max + 1))
            np.cumsum(law_log_means[state], axis=1, out=log_p[:, 1:])
            _simulate_block(rng, np.broadcast_to(state, (hi - lo, n_max)), support, pvals,
                            np.broadcast_to(np.exp(-log_p), (hi - lo, n_max + 1)), cfg.pop_cap,
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
    """The K x (top+1) matrix of rho^k [k <= n], one row per (rho, n) key."""
    return np.array([[rho**k if k <= n else 0.0 for k in range(top + 1)] for rho, n in keys])


def _blocks(rows: int):
    """(lo, hi) of each BLOCK_ROWS slice of rows."""
    return ((lo, min(lo + BLOCK_ROWS, rows)) for lo in range(0, rows, BLOCK_ROWS))


def _increments(w: np.ndarray, top: int, out: np.ndarray) -> np.ndarray:
    """d_k = W_{k+1} - W_k, k <= top, of a block of w's rows, written into the C-order out.

    C order keeps the products' BLAS layout, and so their rounding, whatever
    w's own layout is.
    """
    return np.subtract(w[:, 1 : top + 2], w[:, : top + 1], out=out[: len(w)])


def increment_sums(batch: TrajectoryBatch, keys) -> dict:
    """Refill the slot batch.sums: (rho, n) -> every row's A_hat_n(rho) and Q_n(rho)^2.

    Per BLOCK_ROWS rows, the increments d_k = W_{k+1} - W_k are multiplied by the
    K x (top+1) matrix W of rho^k [k <= n], then squared in place and multiplied
    by W*W, straight into the result rows; d is one block of scratch that every
    block reuses. Keys outside finite rho >= 1 and 0 <= n < n_max are left out,
    for the per-key call to refuse.
    """
    keys = [(rho, n) for rho, n in dict.fromkeys(keys)
            if math.isfinite(rho) and rho >= 1.0 and 0 <= n < batch.n_max]
    batch.sums = {}
    if keys:
        top = max(n for _, n in keys)
        weights = _weights(keys, top)
        squares = weights * weights
        a_hat, q2 = np.empty((2, len(keys), len(batch.w)))
        d_buf = np.empty((min(BLOCK_ROWS, len(batch.w)), top + 1))
        for lo, hi in _blocks(len(batch.w)):
            d = _increments(batch.w[lo:hi], top, d_buf)
            np.matmul(weights, d.T, out=a_hat[:, lo:hi])
            np.matmul(squares, np.multiply(d, d, out=d).T, out=q2[:, lo:hi])
        batch.sums = {key: (a_hat[j], q2[j]) for j, key in enumerate(keys)}
    return batch.sums


def sums_at(batch: TrajectoryBatch, rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_hat_n(rho), Q_n(rho)^2) on every row: from the batch's slot, else a one-key pass."""
    return batch.sums.get((rho, n)) or increment_sums(batch, [(rho, n)])[rho, n]


def identity_residuals(batch: TrajectoryBatch, keys) -> dict:
    """Refill the slot batch.residuals: (rho, n) -> the accumulator identity's residual.

    With W replaced by the proxy W_N, N = n_max, A_n = sum_{k<=n} rho^k
    (W_N - W_k) must equal rho/(rho-1) A_hat_n + rho^{n+1}/(rho-1)
    (W_N - W_{n+1}) - (W_N - 1)/(rho-1) exactly. The residual is the largest
    |A_n - rhs| over rows, relative to max(1, largest |A_n|, largest |rhs|).

    One pass, BLOCK_ROWS rows at a time, into scratch reused by every block:
    A_hat_n for every key is one matrix product of the increments, as in
    increment_sums but with at least two weight rows (numpy hands a one-row
    product to a matrix-vector kernel, whose rounding differs), so a key's
    residual does not depend on the other keys of its pass. A_n is one
    matrix-vector product per key over a C-order W_N - W_k that every rho at
    one n shares; the right-hand side is formed for all keys at once, each
    element in the order of the formula, and only running maxima outlive a
    block. Keys outside finite rho > 1 and 0 <= n < n_max - 1 are left out,
    for the per-key call to refuse.
    """
    keys = [(rho, n) for rho, n in dict.fromkeys(keys)
            if math.isfinite(rho) and rho > 1.0 and 0 <= n < batch.n_max - 1]
    batch.residuals = {}
    if not keys:
        return batch.residuals
    w, n_max, k = batch.w, batch.n_max, len(keys)
    top = max(n for _, n in keys)
    weights = _weights(keys, top)
    if k == 1:
        weights = np.vstack([weights, np.zeros(top + 1)])
    lhs_weights = [rho ** np.arange(n + 1) for rho, n in keys]
    by_n: dict[int, list[int]] = {}
    for j, (_, n) in enumerate(keys):
        by_n.setdefault(n, []).append(j)
    c_hat = np.array([[rho / (rho - 1.0)] for rho, _ in keys])
    c_tail = np.array([[rho ** (n + 1) / (rho - 1.0)] for rho, n in keys])
    c_one = np.array([[rho - 1.0] for rho, _ in keys])

    # flat scratch, viewed C-order at each block's size; the increments' buffer
    # holds each n's telescoped W_N - W_k once the product has read them
    rows = min(BLOCK_ROWS, len(w))
    d_buf, excess_buf = np.empty(rows * (top + 1)), np.empty(rows)
    rhs_buf, lhs_buf, tmp_buf = np.empty(len(weights) * rows), np.empty(k * rows), np.empty(k * rows)
    maxima, block_max = np.full((2, 3, k), -np.inf)
    for lo, hi in _blocks(len(w)):
        size = hi - lo
        w_block, w_proxy = w[lo:hi], w[lo:hi, n_max]
        d = _increments(w_block, top, d_buf.reshape(rows, top + 1))
        rhs = np.matmul(weights, d.T, out=rhs_buf[: len(weights) * size].reshape(-1, size))[:k]
        lhs, tmp = lhs_buf[: k * size].reshape(k, size), tmp_buf[: k * size].reshape(k, size)
        for n, js in by_n.items():
            telescoped = np.subtract(w_proxy[:, None], w_block[:, : n + 1],
                                     out=d_buf[: size * (n + 1)].reshape(size, n + 1))
            for j in js:
                np.matmul(telescoped, lhs_weights[j], out=lhs[j])
        # rho/(rho-1) A_hat_n + rho^{n+1}/(rho-1) (W_N - W_{n+1}) - (W_N - 1)/(rho-1)
        rhs *= c_hat
        for j, (_, n) in enumerate(keys):
            np.subtract(w_proxy, w_block[:, n + 1], out=tmp[j])
        tmp *= c_tail
        rhs += tmp
        rhs -= np.divide(np.subtract(w_proxy, 1.0, out=excess_buf[:size]), c_one, out=tmp)
        for i, x in enumerate((np.subtract(lhs, rhs, out=tmp), lhs, rhs)):
            np.max(np.abs(x, out=x), axis=1, out=block_max[i])
        np.maximum(maxima, block_max, out=maxima)
    diff, lhs_max, rhs_max = maxima.tolist()
    batch.residuals = {key: diff[j] / max(1.0, lhs_max[j], rhs_max[j]) for j, key in enumerate(keys)}
    return batch.residuals


def increment_identity_check(batch: TrajectoryBatch, rho: float, n: int) -> float:
    """Largest relative residual of the accumulator identity across replicas.

    From the batch's slot (see identity_residuals), else a one-key pass that
    replaces it.
    """
    if not (math.isfinite(rho) and rho > 1.0):
        raise ParameterError(f"identity requires a finite rho > 1, got {rho}")
    if not 0 <= n < batch.n_max - 1:
        raise ParameterError(f"need 0 <= n < {batch.n_max - 1}")
    residual = batch.residuals.get((rho, n))
    return identity_residuals(batch, [(rho, n)])[rho, n] if residual is None else residual
