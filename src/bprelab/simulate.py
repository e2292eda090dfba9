"""Monte Carlo trajectory engine for (Z_n, W_n) paths and their per-block reductions.

Replicas are simulated in blocks of BLOCK_ROWS rows. Block b draws from its
own generator seeded by ``SeedSequence(master_seed, spawn_key=(b,))``, so a
batch depends only on its config, not on which process draws a block. The
blocks are dealt round-robin to min(usable CPUs, blocks) workers, the calling
process and ``os.fork`` children, which write status, status_gen and the
batch's partial results into one shared anonymous mapping; a batch is
bit-identical at any worker count and at any ``threads`` value. One
function (``_block_filler``) owns a block's simulation: its stream, its
states and its draws. Workers are processes, not threads. numpy's
multinomial sampler releases the GIL (on numpy 2.4.6 a pure-Python thread
kept about half its idle pace during a call), but a two-thread ``run`` took
no less wall time on the bundled configs, and its second worker's buffers
raised the process's peak RSS by 2.4-3.9 MB (6-9%); a forked child's count
in its own process. Workers are forked, not spawned, because a spawned
interpreter would pay a fresh numpy import, a large share of a batch's time.

Within a block, an annealed batch first draws every row's environment states
by the mixture's one state draw, ``IIDMixture.draw_states``: the uniforms
``Generator.choice`` would draw, as generation-major one-byte law indices. A
one-state mixture needs no draw, so it advances the stream past those
uniforms instead.
Every block then draws each generation by one rule: the laws in index order,
each drawing its live rows, in row order, with one multinomial call against
its union-support pmf row; a point mass skips the call and advances the
stream as far as it would go. Where every row shares its path (a quenched
path, a one-state mixture) that is one law over every live row, and log P_n
is one scalar; else each live row's log P_n is one running vector of the law
log means. The live rows are a slice until the first row stops and an index
after. Where at most one law of a generation consumes the stream (every
shared block, and a mixture in which every law but one is a point mass at
the largest offspring value), the stream is that of a draw row by row; where
two do, it runs law by law. Generation totals are drawn exactly
(multinomial category counts of the parent population dotted with the
support, which is the exact law of the sum of per-individual draws);
populations above pop_cap stop simulating and are flagged.

Every estimate is a reduction that splits by row, so one reducer
(``_reduce_block``) turns a block into partials: per-block sums for
moments and brackets, per-block maxima for the accumulator identity. It is
one loop over the block's PRODUCT_ROWS-row sub-blocks that reduces every key
in each, so it holds no array of a whole block's rows. Every sum key has one
layout and one rule: K values x per row, summed over the uncapped rows, with
their Gram matrix x x^T. A moment key is reduced with its whole family, the
same p and gap at every n, whose x_n = |W_{n+gap} - W_n|^p; an estimate's
stderr and the covariance between a fit's points follow from its sums. A
bracket's x is its two sides, |A_hat_n(rho)|^p and Q_n(rho)^p. Each block's
sums are written by the one worker that reduced it, so no sum depends on
which worker that was. ``run`` has each worker fill one private
generation-major block at a time and reduce it there, so no w matrix is
ever held. A stored batch, loaded from a dump or built by hand, holds its
w; ``reduce_batch`` runs the same reducer over its stored blocks. The keys
are tagged tuples: ("moment", p, n, gap), ("bracket", p, rho, n) and
("identity", rho, n); ``_refusal`` owns their domains.
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
# the least batch sizes, which SimConfig and the config loader both hold
BATCH_MINIMUMS = {"n_max": 1, "replicas": 1, "pop_cap": 1000}

# the reducer's key kinds: ("moment", p, n, gap), ("bracket", p, rho, n), ("identity", rho, n)
MOMENT, BRACKET, IDENTITY = "moment", "bracket", "identity"
# rows of one reducer matrix product: below OpenBLAS's threading threshold at every bundled size
PRODUCT_ROWS = 1024

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
    replica its own i.i.d. path from its block's stream. The reductions a
    batch is reduced at are run's, not the config's. run ignores rho_grid;
    bprelab itself leaves it empty, and the field remains only because the
    benchmark under bench/ still sets it, and goes with that use.
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
        for name, least in BATCH_MINIMUMS.items():
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be >= {least}")
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
    """Simulated W_n trajectories, reduced or stored.

    A batch from run is reduced: its w and a_hat have no rows, its partials
    hold the keys declared to run, and status and status_gen every row. A
    stored batch, loaded from a dump or built by hand, holds w[i, n], replica
    i's W_n for n = 0..n_max, in any order. partials maps each reducer key
    to its per-block sums or maxima (see _outputs).
    a_hat[i, j, n] is A_hat_n(rho_j) = sum_{k<=n} rho_j^k (W_{k+1} - W_k)
    for n = 0..n_max-1 over rho_grid; no batch of bprelab's fills it, and
    rho_grid and a_hat remain only because the benchmark under bench/ still
    builds and reads them, and go with that use.
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
    partials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # partials are reduced from w, so w must not change under them
        self.w.flags.writeable = False

    @property
    def uncapped(self) -> np.ndarray:
        return self.status != STATUS_CAPPED

    @property
    def capped_fraction(self) -> float:
        return float(np.mean(self.status == STATUS_CAPPED))

    def save(self, path) -> None:
        """Versioned binary dump (npz) of a stored batch; a batch with no w rows raises
        ParameterError, since its partials are not dumped."""
        if not len(self.w):
            raise ParameterError("only a batch that stores w can be saved; a reduced batch holds partials")
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


def _simulate_block(rng: np.random.Generator, states: np.ndarray, support: np.ndarray,
                    pvals: np.ndarray, log_means: np.ndarray, pop_cap: int, w: np.ndarray,
                    status: np.ndarray, status_gen: np.ndarray) -> None:
    """Fill one block's rows, one multinomial call per generation and law over its live rows.

    states[n] is the law of generation n: one index into pvals and log_means
    for every row when states is 1-D (a shared path: a quenched path or a
    one-state mixture), else one index per row. Every generation follows one
    rule: the laws in index order, each drawing its live rows, in row order,
    against its one union-support pmf row; a point mass skips the draw and
    advances the stream as far as the draw would. log P_n runs generation by
    generation, as a cumulative sum would: one scalar on a shared path, else
    one vector over the live rows, and exp(-log P_n) is taken on those only.
    Rows that die out or pass pop_cap stay frozen; the live rows are a slice
    until the first row stops, then an index. The slice is kept for speed: a
    batch whose least offspring count is 1 and that stays under pop_cap (both
    of two-state's) never stops a row, and an index from the start fills its
    blocks 13-24% slower. w[:, 0], status and status_gen arrive holding 1,
    completed and -1.
    """
    shared = states.ndim == 1
    log_p = 0.0 if shared else np.zeros(len(status))
    live = slice(None)
    z = np.ones(len(status), dtype=np.int64)
    for n in range(len(states)):
        # frozen rows carry their last value; while every row lives, the draw writes the column
        if not isinstance(live, slice):
            w[:, n + 1] = w[:, n]
        if not z.size:
            continue
        law = states[n] if shared else states[n, live]
        log_p += log_means[law]
        for k in [law] if shared else range(len(pvals)):
            rows = slice(None) if shared else np.flatnonzero(law == k)
            # a point mass gives multinomial's counts without it, then skips its one double a row
            # (none where the mass is the support's last value)
            mass, parents = np.flatnonzero(pvals[k]), z[rows]
            z[rows] = rng.multinomial(parents, pvals[k]) @ support if len(mass) > 1 else parents * support[mass[0]]
            if len(mass) == 1 and mass[0] < len(support) - 1:
                rng.bit_generator.advance(len(parents))
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


def _fork_worker(work, worker: int) -> int:
    """Fork a child that runs work(worker) and leaves by os._exit; returns its pid.

    The child exits 0 on success, else 1 after writing its traceback to fd 2.
    It never returns into the caller, flushes the parent's inherited stdio
    buffers or runs atexit hooks, so nothing the parent printed is repeated.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        work(worker)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _block_filler(cfg: SimConfig):
    """The path every row of cfg's batch shares (None for an annealed batch), and
    fill(block, w, status, status_gen), which simulates the rows of block number block into them.

    The law table and log means are built once per batch. fill seeds the
    block's stream, chooses or draws its states (see the module docstring) and
    hands them to _simulate_block; w holds the block's W_n, w[i, n], and
    status and status_gen may arrive holding anything.
    """
    shared = quenched_path(cfg.env, cfg.n_max, cfg.path_seed) if cfg.mode == MODE_QUENCHED else None
    laws = cfg.env.states if shared is None else shared.laws
    support, pvals = _law_table(laws)
    log_means = np.array([law.log_mean for law in laws])
    # the one law index per generation where every row shares its path: law n
    # of a quenched path at generation n, law 0 of a one-state mixture throughout
    path_states = np.arange(cfg.n_max) if shared is not None else np.zeros(cfg.n_max, dtype=np.intp)

    def fill(block: int, w: np.ndarray, status: np.ndarray, status_gen: np.ndarray) -> None:
        w[:, 0], status[:], status_gen[:] = 1.0, STATUS_COMPLETED, -1
        rng = np.random.default_rng(cfg.block_seed(block))
        states = path_states
        if shared is None and len(laws) == 1:
            # every row draws the one law; skip the one double per state that choice would take
            rng.bit_generator.advance(len(status) * cfg.n_max)
        elif shared is None:
            states = cfg.env.draw_states(rng, len(status), cfg.n_max)
        _simulate_block(rng, states, support, pvals, log_means, cfg.pop_cap, w, status, status_gen)

    return shared, fill


def run(cfg: SimConfig, threads: int = 1, reductions=()) -> TrajectoryBatch:
    """Simulate the batch block by block, each block from its own seed stream, and reduce it.

    Blocks go round-robin to min(usable CPUs, blocks) workers: this process
    takes blocks 0, k, 2k, ... and forked children the others. Each worker
    fills one private block at a time (see _block_filler), reduces it (see
    reduce_batch) and writes its statuses and the partials of the keys inside
    the reducer's domain, each moment key with its family, into one shared
    mapping; every child is reaped before run returns or raises, and a failed
    child raises SimulationError. Since each block has its own stream, the
    output is bit-identical at any worker count. The batch holds status,
    status_gen and those partials, and a w of no rows. threads must be >= 1
    and is otherwise ignored, as is cfg.rho_grid.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    keys = [key for key in dict.fromkeys(reductions) if _refusal(key, cfg.n_max) is None]
    shared, fill = _block_filler(cfg)
    replicas, n_max = cfg.replicas, cfg.n_max
    status_gen, status, out = _outputs(keys, replicas, n_max)
    starts = range(0, replicas, BLOCK_ROWS)
    workers = min(_usable_cpus(), len(starts))

    def work(worker: int) -> None:
        private = np.empty((n_max + 1, BLOCK_ROWS))
        for block in range(worker, len(starts), workers):
            lo = starts[block]
            hi = min(lo + BLOCK_ROWS, replicas)
            rows = private[:, : hi - lo].T
            fill(block, rows, status[lo:hi], status_gen[lo:hi])
            _reduce_block(rows, block, status[lo:hi], out)

    children: list[int] = []
    try:
        for worker in range(1, workers):
            children.append(_fork_worker(work, worker))
        work(0)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    failed = {worker: code for worker, code in enumerate(codes, 1) if code}
    if failed:
        raise SimulationError(
            f"{len(failed)} of {workers - 1} forked simulation workers failed "
            f"(exit status by worker: {failed}); each printed its traceback to stderr")

    batch = TrajectoryBatch(
        mode=cfg.mode,
        n_max=n_max,
        replicas=replicas,
        master_seed=cfg.master_seed,
        pop_cap=cfg.pop_cap,
        rho_grid=(),
        w=np.empty((0, n_max + 1)),
        a_hat=np.empty((0, 0, n_max)),
        status=status,
        status_gen=status_gen,
        path=shared,
    )
    batch.partials.update(out)
    return batch


def _weights(keys, top: int) -> np.ndarray:
    """The matrix of rho^k [k <= n] over k <= top, one row per (rho, n) key, and a zero row
    after a lone key.

    A narrow product rounds an entry by the product's other rows: numpy hands
    a one-row or one-column product to a matrix-vector kernel, and on
    OpenBLAS 0.3.31 (Haswell kernels) a product 1-3 columns past a multiple
    of 8, below about 40 columns, runs edge kernels that do the same. So the
    reducer multiplies at least two rows of weights by PRODUCT_ROWS columns,
    those past a partial sub-block's rows zero and unread, and a key's values
    do not depend on the other keys reduced with it.
    """
    rows = [[rho**k if k <= n else 0.0 for k in range(top + 1)] for rho, n in keys]
    return np.array(rows + [[0.0] * (top + 1)] * (len(rows) == 1))


def _refusal(key, n_max: int) -> str | None:
    """The reducer's key domain: None for a key inside it, else the refusal.

    A moment needs 0 <= n <= n + gap <= n_max, a bracket a finite rho >= 1 and
    0 <= n < n_max, an identity a finite rho > 1 and 0 <= n < n_max - 1: the
    one statement of each domain, which the harness reads too.
    """
    kind, *args = key
    if kind == MOMENT:
        inside = 0 <= args[1] <= args[1] + args[2] <= n_max
        return None if inside else f"a moment needs 0 <= n <= n + gap <= {n_max}; got {key}"
    (rho, n), bracket = args[-2:], kind == BRACKET
    inside = math.isfinite(rho) and (rho >= 1.0 if bracket else rho > 1.0) and 0 <= n < n_max - (not bracket)
    return None if inside else (f"a {kind} needs a finite rho {'>=' if bracket else '>'} 1 and "
                                f"0 <= n < {n_max - (not bracket)}; got ({rho}, {n})")


def _outputs(keys, replicas: int, n_max: int) -> tuple:
    """status_gen, status and the partials of keys, each moment key with its whole family, as views
    of one anonymous mapping that forked children share.

    A sum key holds per block a K x (K + 1) array: row k the block's sum of
    x_k, then its products with each x_j (see _reduce_block). K is 2 for a
    bracket's two sides; a moment's family, whose K keys share one view, is
    the keys (MOMENT, p, m, gap), m = 0..n_max - gap, fixed by p, gap and
    n_max alone, so a key's partials do not depend on the keys reduced with
    it. An identity holds three maxima per block. The float64 views come
    first, so every view is aligned. A page is first touched by the worker
    that writes it, so each worker faults in its own pages, and a view
    nobody writes costs no memory.
    """
    blocks = -(-replicas // BLOCK_ROWS)
    owners = list(dict.fromkeys((MOMENT, key[1], 0, key[3]) if key[0] == MOMENT else key for key in keys))
    sides = [n_max - key[3] + 1 if key[0] == MOMENT else 2 for key in owners]
    shapes = [(blocks, 3) if key[0] == IDENTITY else (blocks, k, k + 1) for key, k in zip(owners, sides)]
    sizes = [math.prod(shape) for shape in shapes]
    starts = np.cumsum([0] + sizes).tolist()  # each view's first float, then the float count
    # an anonymous mmap is MAP_SHARED by default: a child's writes land in the parent's pages
    buf = mmap.mmap(-1, 8 * starts[-1] + 5 * replicas)
    values = np.frombuffer(buf, dtype=np.float64, count=starts[-1])
    status_gen = np.frombuffer(buf, dtype=np.int32, count=replicas, offset=8 * starts[-1])
    status = np.frombuffer(buf, dtype=np.int8, count=replicas, offset=8 * starts[-1] + 4 * replicas)
    out = {}
    for key, shape, size, at in zip(owners, shapes, sizes, starts):
        members = [(MOMENT, key[1], m, key[3]) for m in range(shape[1])] if key[0] == MOMENT else [key]
        out.update(dict.fromkeys(members, values[at : at + size].reshape(shape)))
    return status_gen, status, out


def _add_sums(x: np.ndarray, p: float, capped: np.ndarray, sums: np.ndarray) -> None:
    """Raise |x| to the power p in place, zero its capped columns and add its row sums to
    sums[..., 0] and its Gram matrix x x^T to sums[..., 1:]: the one sum rule, for a moment
    family's K rows and for keys side by side along leading axes."""
    np.abs(x, out=x)
    x **= p
    x[..., capped] = 0.0
    sums[..., 0] += x.sum(axis=-1)
    sums[..., 1:] += x @ np.swapaxes(x, -1, -2)


def _reduce_block(w: np.ndarray, block: int, status: np.ndarray, out: dict) -> None:
    """Reduce block number block, whose W_n is w[i, n], into the views out.

    One loop takes PRODUCT_ROWS rows at a time and reduces every key there,
    so no array holds more rows than that. A sum key (see _outputs) adds
    its row values' sums and Gram matrix over the uncapped rows (_add_sums):
    a moment family, reduced at its key of n = 0, has x_m = |W_{m+gap} -
    W_m|^p (W_m^p at gap 0) for every m, and a bracket its two sides,
    |A_hat_n(rho)|^p and Q_n(rho)^p, with its p's other brackets alongside.
    A_hat_n of each bracket and identity, and Q_n^2, are matrix products of
    the C-order increments W_{k+1} - W_k with the keys' _weights and their
    squares. An identity keeps its maxima over the rows of |A_n - rhs|,
    |A_n| and |rhs|: A_n = sum_{k<=n} rho^k (W_N - W_k), N = n_max, is the
    product of its _weights with the C-order W_N - W_k, and rhs = rho/(rho-1)
    A_hat_n + rho^{n+1}/(rho-1) (W_N - W_{n+1}) - (W_N - 1)/(rho-1) follows
    the formula's order. A moment family adds into its view; bracket sums
    and identity maxima gather over the sub-blocks and are written once.
    """
    families = [key for key in out if key[0] == MOMENT and key[2] == 0]
    powers = list(dict.fromkeys(key[1] for key in out if key[0] == BRACKET))
    brackets = [key for p in powers for key in out if key[:2] == (BRACKET, p)]  # each p's keys side by side
    identities = [key for key in out if key[0] == IDENTITY]
    ps, top = [key[1] for key in brackets], max([key[-1] for key in brackets + identities], default=0)
    weights, identity_weights = (_weights([key[-2:] for key in keys], top) for keys in (brackets, identities))
    coefs = np.array([[rho / (rho - 1.0), rho ** (n + 1) / (rho - 1.0), rho - 1.0] for _, rho, n in identities])
    sums, maxima = np.zeros((len(brackets), 2, 3)), np.zeros((len(identities), 3))
    d, t = np.zeros((top + 1, PRODUCT_ROWS)), np.zeros((top + 1, PRODUCT_ROWS))  # full width: see _weights
    for at in range(0, len(w), PRODUCT_ROWS):
        rows = slice(at, at + PRODUCT_ROWS)
        capped = status[rows] == STATUS_CAPPED
        size = len(capped)
        for _, p, _, gap in families:
            family = out[MOMENT, p, 0, gap][block]  # zero, as the mapping arrives
            _add_sums(np.subtract(w.T[gap:, rows], w.T[: len(family), rows] if gap else 0.0, order="C"),
                      p, capped, family)
        np.subtract(w.T[1 : top + 2, rows], w.T[: top + 1, rows], out=d[:, :size])
        if identities:
            w_n = w.T[-1, rows]
            np.subtract(w_n, w.T[: top + 1, rows], out=t[:, :size])
            rhs = (identity_weights @ d)[: len(identities), :size] * coefs[:, :1]
            rhs += (w_n - w.T[[n + 1 for *_, n in identities], rows]) * coefs[:, 1:2]
            rhs -= (w_n - 1.0) / coefs[:, 2:]
            a_n = (identity_weights @ t)[: len(identities), :size]
            for column, term in enumerate((a_n - rhs, a_n, rhs)):
                np.maximum(maxima[:, column], np.abs(term, out=term).max(axis=1), out=maxima[:, column])
            del rhs, a_n, term  # freed before the next sub-block allocates its own
        if brackets:  # squares d in place, so after the identities
            x = np.empty((len(brackets), 2, size))
            x[:, 0] = (weights @ d)[: len(brackets), :size]
            x[:, 1] = np.sqrt((np.square(weights) @ np.multiply(d, d, out=d))[: len(brackets), :size])
            for p in powers:
                group = slice(ps.index(p), ps.index(p) + ps.count(p))
                _add_sums(x[group], p, capped, sums[group])
    for key, row in zip(brackets + identities, [*sums, *maxima]):
        out[key][block] = row


def reduce_batch(batch: TrajectoryBatch, keys) -> list:
    """The keys inside the reducer's domain (see _refusal), once each; each is then in batch.partials.

    A batch that stores w reduces the keys it does not hold, each moment key
    with its whole family, in one pass over its stored blocks, through the
    reducer that run's workers use, into partials that run's allocator maps
    (its status views stay unwritten); a batch from run holds the keys handed
    to run, and their families, and raises ParameterError naming the first
    other key.
    """
    keys = [key for key in dict.fromkeys(keys) if _refusal(key, batch.n_max) is None]
    missing = [key for key in keys if key not in batch.partials]
    if missing and not len(batch.w):
        raise ParameterError(f"reduction {missing[0]} was not declared for this reduced batch")
    if missing:
        out = _outputs(missing, batch.replicas, batch.n_max)[2]
        for block, lo in enumerate(range(0, batch.replicas, BLOCK_ROWS)):
            _reduce_block(batch.w[lo : lo + BLOCK_ROWS], block, batch.status[lo : lo + BLOCK_ROWS], out)
        batch.partials.update(out)
    return keys


def partials(batch: TrajectoryBatch, key) -> np.ndarray:
    """batch.partials[key], reduced by reduce_batch; a key outside the reducer's domain raises ParameterError."""
    if refusal := _refusal(key, batch.n_max):
        raise ParameterError(refusal)
    reduce_batch(batch, [key])
    return batch.partials[key]


def increment_identity_check(batch: TrajectoryBatch, rho: float, n: int) -> float:
    """Largest relative residual of the accumulator identity across replicas.

    With W replaced by the proxy W_N, N = n_max, A_n = sum_{k<=n} rho^k
    (W_N - W_k) must equal rho/(rho-1) A_hat_n + rho^{n+1}/(rho-1)
    (W_N - W_{n+1}) - (W_N - 1)/(rho-1) exactly. The residual is the largest
    |A_n - rhs| over rows, relative to max(1, largest |A_n|, largest |rhs|),
    from the reducer's per-block maxima.
    """
    diff, lhs_max, rhs_max = partials(batch, (IDENTITY, rho, n)).max(axis=0).tolist()
    return diff / max(1.0, lhs_max, rhs_max)
