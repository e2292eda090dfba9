"""Monte Carlo reductions: norms, decay fits, the sandwich, rate diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from bprelab import (
    EstimateUnavailableError,
    FitUnavailableError,
    IIDMixture,
    OffspringLaw,
    ParameterError,
    SimConfig,
    increment_identity_check,
    run,
)
from bprelab import relations
from stored import stored_batch
from bprelab.estimators import (
    N_BATCHES,
    LpEstimate,
    burkholder_constants,
    burkholder_sandwich,
    fit_decay,
    lp_norm,
    w_moment,
)
from bprelab.simulate import (
    BLOCK_ROWS,
    BRACKET,
    IDENTITY,
    MOMENT,
    STATUS_CAPPED,
    partials,
    piece_grid,
    reduce_batch,
)


def bracket_keys(ps, rhos, ns):
    """The reducer's bracket key at each p, rho and n, in that order."""
    return [(BRACKET, p, rho, n) for p in ps for rho in rhos for n in ns]


def gw_tail(n):
    """Exact E|W - W_n|^2 for the binary law: q1 = 2/3, b2 = 1/3."""
    return (2 / 3) ** n


def synthetic_estimates(
    rho=1.25, p=2.0, count=10, scale=1.0, rel_err=1e-6, gap=20, bias_bound=0.0
):
    out = []
    for n in range(count):
        value = scale * rho ** (-p * n)
        out.append(
            LpEstimate(
                p=p, n=n, value=value, stderr=rel_err * value, proxy_gap=gap,
                capped_fraction=0.0, replicas_used=1000, bias_bound=bias_bound,
            )
        )
    return out


@pytest.fixture(scope="module")
def capped_batch():
    cfg = SimConfig(
        env=IIDMixture([OffspringLaw({4: 1.0})], [1.0]),
        mode="annealed",
        n_max=10,
        replicas=150,
        master_seed=1,
        pop_cap=1000,
    )
    return stored_batch(cfg)


@pytest.fixture(scope="module")
def partly_capped_batch():
    """Binary-law batch whose cap stops most rows but leaves more than 100 uncapped."""
    cfg = SimConfig(
        env=IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0]),
        mode="annealed",
        n_max=20,
        replicas=600,
        master_seed=1,
        pop_cap=1000,
    )
    return stored_batch(cfg)


def batch_means(x, kept=None):
    """Plain numpy: the mean of each of np.array_split's chunks of all rows, over its kept rows."""
    kept = np.ones(len(x), dtype=bool) if kept is None else kept
    parts = zip(np.array_split(x, min(N_BATCHES, len(x))), np.array_split(kept, min(N_BATCHES, len(x))))
    return np.array([chunk[used].mean() for chunk, used in parts if used.any()])


def mean_and_stderr(x, kept=None):
    """Plain numpy: the mean over the kept rows (all where None) and the stderr of the batch means."""
    means = batch_means(x, kept)
    return float(np.mean(x if kept is None else x[kept])), float(np.std(means, ddof=1) / math.sqrt(len(means)))


class TestCappedRows:
    """Every reduction uses exactly the rows whose status is not capped."""

    def test_lp_norm_and_w_moment(self, partly_capped_batch):
        b = partly_capped_batch
        kept, w = b.status != STATUS_CAPPED, b.w
        assert 100 <= kept.sum() < b.replicas
        for p, n, gap in ((2.0, 10, 8), (1.5, 3, 12)):
            est = lp_norm(b, p, n, gap)
            assert_close((est.value, est.stderr), mean_and_stderr(np.abs(w[:, n + gap] - w[:, n]) ** p, kept))
            assert est.replicas_used == kept.sum()
        for p, n in ((2.0, 18), (1.5, 7)):
            est = w_moment(b, p, n)
            assert_close((est.value, est.stderr), mean_and_stderr(w[:, n] ** p, kept))
        # the capped rows would change the answer
        assert lp_norm(b, 2.0, 10, 8).value != float(np.mean((b.w[:, 18] - b.w[:, 10]) ** 2))

    def test_burkholder_sandwich(self, partly_capped_batch):
        b = partly_capped_batch
        kept = b.status != STATUS_CAPPED
        rho, n = 1.1, 12
        a, q2 = fsum_sums(b, rho, n)
        for p in (1.5, 2.0):
            check = burkholder_sandwich(b, p, rho, n)
            assert_close((check.a_norm, check.a_stderr), norm_and_stderr(a, p, kept))
            assert_close((check.q_norm, check.q_stderr), norm_and_stderr(np.sqrt(q2), p, kept))


def norm_and_stderr(x, p, kept=None):
    """Plain numpy: (mean |x|^p)^(1/p) over the kept rows and its delta-method stderr."""
    m, se = mean_and_stderr(np.abs(x) ** p, kept)
    norm = m ** (1 / p)
    return norm, se * norm / (p * m)


def assert_close(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def fsum_sums(b, rho, n):
    """A_hat_n(rho) and Q_n(rho)^2 on every row by math.fsum."""
    terms = rho ** np.arange(n + 1) * np.diff(b.w[:, : n + 2], axis=1)
    a = np.array([math.fsum(row) for row in terms.tolist()])
    q2 = np.array([math.fsum(row) for row in (terms * terms).tolist()])
    return a, q2


@pytest.fixture(scope="module", params=[1000, 10_000_000], ids=["partly-capped", "uncapped"])
def seam_batch(request):
    """Binary-law batch of two full row blocks and a one-row partial block."""
    cfg = SimConfig(
        env=IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0]),
        mode="annealed",
        n_max=20,
        replicas=2 * BLOCK_ROWS + 1,
        master_seed=1,
        pop_cap=request.param,
    )
    return stored_batch(cfg)


def seam_kept(b):
    """The uncapped rows; a cap of 1000 must stop rows in a full block and the partial one."""
    kept = b.status != STATUS_CAPPED
    if b.pop_cap == 1000:
        assert not kept[:BLOCK_ROWS].all() and not kept[-1] and kept.sum() >= 100
    else:
        assert kept.all()
    return kept


class TestBlockSeams:
    """One pass over row blocks matches a per-row fsum oracle; the rows-used index equals numpy."""

    SANDWICH_KEYS = ((1.1, 3), (1.3, 12), (1.0, 19))
    IDENTITY_KEYS = ((1.1, 1), (1.3, 9), (1.2, 18))

    def test_burkholder_sandwich(self, seam_batch):
        b = seam_batch
        kept = seam_kept(b)
        for rho, n in self.SANDWICH_KEYS:
            a, q2 = fsum_sums(b, rho, n)
            for p in (1.5, 2.0):
                check = burkholder_sandwich(b, p, rho, n)
                assert_close((check.a_norm, check.a_stderr), norm_and_stderr(a, p, kept))
                assert_close((check.q_norm, check.q_stderr), norm_and_stderr(np.sqrt(q2), p, kept))

    def test_identity_residual(self, seam_batch):
        b = seam_batch
        w = b.w
        for rho, n in self.IDENTITY_KEYS:
            a_hat_n = fsum_sums(b, rho, n)[0]
            telescoped = rho ** np.arange(n + 1) * (w[:, -1:] - w[:, : n + 1])
            lhs = np.array([math.fsum(row) for row in telescoped.tolist()])
            rhs = (
                rho / (rho - 1.0) * a_hat_n
                + rho ** (n + 1) / (rho - 1.0) * (w[:, -1] - w[:, n + 1])
                - (w[:, -1] - 1.0) / (rho - 1.0)
            )
            scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
            # the identity holds on the oracle's sums, and on the batch's to rounding
            assert float(np.abs(lhs - rhs).max() / scale) <= 1e-13
            assert increment_identity_check(b, rho, n) <= 1e-13

    def test_lp_norm_and_w_moment(self, seam_batch):
        b = seam_batch
        kept = seam_kept(b)
        for p, n, gap in ((2.0, 10, 8), (1.5, 0, 20)):
            est = lp_norm(b, p, n, gap)
            x = np.abs(b.w[:, n + gap] - b.w[:, n]) ** p
            assert_close((est.value, est.stderr), mean_and_stderr(x, kept))
            assert est.replicas_used == kept.sum()
        for p, n in ((2.0, 20), (1.5, 7)):
            est = w_moment(b, p, n)
            assert_close((est.value, est.stderr), mean_and_stderr(b.w[:, n] ** p, kept))


class TestPlainNumpy:
    """Every value, stderr and batch mean of the block-grid sums agrees with plain numpy within 1e-12."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_values_stderrs_and_batch_means(self, seam_batch, p):
        b = seam_batch
        kept, w = seam_kept(b), b.w
        for n, gap in ((0, 20), (10, 8), (19, 1)):
            est, x = lp_norm(b, p, n, gap), np.abs(w[:, n + gap] - w[:, n]) ** p
            assert_close((est.value, est.stderr), mean_and_stderr(x, kept))
            assert_close(list(est.batch_values), list(batch_means(x, kept)))
        for n in (0, 7, 20):
            est = w_moment(b, p, n)
            assert_close((est.value, est.stderr), mean_and_stderr(w[:, n] ** p, kept))
            assert_close(list(est.batch_values), list(batch_means(w[:, n] ** p, kept)))
        for rho, n in ((1.0, 19), (1.3, 12)):
            a_hat, q2 = fsum_sums(b, rho, n)
            check = burkholder_sandwich(b, p, rho, n)
            assert_close((check.a_norm, check.a_stderr), norm_and_stderr(a_hat, p, kept))
            assert_close((check.q_norm, check.q_stderr), norm_and_stderr(np.sqrt(q2), p, kept))


def assert_bit_equal(got, want):
    """Two results of one estimator hold the same fields, arrays and floats alike, bit for bit."""
    for key, value in vars(want).items():
        assert np.array_equal(getattr(got, key), value), key


def fresh(b):
    """b without the partials it holds, so its next read reduces again."""
    return dataclasses.replace(b)


class TestKeysReducedTogether:
    """A bracket's fields do not depend on the other keys reduced with it, bit for bit."""

    PS, RHOS = (1.5, 2.0), (1.0, 1.1, 1.3)

    def test_fields_match_lone_key_reductions(self, seam_batch):
        b = fresh(seam_batch)
        ns = (0, 12, b.n_max - 1)
        seam_kept(b)
        together = relations.sandwiches(b, bracket_keys(self.PS, self.RHOS, ns))
        # one rho: every reduction holds one (rho, n) per n
        lone = {rho: relations.sandwiches(fresh(b), bracket_keys(self.PS, (rho,), ns)) for rho in self.RHOS}
        order = [(p, rho, n) for p in self.PS for rho in self.RHOS for n in ns]
        assert [item.suffix for item in together] == [
            f"{relations.p_tag(p)}.rho{rho:.4g}.n{n}" for p, rho, n in order]
        for item, (p, rho, n) in zip(together, order):
            want = burkholder_sandwich(fresh(b), p, rho, n)
            assert_bit_equal(item.detail, want)
            assert item.passed == want.ok
            assert item.observed == {"a_norm": want.a_norm, "lower": want.lower, "upper": want.upper}
            assert_bit_equal(lone[rho][self.PS.index(p) * len(ns) + ns.index(n)].detail, want)


class TestLayout:
    """A stored batch's generation-major w reduces as a row-major copy of it does."""

    def test_reductions_match_a_row_major_copy(self, seam_batch):
        b = fresh(seam_batch)
        assert b.w.T.flags.c_contiguous
        copy = dataclasses.replace(b, w=np.ascontiguousarray(b.w))
        assert copy.w.flags.c_contiguous and copy.partials == {}
        # the reducer reads its increments into C-order blocks, whatever w's layout; the second
        # key set is a lone (rho, n), whose product is padded to two weight rows
        for keys in ([(BRACKET, 2.0, rho, n) for rho in (1.0, 1.1, 1.3) for n in range(b.n_max)]
                     + [(MOMENT, 1.5, n, 3) for n in range(b.n_max - 2)]
                     + [(IDENTITY, 1.2, n) for n in range(b.n_max - 1)],
                     [(BRACKET, 1.5, 1.3, 12)]):
            assert reduce_batch(copy, keys) == reduce_batch(b, keys) == keys
            for key in keys:
                assert np.array_equal(copy.partials[key], b.partials[key]), key
        for p, n, gap in ((2.0, 10, 8), (1.5, 0, 20), (3.0, 19, 1)):
            assert_bit_equal(lp_norm(copy, p, n, gap), lp_norm(b, p, n, gap))
        for p, n in ((2.0, 20), (1.5, 7), (0.5, 0)):
            assert_bit_equal(w_moment(copy, p, n), w_moment(b, p, n))
        for p, rho, n in ((2.0, 1.1, 3), (1.5, 1.3, 12), (2.0, 1.0, 19)):
            assert_bit_equal(burkholder_sandwich(copy, p, rho, n), burkholder_sandwich(b, p, rho, n))
        for rho, n in ((1.1, 1), (1.3, 9), (1.2, 18)):
            assert increment_identity_check(copy, rho, n) == increment_identity_check(b, rho, n)


class TestPieceGrid:
    @pytest.mark.parametrize("length", [1, 2, 29, 30, 31, 59, 101, 1000, 4097, 19_999, 99_871, 100_000])
    def test_pieces_split_array_split_chunks_at_block_starts(self, length):
        bounds, firsts = piece_grid(length)
        chunks = np.array_split(np.arange(length), min(N_BATCHES, length))
        assert bounds[0] == 0 and bounds[-1] == length and np.all(np.diff(bounds) > 0)
        assert set(range(0, length, BLOCK_ROWS)) | {c[0] for c in chunks} == set(bounds[:-1].tolist())
        assert len(firsts) == len(chunks) + 1 and firsts[-1] == len(bounds) - 1
        for chunk, first, end in zip(chunks, firsts, firsts[1:]):
            # a chunk's pieces tile it, each inside one block
            assert (bounds[first], bounds[end]) == (chunk[0], chunk[-1] + 1)
            for lo, hi in zip(bounds[first:end], bounds[first + 1 : end + 1]):
                assert lo // BLOCK_ROWS == (hi - 1) // BLOCK_ROWS

    def test_one_block_batch_means_are_array_splits_bit_for_bit(self, gw_batch):
        # a chunk inside one block is one piece: its pairwise sum is numpy's
        b = fresh(gw_batch)
        assert b.replicas <= BLOCK_ROWS
        x = np.abs(b.w[:, 12] - b.w[:, 2]) ** 2.0
        est = lp_norm(b, 2.0, 2, 10)
        assert np.array_equal(est.batch_values, [c.mean() for c in np.array_split(x, N_BATCHES)])


class TestNorms:
    def test_lp_norm_matches_exact_curve(self, gw_batch):
        for n, gap in ((2, 10), (5, 15)):
            est = lp_norm(gw_batch, 2.0, n, gap)
            exact = gw_tail(n) - gw_tail(n + gap)
            assert est.stderr > 0
            assert abs(est.value - exact) < 4 * est.stderr
            assert est.proxy_gap == gap
            assert len(est.batch_values) == 30

    def test_w_moment_matches_exact_curve(self, gw_batch):
        # E W_n^2 = 1 + sum_{k<n} (2/3)^k / 3 = 2 - (2/3)^n
        est = w_moment(gw_batch, 2.0, 6)
        exact = 2 - (2 / 3) ** 6
        assert abs(est.value - exact) < 4 * est.stderr
        assert est.proxy_gap == 0

    def test_capped_replicas_are_excluded(self, capped_batch):
        with pytest.raises(EstimateUnavailableError, match="uncapped"):
            lp_norm(capped_batch, 2.0, 1, 5)

    def test_validation(self, gw_batch):
        with pytest.raises(ParameterError):
            lp_norm(gw_batch, 1.0, 2, 10)
        with pytest.raises(ParameterError):
            lp_norm(gw_batch, 2.0, 2, 0)
        with pytest.raises(ParameterError):
            lp_norm(gw_batch, 2.0, 20, 10)
        with pytest.raises(ParameterError):
            w_moment(gw_batch, 0.0, 2)
        with pytest.raises(ParameterError):
            w_moment(gw_batch, 2.0, 99)


class TestFitDecay:
    def test_recovers_exact_geometric_decay(self):
        fit = fit_decay(synthetic_estimates(rho=1.25))
        assert fit.fitted_rho == pytest.approx(1.25, rel=1e-9)
        assert fit.points_used == 10
        assert fit.window == (0, 9)
        assert fit.ci_method == "wls-cov"
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_scale_invariance(self):
        a = fit_decay(synthetic_estimates(scale=1.0))
        b = fit_decay(synthetic_estimates(scale=17.3))
        assert b.fitted_rho == pytest.approx(a.fitted_rho, rel=1e-12)
        assert b.window == a.window
        assert b.slope == pytest.approx(a.slope, rel=1e-12)

    def test_batch_curves_ci_used_when_batch_means_present(self):
        ests = synthetic_estimates()
        for e in ests:
            e.batch_values = np.full(30, e.value)
        fit = fit_decay(ests)
        assert fit.ci_method == "batch-curves"
        # identical batch curves: no spread, the CI collapses onto the fit
        assert fit.slope_se < 1e-12
        assert fit.ci_low == pytest.approx(fit.fitted_rho, rel=1e-9)
        assert fit.ci_high == pytest.approx(fit.fitted_rho, rel=1e-9)

    @pytest.mark.parametrize("spoil", ["zero-batch-mean", "unequal-lengths"])
    def test_wls_cov_ci_when_the_batch_means_form_no_curves(self, spoil):
        # a zero batch mean has no log, and batch means of two lengths do not line up into curves;
        # either way the fit is the one without batch means
        ests = synthetic_estimates()
        for e in ests:
            e.batch_values = e.value * np.linspace(0.9, 1.1, 30)
        if spoil == "zero-batch-mean":
            ests[4].batch_values[7] = 0.0
        else:
            ests[4].batch_values = ests[4].batch_values[:29]
        fit = fit_decay(ests)
        assert fit.ci_method == "wls-cov"
        assert fit == fit_decay(synthetic_estimates())

    def test_batch_curve_ci_widens_with_disagreeing_batches(self, gw_batch):
        ests = [lp_norm(gw_batch, 2.0, n, 12) for n in range(0, 9)]
        for e in ests:
            e.bias_bound = gw_tail(e.n + 12)
        fit = fit_decay(ests)
        assert fit.ci_method == "batch-curves"
        assert fit.slope_se > 0
        assert fit.ci_low < fit.fitted_rho < fit.ci_high
        # the true rate sqrt(3/2) should sit within a few widths of the fit
        assert abs(fit.fitted_rho - math.sqrt(1.5)) < 8 * (fit.ci_high - fit.ci_low)

    def test_bias_bound_excludes_contaminated_points(self):
        ests = synthetic_estimates()
        for e in ests[:3]:
            e.bias_bound = e.value  # bias as large as the value itself
        fit = fit_decay(ests)
        assert fit.window == (3, 9)
        assert fit.points_used == 7

    def test_heuristic_bias_uses_the_proxy_gap(self):
        # without explicit bounds the heuristic kicks in; gap 2 at rho 1.25
        # pegs the bias at 64% of the value, so no point is admissible
        with pytest.raises(FitUnavailableError, match="admissible"):
            fit_decay(synthetic_estimates(gap=2, count=8, bias_bound=None))
        # a generous gap keeps the same data fittable
        fit = fit_decay(synthetic_estimates(gap=20, count=8, bias_bound=None))
        assert fit.fitted_rho == pytest.approx(1.25, rel=1e-6)

    def test_first_of_two_longest_runs_is_fitted(self):
        ests = synthetic_estimates(count=9)
        ests[4].bias_bound = ests[4].value  # splits 0..8 into two admissible runs of 4
        fit = fit_decay(ests)
        assert fit.window == (0, 3)
        assert fit.points_used == 4

    def test_too_few_points(self):
        with pytest.raises(FitUnavailableError):
            fit_decay(synthetic_estimates(count=3))
        with pytest.raises(FitUnavailableError, match="no estimates"):
            fit_decay([])

    def test_roundoff_floor_blanks_degenerate_data(self):
        ests = synthetic_estimates()
        for e in ests:
            e.value = 1e-32
            e.stderr = 0.0
        with pytest.raises(FitUnavailableError):
            fit_decay(ests)

    def test_mixed_p_rejected(self):
        ests = synthetic_estimates()
        ests[0].p = 1.5
        with pytest.raises(ParameterError, match="mix"):
            fit_decay(ests)


class TestBurkholder:
    def test_constants_frozen(self):
        a2, b2 = burkholder_constants(2.0)
        assert a2 == pytest.approx(1 / (36 * math.sqrt(2)), rel=1e-14)
        assert b2 == pytest.approx(36 * math.sqrt(2), rel=1e-14)
        a3, b3 = burkholder_constants(3.0)
        assert a3 == pytest.approx(1 / (27 * math.sqrt(3)), rel=1e-14)
        assert b3 == pytest.approx(54 * math.sqrt(3) / math.sqrt(2), rel=1e-14)
        with pytest.raises(ParameterError):
            burkholder_constants(1.0)

    def test_sandwich_holds_on_binary_law(self, gw_batch):
        for p in (1.5, 2.0, 3.0):
            for rho in (1.1, 1.3):
                check = burkholder_sandwich(gw_batch, p, rho, 8)
                assert check.ok, (p, rho, vars(check))
                assert check.lower <= check.upper
                assert check.a_stderr > 0 and check.q_stderr > 0

    def test_trivial_pass_on_degenerate_batch(self, degenerate_batch):
        check = burkholder_sandwich(degenerate_batch, 2.0, 1.05, 5)
        assert check.ok
        assert check.a_norm <= 1e-10 and check.q_norm <= 1e-10
        assert check.lower == 0.0 and check.upper == 0.0

    def test_any_rho_on_a_batch_without_accumulators(self):
        # the partly capped batch, simulated without a rho grid
        b = stored_batch(SimConfig(env=IIDMixture([OffspringLaw({0: 0.25, 2: 0.75})], [1.0]), mode="annealed",
                                   n_max=20, replicas=600, master_seed=1, pop_cap=1000))
        assert b.a_hat.size == 0
        rho, n = 1.17, 12
        w = b.w[b.status != STATUS_CAPPED]
        a, q2 = np.zeros(len(w)), np.zeros(len(w))
        for k in range(n + 1):
            step = w[:, k + 1] - w[:, k]
            a += rho**k * step
            q2 += rho ** (2 * k) * step**2
        for p in (1.5, 2.0):
            check = burkholder_sandwich(b, p, rho, n)
            # the sandwich sums each row in a matrix product, this loop in k order
            assert_close(check.a_norm, float(np.mean(np.abs(a) ** p)) ** (1 / p))
            assert_close(check.q_norm, float(np.mean(q2 ** (p / 2))) ** (1 / p))
        assert burkholder_sandwich(b, 2.0, 1.0, n).ok
        for bad in (0.5, math.inf, math.nan):
            with pytest.raises(ParameterError, match="rho"):
                burkholder_sandwich(b, 2.0, bad, n)

    def test_validation(self, gw_batch, capped_batch):
        with pytest.raises(ParameterError):
            burkholder_sandwich(gw_batch, 2.0, 1.1, gw_batch.n_max)
        with pytest.raises(EstimateUnavailableError):
            burkholder_sandwich(capped_batch, 2.0, 1.2, 3)


@pytest.mark.parametrize("stored", [True, False], ids=["stored", "reduced"])
def test_a_moment_call_refuses_an_n_outside_the_reducers_domain(gw_env, stored):
    # the reducer's key domain refuses the n; the estimators refuse only a gap < 1 and their own p
    held = [(MOMENT, 2.0, 1, 2), (MOMENT, 2.0, 3, 0)]
    cfg = SimConfig(env=gw_env, mode="annealed", n_max=8, replicas=300, master_seed=4)
    b = stored_batch(cfg) if stored else run(cfg, reductions=held)
    assert reduce_batch(b, held) == held
    before = dict(b.partials)
    refused = [lambda: lp_norm(b, 2.0, -1, 2), lambda: lp_norm(b, 2.0, 7, 2), lambda: w_moment(b, 2.0, -1),
               lambda: w_moment(b, 2.0, 9), lambda: lp_norm(b, 2.0, 1, 0), lambda: lp_norm(b, 1.0, 1, 2)]
    for call in refused:
        with pytest.raises(ParameterError):
            call()
        assert b.partials == before
    assert lp_norm(b, 2.0, 1, 2).n == w_moment(b, 2.0, 3).n - 2 == 1


# each per-key call, the kind of key it reads, and that kind's domain: the rho values outside
# it and the first n past it (n = -1 is outside every domain)
PER_KEY_CALLS = {
    "partials": (lambda b, rho, n: partials(b, (BRACKET, 2.0, rho, n)), lambda rho, n: (BRACKET, 2.0, rho, n),
                 (0.5, math.inf, math.nan), lambda b: b.n_max),
    "burkholder_sandwich": (lambda b, rho, n: burkholder_sandwich(b, 2.0, rho, n),
                            lambda rho, n: (BRACKET, 2.0, rho, n), (0.5, math.inf, math.nan), lambda b: b.n_max),
    "increment_identity_check": (increment_identity_check, lambda rho, n: (IDENTITY, rho, n),
                                 (0.5, math.inf, math.nan, 1.0), lambda b: b.n_max - 1),
}


@pytest.mark.parametrize("call, key, bad_rhos, past", PER_KEY_CALLS.values(), ids=PER_KEY_CALLS)
def test_a_per_key_call_refuses_the_keys_its_pass_leaves_out(gw_env, call, key, bad_rhos, past):
    b = stored_batch(SimConfig(env=gw_env, mode="annealed", n_max=8, replicas=300, master_seed=4))
    bad = [(rho, 2) for rho in bad_rhos] + [(1.2, -1), (1.2, past(b))]
    inside, held = (1.2, past(b) - 1), [key(1.1, 1), key(1.3, 2)]
    assert reduce_batch(b, held) == held
    before = dict(b.partials)
    for rho, n in bad:
        with pytest.raises(ParameterError, match="rho"):
            call(b, rho, n)
        # a refused key leaves the held partials as they were
        assert b.partials == before
    # the reducer leaves out exactly the keys the per-key call refuses
    assert reduce_batch(b, [key(*k) for k in bad + [inside]]) == [key(*inside)]
    call(b, *inside)
