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
    LpEstimate,
    burkholder_constants,
    burkholder_sandwich,
    fit_decay,
    lp_norm,
    w_moment,
    wls_line,
)
from bprelab.simulate import (
    BLOCK_ROWS,
    BRACKET,
    IDENTITY,
    MOMENT,
    STATUS_CAPPED,
    TrajectoryBatch,
    partials,
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


def mean_and_stderr(x, kept=None):
    """Plain numpy: the mean over the kept rows (all where None) and their sample sd over sqrt(N)."""
    x = x if kept is None else x[kept]
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))


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


def assert_covariance_row(est, w, kept, gap):
    """est.covariance against plain numpy: np.cov of x_n with each x_m of its family over the kept
    rows, over their count, within 1e-12 of the mean products x_n x_m (over the count) it is formed from."""
    x = (np.abs(w[kept, gap:] - w[kept, : w.shape[1] - gap]) if gap else w[kept]) ** est.p
    want = np.atleast_2d(np.cov(x, rowvar=False))[est.n] / len(x)
    scale = np.maximum(np.abs(want), x[:, est.n] @ x / len(x) ** 2)
    assert np.all(np.abs(est.covariance - want) <= 1e-12 * scale), (est.n, gap)


class TestPlainNumpy:
    """Every value, stderr and covariance row of the block sums agrees with plain numpy within 1e-12."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_values_stderrs_and_covariances(self, seam_batch, p):
        b = seam_batch
        kept, w = seam_kept(b), b.w
        for n, gap in ((0, 20), (10, 8), (19, 1)):
            est, x = lp_norm(b, p, n, gap), np.abs(w[:, n + gap] - w[:, n]) ** p
            assert_close((est.value, est.stderr), mean_and_stderr(x, kept))
            assert_covariance_row(est, w, kept, gap)
        for n in (0, 7, 20):
            est = w_moment(b, p, n)
            assert_close((est.value, est.stderr), mean_and_stderr(w[:, n] ** p, kept))
            assert_covariance_row(est, w, kept, 0)
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

    def test_a_moment_family_does_not_depend_on_the_keys_reduced_with_it(self, seam_batch):
        b = fresh(seam_batch)
        keys = [(MOMENT, p, n, gap) for p in self.PS for gap in (0, 3, 8) for n in (0, 5, b.n_max - gap)]
        assert reduce_batch(b, keys) == keys
        for p, n, gap in ((1.5, 5, 3), (2.0, 0, 8), (2.0, 12, 0)):
            lone = fresh(b)
            assert reduce_batch(lone, [(MOMENT, p, n, gap)]) == [(MOMENT, p, n, gap)]
            family = [(MOMENT, p, m, gap) for m in range(b.n_max - gap + 1)]
            # the lone key's whole family is held, in one view, as the multi-key pass holds it
            assert list(lone.partials) == family
            assert np.array_equal(lone.partials[family[0]], b.partials[family[0]])
            assert_bit_equal(lp_norm(lone, p, n, gap) if gap else w_moment(lone, p, n),
                             lp_norm(b, p, n, gap) if gap else w_moment(b, p, n))


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


def random_batch(length, n_max=3, seed=0):
    """A stored batch of random positive W rows, every tenth row capped."""
    w = np.random.default_rng(seed).lognormal(size=(length, n_max + 1))
    status = np.where(np.arange(length) % 10 == 9, STATUS_CAPPED, 0).astype(np.int8)
    return TrajectoryBatch(mode="annealed", n_max=n_max, replicas=length, master_seed=seed, pop_cap=1000,
                           rho_grid=(), w=w, a_hat=np.empty((length, 0, n_max)), status=status,
                           status_gen=np.full(length, -1, dtype=np.int32))


class TestBlockGrid:
    @pytest.mark.parametrize("length", [1, 2, 29, 30, 31, 59, 101, 1000, 4097, 19_999, 99_871, 100_000])
    def test_each_block_sums_its_own_uncapped_rows(self, length):
        b = random_batch(length)
        sums = partials(b, (MOMENT, 2.0, 1, 2))
        blocks = -(-length // BLOCK_ROWS)
        # a family of two: per block each x_m's sum, then its products with x_0 and x_1
        assert sums.shape == (blocks, 2, 3)
        x = np.where(b.uncapped[:, None], (b.w[:, 2:] - b.w[:, :2]) ** 2, 0.0)
        for block, lo in enumerate(range(0, length, BLOCK_ROWS)):
            rows = x[lo : lo + BLOCK_ROWS]
            want = np.column_stack([rows.sum(axis=0), rows.T @ rows])
            assert np.allclose(sums[block], want, rtol=1e-13, atol=0), block


class TestNorms:
    def test_lp_norm_matches_exact_curve(self, gw_batch):
        for n, gap in ((2, 10), (5, 15)):
            est = lp_norm(gw_batch, 2.0, n, gap)
            exact = gw_tail(n) - gw_tail(n + gap)
            assert est.stderr > 0
            assert abs(est.value - exact) < 4 * est.stderr
            assert est.proxy_gap == gap
            assert len(est.covariance) == gw_batch.n_max - gap + 1
            assert est.covariance[n] == pytest.approx(est.stderr**2, rel=1e-15)

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
        assert fit.r_squared == pytest.approx(1.0, abs=1e-6)

    def test_scale_invariance(self):
        a = fit_decay(synthetic_estimates(scale=1.0))
        b = fit_decay(synthetic_estimates(scale=17.3))
        assert b.fitted_rho == pytest.approx(a.fitted_rho, rel=1e-12)
        assert b.window == a.window
        assert b.slope == pytest.approx(a.slope, rel=1e-12)

    @pytest.mark.parametrize("rows", ["none", "diagonal"])
    def test_a_diagonal_covariance_gives_the_weighted_fits_own_variance(self, rows):
        # no covariance rows, or rows that hold only stderr^2: S is diagonal, and
        # (Jc)^T S (Jc) is the weighted fit's [(X^T W X)^-1]_11
        ests = synthetic_estimates()
        for e, rel_err in zip(ests, np.linspace(1e-3, 5e-2, 10)):
            e.stderr = rel_err * e.value
            if rows == "diagonal":
                e.covariance = np.where(np.arange(10) == e.n, e.stderr**2, 0.0)
        fit = fit_decay(ests)
        cov = wls_line([e.n for e in ests], [math.log(e.value) / 2.0 for e in ests], [e.log_sd for e in ests])[1]
        assert fit.slope_se**2 == pytest.approx(cov[1, 1], rel=1e-12)
        assert fit.slope_se > 0

    def test_a_common_relative_shift_leaves_the_slope_exact(self):
        # every point off by the same factor moves only the intercept: with fully
        # correlated relative errors the interval collapses onto the fit
        ests = synthetic_estimates(rel_err=1e-2)
        rel = np.array([e.stderr for e in ests])
        for e in ests:
            e.covariance = e.stderr * rel
        fit = fit_decay(ests)
        assert fit.slope_se < 1e-12
        assert fit.ci_low == pytest.approx(fit.fitted_rho, rel=1e-9)
        assert fit.ci_high == pytest.approx(fit.fitted_rho, rel=1e-9)

    def test_correlated_points_change_the_interval(self, gw_batch):
        ests = [lp_norm(gw_batch, 2.0, n, 12) for n in range(0, 9)]
        for e in ests:
            e.bias_bound = gw_tail(e.n + 12)
        fit = fit_decay(ests)
        assert fit.slope_se > 0
        assert fit.ci_low < fit.fitted_rho < fit.ci_high
        # the true rate sqrt(3/2) should sit within a few widths of the fit
        assert abs(fit.fitted_rho - math.sqrt(1.5)) < 8 * (fit.ci_high - fit.ci_low)
        # the shared replicas correlate the points; dropping the rows is another interval
        for e in ests:
            e.covariance = None
        assert fit_decay(ests).slope_se != pytest.approx(fit.slope_se, rel=1e-3)

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
