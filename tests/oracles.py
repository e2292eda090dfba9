"""Brute-force oracles the tests compare the package against.

Everything here recomputes quantities from first principles in exact
rational arithmetic: generation distributions by repeated pmf convolution,
moments read straight off those distributions, annealed averages by
enumerating every environment sequence with its weight, and polynomial
coefficients by solving an exact linear system. None of it shares code with
the package's moment engines, so agreement is evidence rather than
tautology. Feasible only for tiny supports and n <= 3 or so, which is
exactly the regime the acceptance criteria pin down.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product


def law_fractions(pmf):
    """A {value: float} pmf as exact {value: Fraction} (drops zero atoms)."""
    return {int(v): Fraction(p) for v, p in pmf.items() if p}


def law_mean(pmf):
    fr = law_fractions(pmf)
    return sum(Fraction(v) * p for v, p in fr.items())


def convolve(d1, d2):
    out = {}
    for a, pa in d1.items():
        for b, pb in d2.items():
            out[a + b] = out.get(a + b, Fraction(0)) + pa * pb
    return out


def iid_sum_pmf(pmf, z):
    """Distribution of the sum of z iid draws from a float pmf."""
    fr = law_fractions(pmf)
    dist = {0: Fraction(1)}
    for _ in range(z):
        dist = convolve(dist, fr)
    return dist


def branch_step(dist, pmf):
    """One branching generation: z parents -> sum of z iid offspring."""
    fr = law_fractions(pmf)
    powers = [{0: Fraction(1)}]
    for _ in range(max(dist)):
        powers.append(convolve(powers[-1], fr))
    out = {}
    for z, pz in dist.items():
        for j, pj in powers[z].items():
            out[j] = out.get(j, Fraction(0)) + pz * pj
    return out


def generation_distributions(path_pmfs, n_max):
    """Exact distributions of Z_0..Z_{n_max} along a fixed path of pmfs.

    Memoized by the path's (value, prob) atoms: annealed enumerations revisit
    the same short paths many times. The returned dicts are shared, so
    callers must not mutate them.
    """
    return _generation_distributions(
        tuple(tuple(sorted(path_pmfs[n].items())) for n in range(n_max))
    )


@lru_cache(maxsize=None)
def _generation_distributions(path_atoms):
    dists = [{1: Fraction(1)}]
    for atoms in path_atoms:
        dists.append(branch_step(dists[-1], dict(atoms)))
    return tuple(dists)


def annealed_generation_distributions(state_pmfs, weights, n_max):
    """Exact annealed laws of Z_0..Z_{n_max}: path laws mixed over every state sequence."""
    wts = [Fraction(w) for w in weights]
    mixed = [{} for _ in range(n_max + 1)]
    for combo in product(range(len(state_pmfs)), repeat=n_max):
        weight = Fraction(1)
        for i in combo:
            weight *= wts[i]
        dists = generation_distributions([state_pmfs[i] for i in combo], n_max)
        for out, dist in zip(mixed, dists):
            for z, pz in dist.items():
                out[z] = out.get(z, Fraction(0)) + weight * pz
    return mixed


def dist_moment(dist, r):
    """E[X^r] of an integer-valued distribution, exact."""
    return sum(p * Fraction(j) ** r for j, p in dist.items())


def path_z_moments(path_pmfs, r_max, n_max):
    """table[n][r] = E[Z_n^r] along the fixed path, for r = 0..r_max."""
    dists = generation_distributions(path_pmfs, n_max)
    return [[dist_moment(d, r) for r in range(r_max + 1)] for d in dists]


def path_weighted_w_moment(path_pmfs, s, r, n):
    """P_n^{-s} E[W_n^r] = P_n^{-(s+r)} E[Z_n^r] for one fixed path (s, r ints)."""
    dist = generation_distributions(path_pmfs, n)[n]
    p_n = Fraction(1)
    for pmf in path_pmfs[:n]:
        p_n *= law_mean(pmf)
    return dist_moment(dist, r) / p_n ** (s + r)


def annealed_weighted_w_moment(state_pmfs, weights, s, r, n):
    """E[P_n^{-s} W_n^r] by enumerating all n-step state sequences."""
    wts = [Fraction(w) for w in weights]
    total = Fraction(0)
    for combo in product(range(len(state_pmfs)), repeat=n):
        weight = Fraction(1)
        for i in combo:
            weight *= wts[i]
        total += weight * path_weighted_w_moment([state_pmfs[i] for i in combo], s, r, n)
    return total


def conditional_sum_moment(pmf, z, k):
    """E[(sum of z iid draws)^k], exact."""
    return dist_moment(iid_sum_pmf(pmf, z), k)


def solve_exact(rows):
    """Gaussian elimination over Fractions; each row is [a_1..a_n | b]."""
    n = len(rows)
    m = [list(row) for row in rows]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def conditional_coeffs(pmf, k_max):
    """coeffs[k] = [a_{k,1}..a_{k,k}] with E[S_z^k] = sum_j a_{k,j} z^j.

    The moments at z = 1..k pin the k unknown coefficients down exactly
    (Vandermonde system), with no reference to cumulants at all.
    """
    coeffs = {}
    for k in range(1, k_max + 1):
        rows = []
        for z in range(1, k + 1):
            rows.append(
                [Fraction(z) ** j for j in range(1, k + 1)]
                + [conditional_sum_moment(pmf, z, k)]
            )
        coeffs[k] = solve_exact(rows)
    return coeffs


def cumulants_low_order(pmf):
    """(k1, k2, k3, k4) from central moments: k3 = mu3, k4 = mu4 - 3 mu2^2."""
    fr = law_fractions(pmf)
    mean = law_mean(pmf)
    mu = [sum(p * (Fraction(v) - mean) ** r for v, p in fr.items()) for r in range(5)]
    return mean, mu[2], mu[3], mu[4] - 3 * mu[2] ** 2


def extinction_probability(pmf, tol=1e-15):
    """Smallest fixed point of the generating function, by iteration."""
    fr = {v: float(p) for v, p in law_fractions(pmf).items()}
    s = 0.0
    for _ in range(10_000):
        nxt = sum(p * s**v for v, p in fr.items())
        if abs(nxt - s) < tol:
            return nxt
        s = nxt
    return s
