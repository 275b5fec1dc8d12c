"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; seeds are fixed so the suite is deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from ungar_lab.engine import (
    IdealLattice,
    SnLattice,
    TamariAvLattice,
    TamariForestLattice,
    expected_absorption_time,
    first_passage_counts,
    monte_carlo_expectation,
    sn_absorption_samples,
)
from ungar_lab.percolation import (
    coupled_ideal_run,
    lpp_grid_samples,
    max_chain_weight,
    rescaling_constants,
    sn_linear_coefficient,
    tasep_absorption_samples,
    upsilon,
    zeta_estimate,
    zeta_exact,
    zeta_liminf_lower_bound,
)
from ungar_lab.perms import Permutation, ungar_move
from ungar_lab.poset import grid_poset
from ungar_lab.rng import replica_random
from ungar_lab.skyline import algorithm1_run, good_frequency, lower_bound_f
from ungar_lab.tamari import catalan, phi, phi_inverse, project_down

from oracles import all_permutations, av312_permutations, ordered_forests, weak_meet


def report(num, detail):
    print(f"\n[criterion {num:2d}] PASS  {detail}")


def test_criterion_01_exact_oracles():
    start = time.time()
    for p in [k / 10 for k in range(1, 10)]:
        got = expected_absorption_time(SnLattice(3), p)
        want = (5 - 4 * p) / (p * (2 - p))
        assert abs(got - want) <= 1e-10, (p, got, want)
    tam = expected_absorption_time(TamariAvLattice(3), 0.5)
    assert abs(tam - 10 / 3) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"E_p(S_3) sweep and E_1/2(Tam_3)=10/3 at 1e-10 ({elapsed:.2f}s)")


def test_criterion_02_monte_carlo_vs_exact():
    start = time.time()
    checked = []
    combo = itertools.count()
    for n, p in itertools.product((3, 4, 5), (0.3, 0.7)):
        exact = expected_absorption_time(SnLattice(n), p)
        samples = sn_absorption_samples(n, p, 100_000, 1000 + next(combo))
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 3 * stderr, (n, p)
        checked.append(f"S_{n}")
    for n, p in itertools.product((3, 5, 7), (0.3, 0.7)):
        lattice = TamariForestLattice(n)
        exact = expected_absorption_time(lattice, p)
        res = monte_carlo_expectation(
            lattice, p, reps=100_000, seed=1000 + next(combo)
        )
        assert abs(res.mean - exact) <= 3 * res.stderr, (n, p)
        checked.append(f"Tam_{n}")
    for (rows, cols), p in itertools.product(((3, 4), (2, 6)), (0.3, 0.7)):
        lattice = IdealLattice(grid_poset(rows, cols))
        exact = expected_absorption_time(lattice, p)
        res = monte_carlo_expectation(
            lattice, p, reps=100_000, seed=1000 + next(combo)
        )
        assert abs(res.mean - exact) <= 3 * res.stderr, (rows, cols, p)
        checked.append(f"J(R_{rows},{cols})")
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(2, f"1e5-rep means within 3 stderr of exact on "
              f"{sorted(set(checked))} at p in {{0.3, 0.7}} ({elapsed:.1f}s)")


def test_criterion_03_maximal_moves_reach_identity():
    start = time.time()
    total = 0
    for n in range(1, 9):
        ident = Permutation.identity(n)
        for s in all_permutations(n):
            moves = 0
            while s != ident:
                s = ungar_move(s, s.descents())
                moves += 1
                assert moves <= n - 1, (n, s)
            total += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, f"all {total} permutations, n<=8, sorted in <= n-1 maximal "
              f"moves ({elapsed:.1f}s)")


def test_criterion_04_bijection_suite():
    start = time.time()
    for n in range(1, 9):
        count = 0
        for s in av312_permutations(n):
            f = phi(s)
            assert phi_inverse(f) == s
            for i in sorted(s.descents()):
                assert phi(project_down(s.swap(i))) == f.operate(s[i])
            count += 1
        assert count == catalan(n), n
        for f in ordered_forests(n):
            assert phi(phi_inverse(f)) == f
    for n in range(1, 11):
        assert sum(1 for _ in av312_permutations(n)) == catalan(n), n
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, f"round-trips and cover-preservation exhaustive to n=8 "
              f"(C_8={catalan(8)}); |Av_n(312)|=C_n to n=10 "
              f"(C_10={catalan(10)}) ({elapsed:.1f}s)")


def test_criterion_05_projection_meet_commutation():
    start = time.time()
    for n in range(2, 5):
        perms = list(all_permutations(n))
        proj = {s: project_down(s) for s in perms}
        for size in (2, 3):
            for group in itertools.combinations(perms, size):
                assert project_down(weak_meet(group)) == weak_meet(
                    [proj[s] for s in group]
                )
    # n = 5: precompute the pairwise meet table, fold for triples
    perms = list(all_permutations(5))
    proj = {s: project_down(s) for s in perms}
    table = {}
    for a, b in itertools.combinations(perms, 2):
        table[(a, b)] = table[(b, a)] = weak_meet([a, b])

    def meet2(a, b):
        return a if a == b else table[(a, b)]

    for a, b in itertools.combinations(perms, 2):
        assert proj[meet2(a, b)] == meet2(proj[a], proj[b])
    for a, b, c in itertools.combinations(perms, 3):
        lhs = proj[meet2(meet2(a, b), c)]
        assert lhs == meet2(meet2(proj[a], proj[b]), proj[c])
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(5, f"projection/meet commutation exhaustive for n<=5, subset "
              f"sizes 2 and 3 ({elapsed:.1f}s)")


def test_criterion_06_coupling_identity():
    start = time.time()
    posets = {"R_3,3": grid_poset(3, 3)}
    for seed in (1, 2):
        # random 8-element posets: intersections of two linear orders
        import random as _random

        from ungar_lab.poset import build_poset

        rnd = _random.Random(seed)
        perm = list(range(8))
        rnd.shuffle(perm)
        below = [
            [y for y in range(8) if y < x and perm.index(y) < perm.index(x)]
            for x in range(8)
        ]
        pairs = [
            (y, x)
            for x in range(8)
            for y in below[x]
            if not any(z in below[x] and y in below[z] for z in below[x])
        ]
        posets[f"random8-{seed}"] = build_poset(pairs, n=8)
    runs = 0
    for name, poset in posets.items():
        rnd = replica_random(601, runs)
        for _ in range(10_000):
            run = coupled_ideal_run(poset, 0.5, rnd)  # raises on violation
            assert run.absorption == max_chain_weight(poset, run.weights)
            runs += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, f"absorption == max-chain geometric sum on every one of "
              f"{runs} runs across {list(posets)} ({elapsed:.1f}s)")


def test_criterion_07_tasep_equivalence():
    start = time.time()
    pvals = []
    for p, seed in ((0.3, 71), (0.7, 72)):
        grid = grid_poset(3, 3)
        rnd = replica_random(seed, 0)
        chain = np.array(
            [coupled_ideal_run(grid, p, rnd).absorption for _ in range(10_000)]
        )
        tasep = tasep_absorption_samples(3, 3, p, 10_000, seed=seed + 100)
        _, pvalue = stats.ks_2samp(chain, tasep)
        assert pvalue > 0.001, (p, pvalue)
        pvals.append(pvalue)
    elapsed = time.time() - start
    report(7, f"two-sample KS accepts at alpha=0.001 for p in {{0.3,0.7}} "
              f"(p-values {['%.3f' % v for v in pvals]}) ({elapsed:.1f}s)")


def test_criterion_08_fluctuation_sanity():
    start = time.time()
    samples = lpp_grid_samples(50, 50, 0.5, 2_000, seed=81).astype(float)
    phi_c, _ = rescaling_constants(0.5, 50, 50)
    ratio = samples.mean() / phi_c
    assert 0.9 <= ratio <= 1.1, ratio
    elapsed = time.time() - start
    report(8, f"mean T / Phi_p(50,50) = {ratio:.4f} in [0.9, 1.1] "
              f"({elapsed:.1f}s)")


def test_criterion_09_zeta_upsilon_agreement():
    # three-way: the sampler, the exact series zeta_n and the limit Upsilon
    start = time.time()
    est, err = zeta_estimate(0.5, 10_000, 100_000, seed=91)
    exact = zeta_exact(0.5, 10_000)
    target = upsilon(0.5, 10_000)
    assert abs(est - target) <= 0.01 + 3 * err, (est, target, err)
    assert abs(est - exact) <= 0.01 + 3 * err, (est, exact, err)
    assert abs(exact - target) <= 0.01, (exact, target)
    assert est >= zeta_liminf_lower_bound(0.5) - 3 * err
    elapsed = time.time() - start
    report(9, f"|zeta_hat - Upsilon| = {abs(est - target):.5f} and "
              f"|zeta_hat - zeta_n| = {abs(est - exact):.5f} <= "
              f"{0.01 + 3 * err:.5f}; |zeta_n - Upsilon| = {abs(exact - target):.1e}; "
              f"zeta_hat {est:.5f} above the liminf bound "
              f"{zeta_liminf_lower_bound(0.5):.4f} ({elapsed:.1f}s)")


def test_criterion_10_algorithm1_validity():
    start = time.time()
    n, p, reps = 5, 0.5, 10_000
    ops = np.zeros(n + 1, dtype=np.int64)
    steps = 0
    stream_samples = np.empty(reps, dtype=np.int64)
    for seed in range(reps):
        res = algorithm1_run(n, p, 1000 + seed)
        stream_samples[seed] = res.steps
        ops += res.op_counts
        steps += res.steps
    chain_samples = monte_carlo_expectation(
        TamariForestLattice(n), p, reps=reps, seed=1001
    ).samples
    _, pvalue = stats.ks_2samp(stream_samples, chain_samples)
    assert pvalue > 0.001, pvalue
    worst = 0.0
    for v in range(1, n + 1):
        freq = ops[v] / steps
        sigma = math.sqrt(p * (1 - p) / steps)
        assert abs(freq - p) <= 3 * sigma, (v, freq)
        worst = max(worst, abs(freq - p) / sigma)
    elapsed = time.time() - start
    report(10, f"KS p-value {pvalue:.3f} > 0.001 on Tam_5 (1e4 runs each); "
               f"per-vertex operation frequency within 3 sigma "
               f"(worst {worst:.2f} sigma) ({elapsed:.1f}s)")


def test_criterion_11_asymptotic_theorem_substitutes():
    start = time.time()
    # (a) linear-growth reporting for the weak order at p = 1/2
    coeff = sn_linear_coefficient(0.5)
    ratios = {}
    for n, seed in ((20, 111), (40, 112), (80, 113)):
        samples = sn_absorption_samples(n, 0.5, 400, seed)
        ratios[n] = samples.mean() / n
        assert ratios[n] <= 1.5 * coeff, (n, ratios[n])
    # (b) the damped lower bound holds trivially in the f(n) = 1 regime
    for n, seed in ((16, 121), (32, 122)):
        assert lower_bound_f(n, 0.5) == 1.0
        res = monte_carlo_expectation(
            TamariForestLattice(n), 0.5, reps=2_000, seed=seed
        )
        rhs = zeta_liminf_lower_bound(0.5) * n * math.exp(
            -0.5**8 * math.exp(10.0 / 0.5**2) * math.log(math.log(n)) ** 4
        )
        assert res.mean - 3 * res.stderr >= rhs, (n, res.mean, rhs)
    exact7 = expected_absorption_time(TamariForestLattice(7), 0.5)
    # (c) conditional goodness frequency at n = 1000
    freq, err = good_frequency(1_000, 0.5, m=12, reps=2_000, seed=131)
    bound = 1 - 2 / math.log(math.log(1_000))
    assert freq >= bound - 3 * err, (freq, bound)
    elapsed = time.time() - start
    report(11, f"(a) E(S_n)/n = {['%.2f' % ratios[n] for n in (20, 40, 80)]} "
               f"< 1.5x coefficient {coeff:.3f}; (b) damped bound trivially met "
               f"(E(Tam_7)={exact7:.2f}); (c) good frequency {freq:.3f} >= "
               f"{bound:.3f} - 3 stderr ({elapsed:.1f}s)")


def test_criterion_12_walk_hitting_probabilities():
    start = time.time()
    reps = 1_000_000
    counts = first_passage_counts(1, 5, reps, seed=141)
    for t, prob in ((1, 0.5), (3, 0.125), (5, 0.0625)):
        emp = counts[t] / reps
        stderr = math.sqrt(prob * (1 - prob) / reps)
        assert abs(emp - prob) <= 3 * stderr, (t, emp, prob)
    elapsed = time.time() - start
    report(12, f"P(tau_1 = 1,3,5) within 3 stderr of 1/2, 1/8, 1/16 over "
               f"1e6 walks ({elapsed:.1f}s)")
