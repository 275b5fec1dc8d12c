"""LPP, the per-run coupling identity, corner growth, and the constants."""

import copy
import hashlib
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ungar_lab import cli, percolation
from ungar_lab.engine import IdealLattice, run_chain
from ungar_lab.errors import DomainError, SeriesTruncationError
from ungar_lab.percolation import (
    coupled_ideal_run,
    lpp_grid_samples,
    lpp_poset_samples,
    lpp_sample,
    max_chain_weight,
    rescaling_constants,
    sn_linear_coefficient,
    tamari_linear_coefficient,
    tasep_absorption_samples,
    tracy_widom_tail,
    upsilon,
    zeta_estimate,
    zeta_exact,
    zeta_liminf_lower_bound,
    zeta_limsup_estimate,
)
from ungar_lab.poset import FinitePoset, build_poset, grid_poset
from ungar_lab.rng import replica_generator, replica_random

from oracles import (
    golden_section_max,
    grid_passage,
    ideal_complement_rows,
    maximal_chains,
    numpy_geometric_search,
    one_shot_lpp_grid_samples,
    plain_zeta_estimate,
    tasep_trajectory,
    upsilon_series,
)


POSET_FIXTURE = Path(__file__).parent / "data" / "shuffled_graded_poset.json"


def two_dim_random_poset(n, seed):
    """Random poset: intersection of the identity and a shuffled order."""
    rnd = random.Random(seed)
    perm = list(range(n))
    rnd.shuffle(perm)
    below = [
        [y for y in range(n) if y < x and perm.index(y) < perm.index(x)]
        for x in range(n)
    ]
    pairs = []
    for x in range(n):
        for y in below[x]:
            if not any(z in below[x] and y in below[z] for z in below[x]):
                pairs.append((y, x))
    return build_poset(pairs, n=n)


def truncated_expected_total(p, cutoff=60):
    """Oracle for E[T] on R_{2,2}: enumerate weight vectors up to a cutoff.

    T = G_a + G_d + max(G_b, G_c) with four independent geometrics; the
    certified truncation error is below 1e-6 at the default cutoff.
    """
    q = 1 - p
    probs = [q ** (k - 1) * p for k in range(1, cutoff + 1)]
    mass = sum(probs)
    tail = 1 - mass
    assert tail**0.25 < 1  # four independent truncations
    e_single = sum(k * probs[k - 1] for k in range(1, cutoff + 1))
    e_max = 0.0
    for b in range(1, cutoff + 1):
        for c in range(1, cutoff + 1):
            e_max += max(b, c) * probs[b - 1] * probs[c - 1]
    total = 2 * e_single + e_max
    # crude certified bound on the truncation error
    err = 4 * tail * (cutoff + 2 / p) * 4
    return total, err


def test_lpp_single_element_and_chain():
    single = build_poset([], n=1)
    chain = build_poset([(0, 1)])
    rng = replica_generator(0, 0)
    singles = lpp_sample(single, 0.5, rng, 20_000).total
    chains = lpp_sample(chain, 0.5, rng, 20_000).total
    assert abs(np.mean(singles) - 2.0) < 3 * np.std(singles) / math.sqrt(20_000)
    assert abs(np.mean(chains) - 4.0) < 3 * np.std(chains) / math.sqrt(20_000)


def test_lpp_passage_equals_chain_enumeration():
    # the DP pass against the explicit maximal-chain oracle
    rnd = random.Random(4)
    for seed in range(20):
        poset = two_dim_random_poset(7, seed)
        weights = [rnd.randint(1, 9) for _ in range(poset.n)]
        via_chains = max(
            sum(weights[x] for x in chain) for chain in maximal_chains(poset)
        )
        assert max_chain_weight(poset, weights) == via_chains
    assert max_chain_weight(build_poset([], n=0), []) == 0


class ListedStream:
    """A stand-in generator whose stream is ``values``: ``random(out=a)``
    writes the next ``len(a)`` into ``a``."""

    def __init__(self, values):
        self.values = list(values)
        self.drawn = 0

    def random(self, out):
        start, self.drawn = self.drawn, self.drawn + len(out)
        assert self.drawn <= len(self.values), "stream exhausted"
        out[:] = self.values[start:self.drawn]
        return out


@pytest.mark.parametrize("p", [0.07, 0.35, 0.5, 0.93, 1.0])
def test_lpp_weights_equal_generator_geometric(p):
    """A sample's weights are ``rng.geometric(p, size=(reps, poset.n))``,
    and leave the stream where that call leaves it."""
    rng = replica_generator(21, 0)
    for poset in [build_poset([], n=0), build_poset([], n=1), two_dim_random_poset(9, 2),
                  grid_poset(4, 5)]:
        replay = copy.deepcopy(rng)
        sample = lpp_sample(poset, p, rng, 40)
        assert np.array_equal(sample.weights, replay.geometric(p, size=(40, poset.n)))
        assert sample.weights.shape == (40, poset.n) and sample.total.shape == (40,)
        assert replay.bit_generator.state == rng.bit_generator.state


def test_search_tables_are_cached_read_only():
    table = percolation._search_table(0.5)
    assert percolation._search_table(0.5) is table
    for array in table[1:]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_lpp_r22_mean_matches_truncated_enumeration():
    expected, err = truncated_expected_total(0.5)
    assert expected == pytest.approx(20 / 3, abs=1e-4)  # 2/p + E max(G,G')
    samples = lpp_grid_samples(2, 2, 0.5, 40_000, seed=5)
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - expected) <= 3 * stderr + err


def test_lpp_grid_samples_memory_is_flat_in_reps():
    tracemalloc.start()
    try:
        lpp_grid_samples(20, 20, 0.5, 50_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block is 2e6 int64 weights (16 MB); all 2e7 at once took 320 MB
    assert peak < 40e6, peak


@pytest.mark.parametrize("n, m, p, reps, block", [
    (20, 20, 0.5, 12_000, None),  # blocks of 5000, 5000 and 2000
    (3, 7, 0.1, 200_000, None),  # p < 1/3: numpy draws by inversion
    (6, 5, 0.9, 40, 100),  # three replicas a block, the last one alone
    (4, 4, 0.3, 5, 7),  # a grid larger than the block: one replica each
    # either side of numpy's switch to its search and of the table's range
    (5, 6, math.nextafter(1 / 3, 0), 30_000, 200_000),
    (5, 6, 1 / 3, 30_000, 200_000),
    (5, 6, 0.9, 30_000, 200_000),
    (5, 6, math.nextafter(1.0, 0), 30_000, 200_000),
    (5, 6, 1.0, 300, 1_000),
])
def test_blocked_lpp_draws_equal_one_shot(monkeypatch, n, m, p, reps, block):
    if block is not None:
        monkeypatch.setattr(percolation, "_DRAW_BLOCK", block)
    assert reps > max(1, percolation._DRAW_BLOCK // (n * m))  # several blocks
    got = lpp_grid_samples(n, m, p, reps, seed=11)
    assert np.array_equal(got, one_shot_lpp_grid_samples(n, m, p, reps, seed=11))


def _replica_last(weights):
    """``(reps, elements)`` weights as :func:`percolation._passage`'s block."""
    return np.vstack([weights.T, np.zeros((1, len(weights)), dtype=np.int64)])


@pytest.mark.parametrize("n, m", [(1, 1), (1, 40), (40, 1), (7, 40), (30, 30), (200, 200)])
def test_grid_passage_sweep_equals_cell_by_cell(n, m):
    weights = np.random.default_rng([n, m]).integers(0, 50, size=(5, n, m))
    levels, tops = percolation._grid_plan(n, m)
    got = percolation._passage(levels, tops, _replica_last(weights.reshape(5, n * m)))
    assert np.array_equal(got, grid_passage(weights))


POSETS = {
    "empty": build_poset([], n=0),
    "antichain": build_poset([], n=6),
    "chain": build_poset([(0, 1), (1, 2), (2, 3)]),
    **{f"two-dim-{seed}": two_dim_random_poset(12, seed) for seed in range(8)},
    "shuffled-graded": FinitePoset.from_json(POSET_FIXTURE.read_text()),
}


@pytest.mark.parametrize("name", list(POSETS))
def test_poset_passage_sweep_equals_max_chain_weight(name):
    poset = POSETS[name]
    weights = np.random.default_rng(len(name)).integers(0, 50, size=(7, poset.n))
    got = percolation._passage(*percolation._poset_plan(poset), _replica_last(weights))
    assert got.tolist() == [max_chain_weight(poset, w) for w in weights.tolist()]


@pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
def test_blocked_poset_lpp_draws_equal_one_shot(monkeypatch, p):
    poset = POSETS["shuffled-graded"]
    one_shot = lpp_sample(poset, p, replica_generator(11, 0), 13).total
    monkeypatch.setattr(percolation, "_DRAW_BLOCK", 5 * poset.n)  # 5, 5 and 3 replicas
    assert np.array_equal(lpp_poset_samples(poset, p, 13, seed=11), one_shot)


def test_lpp_poset_memory_is_flat_in_reps(monkeypatch, capsys):
    monkeypatch.setattr(percolation, "_DRAW_BLOCK", 300_000)  # 10,000 replicas a block
    peaks = []
    for reps in (10_000, 200_000):
        tracemalloc.start()
        try:
            assert cli.main(["lpp", "--lattice", "ideal", "--poset", str(POSET_FIXTURE),
                             "--reps", str(reps), "--seed", "3"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    # a block's weights and passage rows take 4.8 MB; 20 blocks at once
    # would take 96 MB, and the samples add 8 bytes a replica
    assert peaks[1] < peaks[0] + 8 * 200_000 + 1e6, peaks


@pytest.mark.parametrize("p", [
    0.2, math.nextafter(1 / 3, 0), 1 / 3, 0.35, 0.5, 0.55, 0.7,
    0.8, 0.9, 0.95, 0.99, math.nextafter(1.0, 0), 1.0,
])
def test_geometric_array_equals_generator_geometric(p):
    """Same weights and the same stream left behind, across several chunks."""
    drawn, read = replica_generator(17, 0), replica_generator(17, 0)
    shape = (3, percolation._FILL_CHUNK + 5, 7)
    assert np.array_equal(percolation._geometric_array(read, p, shape),
                          drawn.geometric(p, size=shape))
    assert read.random() == drawn.random()


def search_table_sums(p):
    """numpy's partial sums ``p, p + p q, ...`` up to the last that grows."""
    sums, prod, q = [p], p, 1.0 - p
    while sums[-1] + prod * q != sums[-1]:
        prod *= q
        sums.append(sums[-1] + prod)
    return sums


@pytest.mark.parametrize("p", [1 / 3, 0.35, 0.5, 0.55, 0.7, 0.9, 0.99])
def test_search_weights_of_boundary_uniforms_equal_numpys_loop(p):
    """0, the largest uniform, every partial sum and its 3-ulp neighbours
    map as numpy's loop maps them; where that loop never ends (above the
    last sum at p = 0.35 and 0.7) the weight is ``len(sums) + 1``."""
    sums = search_table_sums(p)
    uniforms = [0.0, 1 - 2**-53]
    for c in sums:
        below = above = c
        for _ in range(3):
            below, above = math.nextafter(below, 0), math.nextafter(above, 1)
            uniforms += [below, above]
        uniforms.append(c)
    uniforms = [u for u in uniforms if u < 1.0]
    got = percolation._geometric_array(ListedStream(uniforms), p, (len(uniforms),))
    expected = [numpy_geometric_search(p, u) for u in uniforms]
    assert (None in expected) == (p in (0.35, 0.7))
    assert got.tolist() == [len(sums) + 1 if x is None else x for x in expected]


def test_search_table_buckets_need_at_most_two_bits():
    """Across ``[1/3, 1)`` each bucket of at most two mantissa bits holds
    at most one partial sum, well inside the four that are tried."""
    ps = [*np.linspace(1 / 3, 1, 2001)[:-1], math.nextafter(1.0, 0)]
    assert max(52 - percolation._search_table(float(p))[0] for p in ps) <= 2


def test_coupling_identity_on_grids_and_random_posets():
    rnd = replica_random(9, 0)
    for poset in [grid_poset(3, 2), two_dim_random_poset(8, 1)]:
        for _ in range(300):
            run = coupled_ideal_run(poset, 0.5, rnd)
            # absorbed iff the max-chain sum of the counted weights matches;
            # coupled_ideal_run raises CouplingViolation internally otherwise
            assert run.absorption == max_chain_weight(poset, run.weights)


# sha256 of the "absorption:weights" lines of the runs below, recorded
# while maximal_of_mask still read a mask one member at a time; a change
# to the ideal chain, its site order or its replica streams changes it
COUPLED_GOLDEN = "a703f08398a8173f2b5429dbbd4ed9a6cfcdf2b977b838666ae9f2a2d916fbfc"


def test_coupled_runs_golden_digest():
    grid = grid_poset(15, 15)
    digest = hashlib.sha256()
    for r in range(5):
        run = coupled_ideal_run(grid, 0.5, replica_random(2026, r))
        digest.update(f"{run.absorption}:{' '.join(map(str, run.weights))}\n".encode())
    assert digest.hexdigest() == COUPLED_GOLDEN


def test_coupled_weights_are_geometric():
    poset = grid_poset(2, 2)
    rnd = replica_random(10, 0)
    first_cell = []
    for _ in range(20_000)        :
        first_cell.append(coupled_ideal_run(poset, 0.4, rnd).weights[0])
    counts = np.bincount(first_cell, minlength=12)[1:12]
    expected = [0.4 * 0.6 ** (k - 1) * len(first_cell) for k in range(1, 11)]
    expected.append(0.6**10 * len(first_cell))
    observed = list(counts[:10]) + [len(first_cell) - int(sum(counts[:10]))]
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001


def test_antichain_and_chain_absorption_structure():
    anti = build_poset([], n=2)
    rnd = replica_random(11, 0)
    for _ in range(200):
        run = coupled_ideal_run(anti, 0.5, rnd)
        assert run.absorption == max(run.weights)
    chain = build_poset([(0, 1)])
    for _ in range(200):
        run = coupled_ideal_run(chain, 0.5, rnd)
        assert run.absorption == sum(run.weights)


def test_complement_is_young_diagram_every_step():
    grid = grid_poset(3, 4)
    rnd = replica_random(12, 0)
    for _ in range(100):
        run = run_chain(IdealLattice(grid), 0.5, rnd, record=True)
        shapes = [ideal_complement_rows(3, 4, mask) for mask in run.states]
        assert shapes[0] == (0, 0, 0)
        assert shapes[-1] == (4, 4, 4)
        for a, b in zip(shapes, shapes[1:]):
            assert all(y - x in (0, 1) for x, y in zip(a, b))


def test_tasep_single_cell_is_geometric():
    samples = tasep_absorption_samples(1, 1, 0.25, 40_000, seed=6)
    stderr = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - 4.0) <= 3 * stderr
    counts = np.bincount(samples, minlength=10)
    assert counts[0] == 0  # takes at least one step


def test_tasep_scalar_matches_vectorized_distribution():
    rnd = replica_random(13, 0)
    scalar = np.array(
        [len(tasep_trajectory(2, 3, 0.5, rnd)) - 1 for _ in range(8_000)]
    )
    vec = tasep_absorption_samples(2, 3, 0.5, 8_000, seed=14)
    _, pvalue = stats.ks_2samp(scalar, vec)
    assert pvalue > 0.001


def test_tasep_matches_ideal_chain_distribution():
    rnd = replica_random(15, 0)
    grid = grid_poset(3, 3)
    chain_samples = np.array(
        [coupled_ideal_run(grid, 0.5, rnd).absorption for _ in range(8_000)]
    )
    tasep_samples = tasep_absorption_samples(3, 3, 0.5, 8_000, seed=16)
    _, pvalue = stats.ks_2samp(chain_samples, tasep_samples)
    assert pvalue > 0.001


@pytest.mark.parametrize("sampler", [tasep_absorption_samples, lpp_grid_samples])
@pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0), (-1, 2)])
def test_grid_samplers_reject_empty_grids_before_drawing(monkeypatch, sampler, n, m):
    # a grid needs a side of at least 1, as grid_poset and the CLI require;
    # the check comes before the replica stream is even derived
    def no_draws(*args):
        raise AssertionError("drew from a replica stream")

    monkeypatch.setattr(percolation, "replica_generator", no_draws)
    with pytest.raises(DomainError, match="grid sides must be at least 1"):
        sampler(n, m, 0.5, 4, 1)


def test_tasep_window_independence():
    # identical cell-keyed coins: the window trajectory must not change
    # when the simulation tracks a larger region
    def coin(seed):
        def fn(t, i, j):
            return (hash((seed, t, i, j)) & 0xFFFF) / 0x10000 < 0.5

        return fn

    rnd = replica_random(17, 0)
    for seed in range(10):
        small = tasep_trajectory(3, 3, 0.5, rnd, bit_fn=coin(seed))
        big = tasep_trajectory(7, 9, 0.5, rnd, bit_fn=coin(seed))
        # the window stays full once it fills, while the big diagram grows on
        clipped = [tuple(min(x, 3) for x in lam[:3]) for lam in big]
        assert clipped == small + [small[-1]] * (len(big) - len(small))


def test_rescaling_constants_values():
    phi, eta = rescaling_constants(0.5, 1, 1)
    assert phi == pytest.approx(2 * (2 + math.sqrt(2)), rel=1e-12)
    # direct substitution of the eta formula at p = 1/2, x = y = 1
    expected_eta = (
        0.5 ** (1 / 6) / 0.5 * (1 + math.sqrt(0.5)) ** (2 / 3) * (1 + math.sqrt(0.5)) ** (2 / 3)
    )
    assert eta == pytest.approx(expected_eta, rel=1e-12)
    with pytest.raises(DomainError):
        rescaling_constants(1.0, 1, 1)
    with pytest.raises(DomainError):
        rescaling_constants(0.5, 0, 1)


def test_phi_am_gm_bound():
    rnd = random.Random(18)
    for _ in range(500):
        p = rnd.uniform(0.05, 0.95)
        x, y = rnd.uniform(0.1, 50), rnd.uniform(0.1, 50)
        phi, _ = rescaling_constants(p, x, y)
        assert phi <= (x + y) * (1 + math.sqrt(1 - p)) / p + 1e-12


def test_tracy_widom_tail_values():
    assert tracy_widom_tail(4.0) == pytest.approx(
        math.exp(-32 / 3) / (256 * math.pi), rel=1e-12
    )
    ts = np.linspace(1, 9, 60)
    vals = [tracy_widom_tail(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        tracy_widom_tail(0.0)


def test_tracy_widom_tail_at_the_ends_of_the_float_range():
    # t ** 1.5 raises OverflowError above about 3e205; the tail there is 0
    assert [tracy_widom_tail(t) for t in (1e206, 1e300, 1.7e308)] == [0.0] * 3
    # at 1e-206 the tail is still a float; from 1e-207 down it is not
    assert 1e306 < tracy_widom_tail(1e-206) < math.inf
    for t in (1e-207, 1e-300, 5e-324):
        with pytest.raises(DomainError, match="exceeds the float range"):
            tracy_widom_tail(t)


def test_lln_toward_phi_small():
    samples = lpp_grid_samples(20, 20, 0.5, 400, seed=19).astype(float)
    phi, _ = rescaling_constants(0.5, 20, 20)
    assert 0.8 <= samples.mean() / phi <= 1.1


def test_upsilon_properties():
    assert upsilon(1.0, 5.0) == 0.0
    # scaling invariance under x -> (1-p) x
    for p in (0.3, 0.5, 0.8):
        for x in (0.7, 3.0, 100.0):
            assert upsilon(p, x) == pytest.approx(upsilon(p, (1 - p) * x), rel=1e-9)
    with pytest.raises(DomainError):
        upsilon(0.5, -1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0])
def test_upsilon_rejects_x_that_is_not_positive_and_finite(x):
    # a NaN x compares false against every tail bound and would never stop
    with pytest.raises(DomainError):
        upsilon(0.5, x)


def test_upsilon_sums_from_subnormal_x():
    # the sum is invariant under x -> x / q, exactly so at q = 1/2 and
    # powers of two
    assert upsilon(0.5, 5e-324) == pytest.approx(upsilon(0.5, 1.0), rel=1e-12)
    assert upsilon(0.5, 2.0**-1060) == pytest.approx(upsilon(0.5, 2.0**-10), rel=1e-12)
    shifted = 1e-310 * 2.0**520 * 2.0**520
    assert upsilon(0.5, 1e-310) == pytest.approx(upsilon(0.5, shifted), rel=1e-12)
    for p in (0.3, 0.9):
        value = upsilon(p, 1e-320)
        assert zeta_liminf_lower_bound(p) <= value <= zeta_limsup_estimate(p) + 1e-9


def test_upsilon_at_tiny_x_is_quick_and_periodic():
    # 1e-300 shifted into the period of log x that holds 1e-12
    p = 0.001
    period = -math.log1p(-p)
    periods = math.ceil((math.log(1e-12) - math.log(1e-300)) / period)
    shifted = math.exp(math.log(1e-300) + periods * period)
    start = time.perf_counter()
    value = upsilon(p, 1e-300)
    assert time.perf_counter() - start < 0.005
    assert abs(value - upsilon(p, shifted)) <= 1e-12


@pytest.mark.parametrize("p", [1e-4, 1e-5, 1e-17])
def test_upsilon_at_small_p_is_its_mean(p):
    # every Fourier term of the series is below 1e-17 here; at p = 1e-17,
    # 1 - p rounds to 1 and only log1p keeps the period
    assert abs(upsilon(p, 1.0) - p / -math.log1p(-p)) <= 1e-12


UPSILON_PS = (0.01, 0.1, 0.3, 0.5, 0.9, 0.99)


@pytest.mark.parametrize("p", UPSILON_PS)
def test_upsilon_matches_the_term_by_term_series(p):
    for x in (0.37, 1.0, 5.0, 1e4, 123456.7):
        assert abs(upsilon(p, x) - upsilon_series(p, x)) <= 2e-12, x


@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.9, 0.99, 1 - 1e-9])
def test_gamma_of_every_fourier_term_matches_scipy(p):
    from scipy.special import loggamma

    period, coeffs = percolation._fourier_coefficients(p)
    for m in range(1, len(coeffs)):
        z = complex(1, -2 * math.pi * m / period)
        assert abs(percolation._gamma(z) / np.exp(loggamma(z)) - 1) <= 1e-13, m


def test_zeta_trivial_and_small_n_exact():
    # a single maximum is trivially unique, and a sure estimate has no error
    assert zeta_estimate(0.5, 1, 2_000, seed=20) == (1.0, 0.0)
    # n = 2: P(X != Y) = 1 - p/(1+q) in closed form
    p = 0.4
    exact = 1 - p / (2 - p)
    est, err = zeta_estimate(p, 2, 60_000, seed=21)
    assert abs(est - exact) <= 3 * err


def test_zeta_approaches_upsilon():
    est, err = zeta_estimate(0.5, 1_000, 40_000, seed=22)
    assert abs(est - upsilon(0.5, 1_000)) <= 0.01 + 3 * err
    assert est >= zeta_liminf_lower_bound(0.5) - 3 * err


def test_zeta_exact_closed_forms():
    for p in (0.1, 0.4, 0.5, 0.9, 1.0):
        assert zeta_exact(p, 1) == 1.0
        # n = 2: P(X != Y) = 1 - p/(2-p)
        assert abs(zeta_exact(p, 2) - (1 - p / (2 - p))) <= 1e-12
    assert abs(zeta_exact(0.5, 3) - 5 / 7) <= 1e-12
    assert zeta_exact(1.0, 5) == 0.0  # every variable equals 1
    assert abs(zeta_exact(0.5, 10_000) - upsilon(0.5, 10_000)) <= 1e-7
    with pytest.raises(DomainError):
        zeta_exact(0.5, 0)


def test_zeta_exact_sums_past_one_block_and_refuses_past_the_cap():
    p = 1e-5  # 3.5 million terms at n = 2: four blocks
    assert abs(zeta_exact(p, 2) - (1 - p / (2 - p))) <= 1e-9
    with pytest.raises(SeriesTruncationError, match="terms"):
        zeta_exact(1e-8, 2)  # 3.5e9 terms


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_zeta_sampler_matches_exact(p):
    for seed, n in enumerate((1, 2, 3, 10, 200, 10_000, 10**6)):
        est, err = zeta_estimate(p, n, 200_000, seed=300 + seed)
        if n == 1:
            assert est == 1.0
        else:
            assert abs(est - zeta_exact(p, n)) <= 3 * err, (p, n, est, err)


def test_zeta_sampler_counts_every_block(monkeypatch):
    monkeypatch.setattr(percolation, "_DRAW_BLOCK", 1000)  # 500 trials a block
    est, err = zeta_estimate(0.5, 50, 20_400, seed=8)
    assert abs(est - zeta_exact(0.5, 50)) <= 3 * err


def test_zeta_sampler_at_p_one():
    assert zeta_estimate(1.0, 1, 500, seed=1)[0] == 1.0
    assert zeta_estimate(1.0, 4, 500, seed=1)[0] == 0.0


@pytest.mark.parametrize("p, n", [(0.3, 2), (0.3, 5), (0.7, 3), (0.7, 40), (0.5, 200)])
def test_zeta_sampler_matches_plain_oracle(p, n):
    est, err = zeta_estimate(p, n, 100_000, seed=17)
    plain, plain_err = plain_zeta_estimate(p, n, 100_000, seed=17)
    assert abs(est - plain) <= 3 * math.hypot(err, plain_err), (est, plain)
    assert abs(plain - zeta_exact(p, n)) <= 3 * plain_err


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9, 0.93, 0.99])
def test_zeta_limsup_is_at_least_the_series_grid_max(p):
    xs = np.exp(np.linspace(math.log(1 - p), 0.0, 4096))
    assert zeta_limsup_estimate(p) >= max(upsilon_series(p, float(x)) for x in xs)


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
def test_zeta_limsup_is_the_series_golden_section_max(p):
    # the series over one period of log x, refined about its grid maximum
    logs = np.linspace(math.log(1 - p), 0.0, 4096)
    i = max(range(len(logs)), key=lambda j: upsilon_series(p, math.exp(logs[j])))
    top = golden_section_max(lambda t: upsilon_series(p, math.exp(t)),
                             logs[max(i - 1, 0)], logs[min(i + 1, len(logs) - 1)])
    assert abs(zeta_limsup_estimate(p) - top) <= 1e-11


def test_tamari_coefficient_near_p_one():
    # the digits the 4096-point grid missed
    for p, printed in [(0.8, "0.918035354791"), (0.9, "0.78887462227"),
                       (0.99, "0.692733864416")]:
        assert format(tamari_linear_coefficient(p), ".12g") == printed


def test_zeta_limsup_and_coefficients():
    z = zeta_limsup_estimate(0.5)
    assert 0.7 < z < 0.75
    assert z >= zeta_liminf_lower_bound(0.5)
    assert sn_linear_coefficient(0.5) == pytest.approx(
        (1 + math.sqrt(0.5)) / 0.5, rel=1e-12
    )
    coeff = tamari_linear_coefficient(0.5)
    assert 1.0 < coeff < 3.0


def test_survival_dominance_for_sub_ideals():
    # started from any smaller ideal, the chain absorbs stochastically
    # no later than from the full ideal
    from oracles import order_ideals

    class StartedAt(IdealLattice):
        """The ideal chain on J(grid) started from ``mask``."""

        def __init__(self, poset, mask):
            super().__init__(poset)
            self.mask = mask

        def top(self):
            return self.mask

    grid = grid_poset(2, 3)
    lattice = IdealLattice(grid)
    reps = 4_000
    full_rnd = replica_random(41, 0)
    full = np.array(
        [run_chain(lattice, 0.5, full_rnd).absorption for _ in range(reps)]
    )
    for mask in order_ideals(grid).ideal_masks:
        if mask in (0, grid.full_mask()):
            continue
        started = StartedAt(grid, mask)
        sub_rnd = replica_random(42 + mask, 0)
        sub = np.array(
            [run_chain(started, 0.5, sub_rnd).absorption for _ in range(reps // 4)]
        )
        for t in range(1, int(full.max()) + 1):
            left = (sub >= t).mean()
            right = (full >= t).mean()
            tol = 3 * math.sqrt(
                left * (1 - left) / len(sub) + right * (1 - right) / reps
            )
            assert left <= right + tol, (mask, t)
