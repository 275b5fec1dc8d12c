"""Skyline arrays, summaries, the damped bound, and the stream simulator."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ungar_lab.cli import main
from ungar_lab.engine import TamariForestLattice, monte_carlo_expectation
from ungar_lab.errors import BoundViolation, DomainError, InvariantViolation
from ungar_lab.rng import StreamBank, replica_generator, replica_random
from ungar_lab.skyline import (
    TwoRowedArray,
    _Phase2,
    algorithm1_run,
    event_array,
    event_interval,
    event_interval_probability,
    good_array_length_bounds,
    good_frequency,
    is_childlike,
    is_good,
    lower_bound_f,
    sample_g_conditional,
    skyline,
    summarize,
    summary_columns,
    summary_length_bounds,
)


def brute_skyline(values):
    """Oracle: the suffix-maxima rules applied verbatim."""
    c = list(values)
    m = len(c)
    top = [1]
    window_end = m
    while True:
        best = max(c[1:window_end])
        a = max(j for j in range(2, window_end + 1) if c[j - 1] == best)
        top.append(a)
        if a == 2:
            break
        window_end = a - 1
    return [top, [c[a - 1] for a in top]]


def test_skyline_worked_example():
    assert skyline([5, 3, 1, 4, 2]).as_lists() == [[1, 4, 2], [5, 4, 3]]


def test_skyline_decreasing_input():
    for c in ([9, 7, 5, 3, 1], [4, 3, 2, 1]):
        assert skyline(c).as_lists() == [[1, 2], [c[0], c[1]]]


def test_skyline_matches_brute_force():
    rng = replica_generator(1, 0)
    for _ in range(300):
        m = int(rng.integers(2, 12))
        c = [int(v) for v in rng.integers(1, 9, size=m)]
        assert skyline(c).as_lists() == brute_skyline(c)


def test_childlike_iff_first_beats_skyline():
    rng = replica_generator(2, 0)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        c = [int(v) for v in rng.integers(1, n + 1, size=n)]
        arr = skyline(c)
        assert is_childlike(arr, n) == (c[0] > arr.bottom[1])


def test_summary_worked_example():
    arr = TwoRowedArray((1, 9, 5, 3, 2), (20, 9, 5, 3, 2))
    assert summarize(arr, 16).as_lists() == [[1, 9, 5, 2], [20, 9, 5, 2]]
    assert summary_columns(arr, 16) == (2, 3, 5)


def test_summary_keeps_everything_when_each_next_is_unique_qualifier():
    # the whole sequence survives when, at every pick, the immediately
    # following element is the only (hence smallest) qualifying value
    arr = TwoRowedArray((1, 50, 14, 4, 2), (55, 50, 14, 4, 2))
    n = 55  # log n ~ 4.007
    assert summarize(arr, n).as_lists() == [[1, 50, 14, 4, 2], [55, 50, 14, 4, 2]]


def test_summary_skips_dense_runs():
    # with many qualifiers the smallest value wins, so dense runs collapse
    arr = TwoRowedArray((1, 5, 4, 3, 2), (9, 5, 4, 3, 2))
    assert summarize(arr, 1000).as_lists() == [[1, 5, 2], [9, 5, 2]]


def test_good_predicate_endpoints():
    n = 100  # log n ~ 4.6, n/log n ~ 21.7, (log n)^3 ~ 97.6
    good = TwoRowedArray((1, 80, 25, 7, 2), (9, 8, 7, 6, 5))
    assert is_good(good, n)
    bad_start = TwoRowedArray((1, 15, 7, 2), (9, 8, 7, 6))
    assert is_childlike(bad_start, n) and not is_good(bad_start, n)


def test_childlike_rejects_out_of_range_and_non_monotone():
    n = 10
    assert not is_childlike(TwoRowedArray((1, 5, 2), (40, 3, 2)), n)  # b1 > n
    assert not is_childlike(TwoRowedArray((1, 5, 2), (9, 3, 4)), n)
    assert not is_childlike(TwoRowedArray((1, 5, 2), (3, 3, 2)), n)  # b1 = b2
    assert not is_childlike(TwoRowedArray((1, 2, 5), (9, 3, 2)), n)
    assert is_childlike(TwoRowedArray((1, 5, 2), (9, 3, 3)), n)


def test_lower_bound_f_values():
    assert lower_bound_f(10, 0.5) == 1.0
    assert lower_bound_f(1.0, 0.9) == 1.0
    # desk-scale arguments sit in the f = 1 regime
    assert lower_bound_f(1e6, 0.5, 10.0) == 1.0
    with pytest.raises(DomainError):
        lower_bound_f(0.5, 0.5)


def test_lower_bound_f_continuous_at_16():
    for p in (0.2, 0.5, 0.9, 1.0):
        below = lower_bound_f(16 - 1e-9, p)
        above = lower_bound_f(16 + 1e-9, p)
        assert abs(below - above) < 1e-12
        assert lower_bound_f(16.0, p) == 1.0


def test_lower_bound_f_is_linear_times_damping_when_active():
    # tiny c1 pushes the threshold down so the formula branch activates
    x, p, c1 = 1e9, 0.5, 0.01
    damp = p**8 * math.exp(c1 / p**2) * math.log(math.log(x)) ** 4
    expected = x * math.exp(-damp)
    assert expected > 1
    assert lower_bound_f(x, p, c1) == pytest.approx(expected, rel=1e-12)
    assert lower_bound_f(x, p, c1) <= x


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e12),
    st.floats(min_value=1.0, max_value=1e12),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from([10.0, 25.0]),  # constants satisfying the adjustment
)
def test_lower_bound_f_subadditive_and_scaling(a, b, p, c1):
    slack = 1 + 1e-11  # float noise only; the inequalities are exact
    fa, fb = lower_bound_f(a, p, c1), lower_bound_f(b, p, c1)
    assert lower_bound_f(a + b, p, c1) <= (fa + fb) * slack
    r = 1.0 + (b % 7.0)
    assert lower_bound_f(r * a, p, c1) <= r * fa * slack
    # h(x) = f(x)/x nonincreasing
    lo, hi = sorted((a, b))
    assert lower_bound_f(hi, p, c1) / hi <= lower_bound_f(lo, p, c1) / lo * slack


def test_event_interval_truth_table():
    assert event_interval([2, 1], 1, 2, 2)
    assert not event_interval([2, 2], 1, 2, 2)
    assert not event_interval([3, 1], 1, 2, 2)
    assert event_interval([5, 1, 4, 2], 1, 4, 5)
    with pytest.raises(ValueError):
        event_interval([1, 2], 1, 3, 1)


@pytest.mark.parametrize("n, m, i, j", [
    (5, 0, 1, 5), (5, -1, 1, 5), (5, 3, 4, 2), (5, 3, 0, 5), (5, 3, 1, 9), (5, 3, 6, 6),
])
def test_events_over_an_impossible_interval_are_domain_errors(n, m, i, j):
    # g_l >= 1 makes m < 1 impossible, and [i, j] must lie in [1, n]; the
    # closed form alone gives 1.0 at (n, m) = (5, 0)
    with pytest.raises(DomainError):
        event_interval([3, 1, 2, 1, 1], i, j, m)
    with pytest.raises(DomainError):
        event_interval_probability(n, m, 0.5, i, j)


def test_skyline_does_not_load_the_engine():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, ungar_lab.skyline; sys.exit('ungar_lab.engine' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_event_array_is_skyline_equality():
    g = [5, 3, 1, 4, 2]
    assert event_array(g, skyline(g))
    assert not event_array(g, TwoRowedArray((1, 2), (5, 3)))


def test_event_interval_probability_empirical():
    n, m, p = 5, 3, 0.4
    rng = replica_generator(3, 0)
    reps = 60_000
    hits = sum(
        event_interval(rng.geometric(p, size=n), 1, n, m) for _ in range(reps)
    )
    expected = event_interval_probability(n, m, p)
    stderr = math.sqrt(expected * (1 - expected) / reps)
    assert abs(hits / reps - expected) <= 3 * stderr


def test_conditional_sampler_matches_conditioning():
    rng = replica_generator(4, 0)
    for _ in range(200):
        g = sample_g_conditional(8, 0.5, m=4, rng=rng)
        assert g[0] == 4 and (g[1:] < 4).all() and (g[1:] >= 1).all()
        assert event_interval(g, 1, 8, 4)
    # truncated-geometric marginals
    draws = np.concatenate(
        [sample_g_conditional(2, 0.5, m=4, rng=rng)[1:] for _ in range(30_000)]
    )
    counts = np.bincount(draws, minlength=4)[1:4]
    weights = np.array([0.5, 0.25, 0.125])
    _, pvalue = stats.chisquare(counts, weights / weights.sum() * len(draws))
    assert pvalue > 0.001


@pytest.mark.parametrize("n", [0, -2])
def test_conditional_sampler_names_n_below_1(n):
    with pytest.raises(DomainError, match="n must be >= 1"):
        sample_g_conditional(n, 0.5, 3, replica_generator(4, 0))


def test_summary_length_bounds_arithmetic():
    # at n = e^e: log n = e and log log n = 1, so the bounds are exactly
    # (e - 3, 2e + 2)
    lo, hi = summary_length_bounds(math.e**math.e)
    assert lo == pytest.approx(math.e - 3, rel=1e-12)
    assert hi == pytest.approx(2 * math.e + 2, rel=1e-12)
    with pytest.raises(DomainError):
        summary_length_bounds(2)


def test_good_arrays_satisfy_length_bounds_in_simulation():
    # generated skylines that happen to be good always pass both bounds
    rng = replica_generator(5, 0)
    n = 2000
    seen = 0
    for _ in range(3_000):
        g = sample_g_conditional(n, 0.5, m=14, rng=rng)
        arr = skyline(g)
        if is_good(arr, n):
            seen += 1
            good_array_length_bounds(summarize(arr, n), n)
    assert seen > 100


def test_good_array_length_bounds_rejects_synthetic():
    n = 2000  # bounds are about (0.75, 9.49): a 12-element summary violates
    fake = TwoRowedArray(tuple(range(1, 14)), tuple(range(26, 13, -1)))
    with pytest.raises(BoundViolation):
        good_array_length_bounds(fake, n)


def test_stream_bank_replays_and_is_bernoulli():
    bank = StreamBank(7, 0.3)
    bits = [bank.bernoulli("S", 3, t) for t in range(1, 2_001)]
    again = StreamBank(7, 0.3)
    assert bits == [again.bernoulli("S", 3, t) for t in range(1, 2_001)]
    # out-of-order consultation must agree too
    shuffled = StreamBank(7, 0.3)
    assert bits[499] == shuffled.bernoulli("S", 3, 500)
    freq = sum(bits) / len(bits)
    assert abs(freq - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / 2_000)
    assert bank.first_success("S", 3) == bits.index(True) + 1


def test_algorithm1_marginal_law():
    # every vertex is operated on with probability p each step
    n, p = 4, 0.5
    ops = np.zeros(n + 1, dtype=np.int64)
    steps = 0
    for seed in range(4_000):
        res = algorithm1_run(n, p, seed)
        ops += res.op_counts
        steps += res.steps
    for v in range(1, n + 1):
        freq = ops[v] / steps
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / steps)


def test_algorithm1_matches_naive_distribution_small():
    samples_a = np.array([algorithm1_run(4, 0.5, seed).steps for seed in range(3_000)])
    samples_n = monte_carlo_expectation(
        TamariForestLattice(4), 0.5, reps=3_000, seed=8
    ).samples
    _, pvalue = stats.ks_2samp(samples_a, samples_n)
    assert pvalue > 0.001


def test_algorithm1_g_values():
    res = algorithm1_run(6, 0.5, 123)
    bank = StreamBank(123, 0.5)
    for i, gi in enumerate(res.g, start=1):
        assert bank.first_success("S", i) == gi
    assert res.steps >= max(res.g)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_algorithm1_g_is_the_first_s_success_even_when_unfired(n):
    # small chains are often absorbed before every vertex has fired
    unfired = 0
    for seed in range(200):
        res = algorithm1_run(n, 0.5, seed)
        bank = StreamBank(seed, 0.5)
        g = [bank.first_success("S", i) for i in range(1, n + 1)]
        assert list(res.g) == g, seed
        unfired += max(g) > res.steps
    assert unfired > 0


def test_algorithm1_disconnect_times_on_childlike_runs():
    found = 0
    for seed in range(400):
        res = algorithm1_run(7, 0.5, seed)
        if not res.childlike:
            assert res.t_disconnect is None
            continue
        found += 1
        ts = res.t_disconnect
        assert ts[0] >= 1  # t_2 >= 1
        assert all(b - a >= 1 for a, b in zip(ts, ts[1:]))
    assert found > 20


def _forced_full_mode_run(seed):
    n = 60
    force = {v: 1 for v in range(1, n + 1)}
    force.update({1: 9, 59: 8, 15: 7, 4: 6, 2: 5})
    return algorithm1_run(n, 0.5, seed, landmark_constant=0.5,
                          g=[force[v] for v in range(1, n + 1)])


# sha256 of the records below, recorded at commit fe7f056; any change to the
# stream triple a vertex reads, or to the forest it operates on, changes it.
# Re-recorded when a vertex still unfired at absorption got the first
# success of its S stream as g instead of 0 (seven records at n <= 4 moved).
ALGORITHM1_GOLDEN = "015c3ea1bbad7e61ac5aec79f34edd87099cfca786c61bf0bbb6eb76ddb71e77"


def test_algorithm1_golden_digest(capsys):
    runs = [
        algorithm1_run(n, p, seed)
        for n in (2, 3, 4, 7, 12, 40)
        for p in (0.3, 0.5)
        for seed in range(10)
    ]
    assert any(res.degenerate for res in runs)
    assert any(res.childlike and not res.degenerate for res in runs)
    runs += [_forced_full_mode_run(seed) for seed in range(60)]
    digest = hashlib.sha256()
    for res in runs:
        record = res.to_jsonable()
        record.update(mode=res.mode, steps=res.steps, op_counts=res.op_counts.tolist())
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert main(["skyline", "--n", "100", "--p", "0.5", "--reps", "20", "--seed", "1"]) == 0
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ALGORITHM1_GOLDEN


def test_algorithm1_full_mode_reachable_with_hooks():
    res = _forced_full_mode_run(31)
    assert res.mode == "full" and res.good and not res.degenerate
    assert res.skyline.as_lists() == [[1, 59, 15, 4, 2], [9, 8, 7, 6, 5]]
    ts = res.t_disconnect
    assert ts[0] >= 1 and all(b - a >= 1 for a, b in zip(ts, ts[1:]))


def test_algorithm1_given_its_own_g_replays_the_run():
    plain = algorithm1_run(6, 0.5, 3)
    assert algorithm1_run(6, 0.5, 3, g=plain.g).to_jsonable() == plain.to_jsonable()


@pytest.mark.parametrize("g", [[1] * 5, [1] * 7, [2, 1, 0, 1, 1, 1], [2, 1, -1, 1, 1, 1]])
def test_algorithm1_rejects_a_g_of_the_wrong_length_or_below_1(g):
    with pytest.raises(DomainError, match="first-fire times"):
        algorithm1_run(6, 0.5, 3, g=g)


def test_algorithm1_given_g_draws_no_s_first_success(monkeypatch):
    def refuse(self, stream, label):
        raise AssertionError(f"first_success({stream!r}) drawn")

    monkeypatch.setattr(StreamBank, "first_success", refuse)
    res = _forced_full_mode_run(31)
    assert res.mode == "full" and res.steps > max(res.g)
    with pytest.raises(AssertionError, match="drawn"):
        algorithm1_run(6, 0.5, 3)


def test_algorithm1_replays_a_conditionally_sampled_g():
    n, p, m = 40, 0.5, 7
    rng = replica_generator(4, 0)
    for _ in range(20):
        res = algorithm1_run(n, p, 9, g=sample_g_conditional(n, p, m, rng))
        assert res.g[0] == m and max(res.g[1:]) < m and res.childlike


def test_algorithm1_full_mode_audit_catches_a_shared_triple(monkeypatch):
    # route vertex 1 to the triple ("B", n), which vertex n reads at every
    # full-mode step (n is never a skyline label a_j with j >= 3, nor in a
    # landmark window)
    init = _Phase2.__init__

    def shared_init(self, g, n, landmark_constant):
        init(self, g, n, landmark_constant)
        if self.mode == "full":
            self.first = [("B", n)] * len(self.first)

    monkeypatch.setattr(_Phase2, "__init__", shared_init)
    with pytest.raises(InvariantViolation, match="distinct triples"):
        _forced_full_mode_run(31)


def test_algorithm1_full_mode_marginal_law():
    n = 60
    ops = np.zeros(n + 1, dtype=np.int64)
    steps = 0
    for seed in range(60):
        res = _forced_full_mode_run(seed)
        assert res.mode == "full"
        # every step counts, the pinned ones up to max(g) included
        ops += res.op_counts
        steps += res.steps
    freq = ops[1:].sum() / (steps * n)
    # forced g-values bias a handful of early bits; the overall rate must
    # still sit within a generous band around p
    assert 0.45 < freq < 0.55


def test_degenerate_and_plain_modes_flagged():
    # childlike but far too short a summary at feasible n: degenerate
    seen_modes = set()
    for seed in range(300):
        res = algorithm1_run(12, 0.5, seed)
        seen_modes.add(res.mode)
        if res.good:
            assert res.degenerate  # landmark indices cannot exist at n=12
    assert seen_modes == {"plain"}


def test_good_frequency_conditional():
    freq, err = good_frequency(1_000, 0.5, m=12, reps=400, seed=9)
    assert 0.0 <= freq <= 1.0
    bound = 1 - 2 / math.log(math.log(1_000))
    assert freq >= bound - 3 * err  # bound is vacuous at this n, by design
    # every conditioned skyline is good here, and a sure frequency has no error
    assert good_frequency(50, 0.5, 3, 200, 1) == (1.0, 0.0)


def conditioned_naive_run(n, p, g, rnd):
    """Oracle: the chain conditioned on the first-fire pattern ``g``.

    Vertex ``i`` receives no operation before step ``g[i]``, one at
    ``g[i]``, and an independent Bernoulli(p) operation afterwards; this
    is exactly the conditional law of the chain given the pattern.
    """
    from ungar_lab.tamari import SimForest

    sim = SimForest.path(n)
    t = 0
    while not sim.absorbed():
        t += 1
        for v in range(1, n + 1):
            gv = g[v]
            if t < gv:
                continue
            if t == gv or rnd.random() < p:
                sim.operate(v)
    return t


def test_full_mode_matches_conditioned_naive_distribution():
    # the deep-branch selection rules must still produce the conditional
    # chain law given the pinned first-fire pattern
    n, p, reps = 60, 0.5, 1_500
    force = {v: 1 for v in range(1, n + 1)}
    force.update({1: 9, 59: 8, 15: 7, 4: 6, 2: 5})
    stream = np.empty(reps, dtype=np.int64)
    for seed in range(reps):
        res = algorithm1_run(
            n, p, 5_000 + seed, landmark_constant=0.5,
            g=[force[v] for v in range(1, n + 1)],
        )
        assert res.mode == "full"
        stream[seed] = res.steps
    rnd = replica_random(5_001, 0)
    naive = np.array(
        [conditioned_naive_run(n, p, force, rnd) for _ in range(reps)]
    )
    _, pvalue = stats.ks_2samp(stream, naive)
    assert pvalue > 0.001, pvalue
