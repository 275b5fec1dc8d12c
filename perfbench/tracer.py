"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces public functions and methods of the
``ungar_lab`` modules with wrappers, for the duration of a ``with`` block,
and puts every original back afterwards.  A function is replaced under
every name that binds it in any ``ungar_lab`` module, so calls through
``from .x import y`` bindings (``engine.ungar_move``, ``cli.algorithm1_run``)
are seen too.

Timed wrappers keep a stack of open calls, so each name gets its call
count, inclusive time and self time (inclusive time minus the time of
timed calls made inside it).  Coarse calls also record a span
``(name, start, end, parent)``; spans stay in memory until the run writes
them out.  Counted wrappers only count, and their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import random
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric name, unit, workloads on which it must be nonzero)
LAYER_METRICS = [
    ("cli.self_s", "s", ("enumerable", "grid", "large_n")),
    ("cli.out_bytes", "bytes", ("enumerable", "grid", "large_n")),
    ("rng.replica_random.calls", "count", ("enumerable", "large_n")),
    ("rng.replica_random.s", "s", ("enumerable", "large_n")),
    ("rng.replica_generator.calls", "count", ("large_n",)),
    ("rng.scalar_draws", "count", ("enumerable", "large_n")),
    ("rng.bank.bernoulli.calls", "count", ("large_n",)),
    ("engine.enumerate_states.s", "s", ("enumerable",)),
    ("engine.states", "count", ("enumerable",)),
    ("engine.exact.self_s", "s", ("enumerable",)),
    ("engine.transitions", "count", ("enumerable", "grid")),
    ("engine.pick_sites.calls", "count", ("enumerable", "grid")),
    ("engine.mc.step_s", "s", ("enumerable", "grid")),
    ("engine.mc.steps", "count", ("enumerable", "grid")),
    ("engine.mc.self_s", "s", ("enumerable", "grid")),
    ("perms.ungar_move.calls", "count", ("large_n", "enumerable")),
    ("perms.ungar_move.s", "s", ("large_n", "enumerable")),
    ("perms.av_move.calls", "count", ("enumerable",)),
    ("tamari.forest_ungar.calls", "count", ("enumerable",)),
    ("tamari.forest_ungar.s", "s", ("enumerable",)),
    ("tamari.simforest.operate.calls", "count", ("enumerable", "large_n")),
    ("tamari.simforest.s", "s", ("enumerable", "large_n")),
    ("poset.maximal_of_mask.calls", "count", ("grid",)),
    ("poset.maximal_of_mask.s", "s", ("grid",)),
    ("poset.maximal_cache_hit_ratio", "ratio", ("grid",)),
    ("percolation.coupled_ideal_run.s", "s", ("grid",)),
    ("percolation.lpp_grid_samples.s", "s", ("grid",)),
    ("percolation.lpp_sample.s", "s", ("grid",)),
    ("percolation.tasep_absorption_samples.s", "s", ("grid",)),
    ("percolation.zeta_estimate.s", "s", ("large_n",)),
    ("percolation.upsilon.calls", "count", ("large_n",)),
    ("percolation.upsilon.s", "s", ("large_n",)),
    ("percolation.geometric_draws", "count", ("grid", "large_n")),
    ("skyline.algorithm1_run.s", "s", ("large_n",)),
    ("skyline.algorithm1_run.steps", "count", ("large_n",)),
    ("trace.overhead_s", "s", ()),
]


class Tracer:
    """Spans, call counts, times and derived counts for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open timed calls: [child seconds, span id]
        counts = self.counts

        class CountedRandom(random.Random):
            # getrandbits is overridden too, so random.Random keeps its
            # bit-based randrange and a copy draws exactly what the original would
            def random(self):
                counts["rng.scalar_draws"] += 1
                return super().random()

            def getrandbits(self, k):
                return super().getrandbits(k)

        self._random_cls = CountedRandom

    # -- wrappers -------------------------------------------------------------

    def timed(self, fn, name: str, *, span: bool = False, after=None, transform=None):
        """Wrap ``fn``; ``after(args, kwargs, result)`` adds derived counts and
        ``transform(result)`` replaces the result outside the timed interval."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span_id = parent_span
            if span:
                span_id = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent_span))
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.seconds[name] += duration
                self.self_seconds[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if span:
                    self.spans[span_id] = (name, start, end, parent_span)
            if after is not None:
                after(args, kwargs, result)
            return transform(result) if transform is not None else result

        return wrapper

    def counted(self, fn, *names: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name in names:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_in_span(self, name: str, fn):
        """Call ``fn()`` inside a harness-level span, such as one job."""
        return self.timed(fn, name, span=True)()

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def _counted_random(self, rnd: random.Random) -> random.Random:
        """A copy of ``rnd`` that counts its ``random()`` draws."""
        copy = self._random_cls(0)
        copy.setstate(rnd.getstate())
        return copy

    # -- installation ---------------------------------------------------------

    def _plan(self):
        """(owner, attribute, wrapper) for every wrapped function and method."""
        # the package re-exports a function named skyline over the submodule
        cli, engine, percolation, perms, poset, rng, skyline, tamari = (
            importlib.import_module(f"ungar_lab.{name}") for name in
            ("cli", "engine", "percolation", "perms", "poset", "rng", "skyline", "tamari"))
        add = self._add
        t, c = self.timed, self.counted
        plan = [
            (cli, "main", t(cli.main, "cli.main", span=True)),
            (rng, "replica_random",
             t(rng.replica_random, "rng.replica_random", transform=self._counted_random)),
            (rng, "replica_generator", c(rng.replica_generator, "rng.replica_generator")),
            (rng.StreamBank, "bernoulli",
             c(rng.StreamBank.bernoulli, "rng.bank.bernoulli")),
            (engine, "enumerate_states",
             t(engine.enumerate_states, "engine.enumerate_states", span=True,
               after=lambda a, k, r: add("engine.states", len(r)))),
            (engine, "exact_expected_absorption",
             t(engine.exact_expected_absorption, "engine.exact", span=True)),
            (engine, "monte_carlo_expectation",
             t(engine.monte_carlo_expectation, "engine.mc", span=True)),
            (engine, "run_chain",
             t(engine.run_chain, "engine.mc.step",
               after=lambda a, k, r: add("engine.mc.steps", r.absorption))),
            (engine.TamariForestLattice, "fast_absorption_sample",
             t(engine.TamariForestLattice.fast_absorption_sample, "engine.mc.step",
               after=lambda a, k, r: add("engine.mc.steps", r))),
            (perms, "ungar_move", t(perms.ungar_move, "perms.ungar_move")),
            (tamari, "av_ungar_move", c(tamari.av_ungar_move, "perms.av_move")),
            (tamari.OrderedForest, "ungar",
             t(tamari.OrderedForest.ungar, "tamari.forest_ungar")),
            (tamari.SimForest, "__init__",
             t(tamari.SimForest.__init__, "tamari.simforest.init")),
            (tamari.SimForest, "non_leaves",
             t(tamari.SimForest.non_leaves, "tamari.simforest.non_leaves")),
            (tamari.SimForest, "operate",
             t(tamari.SimForest.operate, "tamari.simforest.operate")),
            (poset.FinitePoset, "maximal_of_mask",
             t(poset.FinitePoset.maximal_of_mask, "poset.maximal_of_mask")),
            (percolation, "coupled_ideal_run",
             t(percolation.coupled_ideal_run, "percolation.coupled_ideal_run", span=True)),
            (percolation, "lpp_grid_samples",
             t(percolation.lpp_grid_samples, "percolation.lpp_grid_samples", span=True,
               after=self._draws(percolation.lpp_grid_samples, "reps", "n", "m"))),
            (percolation, "lpp_sample",
             t(percolation.lpp_sample, "percolation.lpp_sample",
               after=lambda a, k, r: add("percolation.geometric_draws", len(r.weights)))),
            (percolation, "tasep_absorption_samples",
             t(percolation.tasep_absorption_samples,
               "percolation.tasep_absorption_samples", span=True)),
            (percolation, "zeta_estimate",
             t(percolation.zeta_estimate, "percolation.zeta_estimate", span=True,
               after=self._draws(percolation.zeta_estimate, "trials", "n"))),
            (percolation, "upsilon", t(percolation.upsilon, "percolation.upsilon")),
            (skyline, "algorithm1_run",
             t(skyline.algorithm1_run, "skyline.algorithm1_run", span=True,
               after=lambda a, k, r: add("skyline.algorithm1_run.steps", r.steps))),
        ]
        for cls in (engine.SnLattice, engine.TamariAvLattice, engine.TamariForestLattice,
                    engine.IdealLattice, engine.ChainLattice):
            plan.append((cls, "apply", c(cls.apply, "engine.transitions")))
            extra = ("engine.pick_sites.ideal",) if cls is engine.IdealLattice else ()
            plan.append((cls, "pick_sites", c(cls.pick_sites, "engine.pick_sites", *extra)))
        return plan

    def _draws(self, fn, *params: str):
        """An ``after`` hook adding the product of ``fn``'s named arguments
        to the geometric draw count."""
        def after(args, kwargs, result):
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            self._add("percolation.geometric_draws", math.prod(bound[p] for p in params))
        return after

    @contextmanager
    def installed(self):
        """Wrap everything in the plan; restore the originals on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ungar_lab" or name.startswith("ungar_lab."))]
        restore = []
        try:
            for owner, attr, wrapper in self._plan():
                if isinstance(owner, type):
                    restore.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
                    continue
                original = getattr(owner, attr)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, name, value))
                            setattr(module, name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, out_bytes: int) -> dict[str, float]:
        """Every LAYER_METRICS value except ``trace.overhead_s``."""
        calls, secs, counts = self.calls, self.seconds, self.counts
        ideal_picks = calls["engine.pick_sites.ideal"]
        hit_ratio = (1.0 - calls["poset.maximal_of_mask"] / ideal_picks) if ideal_picks else 0.0
        return {
            "cli.self_s": self.self_seconds["cli.main"],
            "cli.out_bytes": out_bytes,
            "rng.replica_random.calls": calls["rng.replica_random"],
            "rng.replica_random.s": secs["rng.replica_random"],
            "rng.replica_generator.calls": calls["rng.replica_generator"],
            "rng.scalar_draws": counts["rng.scalar_draws"],
            "rng.bank.bernoulli.calls": calls["rng.bank.bernoulli"],
            "engine.enumerate_states.s": secs["engine.enumerate_states"],
            "engine.states": counts["engine.states"],
            "engine.exact.self_s": self.self_seconds["engine.exact"],
            "engine.transitions": calls["engine.transitions"],
            "engine.pick_sites.calls": calls["engine.pick_sites"],
            "engine.mc.step_s": secs["engine.mc.step"],
            "engine.mc.steps": counts["engine.mc.steps"],
            "engine.mc.self_s": self.self_seconds["engine.mc"],
            "perms.ungar_move.calls": calls["perms.ungar_move"],
            "perms.ungar_move.s": secs["perms.ungar_move"],
            "perms.av_move.calls": calls["perms.av_move"],
            "tamari.forest_ungar.calls": calls["tamari.forest_ungar"],
            "tamari.forest_ungar.s": secs["tamari.forest_ungar"],
            "tamari.simforest.operate.calls": calls["tamari.simforest.operate"],
            "tamari.simforest.s": sum(secs[f"tamari.simforest.{m}"]
                                      for m in ("init", "non_leaves", "operate")),
            "poset.maximal_of_mask.calls": calls["poset.maximal_of_mask"],
            "poset.maximal_of_mask.s": secs["poset.maximal_of_mask"],
            "poset.maximal_cache_hit_ratio": hit_ratio,
            "percolation.coupled_ideal_run.s": secs["percolation.coupled_ideal_run"],
            "percolation.lpp_grid_samples.s": secs["percolation.lpp_grid_samples"],
            "percolation.lpp_sample.s": secs["percolation.lpp_sample"],
            "percolation.tasep_absorption_samples.s":
                secs["percolation.tasep_absorption_samples"],
            "percolation.zeta_estimate.s": secs["percolation.zeta_estimate"],
            "percolation.upsilon.calls": calls["percolation.upsilon"],
            "percolation.upsilon.s": secs["percolation.upsilon"],
            "percolation.geometric_draws": counts["percolation.geometric_draws"],
            "skyline.algorithm1_run.s": secs["skyline.algorithm1_run"],
            "skyline.algorithm1_run.steps": counts["skyline.algorithm1_run.steps"],
        }

