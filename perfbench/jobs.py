"""The three benchmark workloads, each a list of jobs derived from one seed.

A job is one ``ungar-lab`` command line run in-process through
``ungar_lab.cli.main``, except the ``coupled`` job, which calls
``percolation.coupled_ideal_run`` directly because no subcommand reaches it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "enumerable": (
        "exact solves and checked Monte Carlo on enumerable lattices: engine "
        "solver, tamari forests, perms moves and replica derivation do the work"
    ),
    "grid": (
        "ideal chains on J(P) beside their LPP and corner-growth equivalents: "
        "maximal_of_mask scans and the generic IdealLattice loop dominate"
    ),
    "large_n": (
        "Monte Carlo on chains too large to enumerate plus the zeta and skyline "
        "constants: scalar perms and SimForest loops, upsilon, StreamBank draws"
    ),
}

# Exact jobs: flags after ``exact``, and the expected absorption time from
# the top computed by engine.expected_absorption_time at the seed commit
# (d50a782).
EXACT_CASES = {
    "exact:tamari-9": ("--lattice tamari --n 9 --p 0.5", 11.472797786574715),
    "exact:tamari-7": ("--lattice tamari --n 7 --p 0.3", 16.142041284193514),
    "exact:tamari-av-7": ("--lattice tamari-av --n 7 --p 0.3", 16.14204128419351),
    "exact:sn-6": ("--lattice sn --n 6 --p 0.3", 23.364959201523536),
    "exact:sn-5": ("--lattice sn --n 5 --p 0.7", 5.674505756879784),
    "exact:grid-6x6": ("--lattice grid --rows 6 --cols 6 --p 0.5", 29.831541506584944),
    "exact:grid-3x4": ("--lattice grid --rows 3 --cols 4 --p 0.3", 25.69176673805007),
}

# Replica counts, scaled so that one pass over a workload takes a few
# seconds on a 2-core machine and several passes fit in one run.
MC_REPS = 5000
GRID_SIM_REPS = 16
GRID_LPP_REPS = 5000
FLUCTUATION_REPS = 2000
POSET_SIM_REPS = 1000
POSET_LPP_REPS = 3000
POSET_LAYERS = 6
POSET_WIDTH = 10
POSET_EDGE_P = 0.3
COUPLED_SIDE = 15
COUPLED_REPS = 50
SN_REPS = 200
TAMARI_REPS = 500
ZETA_N = 10_000
ZETA_TRIALS = 4000
SKYLINE_N = 100
SKYLINE_REPS = 80


@dataclass(frozen=True)
class Job:
    """One timed unit of work; ``kind`` names the metric it is summed into."""

    key: str
    kind: str
    argv: tuple[str, ...]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def job_seeds(seed: int, count: int = 8) -> list[int]:
    """Per-job seeds, a deterministic function of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def random_poset_json(seed: int, layers: int = POSET_LAYERS, width: int = POSET_WIDTH,
                      edge_p: float = POSET_EDGE_P) -> str:
    """A random graded poset of ``layers`` x ``width`` elements, as JSON.

    Each element above the bottom layer covers each element of the layer
    below with probability ``edge_p``, and at least one of them.  Covers
    join consecutive layers only, so none is implied by the others.  A
    fixed height keeps the chain's absorption time within about 2 % from
    one seed to the next; a random graph order of the same size varied by
    about 8 %.
    """
    rng = np.random.default_rng([seed, layers, width])
    pairs = []
    for k in range(1, layers):
        for j in range(width):
            below = [i for i in range(width) if rng.random() < edge_p]
            below = below or [int(rng.integers(width))]
            pairs += [((k - 1) * width + i, k * width + j) for i in below]
    return json.dumps({"n": layers * width, "covers": pairs})


def _cli(key: str, *argv) -> Job:
    return Job(key, argv[0], tuple(str(a) for a in argv))


def build_jobs(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """The job list of ``workload``; grid also writes its poset file."""
    s = job_seeds(seed)
    if workload == "enumerable":
        exact = [
            Job(key, "exact", ("exact", *flags.split()))
            for key, (flags, _) in EXACT_CASES.items()
        ]
        return exact + [
            _cli("simulate:tamari-7", "simulate", "--lattice", "tamari", "--n", 7,
                 "--p", "0.3", "--reps", MC_REPS, "--seed", s[0]),
            _cli("simulate:sn-5", "simulate", "--lattice", "sn", "--n", 5,
                 "--p", "0.7", "--reps", MC_REPS, "--seed", s[1]),
            _cli("simulate:grid-3x4", "simulate", "--lattice", "grid", "--rows", 3,
                 "--cols", 4, "--p", "0.3", "--reps", MC_REPS, "--seed", s[2]),
        ]
    if workload == "grid":
        poset_file = work_dir / f"poset-{seed}.json"
        poset_file.write_text(random_poset_json(s[7]))
        poset = str(poset_file.relative_to(work_dir.parent))
        return [
            _cli("simulate:grid-30x30", "simulate", "--lattice", "grid", "--rows", 30,
                 "--cols", 30, "--p", "0.5", "--reps", GRID_SIM_REPS, "--seed", s[0]),
            _cli("lpp:grid-30x30", "lpp", "--lattice", "grid", "--rows", 30, "--cols", 30,
                 "--p", "0.5", "--reps", GRID_LPP_REPS, "--seed", s[1]),
            _cli("tasep:30x30", "tasep", "--rows", 30, "--cols", 30, "--p", "0.5",
                 "--reps", GRID_LPP_REPS, "--seed", s[2]),
            _cli("fluctuation:50x50", "fluctuation", "--rows", 50, "--cols", 50, "--p", "0.5",
                 "--reps", FLUCTUATION_REPS, "--tail", "2.0", "--seed", s[3]),
            _cli("simulate:poset", "simulate", "--lattice", "ideal", "--poset", poset,
                 "--p", "0.5", "--reps", POSET_SIM_REPS, "--seed", s[4]),
            _cli("lpp:poset", "lpp", "--lattice", "ideal", "--poset", poset,
                 "--p", "0.5", "--reps", POSET_LPP_REPS, "--seed", s[5]),
            Job("coupled:grid-15x15", "coupled",
                ("coupled_ideal_run", "--side", str(COUPLED_SIDE), "--p", "0.5",
                 "--reps", str(COUPLED_REPS), "--seed", str(s[6]))),
        ]
    if workload == "large_n":
        return [
            _cli("simulate:sn-40", "simulate", "--lattice", "sn", "--n", 40, "--p", "0.5",
                 "--reps", SN_REPS, "--seed", s[0]),
            _cli("simulate:tamari-200", "simulate", "--lattice", "tamari", "--n", 200,
                 "--p", "0.5", "--reps", TAMARI_REPS, "--seed", s[1]),
            _cli("zeta:10000", "zeta", "--n", ZETA_N, "--p", "0.5", "--reps", ZETA_TRIALS,
                 "--seed", s[2]),
            _cli("skyline:100", "skyline", "--n", SKYLINE_N, "--p", "0.5",
                 "--reps", SKYLINE_REPS, "--seed", s[3]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_coupled(job: Job) -> str:
    """The coupled-run job: one line ``absorption:weights`` per replica."""
    from ungar_lab import percolation, poset, rng

    side, p, reps, seed = (job.flag(f) for f in ("--side", "--p", "--reps", "--seed"))
    grid = poset.grid_poset(int(side), int(side))
    lines = []
    for r in range(int(reps)):
        run = percolation.coupled_ideal_run(grid, float(p), rng.replica_random(int(seed), r))
        lines.append(f"{run.absorption}:{' '.join(map(str, run.weights))}\n")
    return "".join(lines)
