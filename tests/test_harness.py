"""The benchmark's tracer can wrap the names it counts, and puts them back;
its output checks pass on real job output.

``perfbench/tracer.py`` counts layers by replacing functions and methods
of ``ungar_lab`` by name, and ``perfbench/checks.py`` calls library
functions to check job output.  A refactor that drops or renames one of
those names, or breaks their contract, would otherwise fail only inside
the benchmark; these tests fail here instead.  The benchmark's modules
are loaded from their files and not modified.
"""

import importlib.util
import sys
from pathlib import Path

from ungar_lab import cli, percolation
from ungar_lab.poset import grid_poset
from ungar_lab.rng import replica_random

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_sibling(name, monkeypatch):
    """``perfbench/<name>.py`` as ``sys.modules[name]`` for one test, since
    the benchmark's modules import each other by that name."""
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every ungar_lab module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ungar_lab" or name.startswith("ungar_lab.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for method, fn in vars(value).items():
                    out[name, attr, method] = fn
    return out


def test_tracer_counts_forest_and_bank_layers_and_restores(capsys):
    tracer = _load_tracer().Tracer()
    before = _bindings()
    with tracer.installed():
        assert cli.main(["simulate", "--lattice", "tamari", "--n", "30",
                         "--reps", "3", "--seed", "1"]) == 0
        assert cli.main(["skyline", "--n", "20", "--reps", "1", "--seed", "1"]) == 0
    capsys.readouterr()
    assert tracer.calls["tamari.simforest.operate"] > 0
    assert tracer.calls["tamari.simforest.non_leaves"] > 0
    assert tracer.calls["rng.bank.bernoulli"] > 0
    assert tracer.counts["skyline.algorithm1_run.steps"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_tracer_counts_exact_solver_layers(capsys):
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        for size in (["--lattice", "sn", "--n", "4"], ["--lattice", "tamari-av", "--n", "4"],
                     ["--lattice", "tamari", "--n", "4"],
                     ["--lattice", "grid", "--rows", "2", "--cols", "3"]):
            assert cli.main(["exact", *size]) == 0
    capsys.readouterr()
    for name in ("engine.enumerate_states", "perms.ungar_move", "perms.av_move",
                 "tamari.forest_ungar", "engine.transitions", "poset.maximal_of_mask"):
        assert tracer.calls[name] > 0, name


def test_tracer_counts_grid_mask_layers(capsys):
    """The ``grid`` workload must move the mask-scan and LPP counters, and
    its hit ratio ``1 - maximal_of_mask / pick_sites.ideal`` must stay above 0."""
    tracer = _load_tracer().Tracer()
    fixture = Path(__file__).parent / "data" / "shuffled_graded_poset.json"
    with tracer.installed():
        percolation.coupled_ideal_run(grid_poset(6, 6), 0.5, replica_random(1, 0))
        assert cli.main(["lpp", "--lattice", "ideal", "--poset", str(fixture),
                         "--reps", "20", "--seed", "1"]) == 0
    capsys.readouterr()
    for name in ("poset.maximal_of_mask", "percolation.lpp_sample",
                 "percolation.coupled_ideal_run"):
        assert tracer.calls[name] >= 1, name
    assert tracer.calls["engine.pick_sites.ideal"] > tracer.calls["poset.maximal_of_mask"]


def test_tracer_counts_moves_and_draws_on_sn_40(capsys):
    """``large_n`` requires nonzero ``perms.ungar_move``, ``rng.replica_random``
    and ``rng.scalar_draws``.  S_40's replicas run on the word sampler, so
    its moves come from the refused compile attempt only; a refusal that
    applied no move would zero the first."""
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        assert cli.main(["simulate", "--lattice", "sn", "--n", "40", "--p", "0.5",
                         "--reps", "200", "--seed", "1"]) == 0
    capsys.readouterr()
    assert tracer.calls["perms.ungar_move"] > 0
    assert tracer.calls["rng.replica_random"] > 0
    assert tracer.counts["rng.scalar_draws"] > 0


def test_tracer_counts_upsilon_under_zeta(capsys):
    """``zeta`` must reach ``upsilon`` through the module attribute the
    tracer replaces, or ``percolation.upsilon`` reads 0 on ``large_n``."""
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        assert cli.main(["zeta", "--n", "1000", "--reps", "100", "--seed", "1"]) == 0
    capsys.readouterr()
    assert tracer.calls["percolation.upsilon"] >= 1


def test_perfbench_checks_pass_on_sn_and_coupled_jobs(tmp_path, monkeypatch, capsys):
    jobs = _load_sibling("jobs", monkeypatch)
    checks = _load_sibling("checks", monkeypatch)
    keys = {"simulate:sn-40", "coupled:grid-15x15"}
    picked = [job for workload in ("large_n", "grid")
              for job in jobs.build_jobs(workload, 1, tmp_path) if job.key in keys]
    assert {job.key for job in picked} == keys
    outputs = {}
    for job in picked:
        if job.kind == "coupled":
            outputs[job.key] = jobs.run_coupled(job)
        else:
            assert cli.main(list(job.argv)) == 0
            outputs[job.key] = capsys.readouterr().out
    assert checks.check_outputs(picked, outputs) == {key: [] for key in keys}
    # the checks are live: one wrong absorption time is caught
    first, rest = outputs["coupled:grid-15x15"].split(":", 1)
    outputs["coupled:grid-15x15"] = f"{int(first) + 1}:{rest}"
    assert checks.check_outputs(picked, outputs)["coupled:grid-15x15"]
