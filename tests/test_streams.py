"""The stream registry: the seeded output of every registered command line.

``tests/data/streams.json`` holds one entry per ``ungar-lab`` command line:
its argv (paths relative to the repo root), the random stream families it
reads, and the sha256 of its stdout and of each file it writes through
``--out``, ``--trace`` or ``--survival``.  A family is one way
``ungar_lab.rng`` derives streams from the seed:

* ``replica-scalar``: ``replica_random(seed, r)``, spawn key ``(1, r)``
  into ``random.Random``;
* ``replica-generator``: ``replica_generator(seed)``, spawn key ``(1, 0)``
  into a numpy generator;
* ``bank``: ``StreamBank``, spawn keys ``(2, stream, label)``, with the run
  seeds skyline takes from ``replica_state``;
* ``none``: no stream at all.

Each entry is replayed with its file flags pointed into a temporary
directory.  The families it reaches are observed by wrapping rng's entry
points wherever another ``ungar_lab`` module binds them, so the labels are
checked on every run.  A change to one family should move only the entries
that list it; a failure prints the entry as it now reads, ready to copy
into the registry.
"""

import hashlib
import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from ungar_lab import rng
from ungar_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
REGISTRY = json.loads((ROOT / "tests" / "data" / "streams.json").read_text())
FAMILIES = {"replica-scalar", "replica-generator", "bank", "none"}
FILE_FLAGS = ("--out", "--trace", "--survival")
# rng's entry points, and the family each one reads; replica_state is
# watched only where another module calls it directly
ENTRY_POINTS = {"replica_random": "replica-scalar", "replica_generator": "replica-generator",
                "StreamBank": "bank", "replica_state": "bank"}
# the grid workload's random poset at seed 1, as perfbench/jobs.py writes it
PERFBENCH_POSET = "tests/data/perfbench_poset_seed1.json"


def _watch_families(monkeypatch) -> set[str]:
    """Wrap every binding of rng's entry points in the ``ungar_lab``
    modules other than rng; the returned set collects the families called."""
    reached = set()
    modules = [module for name, module in sys.modules.items()
               if module is not None and module is not rng
               and (name == "ungar_lab" or name.startswith("ungar_lab."))]
    for attr, family in ENTRY_POINTS.items():
        original = getattr(rng, attr)

        def wrapper(*args, _original=original, _family=family, **kwargs):
            reached.add(_family)
            return _original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)
    return reached


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("entry", REGISTRY, ids=lambda entry: " ".join(entry["argv"]))
def test_stream(tmp_path, monkeypatch, capsys, entry):
    argv = entry["argv"]
    run, files = list(argv), {}
    for i, flag in enumerate(argv[:-1]):
        if flag in FILE_FLAGS:
            files[flag] = tmp_path / argv[i + 1]
            run[i + 1] = str(files[flag])
    monkeypatch.chdir(ROOT)
    reached = _watch_families(monkeypatch)
    code = main(run)
    out = capsys.readouterr().out
    assert code == 0
    observed = {
        "families": sorted(reached) or ["none"],
        "sha256": {"stdout": _sha256(out.encode()),
                   **{flag: _sha256(path.read_bytes()) for flag, path in files.items()}},
    }
    listed = {key: entry[key] for key in observed}
    assert observed == listed, (
        f"{' '.join(argv)}: families listed {entry['families']}, observed "
        f"{observed['families']}; the entry now reads\n{json.dumps({'argv': argv, **observed})}")


def test_registry_names_known_families_and_each_argv_once():
    for entry in REGISTRY:
        families = entry["families"]
        assert families == sorted(set(families)) and set(families) <= FAMILIES, entry
        assert "none" not in families or families == ["none"], entry
    argvs = [tuple(entry["argv"]) for entry in REGISTRY]
    assert len(set(argvs)) == len(argvs)


def _missing(commands) -> list[str]:
    registered = {tuple(entry["argv"]) for entry in REGISTRY}
    return [" ".join(argv) for argv in commands if tuple(argv) not in registered]


def test_every_readme_example_is_registered():
    # the example block's lines, and the inline commands of the claims map
    readme = (ROOT / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("ungar-lab ")]
    lines += re.findall(r"`(ungar-lab [^`]+)`", readme)
    commands = [shlex.split(line, comments=True)[1:] for line in lines]
    assert commands and not _missing(commands)


def test_every_perfbench_cli_job_at_seed_1_is_registered(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "jobs", jobs)  # the dataclass looks itself up
    spec.loader.exec_module(jobs)
    work = tmp_path / "work"
    work.mkdir()
    commands = []
    for workload in jobs.WHY:
        for job in jobs.build_jobs(workload, 1, work):
            if job.kind == "coupled":  # no subcommand; COUPLED_GOLDEN pins it
                continue
            argv = list(job.argv)
            if "--poset" in argv:
                i = argv.index("--poset") + 1
                assert (tmp_path / argv[i]).read_text() == (ROOT / PERFBENCH_POSET).read_text()
                argv[i] = PERFBENCH_POSET
            commands.append(argv)
    assert commands and not _missing(commands)
