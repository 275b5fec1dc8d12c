"""Benchmark of the ungar-lab command line, one seeded workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload enumerable --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, untraced then traced

A run is one fresh Python process that starts no threads.  It times ``setup_s``
(a fresh interpreter importing ``ungar_lab.cli`` and building its parser)
in child processes, then repeats passes over the workload's job list until
``--seconds`` are used.  Every job calls ``ungar_lab.cli.main(argv)``
in-process with stdout captured, so per-invocation state is rebuilt each
time while imported modules carry over, as for a user of the command.
Outputs of the first pass are checked (``checks.py``), and every later
pass must print the same bytes.

Timings are medians over passes, scaled to a reference machine speed, so
that runs on a shared machine whose speed drifts by 30 % from one minute to
the next can be compared.  A fixed pure-Python loop that does not touch
``ungar_lab`` is timed before the first job and after every job; each
job's time is multiplied by ``CALIBRATION_REF_S`` over the mean of the two
loop times around it.  Process start-up does not follow that loop, so each
set-up sample is instead scaled by ``REFERENCE_SPAWN_S`` over the mean time
of a fresh interpreter importing only numpy, spawned just before and just
after it.  The raw timings are printed and recorded too.

``--trace 1`` runs untraced passes for half the time and traced passes
(``tracer.py``) for the rest, and reports the per-layer metrics instead of
the end-to-end ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(versions, job argv, stdout hashes, all samples) and the spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_outputs
from jobs import WHY, Job, build_jobs, run_coupled
from tracer import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = tuple(WHY)
SETUP_CODE = "import ungar_lab.cli as cli; cli.build_parser()"
REFERENCE_CODE = "import numpy"
# Times of the calibration loop and of a REFERENCE_CODE process on the
# reference machine (2-vCPU VM, Python 3.11.7, numpy 2.4.6) running at full
# speed; scaled timings read as seconds there.
CALIBRATION_REF_S = 0.0175
WIDE_MASK = ((1 << 900) - 1) ^ (0x5555 << 300)
REFERENCE_SPAWN_S = 0.15

# Metrics declared as end_to_end in BENCHMARK.json; each is nonzero on
# every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "simulate_s": "s", "peak_rss_mb": "MB"}
# Summed job time per kind, printed and recorded for every workload.
KIND_METRICS = {"exact_s": "exact", "simulate_s": "simulate", "lpp_s": "lpp",
                "tasep_s": "tasep", "fluctuation_s": "fluctuation", "zeta_s": "zeta",
                "skyline_s": "skyline", "coupled_s": "coupled"}


@dataclass
class JobResult:
    key: str
    seconds: float
    stdout: str
    error: str


@dataclass
class Pass:
    """One pass over the job list, with what was measured around it."""

    jobs: list[JobResult]
    calibrations: list[float]  # loop times before the first job and after each job
    setup: tuple[float, float] | None  # see measure_setup
    tracer: Tracer | None

    @property
    def results(self) -> dict[str, JobResult]:
        return {r.key: r for r in self.jobs}

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.jobs)

    def scaled(self, keys=None) -> float:
        """Scaled seconds of the jobs in ``keys`` (default all)."""
        c = self.calibrations
        return sum(r.seconds * 2 * CALIBRATION_REF_S / (a + b)
                   for r, a, b in zip(self.jobs, c, c[1:]) if keys is None or r.key in keys)


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: small-int arithmetic, then bit
    scans of a 900-bit int like the masks of a 30x30 grid's ideals.  The
    small-int half alone did not follow the drift of the grid workload,
    whose time goes to wide-int scans."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(30):
        m = WIDE_MASK
        while m:
            total += WIDE_MASK >> ((m & -m).bit_length() - 1) & 1
            m &= m - 1
    return perf_counter() - start


def spawn(code: str) -> float:
    """Seconds for a fresh interpreter, with this checkout's ``src`` on its
    path, to run ``code`` and exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True)
    return perf_counter() - start


def measure_setup() -> tuple[float, float]:
    """Seconds of the set-up command, and the mean seconds of the reference
    command spawned just before and just after it."""
    before = spawn(REFERENCE_CODE)
    setup = spawn(SETUP_CODE)
    return setup, (before + spawn(REFERENCE_CODE)) / 2


def import_program():
    """Import ``ungar_lab.cli`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ungar_lab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ungar_lab":
        sys.exit(f"error: ungar_lab imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(job: Job, cli, tracer: Tracer | None = None) -> JobResult:
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        if job.kind == "coupled":
            out.write(run_coupled(job))
            return 0
        return cli.main(list(job.argv))

    rc, error = None, ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.run_in_span(f"job:{job.key}", call) if tracer else call()
    except Exception:  # a crashing job is a failed job, not a failed run
        error = traceback.format_exc()
    seconds = perf_counter() - start
    if rc != 0 and not error:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return JobResult(job.key, seconds, out.getvalue(), error)


def run_passes(jobs: list[Job], cli, budget: float, traced: bool) -> list[Pass]:
    """Whole passes until another would overrun ``budget`` seconds (at least one).

    Untraced passes also time the set-up command, so that set-up samples
    come from the same stretch of time as the passes.
    """
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        setup = None if traced else measure_setup()
        calibrations = [calibrate()]
        tracer = Tracer() if traced else None
        results = []
        with tracer.installed() if tracer else contextlib.nullcontext():
            for job in jobs:
                results.append(run_job(job, cli, tracer))
                calibrations.append(calibrate())  # touches no wrapped code
        passes.append(Pass(results, calibrations, setup, tracer))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    out = {}
    for name, values in samples.items():
        t = tail(values)
        out[name] = {"value": statistics.median(values), "unit": units[name],
                     "samples": len(values),
                     "tail_pct": t[0] if t else None, "tail_value": t[1] if t else None}
    return out


def end_to_end(jobs: list[Job], passes: list[Pass], failed: int, attempted: int) -> dict:
    """Scaled timings, their raw counterparts, peak RSS and the failure ratio."""
    samples = {"setup_s": [setup * REFERENCE_SPAWN_S / ref for setup, ref in
                           (p.setup for p in passes)],
               "wall_s": [p.scaled() for p in passes]}
    for name, kind in KIND_METRICS.items():
        keys = {j.key for j in jobs if j.kind == kind}
        samples[name] = [p.scaled(keys) for p in passes]
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    samples["fail_ratio"] = [failed / attempted]
    samples["setup_raw_s"] = [p.setup[0] for p in passes]
    samples["reference_spawn_s"] = [p.setup[1] for p in passes]
    samples["wall_raw_s"] = [p.wall for p in passes]
    samples["calibration_s"] = [c for p in passes for c in p.calibrations]
    units = {**{n: "s" for n in KIND_METRICS}, **END_TO_END, "fail_ratio": "ratio",
             "setup_raw_s": "s", "reference_spawn_s": "s", "wall_raw_s": "s",
             "calibration_s": "s"}
    return summarize(samples, units)


def layer_summary(workload: str, untraced: list[Pass], traced: list[Pass],
                  problems: list[str]) -> dict:
    """Per-layer metrics over the traced passes; appends to ``problems`` each
    metric that reads 0 on a workload it must be nonzero on."""
    per_pass = [p.tracer.layer_metrics(sum(len(r.stdout.encode()) for r in p.results.values()))
                for p in traced]
    samples = {name: [m[name] for m in per_pass]
               for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
    untraced_wall = statistics.median(p.wall for p in untraced)
    samples["trace.overhead_s"] = [p.wall - untraced_wall for p in traced]
    layers = summarize(samples, {name: unit for name, unit, _ in LAYER_METRICS})
    for name, _, required_on in LAYER_METRICS:
        if workload in required_on and layers[name]["value"] == 0:
            problems.append(f"{name} is 0 on {workload}; a wrapper was bypassed")
    return layers


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        spread = f"median of {m['samples']}"
        if m["tail_pct"] is not None:
            spread += f"; p{m['tail_pct']:.0f} {m['tail_value']:.6g}"
        else:
            spread += "; no percentile has 10 samples beyond it"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} ({spread})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spawn(SETUP_CODE)  # warms file and bytecode caches
    cli = import_program()
    OUT.mkdir(exist_ok=True)
    jobs = build_jobs(workload, seed, OUT)
    untraced = run_passes(jobs, cli, seconds / 2 if trace else seconds, traced=False)
    first = untraced[0].results
    problems = check_outputs(jobs, {k: r.stdout for k, r in first.items()})
    trace_problems: list[str] = []
    traced: list[Pass] = []
    if trace:
        traced = run_passes(jobs, cli, seconds / 2, traced=True)
        trace_problems += [f"{key}: traced stdout differs from untraced"
                           for p in traced for key, r in p.results.items()
                           if r.stdout != first[key].stdout]

    attempted = len(jobs) * (len(untraced) + len(traced))
    failed = sum(bool(r.error or problems[key] or r.stdout != first[key].stdout)
                 for p in untraced + traced for key, r in p.results.items())
    e2e = end_to_end(jobs, untraced, failed, attempted)
    layers = {}
    if trace:
        layers = layer_summary(workload, untraced, traced, trace_problems)
        spans = [{"pass": i, "name": n, "start": s, "end": e, "parent": par}
                 for i, p in enumerate(traced) for n, s, e, par in p.tracer.spans]
        (OUT / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(spans))

    correct = failed == 0 and not trace_problems
    record = {
        "workload": workload, "why": WHY[workload], "seed": seed, "trace": trace,
        "seconds": seconds, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "jobs": [{"key": j.key, "argv": list(j.argv),
                  "stdout_sha256": hashlib.sha256(first[j.key].stdout.encode()).hexdigest(),
                  "seconds": [p.results[j.key].seconds for p in untraced],
                  "problems": problems[j.key] + ([first[j.key].error] if first[j.key].error
                                                 else [])}
                 for j in jobs],
        "calibrations": [p.calibrations for p in untraced],
        "traced_pass_walls": [p.wall for p in traced], "trace_problems": trace_problems,
        "end_to_end": e2e, "per_layer": layers,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    record_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload} (seed {seed}): {WHY[workload]}")
    print_table("end-to-end (untraced passes; timings scaled to the reference speed):", e2e)
    if trace:
        print_table("per-layer (traced passes):", layers)
    for j in record["jobs"]:
        for reason in j["problems"]:
            print(f"FAILED {j['key']}: {reason}")
    for reason in trace_problems:
        print(f"FAILED trace: {reason}")
    print(f"record: {record_path.relative_to(ROOT)}")
    chosen = layers if trace else {n: e2e[n] for n in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in chosen.items()}}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process, untraced and then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                sys.exit(f"error: {workload} (trace {trace}) exited {done.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "ungar_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'ungar_lab'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
