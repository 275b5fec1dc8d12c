"""Output checks for one pass over a workload.

``check_outputs`` maps each job key to the list of reasons its output is
wrong; a job with any reason counts as failed.  Statistical checks use a
5-standard-error band, so a correct program fails one with probability
below 1e-6.
"""

from __future__ import annotations

import json
import math

from jobs import EXACT_CASES, Job

EXACT_TOL = 1e-9
Z = 5.0
SKYLINE_FIELDS = {"seed", "n", "p", "g", "skyline", "summary", "good", "degenerate",
                  "t", "absorption"}
# Monte Carlo job -> exact job with the same lattice and p.
SIMULATE_EXACT = {
    "simulate:tamari-7": "exact:tamari-7",
    "simulate:sn-5": "exact:sn-5",
    "simulate:grid-3x4": "exact:grid-3x4",
}


def csv_row(text: str) -> dict[str, str]:
    """The single data row of a CSV result, keyed by header."""
    lines = text.splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    header, values = lines[0].split(","), lines[1].split(",")
    if len(header) != len(values):
        raise ValueError("row and header differ in length")
    return dict(zip(header, values))


def _close(a: float, b: float, tol: float = EXACT_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _agree(rows: dict, a: str, b: str) -> str | None:
    """None if the means of jobs ``a`` and ``b`` agree within Z combined stderr."""
    ma, mb = float(rows[a]["mean"]), float(rows[b]["mean"])
    se = math.hypot(float(rows[a]["stderr"]), float(rows[b]["stderr"]))
    if abs(ma - mb) > Z * se:
        return f"mean {ma} of {a} and {mb} of {b} differ by more than {Z} x {se:.4g}"
    return None


def check_outputs(jobs: list[Job], outputs: dict[str, str],
                  exact_reference: dict[str, float] | None = None) -> dict[str, list[str]]:
    """Check every job's stdout; ``exact_reference`` defaults to EXACT_CASES."""
    if exact_reference is None:
        exact_reference = {k: ref for k, (_, ref) in EXACT_CASES.items()}
    problems: dict[str, list[str]] = {job.key: [] for job in jobs}
    rows: dict[str, dict[str, str]] = {}
    by_key = {job.key: job for job in jobs}
    for job in jobs:
        if job.kind in ("skyline", "coupled"):
            continue
        try:
            rows[job.key] = csv_row(outputs[job.key])
        except (KeyError, ValueError) as exc:
            problems[job.key].append(f"unparsable output: {exc}")

    def flag(key: str, reason: str | None) -> None:
        if reason:
            problems[key].append(reason)

    def have(*keys: str) -> bool:
        return all(k in rows for k in keys)

    for key, row in rows.items():
        job = by_key[key]
        if job.kind == "exact":
            got = float(row["expected_steps"])
            ref = exact_reference[key]
            if not _close(got, ref):
                flag(key, f"expected_steps {got} differs from reference {ref}")
        if "reps" in row and int(row["reps"]) != int(job.flag("--reps")):
            flag(key, f"reps {row['reps']} != {job.flag('--reps')}")
        if "mean" in row and not float(row["min"]) <= float(row["mean"]) <= float(row["max"]):
            flag(key, "mean outside [min, max]")

    if have("exact:tamari-7", "exact:tamari-av-7"):
        a = float(rows["exact:tamari-7"]["expected_steps"])
        b = float(rows["exact:tamari-av-7"]["expected_steps"])
        if not _close(a, b):
            flag("exact:tamari-av-7", f"forest backend {a} and 312 backend {b} disagree")
    for sim, exact in SIMULATE_EXACT.items():
        if have(sim):
            mean, se = float(rows[sim]["mean"]), float(rows[sim]["stderr"])
            if abs(mean - exact_reference[exact]) > Z * se:
                flag(sim, f"mean {mean} is more than {Z} stderr ({se:.4g}) from "
                          f"exact {exact_reference[exact]}")
    if have("simulate:grid-30x30", "lpp:grid-30x30", "tasep:30x30"):
        flag("lpp:grid-30x30", _agree(rows, "simulate:grid-30x30", "lpp:grid-30x30"))
        flag("tasep:30x30", _agree(rows, "simulate:grid-30x30", "tasep:30x30"))
        flag("tasep:30x30", _agree(rows, "lpp:grid-30x30", "tasep:30x30"))
    if have("simulate:poset", "lpp:poset"):
        flag("lpp:poset", _agree(rows, "simulate:poset", "lpp:poset"))
    if have("fluctuation:50x50"):
        flag("fluctuation:50x50", _check_fluctuation(rows["fluctuation:50x50"]))
    if have("simulate:sn-40"):
        flag("simulate:sn-40", _check_sn(rows["simulate:sn-40"], by_key["simulate:sn-40"]))
    if have("zeta:10000"):
        row = rows["zeta:10000"]
        est, se, ups = float(row["zeta_hat"]), float(row["stderr"]), float(row["upsilon"])
        if abs(est - ups) > Z * se:
            flag("zeta:10000", f"zeta_hat {est} is more than {Z} stderr from upsilon {ups}")
    for job in jobs:
        if job.kind == "skyline":
            flag(job.key, _check_skyline(outputs.get(job.key, ""), job))
        elif job.kind == "coupled":
            flag(job.key, _check_coupled(outputs.get(job.key, ""), job))
    return problems


def _check_fluctuation(row: dict[str, str]) -> str | None:
    from ungar_lab import percolation

    phi, eta = percolation.rescaling_constants(float(row["p"]), int(row["n"]), int(row["m"]))
    rescaled = (float(row["mean_T"]) - phi) / eta
    if not (_close(float(row["Phi"]), phi) and _close(float(row["eta"]), eta)):
        return "rescaling constants differ from percolation.rescaling_constants"
    if not _close(float(row["mean_rescaled"]), rescaled, 1e-8):
        return "mean_rescaled is not (mean_T - Phi) / eta"
    if not 0.0 <= float(row["tail_empirical"]) <= 1.0:
        return "tail_empirical outside [0, 1]"
    if not _close(float(row["tail_asymptotic"]),
                  percolation.tracy_widom_tail(float(row["tail_t"]))):
        return "tail_asymptotic differs from percolation.tracy_widom_tail"
    return None


def _check_sn(row: dict[str, str], job: Job) -> str | None:
    """Scalar S_n Monte Carlo against the vectorized sampler at another seed."""
    from ungar_lab import engine

    n, p, seed = int(job.flag("--n")), float(job.flag("--p")), int(job.flag("--seed"))
    other = engine.sn_absorption_samples(n, p, 2000, seed + 1)
    other_se = other.std(ddof=1) / math.sqrt(len(other))
    se = math.hypot(float(row["stderr"]), other_se)
    if abs(float(row["mean"]) - other.mean()) > Z * se:
        return (f"mean {row['mean']} and sn_absorption_samples mean {other.mean()} "
                f"differ by more than {Z} x {se:.4g}")
    return None


def _check_skyline(text: str, job: Job) -> str | None:
    lines = text.splitlines()
    if len(lines) != int(job.flag("--reps")):
        return f"{len(lines)} JSONL records for {job.flag('--reps')} reps"
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"bad JSONL record: {exc}"
        if not isinstance(record, dict) or set(record) != SKYLINE_FIELDS:
            return f"record fields {sorted(record)} differ from the README fields"
        if record["n"] != int(job.flag("--n")) or len(record["g"]) != record["n"]:
            return "record n or g length is wrong"
    return None


def _check_coupled(text: str, job: Job) -> str | None:
    """Every run's absorption equals the max-chain weight of its counts."""
    from ungar_lab import percolation, poset

    side = int(job.flag("--side"))
    grid = poset.grid_poset(side, side)
    lines = text.splitlines()
    if len(lines) != int(job.flag("--reps")):
        return f"{len(lines)} runs for {job.flag('--reps')} reps"
    for line in lines:
        absorption, weights = line.split(":")
        w = [int(x) for x in weights.split()]
        if len(w) != grid.n or min(w) < 1:
            return "coupled weights are not one positive count per element"
        if percolation.max_chain_weight(grid, w) != int(absorption):
            return f"absorption {absorption} != max-chain weight"
    return None
