"""The output checks must count a wrong answer as a failure.

Run with ``python3 -m pytest perfbench`` from the repository root.  The
outputs are synthesized in the command's CSV format, so no job runs.
"""

import json
from pathlib import Path

from checks import check_outputs
from jobs import EXACT_CASES, WHY, build_jobs
from run import END_TO_END, ROOT
from tracer import LAYER_METRICS

REFERENCE = {key: ref for key, (_, ref) in EXACT_CASES.items()}


def _enumerable_outputs(jobs):
    outputs = {}
    for job in jobs:
        if job.kind == "exact":
            outputs[job.key] = ("backend,p,states,expected_steps\n"
                                f"x,0.5,1,{REFERENCE[job.key]:.12g}\n")
        else:
            exact = REFERENCE["exact:" + job.key.split(":")[1]]
            outputs[job.key] = ("backend,n,p,seed,reps,mean,stderr,min,max\n"
                                f"x,1,0.5,0,{job.flag('--reps')},{exact:.12g},0.05,1,99\n")
    return outputs


def _failed(problems):
    return sorted(key for key, reasons in problems.items() if reasons)


def test_correct_outputs_pass(tmp_path: Path):
    jobs = build_jobs("enumerable", 3, tmp_path)
    assert _failed(check_outputs(jobs, _enumerable_outputs(jobs))) == []


def test_wrong_reference_counts_as_failure(tmp_path: Path):
    jobs = build_jobs("enumerable", 3, tmp_path)
    wrong = dict(REFERENCE, **{"exact:sn-5": REFERENCE["exact:sn-5"] * 1.2})
    assert _failed(check_outputs(jobs, _enumerable_outputs(jobs), wrong)) == [
        "exact:sn-5", "simulate:sn-5"]


def test_backend_disagreement_and_bad_output_count(tmp_path: Path):
    jobs = build_jobs("enumerable", 3, tmp_path)
    outputs = _enumerable_outputs(jobs)
    outputs["exact:tamari-av-7"] = outputs["exact:tamari-av-7"].replace("16.142", "16.143")
    outputs["simulate:grid-3x4"] = "Traceback\n"
    assert _failed(check_outputs(jobs, outputs)) == ["exact:tamari-av-7", "simulate:grid-3x4"]


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS]
