"""Command-line surface: determinism, formats, exit codes."""

import csv
import hashlib
import io
import json
import shlex
import sys
import time
import warnings
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ungar_lab import engine, percolation
from ungar_lab.cli import _COMMANDS, _LATTICES, build_parser, main
from ungar_lab.poset import grid_poset
from ungar_lab.skyline import algorithm1_run


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exact_sn3(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--lattice", "sn", "--n", "3", "--p", "0.5"
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "backend,p,states,expected_steps"
    assert row.split(",")[-1] == "4"


def test_exact_tamari3(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--lattice", "tamari", "--n", "3", "--p", "0.5"
    )
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[-1])
    assert value == pytest.approx(10 / 3, abs=1e-10)


def test_exact_grid_1x1(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--lattice", "grid", "--rows", "1", "--cols", "1",
        "--p", "0.25",
    )
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[-1]) == pytest.approx(4.0)


def test_exact_per_element_json(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--lattice", "sn", "--n", "3", "--p", "0.5",
        "--format", "json", "--per-element",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert rows[0]["expected_steps"] == "0"


def test_simulate_deterministic(capsys):
    args = ["simulate", "--lattice", "sn", "--n", "4", "--p", "0.5",
            "--reps", "300", "--seed", "5"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("UNGAR_LAB_SEED", "77")
    args = ["simulate", "--lattice", "tamari", "--n", "4", "--p", "0.5",
            "--reps", "100"]
    _, out1, _ = run_cli(capsys, *args)
    assert ",77," in out1
    monkeypatch.setenv("UNGAR_LAB_SEED", "78")
    _, out2, _ = run_cli(capsys, *args)
    assert out1 != out2


def test_simulate_reports_linear_coefficient(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--lattice", "sn", "--n", "12", "--p", "0.5",
        "--reps", "200", "--seed", "1",
    )
    assert code == 0
    header = out.split("\n")[0].split(",")
    assert "mean_over_n" in header and "linear_coefficient" in header
    row = dict(zip(header, out.split("\n")[1].split(",")))
    assert float(row["linear_coefficient"]) == pytest.approx(
        (1 + 0.5**0.5) / 0.5, rel=1e-10
    )


def test_simulate_survival_and_trace(tmp_path, capsys):
    surv = tmp_path / "surv.csv"
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys, "simulate", "--lattice", "sn", "--n", "4", "--p", "0.6",
        "--reps", "50", "--seed", "2", "--survival", str(surv),
        "--trace", str(trace),
    )
    assert code == 0
    lines = surv.read_text().strip().split("\n")
    assert lines[0] == "t,survival"
    assert lines[1].startswith("0,1")
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert steps[0]["step"] == 1
    assert steps[-1]["state"] == [1, 2, 3, 4]


def test_lpp_and_tasep(capsys):
    code, out, _ = run_cli(
        capsys, "lpp", "--lattice", "grid", "--rows", "2", "--cols", "2",
        "--p", "0.5", "--reps", "4000", "--seed", "3",
    )
    assert code == 0
    row = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
    assert abs(float(row["mean"]) - 20 / 3) < 5 * float(row["stderr"])

    code, out, _ = run_cli(
        capsys, "tasep", "--rows", "1", "--cols", "1", "--p", "0.5",
        "--reps", "4000", "--seed", "3",
    )
    assert code == 0
    row = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
    assert abs(float(row["mean"]) - 2.0) < 5 * float(row["stderr"])


def test_fluctuation_columns(capsys):
    code, out, _ = run_cli(
        capsys, "fluctuation", "--rows", "5", "--cols", "5", "--p", "0.5",
        "--reps", "200", "--seed", "4",
    )
    assert code == 0
    assert out.split("\n")[0] == "n,m,p,reps,mean_T,Phi,eta,mean_rescaled,sd_rescaled"


def test_skyline_jsonl(tmp_path, capsys):
    out_path = tmp_path / "runs.jsonl"
    code, _, _ = run_cli(
        capsys, "skyline", "--n", "6", "--p", "0.5", "--reps", "3",
        "--seed", "11", "--out", str(out_path),
    )
    assert code == 0
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert set(row) == {
            "seed", "n", "p", "g", "skyline", "summary", "good",
            "degenerate", "t", "absorption",
        }
        assert len(row["g"]) == 6


def test_zeta_row(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "--n", "200", "--p", "0.5", "--reps", "20000",
        "--seed", "6",
    )
    assert code == 0
    header, values = out.strip().split("\n")
    columns = header.split(",")
    assert columns.index("zeta_exact") == columns.index("zeta_hat") + 1
    row = dict(zip(columns, values.split(",")))
    assert abs(float(row["zeta_hat"]) - float(row["upsilon"])) < 0.05
    est, exact, err = (float(row[k]) for k in ("zeta_hat", "zeta_exact", "stderr"))
    assert abs(est - exact) <= 3 * err


def test_zeta_at_small_p_sums_millions_of_terms(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "10", "--p", "1e-5", "--reps", "1000",
                           "--seed", "1")
    assert code == 0
    header, values = out.strip().split("\n")
    row = dict(zip(header.split(","), values.split(",")))
    assert abs(float(row["zeta_exact"]) - float(row["upsilon"])) < 1e-9


# sha256 of the zeta stdout of each case, recorded one digest per case when
# the four-case digest (two uniforms per trial, the degenerate n = 1 row's
# stderr 0) was split, and re-recorded when upsilon became its Fourier
# series (only the upsilon and abs_diff fields moved); a change to the
# stream a trial reads changes them
ZETA_GOLDEN = {
    (10_000, 0.5, 1, "csv"): "3ac802657d06501a79780794b141f47e4f6a1f83fe3bbb9db7935a0b6ffab719",
    (2, 0.3, 7, "csv"): "89a5e76905cf6e2248b7ec8c4da532372bbf12c2ca38e6a10ffaf41b28aed2a5",
    (1, 0.9, 3, "json"): "2848ac37fa193eb38e02079bf18c0ab93005646f2d9499870e4a8c44a97b4737",
    (10**6, 0.1, 42, "json"): "47359359b62851d241515ed30724c251eef6f64a1810eab9c086d83b76a8b9f2",
}


@pytest.mark.parametrize("n,p,seed,fmt", list(ZETA_GOLDEN))
def test_zeta_golden_digest(capsys, n, p, seed, fmt):
    code, out, _ = run_cli(capsys, "zeta", "--n", str(n), "--p", str(p),
                           "--reps", "50000", "--seed", str(seed), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZETA_GOLDEN[n, p, seed, fmt]


# sha256 of the forest-sampler stdout of each case, recorded one digest per
# case when the five-case digest (kept since before SimForest moved to label
# intervals) was split; (7, 0.8) was re-recorded when the limsup became the
# maximum of upsilon's Fourier series (only linear_coefficient moved); a
# change to the forest chain or to its replica streams changes them
FOREST_SIMULATE_GOLDEN = {
    (7, 0.3, 5, 2000): "dfc5809a3e275bbdf12dae9765897592a52cb7c5a97e398008a3d18cbd95ee43",
    (7, 0.8, 11, 500): "2278ed13933406df03eac657b8ec8d118c0b453a9005bc218ae50909db329cf8",
    (200, 0.5, 2, 40): "8853506abbd126fb74881e79f892c7278c98f9c4052acf39e390e4e86f5b8ca7",
    (1000, 0.3, 3, 4): "9b20a801b4783d3868d333501c5b23b0ccc59d83435dea6d85e8712235aad7c7",
    (1000, 0.7, 9, 4): "2c9cf1669d15011fd5f37ad86cda982b4a9ef5e21cf294c20826d0b7bbae5984",
}


@pytest.mark.parametrize("n,p,seed,reps", list(FOREST_SIMULATE_GOLDEN))
def test_forest_simulate_golden_digest(capsys, n, p, seed, reps):
    code, out, _ = run_cli(capsys, "simulate", "--lattice", "tamari", "--n", str(n),
                           "--p", str(p), "--reps", str(reps), "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FOREST_SIMULATE_GOLDEN[n, p, seed, reps]


# sha256 of the forest trace file below, recorded while OrderedForest still
# stored its child lists; the "children" lists in each state are now derived
# from the parent tuple, and a change to them or to the chain changes it
FOREST_TRACE_GOLDEN = "c49ea09aac3aaa330d5367d35ec557fc4b77d884679d337251bf6c874c28eed1"


def test_forest_trace_golden_digest(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--lattice", "tamari", "--n", "6",
                         "--p", "0.5", "--reps", "1", "--seed", "3", "--trace", str(trace))
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == FOREST_TRACE_GOLDEN


# sha256 of the ``lpp --poset`` stdout below, on a committed poset whose
# labels were shuffled (so covers run both up and down the index order),
# recorded while lpp_sample drew one scalar per weight; a change to the
# weight stream or to its mapping changes it
LPP_POSET_GOLDEN = "89752f4891b663fa5f7c45f18cee10455ac19ef0fa71c86a999674a332384630"
POSET_FIXTURE = Path(__file__).parent / "data" / "shuffled_graded_poset.json"


def test_lpp_poset_golden_digest(capsys):
    digest = hashlib.sha256()
    for p, seed, reps, fmt in [(0.5, 1, 2000, "csv"), (0.1, 7, 300, "json"),
                               (1.0, 3, 50, "csv"), (0.9, 11, 1000, "json")]:
        code, out, _ = run_cli(capsys, "lpp", "--lattice", "ideal", "--poset", str(POSET_FIXTURE),
                               "--p", str(p), "--reps", str(reps), "--seed", str(seed),
                               "--format", fmt)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == LPP_POSET_GOLDEN


def test_bounds_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--what", "tw-tail", "--t", "4")
    assert code == 0
    import math

    assert float(out.strip().split("\n")[1].split(",")[-1]) == pytest.approx(
        math.exp(-32 / 3) / (256 * math.pi), rel=1e-10
    )
    code, out, _ = run_cli(
        capsys, "bounds", "--what", "f", "--x", "1000000", "--p", "0.5"
    )
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[-1] == "1"


def test_tamari_coefficient_at_small_p(capsys):
    # at p = 1e-5 every Fourier term of the series is below 1e-17
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bounds", "--what", "tamari-coefficient",
                           "--p", "1e-5")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[-1] == "82842.6518141"
    code, out, _ = run_cli(capsys, "bounds", "--what", "tamari-coefficient",
                           "--p", "1e-4")
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[-1] == "8284.21058407"


def test_ideal_lattice_from_file(tmp_path, capsys):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(grid_poset(2, 2).to_json())
    code, out, _ = run_cli(
        capsys, "exact", "--lattice", "ideal", "--poset", str(poset_file),
        "--p", "0.5",
    )
    assert code == 0
    assert out.split("\n")[1].split(",")[2] == "6"  # |J(R_{2,2})|


@pytest.mark.parametrize("lattice,size,backend", [
    ("tamari", ("--n", "3"), engine.TamariForestLattice(3)),
    ("tamari-av", ("--n", "3"), engine.TamariAvLattice(3)),
    ("sn", ("--n", "3"), engine.SnLattice(3)),
    ("grid", ("--rows", "2", "--cols", "2"), engine.IdealLattice(grid_poset(2, 2))),
])
def test_per_element_csv_has_one_field_per_column(capsys, lattice, size, backend):
    code, out, _ = run_cli(capsys, "exact", "--lattice", lattice, *size, "--per-element")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(len(row) == 4 and None not in row for row in rows)
    states = engine.enumerate_states(backend)
    assert sorted(row["element"] for row in rows) == sorted(map(repr, states))


# sha256 of the ``exact --per-element`` stdout below, recorded when rows
# with equal expected_steps came to be sorted by element, and of its
# lines sorted, recorded before that change: the rows are the same
PER_ELEMENT_GOLDEN = "a43c3e4570384233703c43ac4e072e0e250171321bf0a03c7c0df1d78c933a39"
PER_ELEMENT_ROWS_GOLDEN = "aab3e68634ce1debe75ba709a65cc78c7fc90aa521f779896eb532e0f167f35b"


def test_per_element_golden_digest(capsys):
    ordered, rows = hashlib.sha256(), hashlib.sha256()
    for lattice, *size in [("sn", "--n", "4"), ("tamari", "--n", "5"),
                           ("tamari-av", "--n", "5"), ("grid", "--rows", "3", "--cols", "3")]:
        code, out, _ = run_cli(capsys, "exact", "--lattice", lattice, *size, "--per-element")
        assert code == 0
        ordered.update(out.encode())
        rows.update("\n".join(sorted(out.splitlines())).encode())
    assert rows.hexdigest() == PER_ELEMENT_ROWS_GOLDEN
    assert ordered.hexdigest() == PER_ELEMENT_GOLDEN


@pytest.mark.parametrize("command", [
    ("simulate", "--lattice", "sn", "--n", "3", "--reps", "2"),
    ("tasep", "--rows", "2", "--cols", "2"),
    ("skyline", "--n", "3"),
    ("bounds", "--what", "tamari-coefficient"),
    ("exact", "--lattice", "sn", "--n", "3"),
    ("lpp", "--lattice", "grid", "--rows", "2", "--cols", "2"),
    ("bounds", "--what", "f", "--x", "1e6"),
], ids=" ".join)
def test_p_sampling_cannot_tell_from_zero_is_domain_error(capsys, command):
    # uniform draws are multiples of 2**-53, so at p <= 2**-53 only 0.0
    # selects a site: these never returned, ran for seconds, or died
    for p in ("1e-300", repr(2.0**-53)):
        code, out, err = run_cli(capsys, *command, "--p", p)
        assert (code, out) == (2, ""), err
        assert "2**-53" in err


def test_p_just_above_2_to_the_minus_53_still_solves(capsys):
    code, out, _ = run_cli(capsys, "exact", "--lattice", "sn", "--n", "3", "--p", "2.3e-16")
    assert code == 0 and out.startswith("backend,p,states,expected_steps\nsn-3,2.3e-16,6,")


# a valid poset file, the empty poset, and documents FinitePoset.from_json rejects
_POSET_DOCS = {
    "grid-2x2": grid_poset(2, 2).to_json(),
    "empty": '{"n": 0, "covers": []}',
    "no-covers": '{"n": 2}',
    "no-n": '{"covers": [[0, 1]]}',
    "flat-covers": '{"n": 2, "covers": [1, 2]}',
    "array": "[[0, 1]]",
    "negative-n": '{"n": -1, "covers": []}',
    "float-n": '{"n": 2.5, "covers": []}',
    "short-cover": '{"n": 2, "covers": [[0]]}',
    "string-cover": '{"n": 2, "covers": [[0, "1"]]}',
    "deep": "[" * 10**5 + "]" * 10**5,  # deeper than the parser's recursion limit
}
_VALID_POSETS = ("grid-2x2", "empty")
_MALFORMED_POSETS = tuple(name for name in _POSET_DOCS if name not in _VALID_POSETS)


@pytest.fixture(scope="module")
def poset_files(tmp_path_factory):
    """``poset:<name>`` -> the path of a file holding ``_POSET_DOCS[name]``."""
    root = tmp_path_factory.mktemp("posets")
    files = {}
    for name, text in _POSET_DOCS.items():
        (root / f"{name}.json").write_text(text)
        files[f"poset:{name}"] = str(root / f"{name}.json")
    return files


@pytest.mark.parametrize("name", _MALFORMED_POSETS)
@pytest.mark.parametrize("command", [
    ("exact", "--lattice", "ideal"),
    ("simulate", "--lattice", "ideal", "--reps", "3"),
    ("lpp", "--lattice", "ideal", "--reps", "3"),
])
def test_malformed_poset_file_is_config_error(capsys, poset_files, command, name):
    code, out, err = run_cli(capsys, *command, "--poset", poset_files[f"poset:{name}"])
    assert code == 2 and out == ""
    assert "poset" in err and "Traceback" not in err


# float flag -> a command line that reads it, and a finite value it accepts
_FLOAT_CASES = {
    "--p": (("bounds", "--what", "sn-coefficient"), "0.5"),
    "--c1": (("bounds", "--what", "f", "--x", "20"), "10"),
    "--tail": (("fluctuation", "--rows", "2", "--cols", "2", "--reps", "5"), "1.5"),
    "--x": (("bounds", "--what", "f"), "20"),
    "--t": (("bounds", "--what", "tw-tail"), "4"),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", sorted(_FLOAT_CASES))
def test_non_finite_float_flag_is_config_error(capsys, flag, value):
    base, finite = _FLOAT_CASES[flag]
    code, _, err = run_cli(capsys, *base, flag, finite)
    assert code == 0, err
    code, out, err = run_cli(capsys, *base, flag, value)
    assert code == 2 and out == ""
    assert f"argument {flag}: not a finite number" in err


@pytest.mark.parametrize("flag, code, message", [
    ("--p", 2, "outside (0, 1)"),
    ("--c1", 0, ""),
    ("--tail", 2, "tail asymptotic needs t > 0"),
    ("--x", 2, "f needs x >= 1"),
    ("--t", 2, "tail asymptotic needs t > 0"),
])
def test_negative_exponent_float_flag_reads_as_a_value(capsys, flag, code, message):
    # argparse alone takes "-1e1" after a flag for an unknown option; the
    # value must reach the handler and act as -10 does there
    base, _ = _FLOAT_CASES[flag]
    result = run_cli(capsys, *base, flag, "-1e1")
    assert result == run_cli(capsys, *base, flag, "-10")
    assert result[0] == code and message in result[2]


def test_fluctuation_rejects_tail_before_sampling(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking --tail")

    monkeypatch.setattr(percolation, "lpp_grid_samples", no_sampling)
    for tail in ("0", "-1"):
        code, out, err = run_cli(capsys, "fluctuation", "--rows", "60", "--cols", "60",
                                 "--reps", "3000", "--tail", tail)
        assert (code, out) == (2, "")
        assert "tail asymptotic needs t > 0" in err


@pytest.mark.parametrize("base, flag", [
    (("bounds", "--what", "tw-tail"), "--t"),
    (("fluctuation", "--rows", "2", "--cols", "2", "--reps", "2"), "--tail"),
])
def test_tail_asymptotic_at_extreme_t(capsys, base, flag):
    # t^{3/2} overflows to inf at 1e300, where the tail is 0; at 1e-300 the
    # tail exceeds the float range, which is a configuration error
    code, out, err = run_cli(capsys, *base, "--format", "json", flag, "1e300")
    assert code == 0, err
    [row] = json.loads(out)
    assert float(row.get("value", row.get("tail_asymptotic"))) == 0.0
    code, out, err = run_cli(capsys, *base, flag, "1e-300")
    assert (code, out) == (2, "")
    assert err == "error: tail asymptotic at t=1e-300 exceeds the float range\n"


_HUGE = str(10**400)


@pytest.mark.parametrize("argv", [
    ("zeta", "--n", _HUGE),
    ("skyline", "--n", _HUGE),
    ("bounds", "--what", "rescale", "--rows", _HUGE, "--cols", "1"),
    ("bounds", "--what", "geom-upper", "--k", _HUGE, "--t", "1"),
], ids=lambda argv: "-".join(argv[:3]))
def test_oversized_integer_flag_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "too large" in err


def test_exit_code_config_error(capsys):
    code, _, err = run_cli(capsys, "exact", "--lattice", "sn", "--p", "0.5")
    assert code == 2 and "requires --n" in err
    code, _, _ = run_cli(capsys, "simulate", "--lattice", "sn", "--n", "3",
                         "--p", "0.0")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "exact", "--lattice", "sn", "--n", "6", "--p", "0.5",
        "--cap-states", "10",
    )
    assert code == 3 and "cap" in err.lower()


@pytest.mark.parametrize("size, name", [
    (("sn", "--n", "10"), "sn-10"),
    (("tamari", "--n", "14"), "tamari-14"),
    (("tamari-av", "--n", "14"), "tamari-av-14"),
    (("grid", "--rows", "12", "--cols", "12"), "grid-12x12"),
    (("grid", "--rows", "2", "--cols", "2000"), "grid-2x2000"),
])
def test_exact_refuses_an_oversized_state_count_before_enumerating(capsys, monkeypatch,
                                                                   size, name):
    def enumerate_states(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(engine, "enumerate_states", enumerate_states)
    code, out, err = run_cli(capsys, "exact", "--lattice", *size)
    assert (code, out) == (3, "")
    assert f"state count of {name} exceeds cap 1000000" in err


@pytest.mark.parametrize("size, count", [
    (("sn", "--n", "4"), 24),
    (("tamari", "--n", "5"), 42),
    (("tamari-av", "--n", "5"), 42),
    (("grid", "--rows", "3", "--cols", "4"), 35),
])
def test_exact_cap_boundary_is_the_state_count(capsys, size, count):
    code, out, _ = run_cli(capsys, "exact", "--lattice", *size, "--cap-states", str(count))
    assert code == 0 and out.splitlines()[1].split(",")[2] == str(count)
    code, out, err = run_cli(capsys, "exact", "--lattice", *size,
                             "--cap-states", str(count - 1))
    assert (code, out) == (3, "") and f"exceeds cap {count - 1}" in err


def test_closed_form_state_counts_match_enumeration():
    cases = [("sn", Namespace(n=n)) for n in range(7)]
    cases += [(kind, Namespace(n=n)) for kind in ("tamari", "tamari-av") for n in range(8)]
    cases += [("grid", Namespace(rows=r, cols=c)) for r in range(1, 5) for c in range(1, 5)]
    for kind, args in cases:
        counts = list(_LATTICES[kind][3](args))
        assert counts == sorted(counts), (kind, args)
        if kind == "grid":
            lattice = engine.IdealLattice(grid_poset(args.rows, args.cols))
        else:
            lattice = _LATTICES[kind][1](args.n)
        assert counts[-1] == len(engine.enumerate_states(lattice)), (kind, args)


def test_exit_code_bad_caps_and_reps(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--lattice", "sn", "--n", "3", "--reps", "0"
    )
    assert code == 2 and "reps" in err
    code, _, err = run_cli(
        capsys, "exact", "--lattice", "sn", "--n", "3", "--cap-states", "0"
    )
    assert code == 2 and "cap-states" in err


# a command line that exits 0, and the flags its subcommand does not read
_UNREAD = {
    "exact": (("--lattice", "sn", "--n", "3"), ("--reps", "--seed", "--c1")),
    "simulate": (("--lattice", "sn", "--n", "3", "--reps", "5"), ("--cap-states", "--c1")),
    "lpp": (("--lattice", "grid", "--rows", "2", "--cols", "2", "--reps", "5"),
            ("--n", "--cap-states", "--c1")),
    "tasep": (("--rows", "2", "--cols", "2", "--reps", "5"),
              ("--lattice", "--n", "--poset", "--cap-states", "--c1")),
    "fluctuation": (("--rows", "2", "--cols", "2", "--reps", "5"),
                    ("--lattice", "--n", "--poset", "--cap-states", "--c1")),
    "skyline": (("--n", "4", "--reps", "1"),
                ("--lattice", "--rows", "--cols", "--poset", "--format", "--cap-states",
                 "--c1")),
    "zeta": (("--n", "10", "--reps", "10"),
             ("--lattice", "--rows", "--cols", "--poset", "--cap-states", "--c1")),
    "bounds": (("--what", "tw-tail", "--t", "4"),
               ("--lattice", "--n", "--poset", "--reps", "--seed", "--cap-states")),
}
_FLAG_VALUE = {"--lattice": "grid", "--n": "3", "--rows": "2", "--cols": "2",
               "--poset": "poset.json", "--reps": "2", "--seed": "1", "--format": "json",
               "--cap-states": "10", "--c1": "10"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, unread) in _UNREAD.items() for flag in unread
])
def test_unread_flag_is_config_error(capsys, command, flag):
    base = _UNREAD[command][0]
    code, _, err = run_cli(capsys, command, *base)
    assert code == 0, err
    code, out, err = run_cli(capsys, command, *base, flag, _FLAG_VALUE[flag])
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


# a --lattice choice with the size flags it reads, and one it does not read
_SIZE_CASES = [
    ("sn", ("--n", "3"), ("--rows", "9")),
    ("sn", ("--n", "3"), ("--cols", "9")),
    ("sn", ("--n", "3"), ("--poset", "nofile.json")),
    ("tamari", ("--n", "3"), ("--rows", "2")),
    ("tamari-av", ("--n", "3"), ("--poset", "POSET")),
    ("grid", ("--rows", "2", "--cols", "2"), ("--n", "50")),
    ("grid", ("--rows", "2", "--cols", "2"), ("--poset", "POSET")),
    ("ideal", ("--poset", "POSET"), ("--n", "3")),
    ("ideal", ("--poset", "POSET"), ("--cols", "2")),
]


@pytest.mark.parametrize("command,lattice,reads,unread", [
    *((command, *case) for command in ("exact", "simulate") for case in _SIZE_CASES),
    ("lpp", "grid", ("--rows", "2", "--cols", "2"), ("--poset", "POSET")),
    ("lpp", "ideal", ("--poset", "POSET"), ("--rows", "2")),
])
def test_size_flag_unread_by_lattice_is_config_error(
    capsys, tmp_path, command, lattice, reads, unread
):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(grid_poset(2, 2).to_json())

    def fill(flags):
        return [str(poset_file) if a == "POSET" else a for a in flags]

    reps = () if command == "exact" else ("--reps", "2")
    base = [command, "--lattice", lattice, *fill(reads), *reps]
    code, _, err = run_cli(capsys, *base)
    assert code == 0, err
    code, out, err = run_cli(capsys, *base, *fill(unread))
    assert code == 2 and out == ""
    assert f"--lattice {lattice} does not read {unread[0]}" in err


@pytest.mark.parametrize("lattice", ["sn", "tamari", "tamari-av"])
def test_lpp_lattice_is_grid_or_ideal(capsys, tmp_path, lattice):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(grid_poset(2, 2).to_json())
    code, out, err = run_cli(capsys, "lpp", "--lattice", lattice, "--poset",
                             str(poset_file), "--reps", "3")
    assert code == 2 and out == ""
    assert f"invalid choice: '{lattice}'" in err


def _readme_command_line_section() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    lines = [line.split("#", 1)[0] for line in _readme_command_line_section().splitlines()
             if line.startswith("ungar-lab ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_flag_table_matches_parser():
    table = {}
    for line in _readme_command_line_section().splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            table[cells[0]] = set(cells[1].split())
    assert table == {name: set(flags) for name, (_, _, flags) in _COMMANDS.items()}


def test_reps_one_prints_inf_without_warnings(capsys):
    cases = [
        (("simulate", "--lattice", "sn", "--n", "3"), "stderr"),
        (("lpp", "--lattice", "grid", "--rows", "2", "--cols", "2"), "stderr"),
        (("tasep", "--rows", "2", "--cols", "2"), "stderr"),
        (("fluctuation", "--rows", "2", "--cols", "2"), "sd_rescaled"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, column in cases:
            code, out, err = run_cli(capsys, *argv, "--reps", "1", "--seed", "1")
            assert code == 0, err
            row = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
            assert row[column] == "inf", (argv, row)


@pytest.mark.parametrize("rows,cols", [("0", "3"), ("3", "0")])
@pytest.mark.parametrize(
    "command", [("lpp", "--lattice", "grid"), ("tasep",), ("fluctuation",)]
)
def test_empty_grid_is_config_error(capsys, command, rows, cols):
    code, out, err = run_cli(
        capsys, *command, "--rows", rows, "--cols", cols, "--reps", "5"
    )
    assert code == 2 and out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("command", ["exact", "simulate"])
@pytest.mark.parametrize("lattice", ["sn", "tamari", "tamari-av"])
def test_negative_n_is_config_error(capsys, command, lattice):
    reps = ("--reps", "2") if command == "simulate" else ()
    code, out, err = run_cli(capsys, command, "--lattice", lattice, "--n", "-1", *reps)
    assert code == 2 and out == ""
    assert "at least 0" in err


@pytest.mark.parametrize("n", ["0", "1"])
@pytest.mark.parametrize("lattice", ["sn", "tamari", "tamari-av"])
def test_trivial_n_has_one_state_and_zero_steps(capsys, lattice, n):
    code, out, _ = run_cli(capsys, "exact", "--lattice", lattice, "--n", n)
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert (row["states"], row["expected_steps"]) == ("1", "0")
    code, out, _ = run_cli(
        capsys, "simulate", "--lattice", lattice, "--n", n, "--reps", "3"
    )
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert (row["mean"], row["max"]) == ("0", "0")


def test_grid_simulate_mean_matches_trace(tmp_path, capsys):
    # with one replica the Monte Carlo sample (Kahn-counter sampler) and the
    # trace (generic run_chain loop) run the same stream
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", "--lattice", "grid", "--rows", "4", "--cols", "5",
        "--p", "0.5", "--reps", "1", "--seed", "3", "--trace", str(trace),
    )
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    steps = [json.loads(line) for line in trace.read_text().splitlines()]
    assert steps[-1]["state"] == 0
    assert float(row["mean"]) == steps[-1]["step"]


def test_skyline_seeds_are_disjoint_and_replay(capsys):
    def records(seed):
        code, out, _ = run_cli(
            capsys, "skyline", "--n", "6", "--p", "0.5", "--reps", "20",
            "--seed", str(seed),
        )
        assert code == 0
        return [json.loads(line) for line in out.splitlines()]

    first, second = records(0), records(1)
    assert not {r["seed"] for r in first} & {r["seed"] for r in second}
    for record in first[:5] + second[:5]:
        replay = algorithm1_run(6, 0.5, record["seed"]).to_jsonable()
        assert json.loads(json.dumps(replay)) == record


def test_skyline_run_seeds_are_the_first_seed_sequence_word(capsys):
    code, out, _ = run_cli(capsys, "skyline", "--n", "3", "--reps", "100", "--seed", "11")
    assert code == 0
    seeds = [json.loads(line)["seed"] for line in out.splitlines()]
    assert seeds == [int(np.random.SeedSequence(11, spawn_key=(1, r)).generate_state(1)[0])
                     for r in range(100)]


@pytest.mark.parametrize("argv", [
    ("simulate", "--lattice", "sn", "--n", "3", "--reps", "2"),
    ("simulate", "--lattice", "tamari", "--n", "3", "--reps", "2"),
    ("lpp", "--lattice", "grid", "--rows", "2", "--cols", "2", "--reps", "2"),
    ("tasep", "--rows", "2", "--cols", "2", "--reps", "2"),
    ("fluctuation", "--rows", "2", "--cols", "2", "--reps", "2"),
    ("zeta", "--n", "3", "--reps", "2"),
    ("skyline", "--n", "3", "--reps", "2"),
], ids=lambda argv: "-".join(argv[:3]))
def test_negative_seed_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "") and "expected non-negative integer" in err


# the flags each subcommand reads, and a strategy for each flag's value;
# after --lattice come the size flags that lattice reads (_SIZE_READS);
# float flags also draw non-finite values, and --poset a _POSET_DOCS file
_READS = {
    "exact": ("--lattice", "--p", "--format", "--cap-states"),
    "simulate": ("--lattice", "--p", "--reps", "--seed", "--format"),
    "lpp": ("--lattice", "--p", "--reps", "--seed", "--format"),
    "tasep": ("--rows", "--cols", "--p", "--reps", "--seed", "--format"),
    "fluctuation": ("--rows", "--cols", "--p", "--reps", "--seed", "--format"),
    "skyline": ("--n", "--p", "--reps", "--seed"),
    "zeta": ("--n", "--p", "--reps", "--seed", "--format"),
    "bounds": ("--rows", "--cols", "--p", "--format"),
}
_VALUES = {
    "--lattice": st.sampled_from(["sn", "tamari", "tamari-av", "grid", "ideal"]),
    "--n": st.integers(min_value=-2, max_value=5),
    "--rows": st.integers(0, 3),
    "--cols": st.integers(0, 3),
    "--p": st.sampled_from(["0.3", "0.5", "1.0", "nan", "inf"]),
    "--reps": st.integers(1, 20),
    "--seed": st.integers(0, 1000),
    "--format": st.sampled_from(["csv", "json"]),
    "--cap-states": st.sampled_from([5, 10**6]),
    "--poset": st.sampled_from([f"poset:{name}" for name in _VALID_POSETS])
    | st.sampled_from([f"poset:{name}" for name in _MALFORMED_POSETS]),
}
_SIZE_READS = {"sn": ("--n",), "tamari": ("--n",), "tamari-av": ("--n",),
               "grid": ("--rows", "--cols"), "ideal": ("--poset",)}
_NON_FINITE = ("nan", "inf")
# positive floats from 1e-300 to 1e300, and integers up to 10**400, past
# what a float holds
_WIDE_FLOATS = (st.floats(1e-300, 1e300).map(repr)
                | st.integers(-300, 300).map(lambda e: f"1e{e}"))
_WIDE_INTS = st.integers(0, 5) | st.integers(0, 10**400)


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(sorted(_READS)))
    argv = [command]
    if command == "bounds":
        argv += ["--what", draw(st.sampled_from(
            ["f", "geom-upper", "geom-lower", "tw-tail", "rescale",
             "sn-coefficient", "tamari-coefficient"]
        ))]
        for flag, values in (("--x", st.sampled_from(["0.5", "20", "1e6", *_NON_FINITE])
                              | _WIDE_FLOATS),
                             ("--k", _WIDE_INTS),
                             ("--t", st.sampled_from(["-1", "0.5", "4", *_NON_FINITE])
                              | _WIDE_FLOATS),
                             ("--c1", st.sampled_from(["1", "10", *_NON_FINITE]))):
            value = draw(st.none() | values)
            if value is not None:
                argv += [flag, str(value)]
    if command == "fluctuation" and draw(st.booleans()):
        argv += ["--tail", draw(st.sampled_from(["1.5", *_NON_FINITE]) | _WIDE_FLOATS)]
    for flag in _READS[command]:
        values = _VALUES[flag]
        if (command, flag) == ("lpp", "--lattice"):
            # lpp tells only grid (read the shape) from the rest (read --poset)
            values = st.sampled_from(["grid", "ideal"])
        if (command, flag) == ("zeta", "--n"):
            values = values | _WIDE_INTS
        argv += [flag, str(draw(values))]
        if flag == "--lattice":
            for size_flag in _SIZE_READS[argv[-1]]:
                argv += [size_flag, str(draw(_VALUES[size_flag]))]
    return argv


def _run_quiet(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=400, deadline=None)
@given(small_argv())
def test_small_flags_exit_codes_and_replay(poset_files, argv):
    flag = dict(zip(argv[1::2], argv[2::2]))
    argv = [poset_files.get(a, a) for a in argv]
    code, out = _run_quiet(argv)
    assert code in (0, 2, 3, 4), argv
    if (argv[0] in ("exact", "simulate")
            and flag["--lattice"] in ("sn", "tamari", "tamari-av")
            and int(flag["--n"]) < 0):
        assert code == 2, argv
    if (any(flag.get(f) in _NON_FINITE for f in _FLOAT_CASES)
            or flag.get("--poset") in [f"poset:{name}" for name in _MALFORMED_POSETS]):
        assert code == 2 and out == "", argv
    # zeta reads --n, and the geometric bounds --k, as a float
    read = {"zeta": "--n", "geom-upper": "--k", "geom-lower": "--k"}.get(
        flag.get("--what", argv[0]))
    if read and int(flag.get(read, 0)) > sys.float_info.max:
        assert code == 2 and out == "", argv
    assert _run_quiet(argv) == (code, out), argv
