"""Command-line surface: determinism, formats, exit codes."""

import io
import json
import shlex
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ungar_lab.cli import _COMMANDS, build_parser, main
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
    row = dict(zip(*[line.split(",") for line in out.strip().split("\n")]))
    assert abs(float(row["zeta_hat"]) - float(row["upsilon"])) < 0.05


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


def test_ideal_lattice_from_file(tmp_path, capsys):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(grid_poset(2, 2).to_json())
    code, out, _ = run_cli(
        capsys, "exact", "--lattice", "ideal", "--poset", str(poset_file),
        "--p", "0.5",
    )
    assert code == 0
    assert out.split("\n")[1].split(",")[2] == "6"  # |J(R_{2,2})|


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


# the flags each subcommand reads, and a strategy for each flag's value
_READS = {
    "exact": ("--lattice", "--n", "--rows", "--cols", "--p", "--format", "--cap-states"),
    "simulate": ("--lattice", "--n", "--rows", "--cols", "--p", "--reps", "--seed",
                 "--format"),
    "lpp": ("--lattice", "--rows", "--cols", "--p", "--reps", "--seed", "--format"),
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
    "--p": st.sampled_from(["0.3", "0.5", "1.0"]),
    "--reps": st.integers(1, 20),
    "--seed": st.integers(0, 1000),
    "--format": st.sampled_from(["csv", "json"]),
    "--cap-states": st.sampled_from([5, 10**6]),
}


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(sorted(_READS)))
    argv = [command]
    if command == "bounds":
        argv += ["--what", draw(st.sampled_from(
            ["f", "geom-upper", "geom-lower", "tw-tail", "rescale",
             "sn-coefficient", "tamari-coefficient"]
        ))]
        for flag, values in (("--x", st.sampled_from(["0.5", "20", "1e6"])),
                             ("--k", st.integers(0, 5)),
                             ("--t", st.sampled_from(["-1", "0.5", "4"])),
                             ("--c1", st.sampled_from(["1", "10"]))):
            value = draw(st.none() | values)
            if value is not None:
                argv += [flag, str(value)]
    if command == "fluctuation" and draw(st.booleans()):
        argv += ["--tail", "1.5"]
    for flag in _READS[command]:
        values = _VALUES[flag]
        if (command, flag) == ("lpp", "--lattice"):
            # lpp tells only grid (read the shape) from the rest (read --poset)
            values = st.sampled_from(["grid", "ideal"])
        argv += [flag, str(draw(values))]
    return argv


def _run_quiet(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=400, deadline=None)
@given(small_argv())
def test_small_flags_exit_codes_and_replay(argv):
    code, out = _run_quiet(argv)
    assert code in (0, 2, 3, 4), argv
    flag = dict(zip(argv[1::2], argv[2::2]))
    if (argv[0] in ("exact", "simulate")
            and flag["--lattice"] in ("sn", "tamari", "tamari-av")
            and int(flag["--n"]) < 0):
        assert code == 2, argv
    assert _run_quiet(argv) == (code, out), argv
