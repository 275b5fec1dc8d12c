"""Command-line front end.

Every subcommand is deterministic given its flags and seed (flag
``--seed``, falling back to the ``UNGAR_LAB_SEED`` environment variable,
then 0).  Output is CSV or JSON with floats at 12 significant digits and
'.' decimals.  Exit codes: 0 success, 2 configuration error (also an
integer flag too large for a float or an index), 3 cap exceeded, 4
internal invariant violation.  A subcommand takes only the
flags its handler reads (``_COMMANDS``); any other flag exits with 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import sys

from . import engine, percolation
from .skyline import algorithm1_run, lower_bound_f
from .errors import (
    CapExceeded,
    ConfigError,
    DomainError,
    InvariantViolation,
    StateExplosion,
    UngarLabError,
)
from .poset import FinitePoset, grid_poset
from .rng import replica_random, replica_state
from .tamari import catalan


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(rows: list[dict], args) -> None:
    """Write ``rows`` as JSON or as CSV; a CSV field holding a comma or a
    quote is quoted, so a state's ``repr`` stays one field."""
    text_rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    if args.format == "json":
        out = json.dumps(text_rows, indent=2, sort_keys=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(text_rows)
        out = buf.getvalue()
    _write(out, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: NaN and +-inf exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# argparse reads only -<digits>[.<digits>] as a negative number, so a value
# such as "-1e1" after a float flag would pass for an unknown flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _seed(args) -> int:
    """``--seed``, else ``UNGAR_LAB_SEED``, else 0; ConfigError unless an int >= 0."""
    if args.seed is not None:
        source, text = "--seed", args.seed
    else:
        source, text = "UNGAR_LAB_SEED", os.environ.get("UNGAR_LAB_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{source}={text}: expected non-negative integer")
    return seed


def _validate_common(args) -> None:
    """Range checks on ``--reps`` and ``--cap-states``, where the subcommand has them."""
    if getattr(args, "reps", 1) < 1:
        raise ConfigError("--reps must be at least 1")
    if getattr(args, "cap_states", 1) < 1:
        raise ConfigError("--cap-states must be positive")


def _grid_shape(args, what: str) -> tuple[int, int]:
    """``(--rows, --cols)``, both required and at least 1."""
    if args.rows is None or args.cols is None:
        raise ConfigError(f"{what} requires --rows and --cols")
    if args.rows < 1 or args.cols < 1:
        raise ConfigError(f"{what} needs --rows and --cols of at least 1")
    return args.rows, args.cols


def _poset(args, missing: str) -> FinitePoset:
    """The poset in the ``--poset`` JSON file; without one, ConfigError ``missing``."""
    if not args.poset:
        raise ConfigError(missing)
    with open(args.poset) as fh:
        return FinitePoset.from_json(fh.read())


def _grid_ideal_counts(rows: int, cols: int):
    """C(a + k, k) for k = 0..b, with a >= b the sides; the last is C(rows + cols, rows)."""
    a, b = max(rows, cols), min(rows, cols)
    return itertools.accumulate(range(1, b + 1), lambda c, k: c * (a + k) // k, initial=1)


# --lattice choice -> (the size flags it reads, the lattice class that --n
# sizes, the linear-growth coefficient simulate reports, a nondecreasing
# sequence of ints that ends with the state count).  A size flag the choice
# does not read is a configuration error, since the per-subcommand flag
# table cannot tell which one is read.
_LATTICES = {
    "sn": (("--n",), engine.SnLattice, percolation.sn_linear_coefficient,
           lambda a: map(math.factorial, range(a.n + 1))),
    "tamari": (("--n",), engine.TamariForestLattice, percolation.tamari_linear_coefficient,
               lambda a: map(catalan, range(a.n + 1))),
    "tamari-av": (("--n",), engine.TamariAvLattice, percolation.tamari_linear_coefficient,
                  lambda a: map(catalan, range(a.n + 1))),
    "grid": (("--rows", "--cols"), None, None, lambda a: _grid_ideal_counts(a.rows, a.cols)),
    "ideal": (("--poset",), None, None, None),
}


def _reject_unread_size_flags(args) -> None:
    """ConfigError if ``--n``, ``--rows``, ``--cols`` or ``--poset`` is set but
    the chosen ``--lattice`` does not read it."""
    reads = _LATTICES[args.lattice][0]
    for flag in ("--n", "--rows", "--cols", "--poset"):
        if getattr(args, flag[2:], None) is not None and flag not in reads:
            raise ConfigError(f"--lattice {args.lattice} does not read {flag}")


def _lattice(args):
    """The ``--lattice`` backend.  Where the subcommand has ``--cap-states``
    and the state count has a closed form, a count over the cap exits 3
    before anything is built or enumerated."""
    _reject_unread_size_flags(args)
    kind = args.lattice
    if kind == "ideal":
        poset = _poset(args, "--lattice ideal requires --poset FILE")
        return engine.IdealLattice(poset, name=f"ideal-file-{poset.n}")
    if kind == "grid":
        rows, cols = _grid_shape(args, "--lattice grid")
        name = f"grid-{rows}x{cols}"
    else:
        if args.n is None:
            raise ConfigError(f"--lattice {kind} requires --n")
        if args.n < 0:
            raise ConfigError(f"--lattice {kind} needs --n of at least 0")
        name = f"{kind}-{args.n}"  # the name the lattice gives itself
    cap = getattr(args, "cap_states", None)
    if cap is not None and any(count > cap for count in _LATTICES[kind][3](args)):
        raise StateExplosion(f"state count of {name} exceeds cap {cap}")
    if kind == "grid":
        return engine.IdealLattice(grid_poset(rows, cols), name=name)
    return _LATTICES[kind][1](args.n)


def _stats(res: engine.McResult) -> dict:
    """The reps, mean, stderr, min and max columns of a result row."""
    return {"reps": res.reps, "mean": res.mean, "stderr": res.stderr,
            "min": res.minimum, "max": res.maximum}


def cmd_exact(args) -> None:
    lattice = _lattice(args)
    expect = engine.exact_expected_absorption(lattice, args.p, cap_states=args.cap_states)
    top = lattice.top()
    rows = [
        {
            "backend": lattice.name,
            "p": args.p,
            "states": len(expect),
            "expected_steps": float(expect[top]),
        }
    ]
    if args.per_element:
        rows = [
            {"backend": lattice.name, "p": args.p, "element": repr(s),
             "expected_steps": float(v)}
            for s, v in expect.items()
        ]
        rows.sort(key=lambda row: (row["expected_steps"], row["element"]))
    _emit(rows, args)


def cmd_simulate(args) -> None:
    lattice = _lattice(args)
    seed = _seed(args)
    res = engine.monte_carlo_expectation(lattice, args.p, reps=args.reps, seed=seed)
    row = {
        "backend": lattice.name,
        "n": args.n if args.n is not None else "",
        "p": args.p,
        "seed": seed,
        **_stats(res),
    }
    # linear-growth reporting (informational; asymptotic constants are
    # never asserted at finite n)
    coefficient = _LATTICES[args.lattice][2]
    if coefficient is not None and args.n and 0 < args.p < 1:
        row["mean_over_n"] = res.mean / args.n
        row["linear_coefficient"] = coefficient(args.p)
    if args.survival:
        ts, surv = engine.empirical_survival(res.samples)
        with open(args.survival, "w") as fh:
            fh.write("t,survival\n")
            for tt, ss in zip(ts, surv):
                fh.write(f"{tt},{_fmt(float(ss))}\n")
    if args.trace:
        rnd = replica_random(seed, 0)
        run = engine.run_chain(lattice, args.p, rnd, record=True)
        with open(args.trace, "w") as fh:
            for step, (state, picks) in enumerate(
                zip(run.states[1:], run.picks), start=1
            ):
                fh.write(json.dumps(
                    {"step": step, "state": _stateify(state), "picked": list(picks)}
                ) + "\n")
    _emit([row], args)


def _stateify(state):
    """A trace state as JSON: a permutation as a list, an ideal as its int
    mask, a forest as its parent and children lists."""
    if isinstance(state, tuple):
        return list(state)
    if isinstance(state, int):
        return state
    return json.loads(state.to_json())


def cmd_lpp(args) -> None:
    _reject_unread_size_flags(args)
    seed = _seed(args)
    if args.lattice == "grid":
        rows, cols = _grid_shape(args, "lpp on a grid")
        samples = percolation.lpp_grid_samples(rows, cols, args.p, args.reps, seed)
        name = f"grid-{rows}x{cols}"
    else:
        poset = _poset(args, "lpp needs --lattice grid or --poset FILE")
        samples = percolation.lpp_poset_samples(poset, args.p, args.reps, seed)
        name = f"poset-{poset.n}"
    _emit([{"backend": name, "p": args.p, "seed": seed,
            **_stats(engine.McResult.from_samples(samples))}], args)


def cmd_tasep(args) -> None:
    rows, cols = _grid_shape(args, "tasep")
    seed = _seed(args)
    samples = percolation.tasep_absorption_samples(rows, cols, args.p, args.reps, seed)
    _emit([{"rows": rows, "cols": cols, "p": args.p, "seed": seed,
            **_stats(engine.McResult.from_samples(samples))}], args)


def cmd_fluctuation(args) -> None:
    rows, cols = _grid_shape(args, "fluctuation")
    percolation.check_open_p(args.p)
    # the tail asymptotic rejects t <= 0, before any sample is drawn
    tail = None if args.tail is None else percolation.tracy_widom_tail(args.tail)
    seed = _seed(args)
    samples = percolation.lpp_grid_samples(rows, cols, args.p, args.reps, seed)
    samples = samples.astype(float)
    phi, eta = percolation.rescaling_constants(args.p, rows, cols)
    rescaled = (samples - phi) / eta
    row = {
        "n": rows,
        "m": cols,
        "p": args.p,
        "reps": args.reps,
        "mean_T": float(samples.mean()),
        "Phi": phi,
        "eta": eta,
        "mean_rescaled": float(rescaled.mean()),
        "sd_rescaled": engine.sample_sd(rescaled),
    }
    if args.tail is not None:
        row["tail_t"] = args.tail
        row["tail_empirical"] = float((rescaled > args.tail).mean())
        row["tail_asymptotic"] = tail
    _emit([row], args)


def cmd_skyline(args) -> None:
    if args.n is None:
        raise ConfigError("skyline requires --n")
    seed = _seed(args)
    lines = []
    for r in range(args.reps):
        # run r gets its own integer seed: the low word of replica r's state
        run_seed = replica_state(seed, r) & 0xFFFFFFFF
        res = algorithm1_run(args.n, args.p, run_seed)
        lines.append(json.dumps(res.to_jsonable()))
    _write("\n".join(lines) + "\n", args)


def cmd_zeta(args) -> None:
    if args.n is None:
        raise ConfigError("zeta requires --n (number of geometric variables)")
    percolation.check_open_p(args.p)
    seed = _seed(args)
    est, err = percolation.zeta_estimate(args.p, args.n, args.reps, seed)
    ups = percolation.upsilon(args.p, args.n)
    _emit(
        [
            {
                "p": args.p,
                "n": args.n,
                "trials": args.reps,
                "seed": seed,
                "zeta_hat": est,
                "zeta_exact": percolation.zeta_exact(args.p, args.n),
                "stderr": err,
                "upsilon": ups,
                "abs_diff": abs(est - ups),
                "liminf_lower_bound": percolation.zeta_liminf_lower_bound(args.p),
            }
        ],
        args,
    )


def cmd_bounds(args) -> None:
    what = args.what
    row: dict = {"what": what}
    if what == "f":
        if args.x is None:
            raise ConfigError("bounds --what f requires --x")
        row.update(x=args.x, p=args.p, c1=args.c1,
                   value=lower_bound_f(args.x, args.p, args.c1))
    elif what in ("geom-upper", "geom-lower"):
        if args.k is None or args.t is None:
            raise ConfigError("geometric bounds require --k and --t")
        side = "upper" if what == "geom-upper" else "lower"
        row.update(k=args.k, p=args.p, t=args.t,
                   value=engine.geometric_tail_bound(args.k, args.p, args.t, side))
    elif what == "tw-tail":
        if args.t is None:
            raise ConfigError("tw-tail requires --t")
        row.update(t=args.t, value=percolation.tracy_widom_tail(args.t))
    elif what == "rescale":
        rows, cols = _grid_shape(args, "rescale")
        phi, eta = percolation.rescaling_constants(args.p, rows, cols)
        row.update(p=args.p, x=rows, y=cols, Phi=phi, eta=eta)
    elif what == "sn-coefficient":
        row.update(p=args.p, value=percolation.sn_linear_coefficient(args.p))
    elif what == "tamari-coefficient":
        row.update(p=args.p, value=percolation.tamari_linear_coefficient(args.p))
    else:
        raise ConfigError(f"unknown bound {what!r}")
    _emit([row], args)


# Every flag a subcommand may take, with its argparse settings.
_FLAGS = {
    "--lattice": dict(default="sn", choices=list(_LATTICES)),
    "--n": dict(type=int),
    "--rows": dict(type=int),
    "--cols": dict(type=int),
    "--poset": dict(help="JSON poset file for --lattice ideal"),
    "--p": dict(type=_finite_float, default=0.5),
    "--reps": dict(type=int, default=1000),
    "--seed": dict(type=int),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--out": dict(),
    "--cap-states": dict(type=int, default=engine.DEFAULT_STATE_CAP),
    "--c1": dict(type=_finite_float, default=10.0),
    "--per-element": dict(action="store_true"),
    "--survival": dict(help="write the empirical survival CSV here"),
    "--trace": dict(help="write a one-replica JSONL trace here"),
    "--tail": dict(type=_finite_float),
    "--what": dict(required=True,
                   choices=["f", "geom-upper", "geom-lower", "tw-tail", "rescale",
                            "sn-coefficient", "tamari-coefficient"]),
    "--x": dict(type=_finite_float),
    "--k": dict(type=int),
    "--t": dict(type=_finite_float),
}

_LATTICE_FLAGS = ("--lattice", "--n", "--rows", "--cols", "--poset")

# (subcommand, flag) -> settings that replace the flag's _FLAGS entry there:
# lpp runs on a grid or on a poset file, so it offers only those lattices
_FLAG_OVERRIDES = {
    ("lpp", "--lattice"): dict(default="ideal", choices=["grid", "ideal"]),
}

# subcommand -> (handler, help, the flags its handler reads); argparse
# rejects any other flag with exit code 2
_COMMANDS = {
    "exact": (cmd_exact, "expected absorption time by linear solve",
              (*_LATTICE_FLAGS, "--p", "--format", "--out", "--cap-states",
               "--per-element")),
    "simulate": (cmd_simulate, "Monte Carlo absorption statistics",
                 (*_LATTICE_FLAGS, "--p", "--reps", "--seed", "--format", "--out",
                  "--survival", "--trace")),
    "lpp": (cmd_lpp, "last-passage percolation samples",
            ("--lattice", "--rows", "--cols", "--poset", "--p", "--reps", "--seed",
             "--format", "--out")),
    "tasep": (cmd_tasep, "corner-growth window fill times",
              ("--rows", "--cols", "--p", "--reps", "--seed", "--format", "--out")),
    "fluctuation": (cmd_fluctuation, "rescaled passage-time statistics",
                    ("--rows", "--cols", "--p", "--reps", "--seed", "--format", "--out",
                     "--tail")),
    "skyline": (cmd_skyline, "multi-stream runs with diagnostics",
                ("--n", "--p", "--reps", "--seed", "--out")),
    "zeta": (cmd_zeta, "uniqueness probability vs its series limit",
             ("--n", "--p", "--reps", "--seed", "--format", "--out")),
    "bounds": (cmd_bounds, "evaluate bound formulas",
               ("--rows", "--cols", "--p", "--format", "--out", "--c1", "--what", "--x",
                "--k", "--t")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ungar-lab",
        description="Absorbing lattice chains: exact solves, Monte Carlo, "
        "percolation couplings, and skyline diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in flags:
            sp.add_argument(flag, **_FLAG_OVERRIDES.get((name, flag), _FLAGS[flag]))
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _validate_common(args)
        args.func(args)
    except (ConfigError, DomainError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size no cap refuses, such as skyline --n 10**11
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except UngarLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
