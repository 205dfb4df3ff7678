"""Command-line front end: parameter entry, experiments, CSV/JSON emission.

Every output file starts with a header recording the resolved configuration
and the package version (comment lines for CSV, a "meta" object for JSON),
numbers are serialized with the shortest round-trip decimal representation,
and files are written atomically.  Identical configurations yield byte
identical outputs; there is no randomness anywhere in the package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from itertools import islice
from typing import TYPE_CHECKING

from . import __version__
from .errors import ComputationError, ParameterError
from .wmap import WParams, build_w_map, classify_case, restricted_turning_map

# The computing layers are imported inside the commands that use them, so a
# call loads only what its subcommand runs: classify and map-eval need
# neither numpy nor scipy, and only the Ulam route past 2048 bins loads scipy.
if TYPE_CHECKING:
    from .experiments import Family

EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _fmt(value) -> str:
    """Shortest round-trip text for a cell (str of a float is its repr);
    empty for missing values."""
    return "" if value is None else str(value)


def _write_atomic(path: str, text: str) -> None:
    """Write text through a temporary file next to the target, then rename it
    over the target.  A symlink is followed, so its target gets the text and
    the link stays; an existing target that is not a regular file (a FIFO, a
    device, a directory) is refused rather than replaced."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise ParameterError(f"cannot write output {path}: not a regular file")
    directory = os.path.dirname(target)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".acimlab-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o644)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ParameterError(f"cannot write output {path}: {exc.strerror}") from exc
        raise


def _emit(
    path: str,
    fmt: str,
    config: dict,
    header: list[str],
    rows: list[list],
    monotone: dict[str, bool] | None = None,
) -> None:
    """Write rows as CSV or JSON.  The ratio report's ``monotone`` flags follow
    the rows as a comment line (CSV) or a top-level key (JSON)."""
    if fmt == "csv":
        lines = [
            f"# acimlab {__version__}",
            f"# config: {json.dumps(config, sort_keys=True)}",
            ",".join(header),
        ]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        if monotone is not None:
            flags = ",".join(f"{k}={'yes' if v else 'no'}" for k, v in monotone.items())
            lines.append(f"# monotone_approach: {flags}")
        _write_atomic(path, "\n".join(lines) + "\n")
    else:
        payload = {
            "meta": {"artifact": "acimlab", "version": __version__, "config": config},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        if monotone is not None:
            payload["monotone_approach"] = monotone
        _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _parse_schedule(args) -> list[float]:
    if args.a_schedule is not None:
        if isinstance(args.a_schedule, (list, tuple)):
            items = list(args.a_schedule)
        else:
            items = [s for s in args.a_schedule.split(",") if s.strip()]
        if not items:
            raise ParameterError("a_schedule is empty")
        try:
            return [float(s) for s in items]
        except ValueError as exc:  # a string entry; a config list holds only numbers
            raise ParameterError(f"a_schedule: {exc}") from None
    if args.a_start is None or args.a_stop is None or args.a_points is None:
        raise ParameterError(
            "a_schedule: pass --a-schedule or all of --a-start/--a-stop/--a-points"
        )
    for name in ("a_start", "a_stop"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite (got {value!r})")
    import numpy as np

    if args.a_points < 1:
        raise ParameterError("a_points must be >= 1")
    if args.a_spacing == "log":
        if not (args.a_start > 0 and args.a_stop > 0):
            raise ParameterError("a log-spaced schedule needs a_start > 0 and a_stop > 0")
        vals = np.logspace(np.log10(args.a_start), np.log10(args.a_stop), args.a_points)
    else:
        vals = np.linspace(args.a_start, args.a_stop, args.a_points)
    return [float(v) for v in vals]


def _wparams(args) -> WParams:
    return WParams(args.s1, args.s2, args.p, args.q, args.r, args.a)


def _add_family_flags(parser, with_a=True):
    parser.add_argument("--s1", type=float, help="left slope at the turning point (> 1)")
    parser.add_argument("--s2", type=float, help="right slope magnitude at the turning point (> 1)")
    parser.add_argument("--p", type=float, default=1.0, help="left slope perturbation rate (> 0)")
    parser.add_argument("--q", type=float, default=1.0, help="right slope perturbation rate (> 0)")
    parser.add_argument("--r", type=float, default=1.0, help="turning-point lift rate (> 0)")
    if with_a:
        parser.add_argument("--a", type=float, help="perturbation size (>= 0, r*a < 1/2)")


def _add_schedule_flags(parser):
    parser.add_argument("--a-schedule", help="comma-separated decreasing a values")
    parser.add_argument("--a-start", type=float, help="largest a of a generated schedule")
    parser.add_argument("--a-stop", type=float, help="smallest a of a generated schedule")
    parser.add_argument("--a-points", type=int, help="number of schedule points")
    parser.add_argument(
        "--a-spacing", choices=("log", "linear"), default="log", help="schedule spacing"
    )


def _add_output_flags(parser):
    parser.add_argument("--output", required=False, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acimlab",
        description="invariant densities of W-shaped expanding interval maps",
    )
    parser.add_argument("--config", help="JSON file with defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="print the slope-sum case I/II/III")
    p_classify.add_argument("--s1", type=float)
    p_classify.add_argument("--s2", type=float)

    p_eval = sub.add_parser("map-eval", help="evaluate or iterate one map")
    _add_family_flags(p_eval)
    p_eval.add_argument("--x", type=float, help="point to evaluate")
    p_eval.add_argument("--steps", type=int, default=0, help="print the orbit of x this long")

    p_density = sub.add_parser("density", help="normalized invariant density to CSV/JSON")
    _add_family_flags(p_density)
    p_density.add_argument("--method", choices=("gora", "ulam", "both"), default="gora")
    p_density.add_argument("--bins", type=int, default=4096, help="Ulam bins")
    p_density.add_argument(
        "--align-half", action="store_true", help="snap the Ulam grid so 1/2 is a bin edge"
    )
    p_density.add_argument("--tail-tol", type=float, default=1e-10)
    _add_output_flags(p_density)

    p_sweep = sub.add_parser("sweep", help="family sweep over decreasing a")
    _add_family_flags(p_sweep, with_a=False)
    _add_schedule_flags(p_sweep)
    p_sweep.add_argument("--bins", type=int, default=4096, help="Ulam bins for case I points")
    _add_output_flags(p_sweep)

    p_ratios = sub.add_parser("ratios", help="case-II peak-region integral ratios")
    _add_family_flags(p_ratios, with_a=False)
    _add_schedule_flags(p_ratios)
    _add_output_flags(p_ratios)

    p_ce = sub.add_parser("counterexample", help="no-uniform-lower-bound sequence")
    p_ce.add_argument("--n-max", type=int, default=5)
    _add_output_flags(p_ce)

    return parser


def _is_number(value, kind) -> bool:
    """Whether a JSON value fits an int- or float-typed option (bool never does)."""
    kinds = (int,) if kind is int else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_config_value(key: str, value, action: argparse.Action | None) -> None:
    """Reject a config-file value the matching flag could not have produced.

    JSON null leaves the option unset, as an absent entry does.
    """
    if action is None or value is None:
        return
    if action.choices is not None:
        ok = value in action.choices
    elif action.type in (int, float):
        ok = _is_number(value, action.type)
    elif action.nargs == 0:  # store_true
        ok = isinstance(value, bool)
    elif key == "a_schedule":
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(_is_number(v, float) for v in value)
        )
    else:
        ok = isinstance(value, str)
    if not ok:
        raise ParameterError(f"config: invalid value for {key}: {value!r}")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """command name -> subparser."""
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _options(subparser: argparse.ArgumentParser) -> dict:
    """dest -> argparse action for the options of one subcommand (no --help)."""
    return {a.dest: a for a in subparser._actions if a.default is not argparse.SUPPRESS}


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv) -> dict:
    """Apply config-file values under explicit flags, return the resolved map.

    Precedence per option: explicit flag, then config-file entry (keyed by
    the underscore name), then the flag's default.  Every config-file key
    must name an option of some subcommand, and a value must have the type
    the flag would give.  The file's values become the subcommand's defaults
    and the command line is parsed again, so any flag given on it still wins.
    """
    if args.config:
        try:
            with open(args.config) as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ParameterError("config: top-level JSON object required")
        subparsers = _subparsers(parser)
        known = set().union(*(_options(sub) for sub in subparsers.values()))
        actions = _options(subparsers[args.command])
        for key, value in sorted(file_values.items()):
            if key not in known:
                raise ParameterError(f"config: unknown key {key!r}")
            _check_config_value(key, value, actions.get(key))
        subparsers[args.command].set_defaults(
            **{k: v for k, v in file_values.items() if k in actions and v is not None}
        )
        vars(args).update(vars(parser.parse_args(argv)))
    return {key: value for key, value in vars(args).items() if key != "config"}


def _require(config: dict, *names: str) -> None:
    for name in names:
        if config.get(name) is None:
            raise ParameterError(f"missing required option: --{name.replace('_', '-')}")


def _cmd_classify(args, config):
    _require(config, "s1", "s2")
    print(f"case {classify_case(args.s1, args.s2)}")


def _cmd_map_eval(args, config):
    _require(config, "s1", "s2", "p", "q", "r", "a", "x")
    w = build_w_map(_wparams(args))
    if args.steps == 0:
        print(repr(float(w(args.x))))
        return
    # iterate's checks of x and of a negative count; the orbit itself is
    # printed as it is walked, never held
    (x,) = w.iterate(args.x, min(args.steps, 0))
    print(repr(x))
    for _, value in islice(w.steps(x), args.steps):
        print(repr(float(value)))


def _density_cells(args, method):
    from .density import h0, normalize, solve_series

    params = _wparams(args)
    if method == "ulam":
        from .ulam import build_ulam, stationary_density

        # case I: all of mu_a lives on [x_l, x_r], and the bins go there
        case_i = classify_case(params.s1, params.s2) == "I"
        pl_map = restricted_turning_map(params) if case_i else build_w_map(params)
        return stationary_density(build_ulam(pl_map, args.bins, align_half=args.align_half))
    if params.a == 0:
        return h0(params.s1, params.s2)
    return normalize(solve_series(params, args.tail_tol).density)


def _cmd_density(args, config):
    _require(config, "s1", "s2", "p", "q", "r", "a", "output")
    header = ["cell_left", "cell_right", "value"]

    def rows_of(density):
        return [
            [float(left), float(right), float(val)]
            for left, right, val in zip(
                density.breakpoints[:-1], density.breakpoints[1:], density.values
            )
        ]

    if args.method == "both":
        from .density import l1_distance

        gora = _density_cells(args, "gora")
        ulam = _density_cells(args, "ulam")
        root, ext = os.path.splitext(args.output)
        _emit(root + ".gora" + ext, args.format, config, header, rows_of(gora))
        _emit(root + ".ulam" + ext, args.format, config, header, rows_of(ulam))
        print(repr(l1_distance(gora, ulam)))
    else:
        _emit(args.output, args.format, config, header, rows_of(_density_cells(args, args.method)))


SWEEP_HEADER = [
    "a",
    "case",
    "d_to_limit",
    "C1_over_a",
    "C2_over_a",
    "C3_over_a",
    "B_over_a",
    "sup_density",
    "essinf_density",
    "k",
]


def _family_schedule(args) -> tuple[Family, list[float]]:
    """The family and schedule of a sweep.  A schedule point its route cannot
    take, the series route in case II/III or the restricted map in case I, is
    a configuration error, not an empty row."""
    from .density import _require_series_case
    from .experiments import Family

    schedule = _parse_schedule(args)
    family = Family(args.s1, args.s2, args.p, args.q, args.r)
    check = restricted_turning_map if family.case == "I" else _require_series_case
    for a in schedule:
        check(family.at(a))
    return family, schedule


def _cmd_sweep(args, config):
    from .experiments import sweep

    _require(config, "s1", "s2", "p", "q", "r", "output")
    family, schedule = _family_schedule(args)
    if family.case == "I" and args.bins < 2:
        raise ParameterError(f"a case-I sweep needs bins >= 2 (got {args.bins})")
    records = sweep(family, schedule, bins=args.bins)
    rows = []
    for rec in records:
        if rec.error is not None:
            raise ComputationError(f"sweep point a={rec.a} failed: {rec.error}")
        c = rec.c_over_a or (None, None, None, None)
        rows.append(
            [rec.a, rec.case, rec.d_to_limit, c[0], c[1], c[2], c[3],
             rec.sup_density, rec.essinf_density, rec.k]
        )
    _emit(args.output, args.format, config, SWEEP_HEADER, rows)


def _cmd_ratios(args, config):
    from .experiments import asymptotic_ratio_report

    _require(config, "s1", "s2", "p", "q", "r", "output")
    family, schedule = _family_schedule(args)
    report = asymptotic_ratio_report(family, schedule)
    header = [
        "a",
        "C1_over_a", "C2_over_a", "C3_over_a", "B_over_a",
        "C1_target", "C2_target", "C3_target", "B_target",
    ]
    rows = [
        [rec.a, rec.c_over_a[0], rec.c_over_a[1], rec.c_over_a[2], rec.c_over_a[3],
         *report.targets]
        for rec in report.rows
    ]
    _emit(args.output, args.format, config, header, rows, monotone=report.monotone)


def _cmd_counterexample(args, config):
    from .experiments import counterexample_sequence

    _require(config, "output")
    if args.n_max is None or args.n_max < 1:
        raise ParameterError("n_max must be >= 1")
    rows = [
        [row.n, row.r_n, row.a_n, row.d_n, row.essinf_n]
        for row in counterexample_sequence(args.n_max)
    ]
    _emit(args.output, args.format, config, ["n", "r_n", "a_n", "d_n", "essinf_n"], rows)


COMMANDS = {
    "classify": _cmd_classify,
    "map-eval": _cmd_map_eval,
    "density": _cmd_density,
    "sweep": _cmd_sweep,
    "ratios": _cmd_ratios,
    "counterexample": _cmd_counterexample,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args, parser, argv)
        COMMANDS[args.command](args, config)
    except ParameterError as exc:
        print(f"acimlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComputationError as exc:
        print(f"acimlab: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:  # e.g. an Ulam grid too large to allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"acimlab: computation error: out of memory{detail}", file=sys.stderr)
        return EXIT_COMPUTE
    return 0


if __name__ == "__main__":
    sys.exit(main())
