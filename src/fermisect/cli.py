"""Command-line front end.

Subcommands cover every computation in the package and regenerate the
figure datasets as CSV/JSON: occupation spectra, left/right correlation
matrices, Bogoliubov coefficient dumps, detector registration curves, the
joint-registration correlation surface, POVM tables, and the verification
suite.  Output is deterministic for a fixed command line (floats are written
with shortest round-trip repr) and every CSV but the POVM table carries a
``#`` header echoing the configuration that produced it.

Exit codes: 0 success, 1 configuration or compute error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import verify as verify_mod
from ._textio import text_buffer, write_table
from .bogoliubov import QuadratureUnresolved, build_pair, pair_to_csv
from .detector import (
    PhasePoint,
    joint_correlation,
    registration_prob_one,
    registration_prob_two,
)
from .field import FieldConfig, Region
from .povm import conditionals, entangled_table, product_table
from .spectrum import (
    auto_truncation,
    correlation_matrix,
    occupation_spectrum,
    write_correlation_csv,
    write_spectrum_csv,
)

__all__ = ["main"]


class ConfigError(ValueError):
    """A flag or flag combination the command cannot run with."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors via exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}") from exc


def _parse_grid(text: str) -> np.ndarray:
    """``start:stop:count`` linear grid, or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid {text!r}") from exc
        if count < 1:
            raise ConfigError("grid count must be >= 1")
        return np.linspace(start, stop, count)
    values = _parse_floats(text)
    if not values:
        raise ConfigError(f"--grid needs at least one value, got {text!r}")
    return np.array(values)


def _detectors(args, imaginary: bool = False) -> tuple[list[float], list[PhasePoint]]:
    """``--grid`` values ``g`` and detectors of width ``--sigma`` at label ``g`` (or ``i*g``).

    The label ``g`` sits at ``x = g/sigma`` and ``i*g`` at ``p = 2*sigma*g``;
    a position that overflows is reported against the flags that produced it.
    """
    sigma = PhasePoint(args.sigma).sigma  # finite and > 0 before dividing by it
    grid = _parse_grid(args.grid).tolist()
    try:
        if imaginary:
            points = [PhasePoint(sigma, p=2.0 * sigma * g) for g in grid]
        else:
            points = [PhasePoint(sigma, x=g / sigma) for g in grid]
    except ValueError as exc:  # sigma is valid, so a coordinate overflowed
        raise ConfigError(f"--grid {args.grid} at --sigma {sigma!r} puts a detector at a"
                          f" non-finite position ({exc})") from exc
    return grid, points


def _single_mu_l(text: str) -> float:
    mu_ls = _parse_floats(text)
    if len(mu_ls) != 1:
        raise ConfigError(f"--mu-l needs exactly one value, got {text!r}")
    return mu_ls[0]


def _target(path):
    """What the writers write to: the ``--out`` path, or stdout for none or ``-``."""
    return sys.stdout if path is None or path == "-" else path


def _emit(path, text: str) -> None:
    with text_buffer(_target(path)) as buf:
        buf.write(text)


def _emit_rows(args, columns: tuple[str, ...], rows: list[tuple], lines) -> None:
    """``rows`` as JSON objects, or their CSV ``lines`` under a ``--sigma``/``--grid`` header."""
    if args.format == "json":
        _emit(args.out, json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n")
    else:
        write_table(_target(args.out), {"sigma": args.sigma, "grid": args.grid}, columns, lines)


def _cutoff(args, cfgs) -> int:
    """The one cutoff of a table: ``--truncation``, or the largest probe cutoff over ``cfgs``."""
    if args.truncation is not None:
        return args.truncation
    return max(auto_truncation(cfg, args.k_max) for cfg in cfgs)


def _cmd_spectrum(args) -> int:
    mu_ls = _parse_floats(args.mu_l)
    if not mu_ls:
        raise ConfigError("--mu-l needs at least one value")
    cfgs = {mu_l: FieldConfig.from_mu_l(mu_l, time=args.time) for mu_l in mu_ls}
    n = _cutoff(args, cfgs.values())
    spectra = {mu_l: occupation_spectrum(args.k_max, cfg, n) for mu_l, cfg in cfgs.items()}
    if args.format == "json":
        payload = {repr(mu_l): values.tolist() for mu_l, values in spectra.items()}
        _emit(args.out, json.dumps({"k": list(range(1, args.k_max + 1)), "occupation": payload},
                                   indent=2) + "\n")
    else:
        write_spectrum_csv(_target(args.out), spectra, cfgs[min(cfgs)], n)
    return 0


def _cmd_correlation(args) -> int:
    cfg = FieldConfig.from_mu_l(_single_mu_l(args.mu_l), time=args.time)
    n = _cutoff(args, [cfg])
    entries = correlation_matrix(args.k_max, cfg, n)
    if args.format == "json":
        payload = [{"k": k, "m": m, "re": d.real, "im": d.imag}
                   for k, row in enumerate(entries.tolist(), 1) for m, d in enumerate(row, 1)]
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        write_correlation_csv(_target(args.out), entries, cfg, n)
    return 0


def _cmd_bogoliubov(args) -> int:
    mu_l = _single_mu_l(args.mu_l)
    cfg = FieldConfig.from_mu_l(mu_l, time=args.time)
    region = Region.LEFT if args.region == "left" else Region.RIGHT
    pair_to_csv(build_pair(region, cfg, args.truncation), _target(args.out))
    return 0


def _cmd_detector(args) -> int:
    grid, points = _detectors(args)
    rows = [(r, registration_prob_one(point), registration_prob_two(point))
            for r, point in zip(grid, points)]
    _emit_rows(args, ("beta", "p1", "p2"), rows,
               (f"{b!r},{p1!r},{p2!r}\n" for b, p1, p2 in rows))
    return 0


def _cmd_joint_correlation(args) -> int:
    grid, real = _detectors(args)
    _, imag = _detectors(args, imaginary=True)
    rows = [(parametrization, a, b, joint_correlation(point_a, point_b))
            for parametrization, points_b in (("real_real", real), ("real_imag", imag))
            for a, point_a in zip(grid, real)
            for b, point_b in zip(grid, points_b)]
    _emit_rows(args, ("parametrization", "a", "b", "c"), rows,
               (f"{s},{a!r},{b!r},{c!r}\n" for s, a, b, c in rows))
    return 0


def _cmd_povm(args) -> int:
    if (args.entangled is None) == (args.product is None):
        raise ConfigError("choose exactly one of --entangled P or --product PA PB")
    if args.with_conditionals and args.format == "csv":
        raise ConfigError("--with-conditionals needs --format json")
    if args.entangled is not None:
        table = entangled_table(args.entangled)
    else:
        table = product_table(args.product[0], args.product[1])
    payload = table.as_dict()
    if args.format == "csv":
        write_table(_target(args.out), {}, ("cell", "probability"),
                    (f"{k},{v!r}\n" for k, v in payload.items()))
        return 0
    if args.with_conditionals:
        cond = conditionals(table)
        payload["conditionals"] = [list(cond[0]), list(cond[1])]
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    numbers = None
    if args.only:
        numbers = [int(tok) for tok in args.only.split(",") if tok]
        unknown = set(numbers) - set(verify_mod.CRITERIA)
        if unknown:
            raise ConfigError(f"unknown criteria: {sorted(unknown)}")
    results = verify_mod.run(numbers, seed=args.seed)
    _emit(args.out, "".join(result.line() + "\n" for result in results))
    return 0 if all(r.passed for r in results) else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="fermisect", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_field(p, mu_l_default, truncation_default):
        p.add_argument("--mu-l", default=mu_l_default,
                       help="interval half-length over Compton wavelength"
                            " (comma list for spectrum, one value otherwise)")
        p.add_argument("--truncation", type=int, default=truncation_default,
                       help="symmetric mode cutoff N >= 1; default: "
                            f"{truncation_default or 'doubling probe, largest over --mu-l'}")
        p.add_argument("--time", type=float, default=0.0, help="evaluation time")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_spectral(p, mu_l_default, k_max_default):
        add_field(p, mu_l_default, None)
        p.add_argument("--k-max", type=int, default=k_max_default, help="largest mode number")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="occupation spectrum per mu*L value")
    add_spectral(p, "0.1,1,10", 64)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("correlation", help="left/right filling-number correlation matrix")
    add_spectral(p, "1.0", 16)
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("bogoliubov", help="coefficient matrix dump (csv)")
    add_field(p, "1.0", 16)
    p.add_argument("--region", choices=("left", "right"), default="left")
    p.set_defaults(func=_cmd_bogoliubov)

    p = sub.add_parser("detector", help="registration probability curves")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--grid", default="0:4:50", help="|beta| grid start:stop:count")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_detector)

    p = sub.add_parser("joint-correlation", help="joint-registration correlation surface")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--grid", default="0:3:25", help="detector distance grid start:stop:count")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_joint_correlation)

    p = sub.add_parser("povm", help="two-subsystem joint probability table")
    p.add_argument("--entangled", type=float, default=None, metavar="P")
    p.add_argument("--product", type=float, nargs=2, default=None, metavar=("PA", "PB"))
    p.add_argument("--with-conditionals", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_povm)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", default=None, help="comma list of criterion numbers")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureUnresolved as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
