"""Command-line front end.

Subcommands cover every computation in the package and regenerate the
figure datasets as CSV/JSON: occupation spectra, left/right correlation
matrices, Bogoliubov coefficient dumps, detector registration curves, the
joint-registration correlation surface, POVM tables, and the verification
suite.  Output is deterministic for a fixed command line (floats are written
with shortest round-trip repr) and every CSV but the POVM table carries a
``#`` header echoing the configuration that produced it.

Exit codes: 0 success, 1 configuration, output or compute error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from . import verify as verify_mod
from ._textio import text_buffer, write_table
from .bogoliubov import QuadratureUnresolved, pair_to_csv
from .detector import (
    PhasePoint,
    joint_correlation_surface,
    registration_probabilities,
)
from .field import FieldConfig, Region
from .povm import conditionals, entangled_table, product_table
from .spectrum import (
    converged_cutoff,
    correlation_matrix,
    occupation_spectrum,
    write_correlation_csv,
    write_spectrum_csv,
)

__all__ = ["main"]

#: Most ``joint-correlation`` grid points.  The surface holds ``2 * count**2`` entries, and
#: its JSON output peaks at about 1.2 KB per entry (CSV 0.23 KB), so 500 points peak near 0.6 GB.
_JOINT_GRID_POINTS = 500


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag errors via exit code 1.

    A token after a flag that starts with ``-`` and a digit, ``.digit``, ``inf`` or ``nan`` is the
    flag's value (``--grid -1:1:3``, ``--time -1e5``, ``--time -inf``), as with ``=``; argparse's
    own pattern takes only ``-N`` and ``-N.N``.  The subparsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"bad float list {text!r}") from exc


def _parse_grid(text: str, max_count: int | None = None) -> np.ndarray:
    """``start:stop:count`` linear grid, or a comma list of values; at most ``max_count`` of them."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad grid {text!r}") from exc
        if count < 1:
            raise ValueError("grid count must be >= 1")
    else:
        values = _parse_floats(text)
        if not values:
            raise ValueError(f"--grid needs at least one value, got {text!r}")
        count = len(values)
    if max_count is not None and count > max_count:
        raise ValueError(f"--grid {text} has {count} points, above the cap of {max_count}")
    return np.linspace(start, stop, count) if ":" in text else np.array(values)


def _grid_labels(args, imaginary: bool = False) -> tuple[list[float], np.ndarray]:
    """``--grid`` values ``g`` and the labels of width-``--sigma`` detectors at ``g``.

    With ``imaginary`` the labels of the detectors at ``i*g`` follow, and a grid of
    more than `_JOINT_GRID_POINTS` points is refused before any array is built.  This is
    where a detector grid is validated, once and as an array: ``g`` sits at
    ``x = g/sigma`` and ``i*g`` at ``p = 2*sigma*g``, and the first coordinate
    that is not finite is reported against the flags that produced it.  Each
    label has the bits of ``PhasePoint(sigma, x=x).label`` or
    ``PhasePoint(sigma, p=p).label``, signed zeros included.
    """
    sigma = PhasePoint(args.sigma).sigma  # finite and > 0 before dividing by it
    grid = _parse_grid(args.grid, _JOINT_GRID_POINTS if imaginary else None)
    n = len(grid)

    def finite(name: str, values: np.ndarray) -> np.ndarray:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"--grid {args.grid} at --sigma {sigma!r} puts a detector at a"
                             f" non-finite position ({name} must be finite,"
                             f" got {float(values[bad[0]])})")
        return values

    # sigma*x + 0.5j*p/sigma as CPython's complex arithmetic rounds it: its sums add 0.0
    # to each part, which turns a -0.0 into 0.0
    labels = np.zeros(2 * n if imaginary else n, dtype=complex)
    with np.errstate(all="ignore"):  # a coordinate that is not finite is reported by `finite`
        labels.real[:n] = sigma * finite("x", grid / sigma) + 0.0
        if imaginary:
            labels.imag[n:] = (0.5 * finite("p", 2.0 * sigma * grid) + 0.0) / sigma
    return grid.tolist(), labels


@contextlib.contextmanager
def _grid_overflow(args):
    """Report an `OverflowError` of the detector arithmetic against ``--grid`` and ``--sigma``."""
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"--grid {args.grid} at --sigma {args.sigma!r} overflows float64"
                         " in the detector arithmetic") from exc


def _single_mu_l(text: str) -> float:
    mu_ls = _parse_floats(text)
    if len(mu_ls) != 1:
        raise ValueError(f"--mu-l needs exactly one value, got {text!r}")
    return mu_ls[0]


def _target(path):
    """What the writers write to: the ``--out`` path, or stdout for none or ``-``."""
    return sys.stdout if path is None or path == "-" else path


def _emit(path, text: str) -> None:
    with text_buffer(_target(path)) as buf:
        buf.write(text)


def _emit_rows(args, columns: tuple[str, ...], rows, lines) -> None:
    """``rows`` as JSON objects, or their CSV ``lines`` under a ``--sigma``/``--grid`` header."""
    if args.format == "json":
        _emit(args.out, json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n")
    else:
        write_table(_target(args.out), {"sigma": args.sigma, "grid": args.grid}, columns, lines)


def _cutoff(args, mu_ls) -> tuple[int, bool]:
    """A table's cutoff and tail flag: ``--truncation`` raw, else the largest `converged_cutoff`."""
    if args.truncation is not None:
        return args.truncation, False
    return max(converged_cutoff(args.k_max, mu_l) for mu_l in mu_ls), True


def _cmd_spectrum(args) -> int:
    mu_ls = _parse_floats(args.mu_l)
    if not mu_ls:
        raise ValueError("--mu-l needs at least one value")
    n, tail = _cutoff(args, mu_ls)
    # of equal values (-0.0, 0.0) the first names its column and the header
    spectra = {v: occupation_spectrum(args.k_max, v, n, tail) for v in dict.fromkeys(mu_ls)}
    if args.format == "json":
        payload = {repr(mu_l): values.tolist() for mu_l, values in spectra.items()}
        _emit(args.out, json.dumps({"k": list(range(1, args.k_max + 1)), "occupation": payload},
                                   indent=2) + "\n")
    else:
        write_spectrum_csv(_target(args.out), spectra, n, tail)
    return 0


def _cmd_correlation(args) -> int:
    mu_l = _single_mu_l(args.mu_l)
    n, tail = _cutoff(args, [mu_l])
    entries = correlation_matrix(args.k_max, mu_l, n, tail)
    if args.format == "json":
        payload = [{"k": k, "m": m, "re": d, "im": 0.0}
                   for k, row in enumerate(entries.tolist(), 1) for m, d in enumerate(row, 1)]
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        write_correlation_csv(_target(args.out), entries, mu_l, n, tail)
    return 0


def _cmd_bogoliubov(args) -> int:
    mu_l = _single_mu_l(args.mu_l)
    cfg = FieldConfig.from_mu_l(mu_l, time=args.time)
    pair_to_csv(Region(args.region), _target(args.out), cfg, args.truncation)
    return 0


def _cmd_detector(args) -> int:
    grid, labels = _grid_labels(args)
    with _grid_overflow(args):
        rows = list(zip(grid, *(p.tolist() for p in registration_probabilities(labels))))
    _emit_rows(args, ("beta", "p1", "p2"), rows,
               (f"{b!r},{p1!r},{p2!r}\n" for b, p1, p2 in rows))
    return 0


def _cmd_joint_correlation(args) -> int:
    grid, labels = _grid_labels(args, imaginary=True)
    n = len(grid)
    with _grid_overflow(args):
        # one surface over both column sets: each real detector's state overlaps once
        surface = joint_correlation_surface(labels[:n], labels)
    blocks = (("real_real", surface[:, :n].tolist()), ("real_imag", surface[:, n:].tolist()))
    names = [repr(g) for g in grid]
    _emit_rows(args, ("parametrization", "a", "b", "c"),
               ((tag, a, b, c) for tag, block in blocks
                for a, row in zip(grid, block) for b, c in zip(grid, row)),
               (f"{tag},{a},{b},{c!r}\n" for tag, block in blocks
                for a, row in zip(names, block) for b, c in zip(names, row)))
    return 0


def _cmd_povm(args) -> int:
    if (args.entangled is None) == (args.product is None):
        raise ValueError("choose exactly one of --entangled P or --product PA PB")
    if args.with_conditionals and args.format == "csv":
        raise ValueError("--with-conditionals needs --format json")
    if args.entangled is not None:
        table = entangled_table(args.entangled)
    else:
        table = product_table(args.product[0], args.product[1])
    payload = dataclasses.asdict(table)
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
    if args.only is not None:
        message = f"--only needs a comma list of criterion numbers, got {args.only!r}"
        try:
            numbers = [int(tok) for tok in args.only.split(",") if tok]
        except ValueError as exc:
            raise ValueError(message) from exc
        if not numbers:
            raise ValueError(message)
        unknown = set(numbers) - set(verify_mod.CRITERIA)
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    results = verify_mod.run(numbers, seed=args.seed)
    _emit(args.out, "".join(result.line() + "\n" for result in results))
    return 0 if all(r.passed for r in results) else 2


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later one.

    Parsing reads the tree and never writes it: each call fills a new namespace.
    """
    parser = _Parser(prog="fermisect", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_field(p, mu_l_default, truncation_default):
        p.add_argument("--mu-l", default=mu_l_default,
                       help="interval half-length over Compton wavelength"
                            " (comma list for spectrum, one value otherwise)")
        p.add_argument("--truncation", type=int, default=truncation_default,
                       help="symmetric mode cutoff N >= 1, summed raw; default: "
                            f"{truncation_default or 'max(513, 4*k_max+1, 32*mu*L) plus a tail'}")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_spectral(p, mu_l_default, k_max_default):
        add_field(p, mu_l_default, None)
        p.add_argument("--k-max", type=int, default=k_max_default, help="largest mode number")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_detector(p, grid_default, grid_help):
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--grid", default=grid_default, help=grid_help)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="occupation spectrum per mu*L value")
    add_spectral(p, "0.1,1,10", 64)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("correlation", help="left/right filling-number correlation matrix")
    add_spectral(p, "1.0", 16)
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("bogoliubov", help="coefficient matrix dump (csv)")
    add_field(p, "1.0", 16)
    p.add_argument("--time", type=float, default=0.0, help="evaluation time")
    p.add_argument("--region", choices=("left", "right"), default="left")
    p.set_defaults(func=_cmd_bogoliubov)

    p = sub.add_parser("detector", help="registration probability curves")
    add_detector(p, "0:4:50", "|beta| grid start:stop:count")
    p.set_defaults(func=_cmd_detector)

    p = sub.add_parser("joint-correlation", help="joint-registration correlation surface")
    add_detector(p, "0:3:25", "detector distance grid start:stop:count")
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
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureUnresolved as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
