"""Command-line front end: eigenvalue tables, sweeps and matrix dumps as CSV/JSON.

Every number is serialized with 17 significant digits so files round-trip
exactly, and file output goes through a temp-file-plus-rename so interrupted
runs never leave truncated artifacts.  Identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .assembly import assemble_mass
from .eig import eval_eigenfunction, solve
from .quadrature import oracle_mass_matrix
from .specfun import FractionalOrder

__all__ = [
    "RunConfig",
    "main",
    "cmd_eig",
    "cmd_convergence",
    "cmd_weyl",
    "cmd_condition",
    "cmd_eigfun",
    "cmd_mass",
]

SCHEMA = "riesz-eig/1"


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    two_alpha: float
    n: int = 0
    n_list: list[int] = field(default_factory=list)
    reference_n: int | None = None
    output: str | None = None
    format: str = "csv"
    indices: list[int] = field(default_factory=list)
    samples: int = 257
    vectors: bool = False
    verify_oracle: bool = False


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_row(values, sep: str = ",") -> str:
    """``sep.join(_fmt(v) for v in values)``, formatted in one pass."""
    row = np.asarray(values, dtype=float).tolist()
    return sep.join(["%.17g"] * len(row)) % tuple(row)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".riesz-eig-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, text: str) -> None:
    if config.output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(config.output, text)


def _csv(header: list[str], rows: list[str], trailer: str | None = None) -> str:
    lines = [",".join(header), *rows]
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _parse_int_list(parser: argparse.ArgumentParser, raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {raw!r}")
    if not values:
        parser.error(f"{flag} must not be empty")
    return values


def _make_order(parser: argparse.ArgumentParser, two_alpha: float) -> FractionalOrder:
    try:
        return FractionalOrder(two_alpha)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_eig(config: RunConfig) -> None:
    """Eigenvalues (optionally with coefficient vectors) for one (2 alpha, N) pair."""
    order = FractionalOrder(config.two_alpha)
    sol = solve(order, config.n)
    report = analysis.spectrum_report(sol)
    if config.format == "json":
        lambdas = "[" + _fmt_row(sol.lambdas, ", ") + "]"
        fields = [
            f'"schema": "{SCHEMA}"',
            f'"two_alpha": {_fmt(config.two_alpha)}',
            f'"N": {config.n}',
            f'"lambdas": {lambdas}',
            f'"condition_number": {_fmt(report.condition_number)}',
            f'"poincare_bound": {_fmt(report.poincare_bound)}',
            f'"minmax_upper": {_fmt(report.minmax_upper)}',
        ]
        if config.vectors:
            rows = ("[" + _fmt_row(vec, ", ") + "]" for vec in sol.vectors)
            fields.append('"vectors": [' + ", ".join(rows) + "]")
        _emit(config, "{" + ", ".join(fields) + "}\n")
        return
    header = ["n", "lambda"]
    table = sol.lambdas[:, None]
    if config.vectors:
        header += [f"c{j}" for j in range(config.n + 1)]
        table = np.column_stack([sol.lambdas, sol.vectors])
    rows = [f"{i + 1},{_fmt_row(row)}" for i, row in enumerate(table)]
    _emit(config, _csv(header, rows))


def cmd_convergence(config: RunConfig) -> None:
    """First-eigenvalue errors against a fine reference, one row per degree."""
    order = FractionalOrder(config.two_alpha)
    table = analysis.convergence_table(order, config.n_list, config.reference_n)
    rows = [f"{n},{_fmt_row((lam, err))}" for n, lam, err in table.rows]
    _emit(config, _csv(["N", "lambda1", "error"], rows))


def cmd_weyl(config: RunConfig) -> None:
    """Eigenvalues with their growth-law ratios and the reliability flag."""
    order = FractionalOrder(config.two_alpha)
    report = analysis.spectrum_report(solve(order, config.n))
    rows = [
        f"{i + 1},{_fmt_row(row)},{'true' if i + 1 <= report.reliable_count else 'false'}"
        for i, row in enumerate(np.column_stack([report.lambdas, report.weyl_ratios]))
    ]
    _emit(config, _csv(["n", "lambda_n", "weyl_ratio", "reliable_flag"], rows))


def cmd_condition(config: RunConfig) -> None:
    """Condition number per degree, with the fitted growth exponent when possible."""
    order = FractionalOrder(config.two_alpha)
    sols = analysis.solve_sweep(order, config.n_list)
    chis = [analysis.condition_number(sols[n]) for n in config.n_list]
    rows = [f"{n},{_fmt(chi)}" for n, chi in zip(config.n_list, chis)]
    trailer = None
    if len(config.n_list) >= 3:
        slope = analysis._loglog_slope(config.n_list, chis)
        trailer = (
            f'# {{"schema": "{SCHEMA}", "two_alpha": {_fmt(config.two_alpha)}, '
            f'"slope": {_fmt(slope)}}}'
        )
    _emit(config, _csv(["N", "chi_N"], rows, trailer))


def cmd_eigfun(config: RunConfig) -> None:
    """Selected eigenfunctions sampled on a uniform grid including the endpoints."""
    order = FractionalOrder(config.two_alpha)
    sol = solve(order, config.n)
    xs = np.linspace(-1.0, 1.0, config.samples)
    columns = [eval_eigenfunction(sol, index, xs) for index in config.indices]
    header = ["x"] + [f"u_{index}" for index in config.indices]
    rows = [_fmt_row(row) for row in np.column_stack([xs, *columns])]
    _emit(config, _csv(header, rows))


def cmd_mass(config: RunConfig) -> None:
    """Dump the full mass matrix; optionally cross-check it against the oracle."""
    order = FractionalOrder(config.two_alpha)
    mass = assemble_mass(order, config.n)
    header = [f"j{j}" for j in range(config.n + 1)]
    rows = [_fmt_row(row) for row in mass.entries]
    _emit(config, _csv(header, rows))
    if config.verify_oracle:
        worst = np.max(np.triu(np.abs(mass.entries - oracle_mass_matrix(order, config.n))))
        sys.stderr.write(f"max_oracle_deviation = {_fmt(worst)}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riesz-eig",
        description="Spectral eigensolver for the fractional operator on (-1, 1): "
        "eigenvalue tables, convergence/condition sweeps, eigenfunction samples "
        "and mass-matrix dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        p.add_argument("--two-alpha", type=float, required=True, metavar="ORDER",
                       help="operator order 2*alpha (> 0)")
        if with_n:
            p.add_argument("--n", type=int, required=True, metavar="N",
                           help="basis degree (>= 0)")
        p.add_argument("--output", "-o", metavar="PATH",
                       help="output file (atomic write); defaults to stdout")

    p = sub.add_parser("eig", help="ascending eigenvalues for one (2*alpha, N)")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--vectors", action="store_true", help="include coefficient vectors")

    p = sub.add_parser("convergence", help="first-eigenvalue errors vs a reference degree")
    common(p, with_n=False)
    p.add_argument("--n-list", required=True, metavar="N1,N2,...",
                   help="ascending comma-separated degrees")
    p.add_argument("--reference-n", type=int, required=True, metavar="NREF",
                   help="reference degree (> max of --n-list)")

    p = sub.add_parser("weyl", help="eigenvalues with growth-law ratios")
    common(p)

    p = sub.add_parser("condition", help="condition number sweep with slope fit")
    common(p, with_n=False)
    p.add_argument("--n-list", required=True, metavar="N1,N2,...",
                   help="ascending comma-separated degrees")

    p = sub.add_parser("eigfun", help="eigenfunction samples on a uniform grid")
    common(p)
    p.add_argument("--indices", default="1,2,3", metavar="I1,I2,...",
                   help="1-based eigenfunction indices (default 1,2,3)")
    p.add_argument("--samples", type=int, default=257, metavar="COUNT",
                   help="number of grid points including both endpoints")

    p = sub.add_parser("mass", help="dump the mass matrix as CSV")
    common(p)
    p.add_argument("--verify-oracle", action="store_true",
                   help="cross-check every entry against the quadrature oracle")
    return parser


def _build_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    config = RunConfig(two_alpha=args.two_alpha, output=args.output)
    _make_order(parser, args.two_alpha)
    if hasattr(args, "n"):
        if args.n < 0:
            parser.error(f"--n must be nonnegative, got {args.n}")
        config.n = args.n
    if getattr(args, "n_list", None) is not None:
        n_list = _parse_int_list(parser, args.n_list, "--n-list")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            parser.error("--n-list must be strictly ascending")
        if n_list[0] < 0:
            parser.error("--n-list entries must be nonnegative")
        config.n_list = n_list
    if getattr(args, "reference_n", None) is not None:
        if config.n_list and args.reference_n <= max(config.n_list):
            parser.error("--reference-n must exceed every entry of --n-list")
        config.reference_n = args.reference_n
    if hasattr(args, "format"):
        config.format = args.format
    if hasattr(args, "vectors"):
        config.vectors = args.vectors
    if hasattr(args, "indices"):
        indices = _parse_int_list(parser, args.indices, "--indices")
        if any(i < 1 or i > config.n + 1 for i in indices):
            parser.error(f"--indices entries must lie in [1, {config.n + 1}]")
        config.indices = indices
    if hasattr(args, "samples"):
        if args.samples < 2:
            parser.error("--samples must be at least 2 (both endpoints included)")
        config.samples = args.samples
    if hasattr(args, "verify_oracle"):
        config.verify_oracle = args.verify_oracle
    return config


_COMMANDS = {
    "eig": cmd_eig,
    "convergence": cmd_convergence,
    "weyl": cmd_weyl,
    "condition": cmd_condition,
    "eigfun": cmd_eigfun,
    "mass": cmd_mass,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _build_config(parser, args)
    try:
        _COMMANDS[args.command](config)
    except (RuntimeError, ValueError, OSError) as exc:
        sys.stderr.write(f"riesz-eig: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
