"""Command-line front end: eigenvalue tables, sweeps and matrix dumps as CSV/JSON.

Every number is serialized with 17 significant digits so files round-trip
exactly, and file output goes through a temp-file-plus-rename (a FIFO or
device is written in place) so interrupted runs never leave truncated
artifacts.  Identical invocations give byte-identical output under any BLAS
thread setting: the solve, the eigenfunction sampling and the quadrature
cross-checks pin numpy's OpenBLAS to one thread (where numpy runs on another
BLAS the bytes follow its setting).  Each ``cmd_*`` yields its output line
by line and ``_write`` streams the lines, so no table is held as one string.
"""

from __future__ import annotations

import argparse
import itertools
import os
import stat
import sys
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from . import analysis
from .assembly import assemble_mass
from .eig import eval_eigenfunction, solve
from .quadrature import oracle_mass_matrix
from .specfun import FractionalOrder

__all__ = [
    "main",
    "cmd_eig",
    "cmd_convergence",
    "cmd_weyl",
    "cmd_condition",
    "cmd_eigfun",
    "cmd_mass",
]

SCHEMA = "riesz-eig/1"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_row(values, sep: str = ",") -> str:
    """``sep.join(_fmt(v) for v in values)``, formatted in one pass."""
    row = np.asarray(values, dtype=float).tolist()
    return sep.join(["%.17g"] * len(row)) % tuple(row)


def _parity_rows(rows, width: int, sep: str = ",") -> Iterator[str]:
    """``_fmt_row(row, sep)`` for each full row of ``width`` cells, formatted from its block.

    ``rows`` yields ``(p, values, negative)``: the row's cells on the
    degrees ``p::2`` are ``values``, a row of parity block ``p``, and its
    other cells are zeros, written as the literal ``-0`` if ``negative``
    else ``0``, as ``%.17g`` prints them.  Only the block rows are read, so
    the full ``width``-square matrix is never formed.
    """
    templates = {}
    for p, values, negative in rows:
        template = templates.get((p, negative))
        if template is None:
            cells = ["%.17g"] * width
            cells[1 - p::2] = ["-0" if negative else "0"] * len(cells[1 - p::2])
            template = templates[p, negative] = sep.join(cells)
        yield template % tuple(values.tolist())


def _atomic_write(path: str, lines: Iterable[str]) -> None:
    target = os.path.realpath(path)  # write through a symlink, as a shell ``>`` does
    try:
        try:
            existing = os.stat(target).st_mode
        except FileNotFoundError:
            existing = 0
        if stat.S_ISREG(existing):
            mode = stat.S_IMODE(existing)  # open() truncates in place and keeps the mode
        elif existing:
            # a FIFO or device is written into, not replaced, as a shell ``>`` does
            with open(target, "w") as handle:
                handle.writelines(lines)
            return
        else:
            umask = os.umask(0)  # reading the umask means setting it; put it straight back
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".riesz-eig-")
        try:
            with os.fdopen(fd, "w") as handle:
                # mkstemp creates 0600; give the file the mode open() would
                os.fchmod(handle.fileno(), mode)
                handle.writelines(lines)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # name the path as given, not the temp file
        raise OSError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _write(args: argparse.Namespace, lines: Iterator[str]) -> None:
    """Stream the generator ``lines`` of a ``cmd_*`` to stdout or to ``-o``.

    The first line is computed before any output is opened: every ``cmd_*``
    does the work that can fail (solves, reports, evaluations) before its
    first ``yield``, so a failing command writes nothing.
    """
    lines = itertools.chain([next(lines)], lines)
    if args.output is None:
        sys.stdout.writelines(lines)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
    else:
        _atomic_write(args.output, lines)


def _parse_int_list(parser: argparse.ArgumentParser, raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {raw!r}")
    if not values:
        parser.error(f"{flag} must not be empty")
    return values


def _csv_lines(header: list[str], rows: Iterable[str]) -> Iterator[str]:
    """The CSV lines of ``header`` and the pre-joined ``rows``, each ending in a newline."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield row + "\n"


def cmd_eig(args: argparse.Namespace) -> Iterator[str]:
    """Eigenvalues (optionally with coefficient vectors) for one (2 alpha, N) pair."""
    sol = solve(args.order, args.n)
    report = analysis.spectrum_report(sol) if args.format == "json" else None
    # the vectors of each parity block, row by row: the (N+1)^2 matrix is never formed
    vectors = sol._vector_rows() if args.vectors else None
    if args.format == "json":
        fields = [
            f'"schema": "{SCHEMA}"',
            f'"two_alpha": {_fmt(args.two_alpha)}',
            f'"N": {args.n}',
            f'"lambdas": [{_fmt_row(sol.lambdas, ", ")}]',
            f'"condition_number": {_fmt(report.condition_number)}',
            f'"poincare_bound": {_fmt(report.poincare_bound)}',
            f'"minmax_upper": {_fmt(report.minmax_upper)}',
        ]
        if vectors is None:
            yield "{" + ", ".join(fields) + "}\n"
            return
        yield "{" + ", ".join(fields) + ', "vectors": ['
        for i, row in enumerate(_parity_rows(vectors, args.n + 1, ", ")):
            yield (", [" if i else "[") + row + "]"
        yield "]}\n"
        return
    header = ["n", "lambda"]
    rows = (f"{i + 1},{_fmt(lam)}" for i, lam in enumerate(sol.lambdas.tolist()))
    if vectors is not None:
        header += [f"c{j}" for j in range(args.n + 1)]
        rows = (f"{row},{vec}" for row, vec in zip(rows, _parity_rows(vectors, args.n + 1)))
    yield from _csv_lines(header, rows)


def cmd_convergence(args: argparse.Namespace) -> Iterator[str]:
    """First-eigenvalue errors against a fine reference, one row per degree."""
    table = analysis.convergence_table(args.order, args.n_list, args.reference_n)
    rows = (f"{n},{_fmt_row((lam, err))}" for n, lam, err in table)
    yield from _csv_lines(["N", "lambda1", "error"], rows)


def cmd_weyl(args: argparse.Namespace) -> Iterator[str]:
    """Eigenvalues with their growth-law ratios and the reliability flag."""
    sol = solve(args.order, args.n)
    report = analysis.spectrum_report(sol)
    rows = (
        f"{i + 1},{_fmt_row(row)},{'true' if i + 1 <= report.reliable_count else 'false'}"
        for i, row in enumerate(np.column_stack([sol.lambdas, report.weyl_ratios]))
    )
    yield from _csv_lines(["n", "lambda_n", "weyl_ratio", "reliable_flag"], rows)


def cmd_condition(args: argparse.Namespace) -> Iterator[str]:
    """Condition number per degree, with the fitted growth exponent when possible."""
    chis, slope = analysis.condition_slope(args.order, args.n_list)
    rows = [f"{n},{_fmt(chi)}" for n, chi in zip(args.n_list, chis)]
    if slope is not None:
        rows.append(
            f'# {{"schema": "{SCHEMA}", "two_alpha": {_fmt(args.two_alpha)}, '
            f'"slope": {_fmt(slope)}}}'
        )
    yield from _csv_lines(["N", "chi_N"], rows)


def cmd_eigfun(args: argparse.Namespace) -> Iterator[str]:
    """Selected eigenfunctions sampled on a uniform grid including the endpoints."""
    sol = solve(args.order, args.n)
    xs = np.linspace(-1.0, 1.0, args.samples)
    samples = eval_eigenfunction(sol, args.indices, xs)
    header = ["x"] + [f"u_{index}" for index in args.indices]
    rows = (_fmt_row(row) for row in np.column_stack([xs, samples.T]))
    yield from _csv_lines(header, rows)


def cmd_mass(args: argparse.Namespace) -> Iterator[str]:
    """Dump the full mass matrix; optionally cross-check it against the oracle.

    Row ``i`` is formatted from row ``i // 2`` of the dense parity block
    ``i % 2``, and its other cells are the exact zeros between the blocks,
    so the ``(N+1)^2`` matrix ``MassMatrix.entries`` is never formed; only
    ``--verify-oracle`` holds one such array, the oracle's.  Its deviation
    is the largest over the upper triangle, taken per block: each block's
    upper triangle against the oracle's, and the cross-parity entries above
    the diagonal against exact 0.
    """
    mass = assemble_mass(args.order, args.n)
    blocks = [mass._block(p, dense=True) for p in (0, 1)]
    if args.verify_oracle:
        oracle = oracle_mass_matrix(args.order, args.n)
        worst = np.max([
            # cross-parity entry (p + 2r, 1 - p + 2c) lies above the diagonal for c >= r + p
            np.max(np.triu(np.abs(deviation), k), initial=0.0)
            for p, block in enumerate(blocks)
            for deviation, k in ((block - oracle[p::2, p::2], 0), (oracle[p::2, 1 - p::2], p))
        ])
    header = [f"j{j}" for j in range(args.n + 1)]
    rows = ((i % 2, blocks[i % 2][i // 2], False) for i in range(args.n + 1))
    yield from _csv_lines(header, _parity_rows(rows, args.n + 1))
    if args.verify_oracle:
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


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Validate ``args`` in place for the ``cmd_*``: set ``args.order``, parse the lists."""
    try:
        args.order = FractionalOrder(args.two_alpha)
    except ValueError as exc:
        parser.error(str(exc))
    if hasattr(args, "n") and args.n < 0:
        parser.error(f"--n must be nonnegative, got {args.n}")
    if hasattr(args, "n_list"):
        args.n_list = _parse_int_list(parser, args.n_list, "--n-list")
        if any(b <= a for a, b in zip(args.n_list, args.n_list[1:])):
            parser.error("--n-list must be strictly ascending")
        if args.n_list[0] < 0:
            parser.error("--n-list entries must be nonnegative")
    if hasattr(args, "reference_n") and args.reference_n <= max(args.n_list):
        parser.error("--reference-n must exceed every entry of --n-list")
    if hasattr(args, "indices"):
        args.indices = _parse_int_list(parser, args.indices, "--indices")
        if any(i < 1 or i > args.n + 1 for i in args.indices):
            parser.error(f"--indices entries must lie in [1, {args.n + 1}]")
    if hasattr(args, "samples") and args.samples < 2:
        parser.error("--samples must be at least 2 (both endpoints included)")


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
    _check_args(parser, args)
    try:
        _write(args, _COMMANDS[args.command](args))
    except BrokenPipeError:
        # stdout's reader has gone (``| head``): end quietly, as a filter does, and
        # point stdout at devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RuntimeError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"riesz-eig: error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
