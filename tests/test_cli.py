import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from riesz_eig import analysis, cli
from riesz_eig.assembly import assemble_mass
from riesz_eig.cli import _fmt, _fmt_row, main
from riesz_eig.eig import eval_eigenfunction, solve
from riesz_eig.quadrature import oracle_mass_matrix
from riesz_eig.specfun import FractionalOrder


def run(args):
    return main(args)


def read(path):
    return path.read_text()


def test_eig_json_schema(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eig", "--two-alpha", "1.6", "--n", "64", "--format", "json",
                "-o", str(out)]) == 0
    data = json.loads(read(out))
    assert data["schema"] == "riesz-eig/1"
    assert data["two_alpha"] == 1.6
    assert data["N"] == 64
    assert len(data["lambdas"]) == 65
    assert math.isclose(data["lambdas"][0], 1.7282959570964, rel_tol=1e-9)
    assert data["condition_number"] >= 1.0
    assert data["lambdas"][0] > data["poincare_bound"]
    assert data["lambdas"][0] <= data["minmax_upper"]
    assert "vectors" not in data


def test_eig_json_vectors(tmp_path):
    out = tmp_path / "eig.json"
    assert run(["eig", "--two-alpha", "1.6", "--n", "8", "--format", "json",
                "--vectors", "-o", str(out)]) == 0
    data = json.loads(read(out))
    assert len(data["vectors"]) == 9
    assert len(data["vectors"][0]) == 9


def test_eig_csv(tmp_path):
    out = tmp_path / "eig.csv"
    assert run(["eig", "--two-alpha", "2.0", "--n", "0", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "n,lambda"
    n, lam = lines[1].split(",")
    assert n == "1"
    assert math.isclose(float(lam), 2.5, rel_tol=1e-14)  # 1 / M_00 at alpha = 1
    assert len(lines) == 2


def test_eig_rejects_bad_order(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["eig", "--two-alpha", "-1", "--n", "8"])
    assert exc.value.code == 2


def test_eig_rejects_infinite_order():
    with pytest.raises(SystemExit) as exc:
        run(["eig", "--two-alpha", "inf", "--n", "8"])
    assert exc.value.code == 2


def test_eig_rejects_negative_degree():
    with pytest.raises(SystemExit) as exc:
        run(["eig", "--two-alpha", "1.6", "--n", "-2"])
    assert exc.value.code == 2


USAGE = "usage: riesz-eig [-h] {eig,convergence,weyl,condition,eigfun,mass} ...\n"


@pytest.mark.parametrize("argv, message", [
    ("eig --two-alpha -1 --n 8", "order must be positive, got -1.0"),
    ("eig --two-alpha 0 --n 8", "order must be positive, got 0.0"),
    ("eig --two-alpha nan --n 8", "order must be positive, got nan"),
    ("eig --two-alpha inf --n 8", "order must be finite, got inf"),
    ("weyl --two-alpha 1.6 --n -2", "--n must be nonnegative, got -2"),
    ("convergence --two-alpha 1.6 --n-list 8,x --reference-n 64",
     "--n-list expects a comma-separated integer list, got '8,x'"),
    ("convergence --two-alpha 1.6 --n-list , --reference-n 64", "--n-list must not be empty"),
    ("convergence --two-alpha 1.6 --n-list 16,8 --reference-n 64",
     "--n-list must be strictly ascending"),
    ("condition --two-alpha 1.6 --n-list 8,8", "--n-list must be strictly ascending"),
    ("condition --two-alpha 1.6 --n-list=-1,4", "--n-list entries must be nonnegative"),
    ("convergence --two-alpha 1.6 --n-list 8,16 --reference-n 16",
     "--reference-n must exceed every entry of --n-list"),
    ("eigfun --two-alpha 2.0 --n 4 --indices 1,a",
     "--indices expects a comma-separated integer list, got '1,a'"),
    ("eigfun --two-alpha 2.0 --n 4 --indices ,", "--indices must not be empty"),
    ("eigfun --two-alpha 2.0 --n 4 --indices 6", "--indices entries must lie in [1, 5]"),
    ("eigfun --two-alpha 2.0 --n 4 --indices 0", "--indices entries must lie in [1, 5]"),
    ("eigfun --two-alpha 2.0 --n 4 --samples 1",
     "--samples must be at least 2 (both endpoints included)"),
    # several faults at once: the checks run in a fixed order
    ("eigfun --two-alpha -1 --n -1 --indices 0 --samples 1", "order must be positive, got -1.0"),
    ("eigfun --two-alpha 2.0 --n -1 --indices 0 --samples 1", "--n must be nonnegative, got -1"),
    ("eigfun --two-alpha 2.0 --n 4 --indices 0 --samples 1",
     "--indices entries must lie in [1, 5]"),
    ("convergence --two-alpha 1.6 --n-list 16,8 --reference-n 4",
     "--n-list must be strictly ascending"),
])
def test_parse_rejection_messages(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{USAGE}riesz-eig: error: {message}\n"


def test_seventeen_digit_serialization(tmp_path):
    out = tmp_path / "eig.csv"
    run(["eig", "--two-alpha", "2.0", "--n", "16", "-o", str(out)])
    lam1 = read(out).splitlines()[1].split(",")[1]
    # round-trips to the exact double
    assert float(lam1) == float(format(float(lam1), ".17g"))
    assert len(lam1.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    assert run(["convergence", "--two-alpha", "1.6", "--n-list", "8,16,32",
                "--reference-n", "64", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "N,lambda1,error"
    errs = [float(line.split(",")[2]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2] >= 0.0


def test_convergence_rejects_low_reference():
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--two-alpha", "1.6", "--n-list", "8,16",
             "--reference-n", "16"])
    assert exc.value.code == 2


def test_convergence_rejects_unsorted_list():
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--two-alpha", "1.6", "--n-list", "16,8",
             "--reference-n", "64"])
    assert exc.value.code == 2


def test_weyl_csv(tmp_path):
    out = tmp_path / "weyl.csv"
    n_max = 64
    assert run(["weyl", "--two-alpha", "1.2", "--n", str(n_max), "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "n,lambda_n,weyl_ratio,reliable_flag"
    assert len(lines) == n_max + 2
    flags = [line.split(",")[3] for line in lines[1:]]
    assert flags.count("true") == int(2 * n_max / math.pi)
    assert all(f == "true" for f in flags[: flags.count("true")])


def test_weyl_full_scale_reliable_rows(tmp_path):
    # figure-scale run: at N = 1024 exactly floor(2048/pi) = 651 rows are flagged
    out = tmp_path / "weyl.csv"
    assert run(["weyl", "--two-alpha", "1.2", "--n", "1024", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert len(lines) == 1026
    flags = [line.split(",")[3] for line in lines[1:]]
    assert flags.count("true") == 651
    assert flags[650] == "true" and flags[651] == "false"


def test_weyl_degree_zero(tmp_path):
    out = tmp_path / "weyl.csv"
    assert run(["weyl", "--two-alpha", "1.2", "--n", "0", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,")


def test_condition_csv_with_slope(tmp_path):
    out = tmp_path / "cond.csv"
    assert run(["condition", "--two-alpha", "1.8", "--n-list", "16,32,64",
                "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "N,chi_N"
    assert lines[-1].startswith("# {")
    summary = json.loads(lines[-1][2:])
    assert summary["schema"] == "riesz-eig/1"
    assert 2.0 < summary["slope"] < 4.5


def test_condition_single_degree_no_slope(tmp_path):
    out = tmp_path / "cond.csv"
    assert run(["condition", "--two-alpha", "1.8", "--n-list", "32", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines == ["N,chi_N", lines[1]]
    assert "#" not in read(out)


def test_condition_rejects_degree_zero(capsys):
    assert run(["condition", "--two-alpha", "1.6", "--n-list", "0,4,8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "riesz-eig: error: a log-log slope needs degrees >= 1, got degree 0\n"
    )


def test_eigfun_csv(tmp_path):
    out = tmp_path / "fun.csv"
    assert run(["eigfun", "--two-alpha", "2.0", "--n", "32", "--indices", "1",
                "--samples", "257", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "x,u_1"
    assert len(lines) == 258
    # endpoint rows are exactly zero
    assert lines[1] == "-1,0"
    assert lines[-1] == "1,0"
    xs, us = [], []
    for line in lines[1:]:
        x, u = line.split(",")
        xs.append(float(x))
        us.append(float(u))
    xs, us = np.array(xs), np.array(us)
    expected = np.cos(math.pi * xs / 2)
    if us[128] < 0:
        us = -us
    assert np.max(np.abs(us - expected)) <= 1e-8


def test_eigfun_rejects_out_of_range_index():
    with pytest.raises(SystemExit) as exc:
        run(["eigfun", "--two-alpha", "2.0", "--n", "4", "--indices", "6"])
    assert exc.value.code == 2


def test_mass_csv_banded(tmp_path):
    out = tmp_path / "mass.csv"
    assert run(["mass", "--two-alpha", "2.0", "--n", "8", "-o", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == "j0,j1,j2,j3,j4,j5,j6,j7,j8"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    for i in range(9):
        for j in range(9):
            if (i + j) % 2 == 1 or abs(i - j) >= 4:
                assert rows[i][j] == "0"
            else:
                assert rows[i][j] != "0"


def test_mass_verify_oracle(tmp_path, capsys):
    out = tmp_path / "mass.csv"
    assert run(["mass", "--two-alpha", "2.0", "--n", "8", "--verify-oracle",
                "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "max_oracle_deviation" in err
    assert float(err.split("=")[1]) <= 1e-12


@pytest.mark.parametrize("two_alpha, n_max", [
    (2.0, 8), (3.6, 9), (1.6, 24), (2.0, 300), (1.6, 257), (1.6, 0),
])
def test_mass_dump_and_deviation_equal_the_full_matrix(tmp_path, capsys, two_alpha, n_max):
    # both are taken per parity block, and are those of the full matrix: every
    # entry, and the largest deviation from the oracle above the diagonal.
    # The dump builds its blocks 64 rows at a time: N = 257 and 300 take
    # several strips, N = 0 has an empty odd block
    out = tmp_path / "mass.csv"
    assert run(["mass", "--two-alpha", str(two_alpha), "--n", str(n_max), "--verify-oracle",
                "-o", str(out)]) == 0
    order = FractionalOrder(two_alpha)
    entries = assemble_mass(order, n_max).entries
    worst = np.max(np.triu(np.abs(entries - oracle_mass_matrix(order, n_max))))
    assert capsys.readouterr().err == f"max_oracle_deviation = {_fmt(worst)}\n"
    assert read(out).splitlines()[1:] == [_fmt_row(row) for row in entries]


def test_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["eig", "--two-alpha", "1.3", "--n", "48", "--vectors",
                    "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fmt_row_matches_per_number_format():
    edge = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.0 / 3.0, -1e300,
            math.inf, -math.inf, math.nan, 1.6, 2.0**53 + 2.0]
    values = np.array(edge)
    for sep in (",", ", "):
        expected = sep.join(format(float(x), ".17g") for x in values)
        assert _fmt_row(values, sep) == expected
        assert _fmt_row(edge, sep) == expected
    assert _fmt_row([]) == ""


def test_eig_underflow_message(capsys):
    assert run(["eig", "--two-alpha", "200", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflow" in captured.err
    assert "(N=4, 2a=200)" in captured.err


@pytest.mark.parametrize("two_alpha, n", [(150, 40), (170, 4), (172, 4), (175, 4)])
def test_eig_partial_underflow_is_an_error(capsys, two_alpha, n):
    # the smallest (or every) mass eigenvalue is subnormal: no inf on stdout
    assert run(["eig", "--two-alpha", str(two_alpha), "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert "inf" not in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "underflow" in lines[0]
    assert f"(N={n}, 2a={two_alpha})" in lines[0]


@pytest.mark.parametrize("argv, cause", [
    ("mass --two-alpha 700 --n 2 --verify-oracle", "every entry of the mass matrix underflows"),
    ("mass --two-alpha 300 --n 2", "every entry of the mass matrix underflows"),
    ("mass --two-alpha 1e300 --n 2", "every entry of the mass matrix underflows"),
    ("mass --two-alpha 1e300 --n 2 --verify-oracle", "every entry of the mass matrix underflows"),
    ("eig --two-alpha 1e300 --n 2", "every entry of the mass matrix underflows"),
    ("eig --two-alpha 1e306 --n 2", "every entry of the mass matrix underflows"),
    ("mass --two-alpha 1.7e308 --n 2", "every entry of the mass matrix underflows"),
])
def test_unrepresentable_mass_matrix_is_one_error_line(tmp_path, capsys, argv, cause):
    # no all-zero or NaN matrix, no zero oracle deviation, no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"riesz-eig: error: {cause}")
    assert "(N=2, 2a=" in lines[0]
    assert run([*argv.split(), "-o", str(tmp_path / "out.csv")]) == 1
    assert list(tmp_path.iterdir()) == []


def test_eig_subnormal_small_end_is_underflow(capsys):
    # eigvalsh rounds the underflowed small end to -4.941e-324, the smallest
    # subnormal: that is underflow, not a lost small end
    assert run(["eig", "--two-alpha", "160", "--n", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "the small end of the even block underflows" in lines[0]
    assert "(N=40, 2a=160)" in lines[0]
    assert "lost the small end" not in lines[0]


def test_eig_names_lost_small_end(capsys):
    # the smallest mu (about -8e-46) is normal but below eps*mu_max
    assert run(["eig", "--two-alpha", "12", "--n", "600"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "nonpositive mass eigenvalue" in lines[0]
    assert "in the even block (N=600, 2a=12)" in lines[0]
    assert "the eigensolver has lost the small end" in lines[0]
    assert "underflow" not in lines[0]


def test_stdout_output(capsys):
    assert run(["eig", "--two-alpha", "2.0", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,lambda\n")


def test_no_partial_file_on_failure(tmp_path, monkeypatch):
    # force a failure inside the command after parsing: unwritable directory
    target = tmp_path / "missing" / "out.csv"
    rc = run(["eig", "--two-alpha", "2.0", "--n", "4", "-o", str(target)])
    assert rc == 1
    assert not target.exists()


@pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing-dir", "directory"])
def test_output_error_names_the_path(tmp_path, capsys, target):
    # the message names the path as given, never the temp file beside it
    path = str(tmp_path / target)
    rc = run(["eig", "--two-alpha", "2.0", "--n", "4", "-o", path])
    assert rc == 1
    reason = "No such file or directory" if target.startswith("missing") else "Is a directory"
    assert capsys.readouterr().err == f"riesz-eig: error: cannot write {path!r}: {reason}\n"
    # "." resolves to tmp_path itself, so the temp file is made in its parent
    assert [*tmp_path.glob(".riesz-eig-*"), *tmp_path.parent.glob(".riesz-eig-*")] == []


@pytest.mark.parametrize("live", [True, False], ids=["live", "dangling"])
def test_output_writes_through_symlink(tmp_path, live):
    # like a shell ``>``: the link stays, its target gets the output
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    if live:
        target.write_text("old\n")
    link.symlink_to("target.csv")
    assert run(["eig", "--two-alpha", "2.0", "--n", "2", "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "target.csv"
    assert target.read_text().startswith("n,lambda\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_output_writes_into_fifo(tmp_path, capsys):
    # like a shell ``>``: the reader gets the bytes and the FIFO stays a FIFO
    argv = ["eig", "--two-alpha", "2.0", "--n", "2"]
    assert run(argv) == 0
    expected = capsys.readouterr().out.encode()
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run([*argv, "-o", str(fifo)]) == 0
    reader.join(timeout=10)
    assert received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


# about 1 MB of CSV, more than a pipe holds, computed in well under a second
LARGE_DUMP = ["mass", "--two-alpha", "2.0", "--n", "300"]


def test_closed_stdout_ends_quietly():
    # like ``| head -1``: the reader leaves early, and the writer exits 1 with nothing on stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen([sys.executable, "-m", "riesz_eig.cli", *LARGE_DUMP],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"j0,j1,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_output_fifo_whose_reader_leaves_names_the_path(tmp_path, capsys):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)

    def read_one_line():
        with open(fifo, "rb") as handle:
            handle.readline()

    reader = threading.Thread(target=read_one_line, daemon=True)
    reader.start()
    assert run([*LARGE_DUMP, "-o", str(fifo)]) == 1
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert capsys.readouterr() == ("", f"riesz-eig: error: cannot write {str(fifo)!r}: Broken pipe\n")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_file_mode_follows_umask(tmp_path, umask):
    # like open(): a new file gets 0666 & ~umask, a rewritten one keeps its mode
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    existing.chmod(0o600)
    previous = os.umask(umask)
    try:
        for path in (fresh, existing):
            assert run(["eig", "--two-alpha", "2.0", "--n", "2", "-o", str(path)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
    assert stat.S_IMODE(existing.stat().st_mode) == 0o600
    for path in (fresh, existing):
        assert path.read_text().startswith("n,lambda\n")


def test_memory_error_is_one_line(capsys, monkeypatch):
    # raised, not provoked: a real allocation this size may succeed under overcommit
    def out_of_memory(order, n_max):
        raise MemoryError("Unable to allocate 3.64 TiB for an array with shape "
                          "(500001, 500001) and data type float64")

    monkeypatch.setattr("riesz_eig.cli.solve", out_of_memory)
    assert run(["eig", "--two-alpha", "1.6", "--n", "1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "riesz-eig: error: Unable to allocate 3.64 TiB for an array with shape "
        "(500001, 500001) and data type float64\n"
    )


def _joined_csv(header, rows, trailer=None):
    lines = [",".join(header), *rows]
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _joined_output(argv):
    """A command's stdout assembled as one string, the way the CLI built it before streaming."""
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    cli._check_args(parser, args)
    if args.command == "eig":
        sol = solve(args.order, args.n)
        if args.format == "json":
            report = analysis.spectrum_report(sol)
            fields = [
                f'"schema": "{cli.SCHEMA}"',
                f'"two_alpha": {_fmt(args.two_alpha)}',
                f'"N": {args.n}',
                '"lambdas": [' + ", ".join(_fmt(v) for v in sol.lambdas) + "]",
                f'"condition_number": {_fmt(report.condition_number)}',
                f'"poincare_bound": {_fmt(report.poincare_bound)}',
                f'"minmax_upper": {_fmt(report.minmax_upper)}',
            ]
            if args.vectors:
                rows = ("[" + ", ".join(_fmt(v) for v in vec) + "]" for vec in sol.vectors)
                fields.append('"vectors": [' + ", ".join(rows) + "]")
            return "{" + ", ".join(fields) + "}\n"
        header = ["n", "lambda"]
        table = sol.lambdas[:, None]
        if args.vectors:
            header += [f"c{j}" for j in range(args.n + 1)]
            table = np.column_stack([sol.lambdas, sol.vectors])
        return _joined_csv(header, [f"{i + 1},{_fmt_row(row)}" for i, row in enumerate(table)])
    if args.command == "convergence":
        table = analysis.convergence_table(args.order, args.n_list, args.reference_n)
        rows = [f"{n},{_fmt(lam)},{_fmt(err)}" for n, lam, err in table]
        return _joined_csv(["N", "lambda1", "error"], rows)
    if args.command == "weyl":
        sol = solve(args.order, args.n)
        report = analysis.spectrum_report(sol)
        rows = [
            f"{i + 1},{_fmt(lam)},{_fmt(ratio)},{'true' if i < report.reliable_count else 'false'}"
            for i, (lam, ratio) in enumerate(zip(sol.lambdas, report.weyl_ratios))
        ]
        return _joined_csv(["n", "lambda_n", "weyl_ratio", "reliable_flag"], rows)
    if args.command == "condition":
        sols = analysis.solve_sweep(args.order, args.n_list)
        chis = [analysis.condition_number(sols[n]) for n in args.n_list]
        trailer = None
        if len(args.n_list) >= 3:
            slope = np.polyfit(np.log(args.n_list), np.log(chis), 1)[0]
            trailer = (f'# {{"schema": "{cli.SCHEMA}", "two_alpha": {_fmt(args.two_alpha)}, '
                       f'"slope": {_fmt(slope)}}}')
        rows = [f"{n},{_fmt(chi)}" for n, chi in zip(args.n_list, chis)]
        return _joined_csv(["N", "chi_N"], rows, trailer)
    if args.command == "eigfun":
        sol = solve(args.order, args.n)
        xs = np.linspace(-1.0, 1.0, args.samples)
        columns = [eval_eigenfunction(sol, [index], xs)[0] for index in args.indices]
        header = ["x"] + [f"u_{index}" for index in args.indices]
        return _joined_csv(header, [_fmt_row(row) for row in np.column_stack([xs, *columns])])
    assert args.command == "mass"
    entries = assemble_mass(args.order, args.n).entries
    return _joined_csv([f"j{j}" for j in range(args.n + 1)], [_fmt_row(row) for row in entries])


STREAMED = [
    *(argv.format(n=n, top=n + 1, ref=n + 16) for n in (0, 1, 64) for argv in (
        "eig --two-alpha 1.6 --n {n}",
        "eig --two-alpha 1.6 --n {n} --format json",
        "eig --two-alpha 2.0 --n {n} --vectors",
        "convergence --two-alpha 1.6 --n-list {n} --reference-n {ref}",
        "weyl --two-alpha 1.2 --n {n}",
        "condition --two-alpha 1.8 --n-list {n}",
        "eigfun --two-alpha 1.6 --n {n} --indices 1,{top} --samples 33",
        "mass --two-alpha 1.6 --n {n}",
    )),
    "eig --two-alpha 1.6 --n 64 --vectors",
    "eig --two-alpha 1.6 --n 64 --vectors --format json",
    "eig --two-alpha 2.0 --n 33 --vectors",
    "eig --two-alpha 2.0 --n 33 --vectors --format json",
    "condition --two-alpha 1.8 --n-list 16,32,64",
    "mass --two-alpha 2.0 --n 8 --verify-oracle",
]


@pytest.mark.parametrize("argv", STREAMED)
def test_streamed_output_equals_joined_string(tmp_path, capsys, argv):
    expected = _joined_output(argv.split())
    assert run(argv.split()) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "out"
    assert run([*argv.split(), "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == expected.encode()
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failing_call_writes_nothing(tmp_path, capsys, fmt):
    # the values solve succeeds; the vectors fail before the first byte is written
    argv = ["eig", "--two-alpha", "5.6", "--n", "512", "--vectors", "--format", fmt]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("riesz-eig: error: nonpositive mass eigenvalue")
    assert len(captured.err.splitlines()) == 1
    assert run([*argv, "-o", str(tmp_path / f"eig.{fmt}")]) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, budget", [
    ("eig --two-alpha 1.6 --n 512 --vectors", 513**2 * 8),
    ("eig --two-alpha 1.6 --n 512 --vectors --format json", 513**2 * 8),
    ("eig --two-alpha 2.0 --n 512 --vectors", 513**2 * 8),
    ("mass --two-alpha 1.6 --n 512", 750_000),
    ("mass --two-alpha 2.0 --n 512", 600_000),
    ("eigfun --two-alpha 1.6 --n 512 --indices 1,2,512 --samples 65", 513**2 * 8),
], ids=["eig-vectors-csv", "eig-vectors-json", "eig-vectors-banded", "mass", "mass-banded",
        "eigfun"])
def test_streamed_output_memory_peak(tmp_path, argv, budget):
    # the text (about 3 MB) is never held whole, and the rows come from the
    # parity blocks: the peak stays below one (N+1)^2 array of doubles.  The
    # mass dump holds one pair of 64-row strips at a time, never a whole
    # block (the two dense blocks alone take 1.05 MB): about 520 kB, or 700 kB
    # at 2a = 1.6 in a fresh process, against 780-960 kB with two pairs held
    tracemalloc.start()
    try:
        assert run([*argv.split(), "-o", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget
