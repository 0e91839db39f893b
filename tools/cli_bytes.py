"""Fingerprint the CLI's bytes: the exit code and the sha256 of stdout and stderr per argv.

Usage::

    python tools/cli_bytes.py [CHECKOUT] > bytes.txt

runs ``python -m riesz_eig.cli`` from ``CHECKOUT/src`` (default: this
repository) under ``OPENBLAS_NUM_THREADS=1``, once per argv of ``argvs()``,
one process at a time.  It prints ``key()`` first, the numpy, OpenBLAS and
machine that the bits follow, then one line per argv: the exit code, the
two digests and the argv.  The package pins its OpenBLAS to one thread itself,
so the variable matters only for checkouts from before that pin, whose bytes
follow the BLAS thread setting.

``tests/cli_bytes.txt`` is this output for this repository, and
``tests/test_cli_bytes.py`` runs every argv through ``cli.main`` in one
process and compares.  A change that moves bytes on purpose regenerates it::

    python tools/cli_bytes.py > tests/cli_bytes.txt

so the diff of that file lists every argv that changed.  A change meant to
keep every CLI byte can also be checked against its parent commit with::

    git archive PARENT | tar -x -C /tmp/parent
    python tools/cli_bytes.py /tmp/parent > parent.txt
    python tools/cli_bytes.py > change.txt
    diff parent.txt change.txt

The argvs are the ``cli_studies`` and ``cli_dumps`` operations that this
repository's ``bench/workloads.build`` gives for seeds 0-2, followed by
corner cases: the empty odd block, bands of integer ``alpha`` from the
smallest degrees up, with and without vectors, dense vectors from the
smallest degrees up, both sides of the concurrency cutoff (``eig``'s
``_CONCURRENT_MIN_ROWS``, dense blocks and bands, vectors and dense-order
``eigfun``), dense pairs built and solved on two threads, quadrature
cross-checks on rules of hundreds of nodes (dense, odd ``N`` among them),
and the named refusals.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORNERS = (
    *(("eig", "--two-alpha", "2", "--n", n) for n in ("0", "1", "1022", "1023", "1024")),
    *(("eig", "--two-alpha", "2", "--n", n, "--vectors") for n in ("0", "1", "1023")),
    ("eig", "--two-alpha", "2", "--n", "1022", "--vectors", "--format", "json"),
    # dense vectors from the empty odd block up to odd blocks of 511 and 512 rows
    *(("eig", "--two-alpha", "1.6", "--n", n, "--vectors") for n in ("0", "1022", "1023")),
    ("mass", "--two-alpha", "1.6", "--n", "1023"),  # entries builds its blocks in turn
    # dense pairs of 256-511 odd rows, built on two threads
    ("eig", "--two-alpha", "3.6", "--n", "700", "--vectors"),
    ("eig", "--two-alpha", "1.6", "--n", "700"),
    # both sides of the concurrency cutoff: an odd block of 255 rows at N = 510
    # and of 256 at N = 511, dense and banded, with and without vectors
    *(("eig", "--two-alpha", a, "--n", n, *v) for a in ("1.6", "2") for n in ("510", "511")
      for v in ((), ("--vectors",))),
    ("eig", "--two-alpha", "2", "--n", "2048"),  # two banded blocks, solved concurrently
    ("eig", "--two-alpha", "4", "--n", "2048"),
    ("eig", "--two-alpha", "1.6", "--n", "1", "--vectors", "--format", "json"),
    *(("eig", "--two-alpha", "4", "--n", n, "--vectors") for n in ("2", "3", "4", "64")),
    ("eig", "--two-alpha", "6", "--n", "4"),
    ("eig", "--two-alpha", "6", "--n", "5"),
    ("eig", "--two-alpha", "6", "--n", "5", "--vectors"),
    ("eig", "--two-alpha", "8", "--n", "1"),
    ("eig", "--two-alpha", "2", "--n", "1024", "--vectors"),
    ("eig", "--two-alpha", "4", "--n", "1024", "--vectors", "--format", "json"),
    ("eigfun", "--two-alpha", "4", "--n", "512"),
    # dense-order eigfun on both sides of the concurrency cutoff
    *(("eigfun", "--two-alpha", "1.6", "--n", n, "--indices", "1,2,256,511", "--samples", "65")
      for n in ("510", "511")),
    ("mass", "--two-alpha", "2", "--n", "8", "--verify-oracle"),
    ("mass", "--two-alpha", "2", "--n", "1024"),
    ("mass", "--two-alpha", "2", "--n", "1030"),
    ("mass", "--two-alpha", "4", "--n", "40"),
    ("mass", "--two-alpha", "0.37", "--n", "500", "--verify-oracle"),  # a 501-node rule
    ("mass", "--two-alpha", "3.6", "--n", "257", "--verify-oracle"),  # dense, odd N
    ("eig", "--two-alpha", "1.6", "--n", "2048"),  # two 1025-row blocks, solved concurrently
    ("eigfun", "--two-alpha", "2", "--n", "1100"),
    ("eig", "--two-alpha", "5.6", "--n", "512", "--vectors"),  # refused: lost small end
    ("eig", "--two-alpha", "12", "--n", "600"),  # refused: lost small end
    ("eig", "--two-alpha", "170.2", "--n", "1"),  # refused: the odd block underflows
    ("eig", "--two-alpha", "171", "--n", "2"),  # refused: every entry underflows
    ("eig", "--two-alpha", "3e300", "--n", "2"),  # refused: K underflows; no Q, U built
    ("mass", "--two-alpha", "1.7e308", "--n", "2"),  # refused: lgamma overflows, so K = 0
    ("condition", "--two-alpha", "1.8", "--n-list", "0,8,16"),  # refused: degree 0 in a slope
)


def argvs() -> list[tuple[str, ...]]:
    """The benchmark's CLI argvs for seeds 0-2, each once, then ``CORNERS``."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seen = {}
    for seed in range(3):
        for workload in ("cli_studies", "cli_dumps"):
            for op in workloads.build(workload, seed):
                seen.setdefault(tuple(op.argv), None)
    return [*seen, *CORNERS]


def key() -> str:
    """The first line: numpy's version, its OpenBLAS's configuration and the machine.

    The configuration string names the core that a ``DYNAMIC_ARCH`` build
    picked, whose kernels decide the last bits of every BLAS and LAPACK call.
    """
    import numpy as np

    config = "no OpenBLAS"
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_-*.so"):
        get_config = ctypes.CFUNCTYPE(ctypes.c_char_p)(
            ("scipy_openblas_get_config64_", ctypes.CDLL(str(path))))
        config = get_config().decode()
    return f"key: numpy {np.__version__}; {config}; {platform.machine()}"


def line(code: int, stdout: bytes, stderr: bytes, argv) -> str:
    """The manifest line of one run: exit code, the digests of stdout and stderr, the argv."""
    digests = (hashlib.sha256(stream).hexdigest() for stream in (stdout, stderr))
    return " ".join([str(code), *digests, *argv])


def main() -> int:
    checkout = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    src = checkout / "src"
    if not (src / "riesz_eig" / "cli.py").is_file():
        sys.exit(f"no riesz_eig package under {src}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    print(key(), flush=True)
    for argv in argvs():
        result = subprocess.run([sys.executable, "-m", "riesz_eig.cli", *argv],
                                capture_output=True, env=env, cwd=checkout)
        print(line(result.returncode, result.stdout, result.stderr, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
