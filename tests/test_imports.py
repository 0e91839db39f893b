"""No call of the package loads SciPy.

Dense blocks are solved with numpy's LAPACK, and the bands of integer
``alpha`` with LAPACK ``sbevd`` from the OpenBLAS in numpy's own wheel, or,
where that wheel holds none, with numpy's dense drivers.  SciPy is a test
dependency only: the tests use it as an independent oracle.

``concurrent.futures`` and ``mpmath`` stay out of every command too: the
concurrent block solve starts its helper as a bare ``threading.Thread``, and
nothing in the package loads the second.  The import itself starts no thread
and looks up no LAPACK.

Each case runs in a fresh interpreter: this process may already hold SciPy, so
``sys.modules`` here says nothing about what the package loads by itself.

The package's public names are pinned here too, so that any change to the
surface is a visible edit of this file.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riesz_eig
import riesz_eig.eig

_SRC = str(Path(riesz_eig.__file__).resolve().parents[1])

_PROBE = """
import contextlib, io, json, sys
import riesz_eig.cli
exec(sys.argv[2])
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(riesz_eig.cli.main(argv))
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
deferred = [name for name in ("concurrent.futures", "mpmath") if name in sys.modules]
print(json.dumps({"codes": codes, "scipy": scipy, "deferred": deferred}))
"""


def _fresh_run(argvs, setup="", **env_vars):
    """Run ``riesz_eig.cli.main`` on each argv in a new interpreter; return its report.

    ``setup`` runs after the import, before the first argv.  A variable
    given as None is unset.
    """
    env = {name: value for name, value in dict(os.environ, **env_vars).items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs), setup],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


PUBLIC_NAMES = {
    "FractionalOrder", "MassMatrix", "EigenSolution", "SpectrumReport", "jacobi_norm_sq",
    "basis_coeff", "gauss_jacobi", "oracle_mass_entry", "mass_entry", "assemble_mass",
    "stiffness_check", "solve", "eval_eigenfunction", "solve_sweep", "weyl_ratios",
    "condition_number", "condition_slope", "convergence_table", "reliable_eigenvalues",
    "spectrum_report",
}
MODULES = ["specfun", "quadrature", "assembly", "eig", "analysis", "cli"]


def test_public_surface_is_pinned():
    assert len(riesz_eig.__all__) == len(PUBLIC_NAMES)
    assert set(riesz_eig.__all__) == PUBLIC_NAMES
    for module in [riesz_eig, *(importlib.import_module(f"riesz_eig.{m}") for m in MODULES)]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_import_loads_no_scipy():
    assert _fresh_run([]) == {"codes": [], "scipy": [], "deferred": []}


def test_import_starts_no_thread_and_looks_up_no_lapack():
    # the import does no work that a call does not need: the helper thread of
    # the concurrent solve, the OpenBLAS lookup and the binding of its LAPACKE
    # routines wait for the first solve
    setup = (
        "import threading, riesz_eig.eig\n"
        "lookups = (riesz_eig.eig._openblas, riesz_eig.eig._bind)\n"
        "if threading.active_count() != 1 or any(f.cache_info().currsize for f in lookups):\n"
        "    sys.exit('the import started a thread or looked up LAPACK')\n"
    )
    assert _fresh_run([], setup) == {"codes": [], "scipy": [], "deferred": []}


def test_dense_and_small_tridiagonal_commands_load_no_scipy():
    # dense orders and small bands
    argvs = [
        ["eig", "--two-alpha", "1.6", "--n", "16"],
        ["eig", "--two-alpha", "1.6", "--n", "16", "--format", "json"],
        ["eig", "--two-alpha", "1.6", "--n", "16", "--vectors"],
        ["eigfun", "--two-alpha", "1.6", "--n", "16", "--indices", "1,2"],
        ["weyl", "--two-alpha", "1.2", "--n", "16"],
        ["condition", "--two-alpha", "1.8", "--n-list", "4,8,16"],
        ["convergence", "--two-alpha", "1.6", "--n-list", "4,8", "--reference-n", "16"],
        ["mass", "--two-alpha", "1.6", "--n", "8"],
        ["mass", "--two-alpha", "1.6", "--n", "8", "--verify-oracle"],
        ["eig", "--two-alpha", "2", "--n", "64"],
        ["eig", "--two-alpha", "2", "--n", "64", "--vectors"],
        ["eig", "--two-alpha", "2", "--n", "64", "--format", "json"],
        ["eig", "--two-alpha", "2", "--n", "64", "--format", "json", "--vectors"],
        ["eigfun", "--two-alpha", "2", "--n", "64", "--indices", "1,2"],
        ["weyl", "--two-alpha", "2", "--n", "64"],
        ["condition", "--two-alpha", "2", "--n-list", "4,8,16"],
        ["convergence", "--two-alpha", "2", "--n-list", "4,8", "--reference-n", "1022"],
        ["eig", "--two-alpha", "4", "--n", "3", "--vectors"],
    ]
    assert _fresh_run(argvs) == {"codes": [0] * len(argvs), "scipy": [], "deferred": []}


def test_banded_commands_load_no_scipy():
    # bands wider than tridiagonal and large tridiagonal ones, with and
    # without vectors, go to sbevd in numpy's own OpenBLAS
    argvs = [
        ["eig", "--two-alpha", "4", "--n", "16", "--vectors"],
        ["eig", "--two-alpha", "4", "--n", "4"],
        ["eig", "--two-alpha", "2", "--n", "1024"],
        ["eig", "--two-alpha", "8", "--n", "128"],
    ]
    assert _fresh_run(argvs) == {"codes": [0] * len(argvs), "scipy": [], "deferred": []}


def test_concurrent_block_solves_load_no_concurrent_futures():
    # dense and banded blocks from the cutoff's 256 odd rows up, with and
    # without vectors, built and solved concurrently whatever the thread
    # setting of the environment: the helper is a bare thread
    argvs = [
        ["eig", "--two-alpha", "1.6", "--n", "1024"],
        ["eig", "--two-alpha", "1.6", "--n", "511", "--vectors"],
        ["eig", "--two-alpha", "2", "--n", "2048"],
        ["eig", "--two-alpha", "4", "--n", "1024", "--vectors"],
        ["weyl", "--two-alpha", "1.2", "--n", "1024"],
    ]
    unset = dict.fromkeys(("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    report = _fresh_run(argvs, **unset)
    assert report == {"codes": [0] * len(argvs), "scipy": [], "deferred": []}


def test_no_blas_hook_solves_in_turn_without_concurrent_futures():
    # where numpy's wheel holds no OpenBLAS (numpy on another BLAS), nothing
    # pins the count, the same large dense blocks are solved one after the
    # other, and the bands of integer alpha go to the dense drivers
    setup = "import riesz_eig.eig; riesz_eig.eig._openblas = lambda: None"
    argvs = [
        ["eig", "--two-alpha", "1.6", "--n", "1024"],
        ["eig", "--two-alpha", "2", "--n", "1024", "--vectors"],
        ["eig", "--two-alpha", "4", "--n", "64"],
    ]
    report = _fresh_run(argvs, setup)
    assert report == {"codes": [0] * len(argvs), "scipy": [], "deferred": []}
