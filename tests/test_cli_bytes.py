"""The CLI's bytes against the committed manifest ``tests/cli_bytes.txt``.

The manifest is ``tools/cli_bytes.py``'s output: a key line naming the
numpy, OpenBLAS and machine it was made on, then the exit code and the
sha256 of stdout and stderr of one ``riesz-eig`` process per argv.  Here
every argv runs through ``cli.main`` in this process, with ``sys.stdout``
and ``sys.stderr`` over byte buffers, so a moved byte fails tier-1.  The
last bits follow the BLAS kernels, so on a machine whose key differs the
test is skipped with both keys named.  A change that moves bytes on purpose
regenerates the manifest with ``python tools/cli_bytes.py >
tests/cli_bytes.txt``.  What only a process shows (a closed stdout, the
state after import, a FIFO ``-o``) is tested in ``test_cli`` and
``test_imports``.
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

from riesz_eig import cli

_ROOT = Path(__file__).resolve().parents[1]
_MANIFEST = _ROOT / "tests" / "cli_bytes.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_bytes", _ROOT / "tools" / "cli_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tool, argv) -> str:
    """The manifest line of ``argv``, run through ``cli.main`` in this process."""
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = streams
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's refusals, as the process would exit
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved
    for stream in streams:
        stream.flush()
    return tool.line(code, *(stream.buffer.getvalue() for stream in streams), argv)


def test_cli_bytes_equal_the_manifest():
    tool = _tool()
    key, *expected = _MANIFEST.read_text().splitlines()
    if key != tool.key():
        pytest.skip(f"the manifest was made on {key!r}, this machine is {tool.key()!r}")
    argvs = tool.argvs()
    assert [line.split()[3:] for line in expected] == [list(argv) for argv in argvs]
    changed = [(want, got) for want, got in zip(expected, (_run(tool, argv) for argv in argvs))
               if got != want]
    assert not changed, "\n".join(f"manifest {want}\n     now {got}" for want, got in changed)
