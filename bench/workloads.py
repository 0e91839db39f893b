"""The benchmark's workloads: fixed operation lists, plus what the seed picks.

An operation is either an in-library solve (``solve_warm``) or one
``python -m riesz_eig.cli`` invocation.  The seed picks the ``eigfun``
indices here; ``run.py`` uses it to shuffle the order of every pass.
``tiny=True`` gives the same shapes at small degrees, for the tests.
"""

from __future__ import annotations

import dataclasses
import math
import random

WORKLOADS = ("solve_warm", "cli_studies", "cli_dumps")

# (2 alpha, N).  2 alpha = 2.0 has integer alpha (banded blocks), 1.6 does
# not.  (8.0, 128) and (5.6, 512) are the graded cases of the known
# accuracy defect: they stay, so that the defect shows as failed operations.
SOLVE_GRID = ((1.6, 1024), (2.0, 1024), (1.6, 2048), (2.0, 2048), (3.6, 1024), (8.0, 128), (5.6, 512))
TINY_SOLVE_GRID = ((1.6, 64), (2.0, 128), (3.6, 64), (8.0, 128), (5.6, 512))

# Operations allowed to fail without making the run incorrect: the two graded
# cases, until the program computes their spectrum accurately.
KNOWN_FAILURES = frozenset({"solve(8.0,128)", "solve(5.6,512)"})


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation of a pass.  ``argv`` is empty for an in-library solve."""

    name: str
    kind: str
    two_alpha: float
    n: int = 0
    argv: tuple = ()
    fmt: str = "csv"
    vectors: bool = False
    n_list: tuple = ()
    indices: tuple = ()
    samples: int = 0
    verify_oracle: bool = False
    repeat_of: str | None = None


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def solve_op(two_alpha: float, n: int) -> Op:
    return Op(f"solve({two_alpha},{n})", "solve", two_alpha, n)


def eig_op(two_alpha: float, n: int, fmt: str = "csv", vectors: bool = False) -> Op:
    argv = ["eig", "--two-alpha", str(two_alpha), "--n", str(n), "--format", fmt]
    if vectors:
        argv.append("--vectors")
    name = f"eig{'-vectors' if vectors else ''}-{fmt}({two_alpha},{n})"
    return Op(name, "eig", two_alpha, n, tuple(argv), fmt=fmt, vectors=vectors)


def weyl_op(two_alpha: float, n: int) -> Op:
    argv = ("weyl", "--two-alpha", str(two_alpha), "--n", str(n))
    return Op(f"weyl({two_alpha},{n})", "weyl", two_alpha, n, argv)


def condition_op(two_alpha: float, n_list) -> Op:
    argv = ("condition", "--two-alpha", str(two_alpha), "--n-list", _ints(n_list))
    return Op(f"condition({two_alpha})", "condition", two_alpha, argv=argv, n_list=tuple(n_list))


def convergence_op(two_alpha: float, n_list, reference_n: int) -> Op:
    argv = ("convergence", "--two-alpha", str(two_alpha), "--n-list", _ints(n_list),
            "--reference-n", str(reference_n))
    return Op(f"convergence({two_alpha},{reference_n})", "convergence", two_alpha, argv=argv,
              n_list=tuple(n_list))


def eigfun_op(two_alpha: float, n: int, indices, samples: int) -> Op:
    argv = ("eigfun", "--two-alpha", str(two_alpha), "--n", str(n), "--indices", _ints(indices),
            "--samples", str(samples))
    return Op(f"eigfun({two_alpha},{n})", "eigfun", two_alpha, n, argv,
              indices=tuple(indices), samples=samples)


def mass_op(two_alpha: float, n: int, verify_oracle: bool = False) -> Op:
    argv = ["mass", "--two-alpha", str(two_alpha), "--n", str(n)]
    if verify_oracle:
        argv.append("--verify-oracle")
    name = f"mass{'-verify' if verify_oracle else ''}({two_alpha},{n})"
    return Op(name, "mass", two_alpha, n, tuple(argv), verify_oracle=verify_oracle)


def repeat(op: Op) -> Op:
    """A second run of ``op`` in the same pass; it must give identical bytes."""
    return dataclasses.replace(op, name=op.name + "#repeat", repeat_of=op.name)


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operation list of one pass, before shuffling."""
    if workload == "solve_warm":
        return [solve_op(t, n) for t, n in (TINY_SOLVE_GRID if tiny else SOLVE_GRID)]
    if workload == "cli_studies":
        big, sweep = (128, (32, 64, 128)) if tiny else (1024, (32, 64, 128, 256, 512))
        conv = ((8, 16, 32), 64, (16, 32), 64) if tiny else ((8, 16, 32, 64, 128), 200,
                                                             (16, 32, 64, 128, 256), 512)
        small_json = eig_op(1.6, 64, "json")
        return [
            eig_op(1.6, big),
            small_json,
            weyl_op(1.2, big),
            condition_op(1.8, sweep),
            condition_op(3.6, sweep),
            convergence_op(1.6, conv[0], conv[1]),
            convergence_op(1.2, conv[2], conv[3]),
            repeat(small_json),
        ]
    if workload == "cli_dumps":
        sizes = (64, 64, 32, 257, 32, 16) if tiny else (1024, 512, 256, 4097, 512, 64)
        rng = random.Random(f"{seed}:eigfun")
        # from the modes the README flags reliable, n <= floor(2N/pi)
        indices = sorted(rng.sample(range(1, int(2 * sizes[2] / math.pi) + 1), 5))
        verify = mass_op(3.6, sizes[5], verify_oracle=True)
        return [
            eig_op(1.6, sizes[0], "csv", vectors=True),
            eig_op(2.0, sizes[1], "json", vectors=True),
            eigfun_op(2.0, sizes[2], indices, sizes[3]),
            mass_op(1.6, sizes[4]),
            verify,
            repeat(verify),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
