"""Warm in-library worker for the ``solve_warm`` workload.

Started by ``bench/run.py`` with ``src`` on the path.  It imports
``riesz_eig.cli`` (what a user of the command line pays for), runs one small
warm-up solve and reports ``ready``.  It then serves one request per stdin
line, one at a time, and answers each on one stdout line (JSON):

    {"cmd": "op", "id": 3, "two_alpha": 1.6, "n": 1024}
        runs solve + spectrum_report + weyl_ratios and returns its wall and
        CPU time, the process's peak resident set, and the results (or the
        error);
    {"cmd": "spans", "path": "..."}
        (traced worker only) writes every span recorded so far to ``path``.

The worker stops at the end of its input.  With ``--trace`` it installs the
span wrappers of ``bench/tracer.py`` before the warm-up.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    # The address space's own peak (VmHWM).  ru_maxrss would also count the
    # peak of the driver this process was started from.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_op(lib, request: dict) -> dict:
    cpu0 = _cpu()
    t0 = perf_counter()
    try:
        sol = lib.solve(lib.FractionalOrder(request["two_alpha"]), request["n"])
        report = lib.spectrum_report(sol)
        ratios = lib.weyl_ratios(sol)
        error = None
    except Exception as exc:  # the failure is the operation's result
        error = f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    reply = {
        "id": request["id"],
        "wall_s": t1 - t0,
        "cpu_s": _cpu() - cpu0,
        "rss_mb": _peak_rss_mb(),
        "error": error,
    }
    if error is None:
        reply.update(
            lambdas=sol.lambdas.tolist(),
            weyl_ratios=ratios.tolist(),
            condition_number=report.condition_number,
            poincare_bound=report.poincare_bound,
            minmax_upper=report.minmax_upper,
        )
    return reply


def main(argv) -> int:
    t0 = perf_counter()
    import riesz_eig.cli  # noqa: F401  (the import a CLI user pays for)
    import riesz_eig as lib

    import_s = perf_counter() - t0
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    lib.solve(lib.FractionalOrder(1.6), 16)
    if tracer is not None:
        tracer.clear()
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "op":
            if tracer is not None:
                tracer.op = request["id"]
            reply = _run_op(lib, request)
        elif request["cmd"] == "spans" and tracer is not None:
            tracer.dump(request["path"])
            reply = {"spans": len(tracer.spans)}
        else:
            reply = {"error": f"unknown request {request['cmd']!r}"}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
