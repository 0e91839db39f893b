"""Benchmark driver for riesz-eig.

    python3 bench/run.py --workload {solve_warm,cli_studies,cli_dumps}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is used from ``src/`` (it need not
be installed), only through its public functions (``solve_warm``, in a warm
worker process) or through ``python -m riesz_eig.cli`` (one subprocess per
operation).  One closed loop: a single client, one operation at a time, the
next one sent when the previous one has finished and been checked.  BLAS and
OpenMP are pinned to one thread and ``RIESZ_EIG_THREADS`` is unset, so the
sweep pool sizes itself from the core count.

After set-up, passes over the workload's operation list (shuffled by the
seed) run until ``--seconds`` have elapsed, at least one.  Every operation's
output goes through ``check.py``.  With ``--trace 1`` the passes alternate
between untraced and traced runs of the same operations (``tracer.py``), and
the per-layer metrics come from the traced ones.

Output: a human-readable table of the metrics on stderr, a ``{"record": ...}``
line with the run's environment and detail, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an operation fails that is not a known failure (``workloads.KNOWN_FAILURES``),
and 2 when the run cannot start.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Pin threads before numpy is imported here or in any child.
os.environ.update(THREAD_ENV)
os.environ.pop("RIESZ_EIG_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
OP_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "ratio"}
PER_LAYER_UNITS = {
    "assembly.assemble_mass.self_s": "s",
    "assembly.assemble_mass.calls": "count",
    "assembly.entries": "count",
    "assembly.bytes": "B",
    "eig.sym_eig.self_s": "s",
    "eig.sym_eig.calls": "count",
    "eig.sym_eig.dim_max": "count",
    "eig.solve.self_s": "s",
    "eig.eval_eigenfunction.self_s": "s",
    "specfun.basis_coeff.calls": "count",
    "analysis.solve_sweep.self_s": "s",
    "analysis.solve_sweep.parallelism": "ratio",
    "analysis.spectrum_report.self_s": "s",
    "analysis.convergence_table.self_s": "s",
    "analysis.condition_slope.self_s": "s",
    "quadrature.oracle_mass_entry.self_s": "s",
    "quadrature.oracle_mass_entry.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "cli.serialize_mb_per_s": "MB/s",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracer.MODULES},
    "import.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.parallel_overlap_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}
# Derived from array sizes, not measured.
COMPUTED = ("assembly.entries", "assembly.bytes", "eig.sym_eig.dim_max")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Result:
    """One operation's outcome as the driver saw it."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool = False
    code: int = 0
    stdout: bytes = b""
    stderr: bytes = b""
    reply: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    op_id: int | None = None

    def digest(self) -> str:
        if self.reply:
            body = json.dumps({k: self.reply.get(k) for k in ("error", "lambdas", "weyl_ratios")})
            return hashlib.sha256(body.encode()).hexdigest()
        return hashlib.sha256(b"%d\0" % self.code + self.stdout + b"\0" + self.stderr).hexdigest()


class LineProcess:
    """A helper process that answers each JSON request line with one JSON line."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=child_env(), text=True)

    def read(self, timeout: float) -> dict:
        if not select.select([self.proc.stdout], [], [], timeout)[0]:
            raise TimeoutError(f"{self.proc.args[1]} did not answer within {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.proc.args[1]} exited with status {self.proc.wait()}")
        return json.loads(line)

    def request(self, message: dict, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.read(timeout)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class CliRunner:
    """One ``python -m riesz_eig.cli`` process per operation, started by ``spawner.py``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.spawner = LineProcess([sys.executable, str(BENCH / "spawner.py")])

    def _spawn(self, argv: list[str]) -> Result:
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        r = self.spawner.request({"argv": argv, "stdout": str(out), "stderr": str(err),
                                  "timeout": OP_TIMEOUT_S}, timeout=OP_TIMEOUT_S + 30)
        return Result(r["wall_s"], r["cpu_s"], r["rss_mb"], r["timed_out"], r["code"],
                      out.read_bytes(), err.read_bytes())

    def setup(self) -> float:
        """Fresh interpreter, import of ``riesz_eig.cli``, exit; no warm-up."""
        result = self._spawn([sys.executable, "-c", "import riesz_eig.cli"])
        if result.code != 0:
            raise RuntimeError(f"importing riesz_eig.cli failed: {result.stderr.decode()[-500:]}")
        return result.wall_s

    def run(self, op, traced: bool) -> Result:
        if not traced:
            return self._spawn([sys.executable, "-m", "riesz_eig.cli", *op.argv])
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        result = self._spawn([sys.executable, str(BENCH / "tracer.py"), str(spans_path), *op.argv])
        if spans_path.exists():
            result.spans = json.loads(spans_path.read_text())
        return result

    def collect_spans(self):
        return None  # each Result already holds its process's spans

    def close(self) -> None:
        self.spawner.close()


class Worker(LineProcess):
    """A warm worker process (``worker.py``) that answers one request at a time."""

    def __init__(self, traced: bool):
        t0 = perf_counter()
        super().__init__([sys.executable, str(BENCH / "worker.py")] + (["--trace"] if traced else []))
        ready = self.read(OP_TIMEOUT_S)
        self.setup_s = perf_counter() - t0
        self.import_s = ready["import_s"]


class WorkerRunner:
    """In-library operations on a warm worker; a traced twin serves traced passes."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.workers = {}
        self.next_id = 0

    def setup(self) -> float:
        """Fresh interpreter, import of ``riesz_eig.cli``, one small solve."""
        old = self.workers.pop(False, None)
        if old is not None:
            old.close()
        self.workers[False] = Worker(traced=False)
        return self.workers[False].setup_s

    def _worker(self, traced: bool) -> Worker:
        if traced not in self.workers:
            self.workers[traced] = Worker(traced)
        return self.workers[traced]

    def run(self, op, traced: bool) -> Result:
        self.next_id += 1
        worker = self._worker(traced)
        try:
            reply = worker.request({"cmd": "op", "id": self.next_id, "two_alpha": op.two_alpha,
                                    "n": op.n}, OP_TIMEOUT_S)
        except TimeoutError:
            # the worker is stuck in the operation: replace it
            worker.proc.kill()
            worker.close()
            del self.workers[traced]
            return Result(OP_TIMEOUT_S, 0.0, 0.0, timed_out=True)
        return Result(reply["wall_s"], reply["cpu_s"], reply["rss_mb"], reply=reply,
                      op_id=self.next_id)

    def collect_spans(self) -> dict:
        """Every span of the traced worker, grouped by operation id."""
        if True not in self.workers:
            return {}
        path = self.workdir / "worker-spans.json"
        self.workers[True].request({"cmd": "spans", "path": str(path)}, OP_TIMEOUT_S)
        by_op = defaultdict(list)
        for span in json.loads(path.read_text()):
            by_op[span[5]].append(span)
        return by_op

    def close(self) -> None:
        for worker in self.workers.values():
            worker.close()
        self.workers.clear()


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    results: list = field(default_factory=list)  # (op, Result, problems)


def run_pass(ops, runner, checker, traced: bool, first: dict) -> Pass:
    record = Pass(traced)
    digests = {}
    for op in ops:
        result = runner.run(op, traced)
        record.wall_s += result.wall_s
        record.cpu_s += result.cpu_s
        record.rss_mb = max(record.rss_mb, result.rss_mb)
        record.output_bytes += len(result.stdout)
        digest = result.digest()
        digests[op.name] = digest
        problems = [] if op.repeat_of else checker.check(op, result)
        if first.setdefault(op.name, digest) != digest:
            problems.append("output differs from the same operation's output in the first pass")
        record.results.append((op, result, problems))
    for op, _, problems in record.results:
        if op.repeat_of and digests[op.name] != digests[op.repeat_of]:
            problems.append(f"output differs from {op.repeat_of} in the same pass")
    return record


def trace_stats(record: Pass, spans_by_op: dict) -> dict:
    """Per-layer totals of one traced pass."""
    stats = defaultdict(float)
    covered = 0.0
    sweep_wall = sweep_children = 0.0
    for index in range(len(record.results)):
        spans = [s for s in spans_by_op.get(index, []) if s[4] > 0.0]  # drop unfinished spans
        selfs = tracer.self_times(spans)
        by_id = {s[0]: s for s in spans}
        for span, self_s in zip(spans, selfs):
            name = span[2]
            layer = "import" if name == tracer.IMPORT_SPAN else name.split(".")[0]
            stats[f"{layer}.self_s"] += self_s
            stats[f"{name}.self_s"] += self_s
            stats[f"{name}.calls"] += 1
            attrs = span[6] or {}
            if "dim" in attrs:
                stats["eig.sym_eig.dim_max"] = max(stats["eig.sym_eig.dim_max"], attrs["dim"])
            stats["assembly.entries"] += attrs.get("entries", 0)
            stats["assembly.bytes"] += attrs.get("bytes", 0)
            if name == "analysis.solve_sweep":
                sweep_wall += span[4] - span[3]
            parent = by_id.get(span[1])
            if parent is not None and parent[2] == "analysis.solve_sweep":
                sweep_children += span[4] - span[3]
        span_cover = tracer.covered(spans)
        covered += span_cover
        stats["trace.parallel_overlap_s"] += sum(selfs) - span_cover
    stats["trace.pass_s"] = record.wall_s
    stats["trace.unattributed_s"] = record.wall_s - covered
    stats["sweep_wall"] = sweep_wall
    stats["sweep_children"] = sweep_children
    stats["cli.output_bytes"] = record.output_bytes
    return stats


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def high_percentile(count: int):
    """Highest of p50/p75/p90/p95/p99 with at least 10 samples beyond it."""
    fit = [p for p in (50, 75, 90, 95, 99) if count * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def summary(values) -> dict:
    p = high_percentile(len(values))
    out = {"median": statistics.median(values), "quartiles": quartiles(values), "n": len(values),
           "high_percentile": p}
    if p is not None:
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def per_layer_metrics(traced: list, untraced: list, worker_import_s) -> dict:
    """Means over the traced passes, so that the layers add up to ``trace.pass_s``."""
    keys = set().union(*traced) if traced else set()
    mean = {k: statistics.fmean([s.get(k, 0.0) for s in traced]) for k in keys}
    out = {name: mean.get(name, 0.0) for name in PER_LAYER_UNITS}
    out["eig.sym_eig.dim_max"] = max((s.get("eig.sym_eig.dim_max", 0.0) for s in traced), default=0.0)
    sweep_wall = mean.get("sweep_wall", 0.0)
    out["analysis.solve_sweep.parallelism"] = mean["sweep_children"] / sweep_wall if sweep_wall else 0.0
    main_self = mean.get("cli.main.self_s", 0.0)
    out["cli.serialize_mb_per_s"] = out["cli.output_bytes"] / main_self / 1e6 if main_self else 0.0
    imports = mean.get(f"{tracer.IMPORT_SPAN}.calls", 0.0)
    out["cli.import_s"] = (out["import.self_s"] / imports if imports
                           else worker_import_s if worker_import_s is not None else 0.0)
    out["trace.untraced_pass_s"] = statistics.fmean(p.wall_s for p in untraced)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in (*THREAD_ENV, "RIESZ_EIG_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "machine": platform.machine(),
    }


def run(args) -> int:
    from check import Checker

    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    checker = Checker(args.seed)
    order_rng = random.Random(f"{args.seed}:order")
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    runner = None
    try:
        runner = WorkerRunner(workdir) if args.workload == "solve_warm" else CliRunner(workdir)
        setups = [runner.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        first, passes = {}, []
        start = perf_counter()
        elapsed = 0.0
        # Stop before a pass that would end past --seconds, judged by the mean
        # pass so far; checking counts against the time too.
        while (not passes or (args.trace and len(passes) < 2)
               or elapsed + elapsed / len(passes) <= args.seconds):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(order_rng.sample(ops, len(ops)), runner, checker, traced, first))
            elapsed = perf_counter() - start
        spans_by_op = runner.collect_spans()
        worker_import_s = (runner.workers[True].import_s
                           if isinstance(runner, WorkerRunner) and True in runner.workers else None)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [(op, problems) for p in passes for op, _, problems in p.results]
    failures = [(op.name, problems) for op, problems in outcomes if problems]
    unexpected = [name for name, _ in failures if name not in workloads.KNOWN_FAILURES]
    attempted, failed = len(outcomes), len(failures)
    untraced = [p for p in passes if not p.traced]
    if args.trace:
        stats = []
        for p in (p for p in passes if p.traced):
            by_op = ({i: spans_by_op.get(r.op_id, []) for i, (_, r, _) in enumerate(p.results)}
                     if spans_by_op is not None
                     else {i: r.spans for i, (_, r, _) in enumerate(p.results)})
            stats.append(trace_stats(p, by_op))
        values = per_layer_metrics(stats, untraced, worker_import_s)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "success_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failure_counts = defaultdict(int)
    reasons = {}
    for name, problems in failures:
        failure_counts[name] += 1
        reasons.setdefault(name, problems[0])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, **environment(),
        "closed_loop": {"clients": 1, "in_flight": 1},
        "operations_per_pass": [op.name for op in ops],
        "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
        "pass_s": summary([p.wall_s for p in untraced]),
        "cpu_s": summary([p.cpu_s for p in untraced]),
        "setup_s": summary(setups),
        "op_wall_s": {op.name: [r.wall_s for p in untraced for o, r, _ in p.results if o.name == op.name]
                      for op in ops},
        "failures": {name: {"count": c, "first_problem": reasons[name],
                            "known": name in workloads.KNOWN_FAILURES}
                     for name, c in failure_counts.items()},
        "computed_not_measured": list(COMPUTED) if args.trace else [],
    }
    width = max(map(len, metrics))
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for name, info in record["failures"].items():
        tag = "known" if info["known"] else "UNEXPECTED"
        print(f"failed ({tag}): {name} x{info['count']}: {info['first_problem']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if unexpected else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small degrees, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "riesz_eig" / "cli.py").is_file():
        print(f"riesz-eig sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except (RuntimeError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
