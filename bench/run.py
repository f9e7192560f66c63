"""trapmotion benchmark: one workload, closed loop, one client, one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {profile,transport,fock,verify} \\
        --seed N --seconds S --trace {0,1}

The task list is generated from ``--seed`` and handed to the program only as
config files and CLI arguments (``trapmotion.cli.main``, in-process) or as
direct library calls. The list is run in whole passes, back to back, until
the next pass would overrun ``--seconds``; every output is then checked
outside the timed region. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``. Lines before it (starting with ``#``) say which tail
percentile was reported and why tasks failed. Span dumps and per-task details
go to ``.bench_out/`` in the checkout.
"""

import os

# Pin native thread pools before numpy loads: one client, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
CLI_KINDS = ("excite", "transport", "oracle")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_ms_p50": "ms", "task_ms_tail": "ms",
                    "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def _import_program():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "trapmotion" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: no trapmotion sources at {package.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import trapmotion
    if Path(trapmotion.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: imported trapmotion from {trapmotion.__file__}, not {package}")


_import_program()

import numpy as np  # noqa: E402

from trapmotion import cli  # noqa: E402
from trapmotion import transitions as trans  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _START


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Failure:
    reason: str


@dataclass
class Pass:
    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def _run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def run_task(task, argv):
    """One task through the entry point a user would call."""
    spec = task.spec
    if task.kind in CLI_KINDS:
        return _run_cli(argv)
    if task.kind == "table":
        return trans.transition_table(spec["gamma"], spec["max_level"])
    if task.kind == "row":
        return trans.transition_row(spec["m"], spec["gamma"])
    return trans.degenerate_probability(spec["m_level"], spec["n_level"],
                                        trans.DegenerateSpec(tuple(spec["gammas"])),
                                        convention=spec["convention"])


def digest(output) -> str:
    h = hashlib.sha256()
    if isinstance(output, CliResult):
        h.update(f"{output.code}\n{output.out}".encode())
    elif isinstance(output, Failure):
        h.update(f"failure\n{output.reason}".encode())
    elif hasattr(output, "probs"):
        h.update(np.ascontiguousarray(output.probs).tobytes())
        tails = output.tail_bounds if hasattr(output, "tail_bounds") else output.tail_bound
        h.update(np.ascontiguousarray(tails).tobytes())
    else:
        h.update(repr(output).encode())
    return h.hexdigest()


def task_list_digest(tasks) -> str:
    blob = json.dumps([asdict(t) for t in tasks], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_configs(tasks, directory: Path) -> list:
    """Write each CLI task's config; returns the argv of each task (or None)."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, task in enumerate(tasks):
        argv = None
        if task.config is not None:
            path = directory / f"{i:03d}.cfg"
            path.write_text(task.config, encoding="ascii")
            argv = (task.argv[0], "--config", str(path), *task.argv[1:])
        argvs.append(argv)
    return argvs


def set_up(workload: str, seed: int, select=None):
    """Generate inputs, write configs and warm up; returns (tasks, argvs)."""
    tasks = workloads.make_tasks(workload, seed)
    if select is not None:
        tasks = select(tasks)
    argvs = write_configs(tasks, OUT / "configs" / f"{workload}-{seed}")
    warmup = workloads.warmup_tasks(workload)
    for task, argv in zip(warmup, write_configs(warmup, OUT / "configs" / f"{workload}-warmup")):
        run_task(task, argv)
    return tasks, argvs


def run_pass(tasks, argvs) -> Pass:
    result = Pass()
    clock = time.perf_counter
    start = clock()
    for task, argv in zip(tasks, argvs):
        t0 = clock()
        try:
            output = run_task(task, argv)
        except Exception as err:  # a raising task is a failed task, not a crash
            output = Failure(f"raised {type(err).__name__}: {err}")
        result.latencies.append(clock() - t0)
        result.outputs.append(output)
    result.seconds = clock() - start
    result.digests = [digest(o) for o in result.outputs]
    return result


def timed_passes(tasks, argvs, seconds: float, after_pass=None) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds``.

    Outputs equal to the first pass's are dropped as soon as they are
    digested, so memory does not grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(tasks, argvs)
        if passes:
            first = passes[0].digests
            p.outputs = [None if d == d0 else o for o, d, d0 in zip(p.outputs, p.digests, first)]
        passes.append(p)
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.seconds for p in passes) > seconds:
            return passes


def verify(tasks, passes):
    """Check every distinct output once; returns (attempted, failed, reasons,
    reproducible). An output is only needed the first time its digest is
    seen; outputs are dropped once checked."""
    verdicts: dict[tuple[int, str], str | None] = {}
    attempted = failed = 0
    for p in passes:
        for i, (task, output, dig) in enumerate(zip(tasks, p.outputs, p.digests)):
            key = (i, dig)
            if key not in verdicts:
                if isinstance(output, Failure):
                    verdicts[key] = output.reason
                else:
                    try:
                        verdicts[key] = checks.check(task, output)
                    except Exception as err:  # malformed output fails its task
                        verdicts[key] = f"checker raised {type(err).__name__}: {err}"
            attempted += 1
            failed += verdicts[key] is not None
        p.outputs = []
    reproducible = all(p.digests == passes[0].digests for p in passes)
    reasons = {i: r for (i, _), r in verdicts.items() if r is not None}
    return attempted, failed, reasons, reproducible


def per_task_latency(passes) -> list[float]:
    """Each task's median latency over the passes."""
    return [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]


def end_to_end(passes, setup_s: float, attempted: int, failed: int):
    per_task = per_task_latency(passes)
    ordered = sorted(per_task)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    tail_info = {"percentile": 100.0 * (n - beyond) / n, "tasks": n, "beyond": beyond}
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.seconds for p in passes),
        "task_ms_p50": statistics.median(per_task) * 1e3,
        "task_ms_tail": ordered[n - 1 - beyond] * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, per_task, tail_info


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def measure(workload: str, seed: int, seconds: float, trace: bool, select=None) -> dict:
    """Run one workload; returns the result object plus details."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tasks, argvs = set_up(workload, seed, select)
        setups.append(time.perf_counter() - t0)
    setup_s = IMPORT_S + statistics.median(setups)

    details = {"workload": workload, "seed": seed, "trace": int(trace),
               "task_list_sha256": task_list_digest(tasks)}
    if not trace:
        passes = timed_passes(tasks, argvs, seconds)
        attempted, failed, reasons, reproducible = verify(tasks, passes)
        metrics, per_task, tail = end_to_end(passes, setup_s, attempted, failed)
        details["tail"] = tail
    else:
        reference = run_pass(tasks, argvs)
        tracer = Tracer()
        tracer.install()
        try:
            passes = timed_passes(tasks, argvs, seconds, after_pass=tracer.end_pass)
        finally:
            tracer.uninstall()
        traced_wall = statistics.median(p.seconds for p in passes)
        attempted, failed, reasons, reproducible = verify(tasks, [reference] + passes)
        layer = tracer.layer_metrics(len(passes))
        layer["trace.overhead_s"] = (traced_wall - reference.seconds, "s")
        layer["package.src_lines"] = (src_lines(), "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        per_task = per_task_latency(passes)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.npz"
        tracer.dump(spans)
        details["spans"] = str(spans.relative_to(ROOT))
        details["oracle.steps"] = "computed from propagate inputs, not counted inside the program"
    details["passes"] = len(passes)
    details["tasks"] = [{"label": t.label, "digest": d, "latency_s": lat,
                         "failure": reasons.get(i)}
                        for i, (t, d, lat) in enumerate(zip(tasks, passes[0].digests, per_task))]
    return {"correct": reproducible, "attempted": attempted, "failed": failed,
            "metrics": metrics, "reasons": reasons, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result["details"]
    OUT.mkdir(parents=True, exist_ok=True)
    detail_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(f"# task list {details['task_list_sha256'][:16]}, {len(details['tasks'])} tasks, "
          f"{details['passes']} passes; details in {detail_path.relative_to(ROOT)}")
    if "tail" in details:
        tail = details["tail"]
        print(f"# task_ms_tail is p{tail['percentile']:.1f}: {tail['beyond']} of "
              f"{tail['tasks']} tasks are slower")
    for i, reason in sorted(result["reasons"].items()):
        print(f"# failed: task {i} ({details['tasks'][i]['label']}): {reason}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
