"""Print every metric of every workload by name, with unit and verdict.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Runs ``bench/run.py`` once per workload, each in its own process (so
``peak_rss_mb`` is that workload's own high-water mark), and prints the
end-to-end metrics, or with ``--trace`` the per-layer metrics, together with
the correctness verdict: ``correct``, failed / attempted tasks, fail_ratio
and the reason each failing task gave.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="print per-layer metrics instead")
    args = parser.parse_args(argv)
    for workload in (w["name"] for w in bench["workloads"]):
        result, notes = run(workload, args.seed, args.seconds, args.trace)
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload}: correct={str(result['correct']).lower()} failed={failed}/{attempted} "
              f"fail_ratio={failed / attempted:.4g}")
        for note in notes:
            if note.startswith(("# failed", "# task_ms_tail")):
                print(f"  {note[2:]}")
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
