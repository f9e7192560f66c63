"""Digests of every bundled demo's CLI output, for byte-identity checks.

    python3 bench/demos.py           # print digests, compare with demo_digests.json
    python3 bench/demos.py --write   # record the current digests

Each demo is run through every subcommand in-process; a command counts as
supported by a demo when it exits 0, and its CSV (standard output) is hashed.
The digests are informational, not benchmark metrics: they let a change show
that the demo CSVs stayed byte-identical, or list which ones changed. Exits 1
when a digest differs from the recorded file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "demo_digests.json"
COMMANDS = ("excite", "probs", "oracle", "sweep", "transport")


def demo_digests() -> dict[str, dict[str, str]]:
    sys.path.insert(0, str(ROOT / "src"))
    from trapmotion import cli

    digests: dict[str, dict[str, str]] = {}
    for demo in cli.DEMOS:
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", f"demo:{demo}"])
            if code == 0:
                digests.setdefault(demo, {})[command] = hashlib.sha256(
                    out.getvalue().encode()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest every demo's CLI output.")
    parser.add_argument("--write", action="store_true", help=f"record digests in {RECORD.name}")
    args = parser.parse_args(argv)
    current = demo_digests()
    if args.write:
        RECORD.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    recorded = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.is_file() else {}
    changed = 0
    for demo, commands in sorted(current.items()):
        for command, sha in sorted(commands.items()):
            old = recorded.get(demo, {}).get(command)
            state = "same" if old == sha else "NEW" if old is None else "CHANGED"
            changed += state != "same"
            print(f"{demo:20s} {command:10s} {sha[:16]}  {state}")
    for demo, commands in sorted(recorded.items()):
        for command in sorted(set(commands) - set(current.get(demo, {}))):
            changed += 1
            print(f"{demo:20s} {command:10s} {'-' * 16}  NO LONGER SUPPORTED")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
