#!/usr/bin/env python3
"""Run one ``biorth`` command in a child process and print what it cost.

    PYTHONPATH=src python scripts/peak_rss.py functional --q 2/5 --max-len 96

prints the wall time, the child's peak resident memory (getrusage of the
children, so the library is imported and run in a fresh interpreter) and
the sha256 of its payload: stdout with every ``timings_ms`` member removed
when stdout is JSON, stdout as printed otherwise.  Two trees give the same
digest exactly when their payloads agree, so a change can be checked for
byte-identical output and measured in one command.  The child's exit status
is printed too, and the script exits with it, also when its reader closes
stdout early (``| head -1``).
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time


def _without_timings(value):
    if isinstance(value, dict):
        return {key: _without_timings(item) for key, item in value.items() if key != "timings_ms"}
    if isinstance(value, list):
        return [_without_timings(item) for item in value]
    return value


def payload_digest(stdout: str) -> str:
    """sha256 of ``stdout`` with its timings removed, as described above."""
    try:
        text = json.dumps(_without_timings(json.loads(stdout)))
    except ValueError:
        text = stdout
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "biorth.cli", *argv], capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    sys.stderr.write(child.stderr)
    try:
        print(f"wall_s {wall:.3f}")
        print(f"peak_rss_mb {peak_kib / 1024:.1f}")
        print(f"exit {child.returncode}")
        print(f"payload_sha256 {payload_digest(child.stdout)}")
        sys.stdout.flush()
    except BrokenPipeError:
        # nobody reads the rest; point stdout at devnull so that the flush
        # at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return child.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
