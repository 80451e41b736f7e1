"""The benchmark's own smoke run, from the repository root: every workload
at tiny sizes, untraced and traced, each output checked against its
reference under ``perfbench/reference``.  The tracer reads what it needs
of ``genonet`` (``EventLog.events`` among it), so a name it uses that
goes away fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_ok():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    tail = proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.returncode == 0, tail
    assert proc.stdout.splitlines()[-1] == "smoke: ok", tail
