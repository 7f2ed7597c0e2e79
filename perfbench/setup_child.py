"""One set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_child.py <workload> <seed> <out_dir>

Imports bqcf.cli, builds the workload's inputs and prints one JSON line
with the import and build times in milliseconds.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import bqcf.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3])
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "build_ms": (t2 - t1) * 1e3}))
