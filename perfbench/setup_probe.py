"""Time set-up in a fresh interpreter: import stackfp and load one
workload's circuits, constraints and plug-ins from JSON.

    python3 perfbench/setup_probe.py INPUT_DIR

Prints the seconds from before importing stackfp to after the last file is
loaded, and the host factor from reference kernels run in this process
just before and just after.  numpy is imported before the clock starts: its
import time is the bulk of the total, is outside the program's control and
swings with the state of the file cache.
"""

import hostref

hostref.reference_s()       # the first run warms the interpreter up
before = [hostref.reference_s() for _ in range(3)]

import time  # noqa: E402

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench  # noqa: E402

bench.load(Path(sys.argv[1]))
elapsed = time.perf_counter() - t0
after = [hostref.reference_s() for _ in range(3)]
print(f"{elapsed:.6f} {hostref.factor(before + after):.6f}")
