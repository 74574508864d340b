"""Time one set-up of a workload in this fresh interpreter and print it.

    python3 perfbench/setup_probe.py deep_serial

Set-up is importing gmchaos, validating the workload's configuration and
running its first replica, which fills the embedding-spectrum cache.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports gmchaos)

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(perf_counter() - t0)
