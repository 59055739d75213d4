"""Set-up probe, run in a fresh interpreter by run.py.

Imports lqkd, loads the workload's network, compiles its resources and
builds its attack, then prints ``ready``. The parent times the span from
starting this interpreter to reading that line.

    python3 perfbench/setup_probe.py <workload> <scale> <workdir>
"""

import sys
from pathlib import Path

import workloads

workloads.prepare(sys.argv[1], sys.argv[2], Path(sys.argv[3]))
print("ready", flush=True)
