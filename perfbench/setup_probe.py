"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py <src dir> <config.json>

Imports the CLI, loads the config and builds the cell, then prints one
JSON line with the time of each step and the monotonic clock at the end,
which the parent compares with the clock it read before starting this
process.
"""

import json
import sys
import time
from pathlib import Path

src, config_path = sys.argv[1:3]
sys.path.insert(0, src)
t0 = time.monotonic()
import mlmsim.cli  # noqa: E402

t1 = time.monotonic()
sim = mlmsim.cli.load_config(config_path)
t2 = time.monotonic()
sim.make_cell()
t3 = time.monotonic()
if Path(src).resolve() not in Path(mlmsim.__file__).resolve().parents:
    sys.exit(f"mlmsim imported from {mlmsim.__file__}, not from {src}")
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "cell_s": t3 - t2,
                  "t_done": t3}))
