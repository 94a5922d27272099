"""Record golden.json: the default seed's outputs of every workload.

Run from the root of a source checkout, only when an output change is
intended:  python3 perfbench/record_golden.py
"""

import json
from pathlib import Path

import run

if __name__ == "__main__":
    run.load_src(Path.cwd())
    from workloads import golden_items, make_workloads

    golden = {name: golden_items(w) for name, w in make_workloads().items()}
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
