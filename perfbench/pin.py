"""Regenerate pinned.json: reference outputs of the current qbemu for PIN_SEEDS.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only when a change of the expected outputs is intended; the
benchmark compares every run on a pinned seed against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from spans import Layers
from workloads import PINNED_PATH, WORKLOADS, PrecisionSweep

PIN_SEEDS = range(32)


def main() -> int:
    scratch = Path(__file__).resolve().parent.parent / ".bench_run" / "pin"
    pins = {}
    layers = Layers()
    for name, cls in WORKLOADS.items():
        pins[name] = {}
        for seed in PIN_SEEDS:
            if scratch.exists():
                shutil.rmtree(scratch)
            scratch.mkdir(parents=True)
            workload = cls(seed, scratch, None)
            workload.prepare()
            out = workload.job(layers)
            pins[name][str(seed)] = workload.pin_record(out)
            if cls is PrecisionSweep and seed == PIN_SEEDS.start:
                stem = workload.seeded_stem + ","
                pins[name]["fixtures"] = [r for r in out["csv"].splitlines()[1:] if not r.startswith(stem)]
        print(f"pinned {name} for seeds {PIN_SEEDS.start}..{PIN_SEEDS.stop - 1}", file=sys.stderr)
    shutil.rmtree(scratch)
    with open(PINNED_PATH, "w", encoding="ascii") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
