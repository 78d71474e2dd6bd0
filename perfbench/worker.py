"""One benchmark process: set up a workload, then run its jobs in a closed loop.

Started by ``run.py`` with qbemu on ``PYTHONPATH`` and the BLAS/OpenMP thread
counts pinned to 1.  One caller runs one job at a time until the time is up.
With ``--trace 1`` jobs alternate between bare and traced entry points, so
the two halves see the same machine conditions and their medians give the
tracing overhead.  The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import qbemu
from qbemu import engine
from qbemu.compiler import AngleTable, Instruction
from qbemu.gates import ONE_MULTIPLIER, ROTATIONAL, SIGN_EXCHANGE

from spans import Layers, Tracer
from workloads import WORKLOADS, load_pins

GATE_CLASSES = {"sign_exchange": SIGN_EXCHANGE, "one_multiplier": ONE_MULTIPLIER, "rotational": ROTATIONAL}
GATE_SAMPLE_SECONDS = 0.05  # per backend x class x control combination
GATE_SAMPLES_MIN = 2


def _calibrate_interpreter() -> None:
    table = {}
    for i in range(30000):
        key = f"q[{i % 97}]"
        table[key] = table.get(key, 0) + i * 3 // 7


def _calibrate_small_arrays() -> None:
    values = np.arange(1 << 12, dtype=np.int64)
    index = np.arange(0, 1 << 12, 2)
    for _ in range(900):
        np.clip((values[index] * 3 + 1) >> 1, -(1 << 23), (1 << 23) - 1)


def _calibrate_large_arrays() -> None:
    values = np.arange(1 << 20, dtype=np.int64)
    for _ in range(2):
        np.clip((values * 3 + 1) >> 1, -(1 << 23), (1 << 23) - 1)


# Fixed kernels timed between jobs.  The host's speed drifts by tens of
# percent over minutes; a kernel bound by the same resource as the job
# (interpreter, per-call overhead of small array ops, or memory bandwidth)
# drifts with it, so job time over kernel time is steady where job time
# alone is not.
CALIBRATIONS = {
    "interpreter": _calibrate_interpreter,
    "small_arrays": _calibrate_small_arrays,
    "large_arrays": _calibrate_large_arrays,
}


def calibration_seconds(kind: str) -> float:
    start = perf_counter()
    CALIBRATIONS[kind]()
    return perf_counter() - start


def gate_costs(workload) -> dict[str, list[float]]:
    """Microseconds per ``engine.apply_gate`` call, per backend, class and control.

    Sampled at the workload's own qubit count on a state of that size; each
    sample is one instruction, cycling through the class's opcodes and targets.
    """
    n = workload.spec.qubits
    samples = {}
    for backend in ("fixed", "float"):
        config = qbemu.ExecConfig(n_qubits=n, imm_bits=1, data_bits=24, rounding="nearest")
        if backend == "float":
            config = qbemu.parse_config("rounding = float_reference", base=config)
        fmt = None if config.is_float_reference else config.fixed_format
        table = AngleTable(fmt)
        table.intern(0.3)
        state = engine.initial_state(n, config)
        for cls, kinds in GATE_CLASSES.items():
            kinds = sorted(kinds)
            for controlled in (False, True):
                times = []
                deadline = perf_counter() + GATE_SAMPLE_SECONDS
                k = 0
                while len(times) < GATE_SAMPLES_MIN or perf_counter() < deadline:
                    target = k % n
                    control = (target + 1) % n if controlled else target
                    instr = Instruction(kinds[k % len(kinds)], target, control, 0)
                    start = perf_counter_ns()
                    engine.apply_gate(state, instr, table)
                    times.append((perf_counter_ns() - start) / 1e3)
                    k += 1
                key = f"engine.gate_us.{backend}.{cls}.{'controlled' if controlled else 'plain'}"
                samples[key] = times
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir, load_pins())
    workload.prepare()
    bare = Layers()
    workload.reference = workload.job(bare)  # warm-up; checked after the timed loop
    tracer = Tracer() if args.trace else None
    traced = Layers(tracer) if tracer else None

    setup_s = time.monotonic() - args.spawned
    calibration = calibration_seconds(workload.calibration)
    jobs = []
    deadline = perf_counter() + args.seconds
    index = 0
    min_jobs = 2 if tracer else 1  # a traced run needs a bare and a traced job
    while index < min_jobs or perf_counter() < deadline:
        is_traced = tracer is not None and index % 2 == 1
        if is_traced:
            tracer.job = index
        start = perf_counter()
        try:
            out = workload.job(traced if is_traced else bare)
        except Exception:
            elapsed = perf_counter() - start
            problems = ["exception:\n" + traceback.format_exc()]
        else:
            elapsed = perf_counter() - start
            problems = workload.check(out)[:3]
            del out
        before, calibration = calibration, calibration_seconds(workload.calibration)
        jobs.append(
            {
                "index": index,
                "seconds": elapsed,
                "traced": is_traced,
                "problems": problems,
                "calibration_s": (before + calibration) / 2,  # kernel time around this job
            }
        )
        index += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_problems = workload.check_reference()
    result = {
        "setup_s": setup_s,
        "jobs": jobs,
        "reference_problems": reference_problems,
        "fingerprint": workload.fingerprint(),
        "gates_per_job": workload.gates_per_job,
        "amp_updates_per_job": workload.amp_updates_per_job,
        "qbemu_file": qbemu.__file__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        summaries = tracer.summaries()
        for job in jobs:
            if job["traced"]:
                job["layers"] = summaries.get(job["index"], {})
        tracer.write(str(workdir / "spans.jsonl"))
        result["gate_us"] = gate_costs(workload)
        if hasattr(workload, "circuits"):
            result["circuits"] = workload.circuits
            result["rows"] = workload.rows
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
