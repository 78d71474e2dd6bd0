"""qbemu benchmark: seeded workloads timed end to end, or layer by layer.

Run from the root of a qbemu source tree (qbemu is imported from ``src/``):

    python3 perfbench/run.py --workload wide_state --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in ``PROCESSES`` successive single-threaded worker
processes, never two at once.  Each worker sets up (import, input
generation, config files, one warm-up job) and then runs jobs in a closed
loop with one caller for its share of ``--seconds``.  Every job's output is
checked; a job that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Full results,
raw job times and provenance go to ``.bench_run/``; spans of a traced run
go to ``.bench_run/<run>/w<k>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide_state", "long_program", "precision_sweep")
PROCESSES = 3  # setup_s is the median over these process starts
TIME_LIMIT_S = 170.0  # whole command, per workload
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs above it
LAYERS = ("qasm", "compiler", "engine", "metrics", "hwmodel", "hostlink", "cli")
GATE_KEYS = [
    f"engine.gate_us.{b}.{c}.{k}"
    for b in ("fixed", "float")
    for c in ("sign_exchange", "one_multiplier", "rotational")
    for k in ("plain", "controlled")
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def provenance() -> dict:
    """Where the numbers come from: source revision, machine and code size."""
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        sha = done.stdout.strip() or sha
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    loc = {}
    for path in sorted((ROOT / "src" / "qbemu").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            loc[path.stem] = sum(1 for line in fh if line.strip())
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu, "loc_nonblank": loc}


def run_workers(workload: str, seed: int, seconds: float, trace: int, rundir: Path) -> list[dict]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    started = time.monotonic()
    results = []
    for k in range(PROCESSES):
        workdir = rundir / f"w{k}"
        workdir.mkdir(parents=True)
        out = workdir / "result.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", repr(seconds / PROCESSES),
            "--trace", str(trace),
            "--workdir", str(workdir),
            "--out", str(out),
        ]
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        try:
            done = subprocess.run(
                cmd + ["--spawned", repr(time.monotonic())],
                env=env,
                cwd=ROOT,
                stdout=sys.stderr,
                timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {k} of {workload} did not finish within the time limit") from None
        if done.returncode != 0:
            raise BenchError(f"worker {k} of {workload} exited with code {done.returncode}")
        with open(out, encoding="ascii") as fh:
            results.append(json.load(fh))
    return results


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND jobs above it, and its value.

    With TAIL_BEYOND jobs or fewer no percentile qualifies; the fastest job
    is returned then.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _sum(records: list[dict], key: str) -> float:
    return sum(r.get(key, 0.0) for r in records)


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in records) if records else 0.0


def _ratio(records: list[dict], num: str, den: str, scale: float = 1.0) -> float:
    d = _sum(records, den)
    return scale * _sum(records, num) / d if d else 0.0


def end_to_end(workers: list[dict], jobs: list[dict], failed: int) -> tuple[dict, dict]:
    """Job times in units of the calibration kernel timed around each job,
    which cancels the host's speed drift; raw seconds go to the notes."""
    bare = [j for j in jobs if not j["traced"]]
    times = [j["seconds"] for j in bare]
    costs = [j["seconds"] / j["calibration_s"] for j in bare]
    p50 = statistics.median(times)
    cost_p50 = statistics.median(costs)
    pct, tail_s = tail(times)
    _, cost_tail = tail(costs)
    gates = workers[0]["gates_per_job"]
    amps = workers[0]["amp_updates_per_job"]
    cal = statistics.median(j["calibration_s"] for j in bare)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "job_cost_p50": (cost_p50, "cal"),
        "job_cost_tail": (cost_tail, "cal"),
        "gates_per_cal": (gates / cost_p50, "gates/cal"),
        "amp_updates_per_cal": (amps / cost_p50, "amp_updates/cal"),
        "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MiB"),
        "pass_ratio": ((len(jobs) - failed) / len(jobs), "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(workers)} process starts",
        "job_cost_p50": f"job_s_p50 {p50:.6g} s; cal {cal * 1e3:.4g} ms (median)",
        "job_cost_tail": f"p{pct:.1f} of {len(times)} jobs; job_s_tail {tail_s:.6g} s",
        "gates_per_cal": f"gates_per_s {gates / p50:.6g}",
        "amp_updates_per_cal": f"amp_updates_per_s {amps / p50:.6g}",
        "pass_ratio": f"fail_ratio {failed}/{len(jobs)} = {failed / len(jobs):.4g}",
    }
    return metrics, notes


def per_layer(workers: list[dict], jobs: list[dict]) -> tuple[dict, dict]:
    traced = [j for j in jobs if j["traced"]]
    bare = [j["seconds"] for j in jobs if not j["traced"]]
    rec = [j["layers"] for j in traced]
    job_s = sum(j["seconds"] for j in traced)
    circuits = workers[0].get("circuits")
    rows = workers[0].get("rows")
    m = {
        "qasm.parse_s": (_median(rec, "span.qasm.parse_file"), "s"),
        "qasm.mb_per_s": (_ratio(rec, "qasm.bytes", "span.qasm.parse_file", 1e-6), "MB/s"),
        "compiler.compile_s": (_median(rec, "span.compiler.compile_circuit"), "s"),
        "compiler.calls": (_median(rec, "compiler.calls"), "count"),
        "compiler.dedup_ratio": (_ratio(rec, "compiler.table_entries", "compiler.rotational"), "ratio"),
        "compiler.files_s": (_median(rec, "span.compiler.files"), "s"),
        "compiler.files_mb_per_s": (_ratio(rec, "compiler.files_bytes", "span.compiler.files", 1e-6), "MB/s"),
    }
    for b in ("fixed", "float"):
        m[f"engine.run_s.{b}"] = (_median(rec, f"span.engine.run.{b}"), "s")
        m[f"engine.amp_updates_per_s.{b}"] = (
            _ratio(rec, f"engine.amp_updates.{b}", f"span.engine.run.{b}"),
            "amp_updates/s",
        )
    for key in GATE_KEYS:
        m[key] = (statistics.median(s for w in workers for s in w["gate_us"][key]), "us")
    m.update(
        {
            "engine.overflow_runs": (_median(rec, "engine.overflow_runs"), "count"),
            "metrics.report_s": (_median(rec, "span.metrics.report"), "s"),
            "hwmodel.modeled_cycles": (_median(rec, "hwmodel.modeled_cycles"), "count"),
            "hwmodel.host_ns_per_modeled_cycle": (
                _ratio(rec, "span.engine.run.fixed", "hwmodel.modeled_cycles", 1e9),
                "ns",
            ),
            "hostlink.encode_s": (_median(rec, "span.hostlink.encode_session"), "s"),
            "hostlink.encode_mb_per_s": (
                _ratio(rec, "hostlink.encode_bytes", "span.hostlink.encode_session", 1e-6),
                "MB/s",
            ),
            "hostlink.decode_s": (_median(rec, "span.hostlink.decode_stream"), "s"),
            "hostlink.decode_mb_per_s": (
                _ratio(rec, "hostlink.decode_bytes", "span.hostlink.decode_stream", 1e-6),
                "MB/s",
            ),
            "hostlink.session_bytes": (_median(rec, "hostlink.encode_bytes"), "bytes"),
            "cli.self_s": (_median(rec, "self.cli"), "s"),
            "cli.parse_calls_per_circuit": (_median(rec, "qasm.calls") / circuits if circuits else 0.0, "count"),
            "cli.compile_calls_per_row": (_median(rec, "compiler.calls") / rows if rows else 0.0, "count"),
            "cli.float_runs_per_circuit": (
                _median(rec, "engine.runs.float") / circuits if circuits else 0.0,
                "count",
            ),
            "trace.overhead_ratio": (statistics.median(j["seconds"] for j in traced) / statistics.median(bare), "ratio"),
            "run.job_s_p50": (statistics.median(bare), "s"),
            "run.calibration_s": (statistics.median(j["calibration_s"] for j in jobs), "s"),
        }
    )
    for layer in LAYERS:
        m[f"{layer}.share"] = (_sum(rec, f"self.{layer}") / job_s, "ratio")
    m["trace.residue_share"] = ((job_s - _sum(rec, "covered_s")) / job_s, "ratio")
    notes = {"trace.overhead_ratio": f"{len(traced)} traced vs {len(bare)} bare jobs, medians"}
    return m, notes


def failures(workers: list[dict]) -> tuple[int, list[str]]:
    """Failed jobs, counting every job of a worker whose reference job was wrong
    or whose reference disagrees with the first worker's."""
    failed = 0
    problems = []
    for k, w in enumerate(workers):
        bad_reference = list(w["reference_problems"])
        if w["fingerprint"] != workers[0]["fingerprint"]:
            bad_reference.append("reference output differs from worker 0's")
        for p in bad_reference:
            problems.append(f"worker {k} reference: {p}")
        for j in w["jobs"]:
            if bad_reference or j["problems"]:
                failed += 1
            problems += [f"worker {k} job {j['index']}: {p}" for p in j["problems"]]
    return failed, problems


def bench(workload: str, seed: int, seconds: float, trace: int) -> None:
    rundir = ROOT / ".bench_run" / f"{workload}-seed{seed}-trace{trace}"
    if rundir.exists():
        shutil.rmtree(rundir)
    workers = run_workers(workload, seed, seconds, trace, rundir)
    jobs = [j for w in workers for j in w["jobs"]]
    failed, problems = failures(workers)
    if trace:
        metrics, notes = per_layer(workers, jobs)
    else:
        metrics, notes = end_to_end(workers, jobs, failed)
    info = provenance()
    info.update(python=workers[0]["python"], numpy=workers[0]["numpy"], qbemu=workers[0]["qbemu_file"])

    print(f"# {workload}  seed {seed}  trace {trace}  {len(workers)} processes  {len(jobs)} jobs  {failed} failed")
    print(f"# git {info['git_sha']}  python {info['python']}  numpy {info['numpy']}  nproc {info['nproc']}  cpu {info['cpu']}")
    print("# loc " + " ".join(f"{k}={v}" for k, v in info["loc_nonblank"].items()))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:42s} {value:16.6g} {unit:16s} {note}")
    for p in problems[:10]:
        print(f"! {p}")

    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, trace=trace, notes=notes, provenance=info, problems=problems)
    record["job_seconds"] = [[j["seconds"] for j in w["jobs"]] for w in workers]
    record["setup_seconds"] = [w["setup_s"] for w in workers]
    record["calibration_seconds"] = [[j["calibration_s"] for j in w["jobs"]] for w in workers]
    with open(rundir.parent / f"result-{workload}-seed{seed}-trace{trace}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qbemu" / "__init__.py").is_file():
        print(f"error: no qbemu source tree at {ROOT / 'src' / 'qbemu'}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            bench(workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
