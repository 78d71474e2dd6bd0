"""Tests of the benchmark itself: generator determinism and the output checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import qbemu  # noqa: E402
from qbemu import cli  # noqa: E402

import run as bench_run  # noqa: E402
from gen import class_counts, generate  # noqa: E402
from spans import Layers, Tracer  # noqa: E402
from workloads import WORKLOADS, LongProgram, PrecisionSweep, WideState, load_pins  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    spec = WORKLOADS[name].spec
    assert generate(spec, 7) == generate(spec, 7)
    assert generate(spec, 7).text != generate(spec, 8).text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_text_parses_to_the_generated_gates(name):
    spec = WORKLOADS[name].spec
    circuit = generate(spec, 3)
    parsed = qbemu.parse(circuit.text)
    assert parsed.qubit_count == spec.qubits
    assert [(g.kind.name, g.target, g.control, g.angle) for g in parsed.gates] == [
        (g.kind, g.target, g.control, g.angle) for g in circuit.gates
    ]
    counts = {}
    for g in circuit.gates:
        counts[(g.cls, g.control is not None)] = counts.get((g.cls, g.control is not None), 0) + 1
    assert counts == {b: n for b, n in class_counts(spec).items() if n}


def test_long_program_uses_macros():
    text = generate(LongProgram.spec, 0).text
    assert text.count("\ngate m") == LongProgram.spec.macros


def _reference(cls, tmp_path, seed=0):
    workload = cls(seed, tmp_path, load_pins())
    workload.prepare()
    workload.reference = workload.job(Layers())
    return workload


def test_wide_state_check_fires_on_one_lsb(tmp_path):
    workload = _reference(WideState, tmp_path)
    assert workload.check_reference() == []
    out = workload.job(Layers())
    assert workload.check(out) == []
    out["fixed"].re[12345] += 1
    assert workload.check(out) == ["fixed_sha256 differs from the reference job"]
    workload.reference["fixed"].re[0] -= 1
    assert "fixed state digest differs from the pinned digest" in workload.check_reference()


def test_long_program_check_fires_on_dropped_instruction(tmp_path):
    workload = _reference(LongProgram, tmp_path)
    assert workload.check_reference() == []
    out = workload.job(Layers())
    assert workload.check(out) == []
    loaded = out["loaded"]
    out["loaded"] = dataclasses.replace(loaded, instructions=loaded.instructions[:-1])
    assert workload.check(out) == ["loaded program differs from the compiled instructions"]


def _alter_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column, value", [("total_cycles", "1"), ("fidelity", "0.5")])
def test_precision_sweep_check_fires_on_altered_cell(tmp_path, column, value):
    workload = _reference(PrecisionSweep, tmp_path)
    assert workload.check_reference() == []
    out = workload.job(Layers())
    assert workload.check(out) == []
    altered = dict(out, csv=_alter_cell(out["csv"], 2, column, value))
    assert len(workload.check(altered)) == 1
    workload.reference = altered
    assert len(workload.check_reference()) == 1


def test_unpinned_seed_checks_exact_columns_independently(tmp_path):
    workload = _reference(PrecisionSweep, tmp_path, seed=10**6)
    assert workload.pinned() is None
    assert workload.check_reference() == []
    rows = workload.reference["csv"].splitlines()
    seeded_row = next(i for i, r in enumerate(rows) if r.startswith(workload.seeded_stem + ","))
    workload.reference = dict(workload.reference, csv=_alter_cell(workload.reference["csv"], seeded_row, "total_cycles", "7"))
    assert len(workload.check_reference()) == 1


def test_traced_sweep_records_nested_spans_and_restores_names(tmp_path):
    names = (cli.parse_file, cli.compile_circuit, cli.run, qbemu.metrics.report, qbemu.hwmodel.program_latency)
    tracer = Tracer()
    tracer.job = 0
    argv = ["sweep", str(qbemu.fixture_path("bell.qasm")), "bits", "8,12", "--out", str(tmp_path / "s.csv")]
    assert Layers(tracer).cli_main(argv) == 0
    assert (cli.parse_file, cli.compile_circuit, cli.run, qbemu.metrics.report, qbemu.hwmodel.program_latency) == names
    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["cli.main"]
    summary = tracer.summaries()[0]
    assert summary["qasm.calls"] == 2  # one parse per sweep value
    assert summary["compiler.calls"] == 6  # three compiles per row
    assert summary["engine.runs.float"] == 2
    total = roots[0][2] - roots[0][1]
    self_total = sum(summary[f"self.{layer}"] for layer in bench_run.LAYERS if f"self.{layer}" in summary)
    assert self_total == pytest.approx(total / 1e9)


def test_tail_leaves_ten_jobs_above():
    times = [float(i) for i in range(40)]
    assert bench_run.tail(times) == (75.0, 29.0)


def test_run_refuses_a_tree_without_qbemu(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_state", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
