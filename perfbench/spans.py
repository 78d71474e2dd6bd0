"""Spans and counters recorded around the benchmark's calls into qbemu.

Nothing inside qbemu is instrumented.  A :class:`Layers` object holds the
public functions the jobs call, either bare (untraced jobs) or wrapped so
each call records a span -- name, start, end, parent span and job id -- and
adds to per-job counters.  The sweep verb resolves its callees through
``qbemu.cli`` and ``qbemu.metrics``/``qbemu.hwmodel``; a traced call of
``cli.main`` swaps those names for wrapped ones and restores them after.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from qbemu import cli, compiler, engine, hostlink, hwmodel, metrics, qasm
from qbemu.gates import ROTATIONAL


class Tracer:
    """In-memory span list plus counters keyed by (job, name)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, job
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = -1
        self._stack: list[int] = []

    def add(self, name: str, value: float = 1) -> None:
        self.counts[self.job][name] += value

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``name`` may be a function of the args."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                label = name(*args) if callable(name) else name
                self.spans[index] = (label, start, end, parent, self.job)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def summaries(self) -> dict[int, dict[str, float]]:
        """Per job: inclusive seconds per span name, self seconds per layer,
        seconds covered by top-level spans, and the job's counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            duration = end - start
            summary = out[job]
            summary[f"span.{name}"] += duration / 1e9
            summary[f"self.{name.split('.', 1)[0]}"] += (duration - child_ns[i]) / 1e9
            if parent < 0:
                summary["covered_s"] += duration / 1e9
        for job, counts in self.counts.items():
            out[job].update(counts)
        return {job: dict(summary) for job, summary in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "job": job}))
                fh.write("\n")


# -- counters recorded at each boundary ------------------------------------


def _count_parse_file(tracer, args, result):
    tracer.add("qasm.calls")
    tracer.add("qasm.bytes", os.path.getsize(args[0]))


def _count_compile(tracer, args, result):
    tracer.add("compiler.calls")
    tracer.add("compiler.table_entries", len(result.table))
    tracer.add("compiler.rotational", sum(1 for i in result.instructions if i.opcode in ROTATIONAL))


def _count_file_bytes(first_path_arg):
    def count(tracer, args, result):
        program_path, table_path = args[first_path_arg : first_path_arg + 2]
        tracer.add("compiler.files_bytes", os.path.getsize(program_path) + os.path.getsize(table_path))

    return count


def _backend(program, config, *rest):
    return "float" if config.is_float_reference else "fixed"


def _count_run(tracer, args, result):
    backend = _backend(*args)
    program = args[0]
    tracer.add(f"engine.runs.{backend}")
    tracer.add(f"engine.amp_updates.{backend}", len(program.instructions) << program.used_qubits)
    if getattr(result, "overflow", False):
        tracer.add("engine.overflow_runs")


def _count_latency(tracer, args, result):
    tracer.add("hwmodel.modeled_cycles", result.total_cycles)


def _count_encode(tracer, args, result):
    tracer.add("hostlink.encode_bytes", len(result))


def _count_decode(tracer, args, result):
    tracer.add("hostlink.decode_bytes", len(args[0]))


def _calls(prefix):
    return lambda tracer, args, result: tracer.add(f"{prefix}.calls")


# attribute -> (function, span name, counter)
ENTRY_POINTS = {
    "parse_file": (qasm.parse_file, "qasm.parse_file", _count_parse_file),
    "compile_circuit": (compiler.compile_circuit, "compiler.compile_circuit", _count_compile),
    "write_program_files": (compiler.write_program_files, "compiler.files", _count_file_bytes(2)),
    "load_program_files": (compiler.load_program_files, "compiler.files", _count_file_bytes(0)),
    "run": (engine.run, lambda *a: f"engine.run.{_backend(*a)}", _count_run),
    "report": (metrics.report, "metrics.report", _calls("metrics")),
    "program_latency": (hwmodel.program_latency, "hwmodel.program_latency", _count_latency),
    "encode_session": (hostlink.encode_session, "hostlink.encode_session", _count_encode),
    "decode_stream": (hostlink.decode_stream, "hostlink.decode_stream", _count_decode),
}

# Names the sweep verb resolves at call time: (owner, attribute, span name, counter).
CLI_NAMES = (
    (cli, "parse_file", "qasm.parse_file", _count_parse_file),
    (cli, "compile_circuit", "compiler.compile_circuit", _count_compile),
    (cli, "run", lambda *a: f"engine.run.{_backend(*a)}", _count_run),
    (metrics, "report", "metrics.report", _calls("metrics")),
    (hwmodel, "estimate_resources", "hwmodel.estimate_resources", _calls("hwmodel")),
    (hwmodel, "program_latency", "hwmodel.program_latency", _count_latency),
)


class Layers:
    """The qbemu entry points a job calls, bare or recording spans."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for attr, (fn, name, count) in ENTRY_POINTS.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(name, fn, count))
        self._cli_main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)

    @contextmanager
    def _cli_names_traced(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in CLI_NAMES]
        for (owner, attr, name, count), (_, _, fn) in zip(CLI_NAMES, saved):
            setattr(owner, attr, self.tracer.wrap(name, fn, count))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def cli_main(self, argv) -> int:
        if self.tracer is None:
            return self._cli_main(argv)
        with self._cli_names_traced():
            return self._cli_main(argv)
