"""The three benchmark workloads: inputs, one job, and the checks on its output.

Each workload writes its generated inputs (QASM and config files) during
``prepare`` and then runs identical jobs.  The first job of a process is the
reference: it is checked against pinned values and independent oracles, and
every later job must reproduce it exactly.

* ``wide_state`` -- a 9-gate block on a 20-qubit uniform superposition, run
  on the fixed (24-bit, nearest) backend and the float reference, then
  ``metrics.report``.  The state (16 MiB complex, 2x8 MiB int64) makes the
  engine almost the whole job: it measures memory-bandwidth-bound kernels.
* ``long_program`` -- a 20k-gate, 8-qubit program with user ``gate`` macros
  and a 64-angle pool, taken down the board host path: parse, compile,
  program/table file round trip, session encode and decode.  The board runs
  the program, so the engine never does: an engine change must show no
  effect here.
* ``precision_sweep`` -- ``qbemu sweep <dir> bits 8,12,16,20,24`` over the
  five bundled fixtures plus a seeded 400-gate, 12-qubit circuit.  Small
  states make the engine's per-gate overhead count, the opposite regime to
  ``wide_state``, and the verb re-parses, re-compiles and re-runs the float
  reference for every sweep value.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

import qbemu
from qbemu.config import load_config
from qbemu.engine import FixedState, FloatState
from qbemu.gates import GateKind, gate_matrix
from qbemu.hostlink import encode_message

from gen import CircuitSpec, NativeGate, generate

PINNED_PATH = Path(__file__).with_name("pinned.json")

# Modeled cycle costs the checks expect from hwmodel's default latency model.
BASE_CYCLES = {"sign_exchange": 2, "one_multiplier": 4, "rotational": 8}
INIT_CYCLES_PER_PAIR = 2
READOUT_CYCLES_PER_AMPLITUDE = 2

FOM_TOLERANCE = 1e-9


def load_pins() -> dict:
    with open(PINNED_PATH, encoding="ascii") as fh:
        return json.load(fh)


def write_config(path: Path, n: int, q: int, bits: int) -> None:
    path.write_text(f"N = {n}\nW = 0\nQ = {q}\ndata_bits = {bits}\nrounding = nearest\n", encoding="ascii")


def _quantize_nearest(x: float, frac_bits: int) -> int:
    """Round x * 2^frac_bits to the nearest integer, ties away from zero."""
    return int(math.copysign(math.floor(abs(x) * (1 << frac_bits) + 0.5), x))


def expected_cycles(gates: tuple[NativeGate, ...], n_qubits: int, data_bits: int) -> int:
    """Modeled whole-program cycles at W = 0, computed from the generator's gate list."""
    frac = data_bits - 2
    pairs = set()
    for g in gates:
        if g.angle is not None:
            consumed = g.angle if g.kind == "U1" else g.angle / 2.0
            pairs.add((_quantize_nearest(math.sin(consumed), frac), _quantize_nearest(math.cos(consumed), frac)))
    compute = sum(BASE_CYCLES[g.cls] for g in gates)
    return compute + len(pairs) * INIT_CYCLES_PER_PAIR + (1 << n_qubits) * READOUT_CYCLES_PER_AMPLITUDE


def oracle_float_state(initial: np.ndarray, gates: tuple[NativeGate, ...], n: int) -> np.ndarray:
    """Apply gates by reshape/tensordot on a (2,)*n tensor built from gate_matrix.

    Qubit q is bit q of the amplitude index, i.e. tensor axis n-1-q.
    """
    psi = initial.reshape((2,) * n).copy()
    for g in gates:
        u = gate_matrix(GateKind[g.kind], g.angle)
        axis = n - 1 - g.target
        if g.control is None:
            psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)
            continue
        c_axis = n - 1 - g.control
        where = [slice(None)] * n
        where[c_axis] = 1
        sub = psi[tuple(where)]
        sub_axis = axis if axis < c_axis else axis - 1
        psi[tuple(where)] = np.moveaxis(np.tensordot(u, sub, axes=([1], [sub_axis])), 0, sub_axis)
    return psi.reshape(-1)


def fixed_digest(state: FixedState) -> str:
    """SHA-256 of the raw parts as little-endian int64, real parts first."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(state.re, dtype="<i8"))
    h.update(np.ascontiguousarray(state.im, dtype="<i8"))
    return h.hexdigest()


class Workload:
    """One workload: ``prepare`` writes its inputs, ``job`` is one closed-loop call.

    The first job's output is the reference.  ``check`` compares a job with
    it; ``check_reference`` compares the reference with pinned values and
    independent oracles.  Both return a list of problems, empty when correct.
    """

    name = ""
    spec: CircuitSpec
    calibration = "interpreter"  # the kernel whose speed tracks this workload's (worker.CALIBRATIONS)

    def __init__(self, seed: int, workdir: Path, pins: dict | None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.pins = pins
        self.reference = None
        self.circuit = generate(self.spec, seed)

    def pinned(self):
        """This workload's pinned record for the seed, or None if the seed is not pinned."""
        if self.pins is None:
            return None
        return self.pins[self.name].get(str(self.seed))


class WideState(Workload):
    name = "wide_state"
    calibration = "large_arrays"
    spec = CircuitSpec(qubits=20, gates=9, mix=(1 / 3, 1 / 3, 1 / 3), controlled=0.3, angle_pool=4)
    data_bits = 24

    def prepare(self) -> None:
        n = self.spec.qubits
        self.qasm_path = self.workdir / "block.qasm"
        self.qasm_path.write_text(self.circuit.text, encoding="ascii")
        cfg_path = self.workdir / "wide.cfg"
        write_config(cfg_path, n, 3, self.data_bits)
        self.fixed_config = load_config(cfg_path)
        self.float_config = qbemu.parse_config("rounding = float_reference", base=self.fixed_config)
        # The uniform superposition is exact in both representations for even n.
        fmt = self.fixed_config.fixed_format
        raw = np.full(1 << n, 1 << (fmt.fractional_bits - n // 2), dtype=np.int64)
        self.fixed_initial = FixedState(n, fmt, raw, np.zeros_like(raw))
        self.float_initial = FloatState(n, np.full(1 << n, 2.0 ** (-n // 2), dtype=complex))

    @property
    def gates_per_job(self) -> int:
        return len(self.circuit.gates)

    @property
    def amp_updates_per_job(self) -> int:
        return 2 * len(self.circuit.gates) << self.spec.qubits

    def job(self, layers):
        circuit = layers.parse_file(self.qasm_path)
        fixed_program = layers.compile_circuit(circuit, self.fixed_config)
        float_program = layers.compile_circuit(circuit, self.float_config)
        fixed = layers.run(fixed_program, self.fixed_config, initial=self.fixed_initial)
        reference = layers.run(float_program, self.float_config, initial=self.float_initial)
        quality = layers.report(fixed, reference)
        latency = layers.program_latency(fixed_program, self.fixed_config)
        return {
            "fixed": fixed,
            "float": reference,
            "quality": quality,
            "cycles": latency.total_cycles,
        }

    def summary(self, out) -> dict:
        return {
            "fixed_sha256": fixed_digest(out["fixed"]),
            "float_sha256": hashlib.sha256(np.ascontiguousarray(out["float"].amp, dtype="<c16")).hexdigest(),
            "quality": list(vars(out["quality"]).values()),
            "cycles": out["cycles"],
        }

    def fingerprint(self) -> str:
        return json.dumps(self.summary(self.reference), sort_keys=True)

    def pin_record(self, out) -> dict:
        return {"fixed_sha256": fixed_digest(out["fixed"])}

    def check_reference(self) -> list[str]:
        out = self.reference
        problems = []
        n = self.spec.qubits
        want = oracle_float_state(self.float_initial.amp, self.circuit.gates, n)
        error = float(np.max(np.abs(out["float"].amp - want)))
        if not error <= FOM_TOLERANCE:
            problems.append(f"float state differs from the tensordot oracle by {error:.3g}")
        cycles = expected_cycles(self.circuit.gates, n, self.data_bits)
        if out["cycles"] != cycles:
            problems.append(f"program_latency {out['cycles']} cycles, expected {cycles}")
        pinned = self.pinned()
        if pinned is not None and fixed_digest(out["fixed"]) != pinned["fixed_sha256"]:
            problems.append("fixed state digest differs from the pinned digest")
        return problems

    @cached_property
    def _reference_summary(self) -> dict:
        return self.summary(self.reference)

    def check(self, out) -> list[str]:
        got = self.summary(out)
        return [f"{key} differs from the reference job" for key in got if got[key] != self._reference_summary[key]]


class LongProgram(Workload):
    name = "long_program"
    spec = CircuitSpec(
        qubits=8,
        gates=20000,
        mix=(0.4, 0.3, 0.3),
        controlled=0.3,
        angle_pool=64,
        macros=8,
        macro_len=5,
        macro_share=0.5,
    )
    data_bits = 24

    def prepare(self) -> None:
        self.qasm_path = self.workdir / "long.qasm"
        self.qasm_path.write_text(self.circuit.text, encoding="ascii")
        cfg_path = self.workdir / "long.cfg"
        # Q = 7: 64 pool angles give at most 128 consumed angles (halved and not).
        write_config(cfg_path, self.spec.qubits, 7, self.data_bits)
        self.config = load_config(cfg_path)
        self.program_path = self.workdir / "long.prog.txt"
        self.table_path = self.workdir / "long.table.txt"

    @property
    def gates_per_job(self) -> int:
        return len(self.circuit.gates)

    @property
    def amp_updates_per_job(self) -> int:
        # The board, not the emulator, executes the program once per job.
        return len(self.circuit.gates) << self.spec.qubits

    def job(self, layers):
        circuit = layers.parse_file(self.qasm_path)
        program = layers.compile_circuit(circuit, self.config)
        layers.write_program_files(program, self.config, self.program_path, self.table_path)
        loaded = layers.load_program_files(self.program_path, self.table_path, self.config)
        stream = layers.encode_session(loaded, self.config)
        messages = layers.decode_stream(stream)
        latency = layers.program_latency(loaded, self.config)
        return {
            "program": program,
            "loaded": loaded,
            "stream": stream,
            "messages": messages,
            "cycles": latency.total_cycles,
        }

    def fingerprint(self) -> str:
        ref = self.reference
        return json.dumps(
            {
                "stream_sha256": hashlib.sha256(ref["stream"]).hexdigest(),
                "cycles": ref["cycles"],
            }
        )

    def pin_record(self, out) -> dict:
        return {"total_cycles": out["cycles"]}

    def check_reference(self) -> list[str]:
        out = self.reference
        problems = []
        meant = [
            (g.kind, g.target, g.target if g.control is None else g.control) for g in self.circuit.gates
        ]
        got = [(i.opcode.name, i.target, i.control) for i in out["program"].instructions]
        if got != meant:
            problems.append("compiled instructions differ from the generated gates")
        cycles = expected_cycles(self.circuit.gates, self.spec.qubits, self.data_bits)
        if out["cycles"] != cycles:
            problems.append(f"program_latency {out['cycles']} cycles, expected {cycles}")
        pinned = self.pinned()
        if pinned is not None and out["cycles"] != pinned["total_cycles"]:
            problems.append(f"program_latency {out['cycles']} cycles, pinned {pinned['total_cycles']}")
        return problems + self.check(out)

    def check(self, out) -> list[str]:
        problems = []
        program, loaded = out["program"], out["loaded"]
        if loaded.instructions != program.instructions or loaded.used_qubits != program.used_qubits:
            problems.append("loaded program differs from the compiled instructions")
        if loaded.table.entries != program.table.entries:
            problems.append("loaded table differs from the compiled table")
        if b"".join(encode_message(m) for m in out["messages"]) != out["stream"]:
            problems.append("decoded messages do not re-encode to the session bytes")
        if out["cycles"] != self.reference["cycles"]:
            problems.append("program_latency differs from the reference job")
        if program.instructions != self.reference["program"].instructions:
            problems.append("compiled instructions differ from the reference job")
        return problems


SWEEP_BITS = (8, 12, 16, 20, 24)
EXACT_COLUMNS = (
    "circuit",
    "n_qubits",
    "n_gates",
    "axis",
    "value",
    "data_bits",
    "rounding",
    "window",
    "datapaths",
    "state_regfile_bits",
    "total_cycles",
)
FOM_COLUMNS = ("fidelity", "kld", "mcd", "acd")


class PrecisionSweep(Workload):
    name = "precision_sweep"
    calibration = "small_arrays"
    spec = CircuitSpec(qubits=12, gates=400, mix=(0.4, 0.3, 0.3), controlled=0.3, angle_pool=16)
    config_n = 12
    config_q = 6
    seeded_stem = "seeded12"

    def prepare(self) -> None:
        self.circuit_dir = self.workdir / "circuits"
        self.circuit_dir.mkdir(exist_ok=True)
        self.circuit_shape = {}  # stem -> (qubits, native gates)
        for name in qbemu.fixture_names():
            text = qbemu.fixture_path(name).read_text(encoding="ascii")
            (self.circuit_dir / name).write_text(text, encoding="ascii")
            parsed = qbemu.parse(text)
            self.circuit_shape[Path(name).stem] = (parsed.qubit_count, len(parsed.gates))
        (self.circuit_dir / f"{self.seeded_stem}.qasm").write_text(self.circuit.text, encoding="ascii")
        self.circuit_shape[self.seeded_stem] = (self.spec.qubits, len(self.circuit.gates))
        self.config_path = self.workdir / "sweep.cfg"
        write_config(self.config_path, self.config_n, self.config_q, 24)
        self.csv_path = self.workdir / "sweep.csv"
        self.argv = [
            "sweep",
            str(self.circuit_dir),
            "bits",
            ",".join(str(b) for b in SWEEP_BITS),
            "--config",
            str(self.config_path),
            "--out",
            str(self.csv_path),
        ]

    @property
    def circuits(self) -> int:
        return len(self.circuit_shape)

    @property
    def rows(self) -> int:
        return len(self.circuit_shape) * len(SWEEP_BITS)

    @property
    def gates_per_job(self) -> int:
        return sum(g for _, g in self.circuit_shape.values()) * len(SWEEP_BITS)

    @property
    def amp_updates_per_job(self) -> int:
        per_value = sum(g << n for n, g in self.circuit_shape.values())
        return 2 * per_value * len(SWEEP_BITS)  # fixed model and float reference per value

    def job(self, layers):
        code = layers.cli_main(self.argv)
        return {"code": code, "csv": self.csv_path.read_text(encoding="ascii") if code == 0 else ""}

    def fingerprint(self) -> str:
        return hashlib.sha256(self.reference["csv"].encode()).hexdigest()

    def pin_record(self, out) -> dict:
        return {"rows": [r for r in out["csv"].splitlines() if r.startswith(self.seeded_stem + ",")]}

    def _seeded_exact(self) -> list[dict]:
        """Exact columns of the seeded circuit's rows, computed without qbemu."""
        n = self.config_n
        return [
            {
                "circuit": self.seeded_stem,
                "n_qubits": str(self.spec.qubits),
                "n_gates": str(len(self.circuit.gates)),
                "axis": "bits",
                "value": str(bits),
                "data_bits": str(bits),
                "rounding": "nearest",
                "window": "0",
                "datapaths": str(1 << (n - 1)),
                "state_regfile_bits": str((1 << n) * bits * 2),
                "total_cycles": str(expected_cycles(self.circuit.gates, n, bits)),
            }
            for bits in SWEEP_BITS
        ]

    def check_reference(self) -> list[str]:
        """Fixture rows against the pinned CSV; seeded rows against their pin
        when the seed is pinned, else their exact columns against _seeded_exact."""
        pinned = self.pinned()
        lines = [",".join(EXACT_COLUMNS + FOM_COLUMNS)] + self.pins[self.name]["fixtures"]
        if pinned is not None:
            lines += pinned["rows"]
        expected = _csv_rows("\n".join(lines))
        if pinned is None:
            expected += self._seeded_exact()
        # The verb writes circuits in file-name order, each over the sweep values.
        expected.sort(key=lambda r: (r["circuit"], int(r["value"])))
        return _compare_csv(self.reference, expected)

    def check(self, out) -> list[str]:
        return _compare_csv(out, _csv_rows(self.reference["csv"]))


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _compare_csv(out, expected: list[dict]) -> list[str]:
    """Exact columns must be equal; figures of merit, where expected, within FOM_TOLERANCE."""
    if out["code"] != 0:
        return [f"sweep exited with code {out['code']}"]
    got = _csv_rows(out["csv"])
    if len(got) != len(expected):
        return [f"sweep CSV has {len(got)} rows, expected {len(expected)}"]
    problems = []
    for row, want in zip(got, expected):
        where = f"{row['circuit']} bits={row['value']}"
        for col in EXACT_COLUMNS:
            if row[col] != want[col]:
                problems.append(f"{where}: {col} {row[col]} != {want[col]}")
        for col in FOM_COLUMNS:
            if col in want:
                a, b = float(row[col]), float(want[col])
                if not abs(a - b) <= FOM_TOLERANCE * max(1.0, abs(b)):
                    problems.append(f"{where}: {col} {a!r} != {b!r}")
    return problems


WORKLOADS = {w.name: w for w in (WideState, LongProgram, PrecisionSweep)}
