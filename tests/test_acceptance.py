"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output summary) and enforces its runtime budget.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import qbemu
from qbemu.columns import Columns
from qbemu.compiler import INSTRUCTION_FIELDS, Instruction, compile_circuit, decode_words, encode_words
from qbemu.config import ExecConfig
from qbemu.engine import run
from qbemu.fixedpoint import FixedPointFormat, Rounding, from_real, round_shift
from qbemu.gates import INV_SQRT2, GateKind
from qbemu.hostlink import StreamDecoder, decode_stream, encode_message, loopback_session
from qbemu.hwmodel import estimate_resources, program_latency
from qbemu.metrics import complex_distances, hellinger_fidelity, kld
from qbemu.qasm import parse, parse_file

from _helpers import dense_oracle, gates_as_circuit, max_dev_up_to_global_phase, random_gates
from test_hostlink import random_message

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

FIXTURES = ["bell.qasm", "ghz4.qasm", "teleport.qasm", "qft4.qasm", "rot_ladder.qasm"]


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.2f}s exceeds {self.seconds}s budget"
            print(f"[{self.name}] PASS ({elapsed:.2f}s)")
        return False


def _fixture_circuit(name: str):
    return parse_file(qbemu.fixture_path(name))


def test_criterion_1_bell_state_fixture():
    with _Budget("criterion 1: Bell-state fixture", 1.0):
        circuit = _fixture_circuit("bell.qasm")
        fixed_cfg = ExecConfig(n_qubits=3, data_bits=20, rounding="nearest")
        fixed = run(compile_circuit(circuit, fixed_cfg), fixed_cfg)
        amps = fixed.to_complex()
        assert abs(amps[0] - INV_SQRT2) < 1e-4
        assert abs(amps[7] - INV_SQRT2) < 1e-4
        assert np.all(np.abs(np.delete(amps, [0, 7])) < 1e-4)

        float_cfg = ExecConfig(n_qubits=3, rounding="float_reference")
        ref = run(compile_circuit(circuit, float_cfg), float_cfg).amp
        assert abs(ref[0] - INV_SQRT2) < 1e-12
        assert abs(ref[7] - INV_SQRT2) < 1e-12
        assert np.all(np.abs(np.delete(ref, [0, 7])) < 1e-12)


def test_criterion_2_butterfly_vs_dense_oracle():
    with _Budget("criterion 2: butterfly vs dense oracle", 60.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for n in range(1, 6):
            config = ExecConfig(n_qubits=n, rounding="float_reference", imm_bits=6)
            for _ in range(500):
                gates = random_gates(rng, n, int(rng.integers(1, 31)))
                circuit = gates_as_circuit(gates, n)
                state = run(compile_circuit(circuit, config), config)
                expected = dense_oracle(circuit)[:, 0]
                worst = max(worst, float(np.max(np.abs(state.amp - expected))))
        assert worst < 1e-12, f"max deviation {worst}"


def test_criterion_3_lowering_soundness():
    with _Budget("criterion 3: equivalence lowering soundness", 5.0):
        k = INV_SQRT2
        h = np.array([[k, k], [k, -k]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        theta = 0.8

        def ctrl(u):
            m = np.eye(4, dtype=complex)
            m[1, 1], m[1, 3] = u[0, 0], u[0, 1]
            m[3, 1], m[3, 3] = u[1, 0], u[1, 1]
            return m

        rx = np.array(
            [[math.cos(theta / 2), -1j * math.sin(theta / 2)],
             [-1j * math.sin(theta / 2), math.cos(theta / 2)]]
        )
        ry = np.array(
            [[math.cos(theta / 2), -math.sin(theta / 2)],
             [math.sin(theta / 2), math.cos(theta / 2)]]
        )
        rz = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        u1 = np.diag([1.0, np.exp(1j * theta)])
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        toffoli = np.eye(8, dtype=complex)
        toffoli[3, 3] = toffoli[7, 7] = 0
        toffoli[3, 7] = toffoli[7, 3] = 1

        def u3(th, ph, la):
            c, s = math.cos(th / 2), math.sin(th / 2)
            return np.array(
                [[c, -np.exp(1j * la) * s], [np.exp(1j * ph) * s, np.exp(1j * (ph + la)) * c]]
            )

        cases = [
            ("cz q[0],q[1];", np.diag([1, 1, 1, -1]).astype(complex), 2),
            ("cy q[0],q[1];", ctrl(y), 2),
            ("ch q[0],q[1];", ctrl(h), 2),
            ("swap q[0],q[1];", swap, 2),
            ("ccx q[0],q[1],q[2];", toffoli, 3),
            ("u2(0.3,1.7) q[0];", u3(math.pi / 2, 0.3, 1.7), 1),
            ("u3(1.1,0.4,2.3) q[0];", u3(1.1, 0.4, 2.3), 1),
            (f"crx({theta}) q[0],q[1];", ctrl(rx), 2),
            (f"cry({theta}) q[0],q[1];", ctrl(ry), 2),
            (f"crz({theta}) q[0],q[1];", ctrl(rz), 2),
            (f"cu1({theta}) q[0],q[1];", ctrl(u1), 2),
        ]
        for body, reference, n in cases:
            circuit = parse(HEADER + f"qreg q[{n}];\n" + body)
            dev = max_dev_up_to_global_phase(dense_oracle(circuit), reference)
            assert dev < 1e-12, (body, dev)


def test_criterion_4_precision_trend():
    with _Budget("criterion 4: precision trend", 60.0):
        bits_ladder = [8, 12, 16, 20, 24]
        means = []
        for bits in bits_ladder:
            values = []
            for name in FIXTURES:
                circuit = _fixture_circuit(name)
                n = circuit.qubit_count
                fixed_cfg = ExecConfig(n_qubits=n, data_bits=bits, rounding="nearest", imm_bits=6)
                float_cfg = ExecConfig(n_qubits=n, rounding="float_reference", imm_bits=6)
                fixed = run(compile_circuit(circuit, fixed_cfg), fixed_cfg)
                ref = run(compile_circuit(circuit, float_cfg), float_cfg)
                # trend is measured on proper (normalized) distributions, where
                # KLD is non-negative; the unnormalized diagnostic wobbles in
                # sign once quantization error is small
                p = fixed.probabilities()
                r = ref.probabilities()
                values.append(kld(p / p.sum(), r / r.sum()))
            means.append(float(np.mean(values)))
        assert all(a >= b for a, b in zip(means, means[1:])), means


def test_criterion_5_rounding_mode_ordering():
    with _Budget("criterion 5: rounding-mode ordering", 5.0):
        rng = np.random.default_rng(5)
        for bits in (8, 12, 16, 20, 24):
            f = bits - 2
            one = 1 << f
            # 10^4 multiplications; half uniform, half exact half-LSB ties so
            # the tie rule is actually exercised at every width
            pairs = [
                (int(rng.integers(1, one)), int(rng.integers(1, one))) for _ in range(5000)
            ]
            ha = f // 2
            hb = f - 1 - ha
            for _ in range(5000):
                a = (2 * int(rng.integers(1, 1 << (f - ha - 1))) + 1) << ha
                b = (2 * int(rng.integers(1, 1 << (f - hb - 1))) + 1) << hb
                pairs.append((a, b))
            products = [a_raw * b_raw for a_raw, b_raw in pairs]
            stats = {}
            for mode in Rounding:
                got = round_shift(np.array(products, dtype=np.int64), f, mode).tolist()
                abs_sum = 0.0
                signed_sum = 0.0
                for raw, product in zip(got, products):
                    err = float(raw - Fraction(product, 1 << f))
                    abs_sum += abs(err)
                    signed_sum += err
                stats[mode] = (abs_sum / len(pairs), signed_sum / len(pairs))
            assert stats[Rounding.TRUNCATION][0] >= stats[Rounding.NEAREST][0], bits
            assert abs(stats[Rounding.NEAREST_EVEN][1]) <= abs(stats[Rounding.NEAREST][1]), bits


def test_criterion_6_twenty_bit_operating_point():
    with _Budget("criterion 6: 20-bit operating point", 60.0):
        rng = np.random.default_rng(6)
        fixed_cfg = ExecConfig(n_qubits=6, data_bits=20, rounding="nearest", imm_bits=7)
        float_cfg = ExecConfig(n_qubits=6, rounding="float_reference", imm_bits=7)
        worst_fid, worst_acd = 1.0, 0.0
        for _ in range(50):
            circuit = gates_as_circuit(random_gates(rng, 6, 100), 6)
            fixed = run(compile_circuit(circuit, fixed_cfg), fixed_cfg)
            ref = run(compile_circuit(circuit, float_cfg), float_cfg)
            fid = hellinger_fidelity(fixed.probabilities(), ref.probabilities())
            _, acd = complex_distances(fixed.to_complex(), ref.to_complex())
            worst_fid = min(worst_fid, fid)
            worst_acd = max(worst_acd, acd)
        assert worst_fid >= 0.999, worst_fid
        assert worst_acd < 0.01, worst_acd


def test_criterion_7_hardware_model_formulas():
    with _Budget("criterion 7: hardware model formulas", 1.0):
        for n in range(1, 11):
            for w in range(n):
                config = ExecConfig(n_qubits=n, window=w, data_bits=20, imm_bits=4)
                res = estimate_resources(config)
                assert res.datapaths == 2 ** (n - w - 1)
                assert res.state_regfile_bits == 2**n * 20 * 2
                assert res.angle_regfile_bits == 2**4 * 20 * 2
                assert res.instruction_width_bits == 4 + 2 * math.ceil(math.log2(n) if n > 1 else 0) + 4
        # per-gate compute latency doubles exactly per +1 of W
        for n in (3, 5):
            circuit = gates_as_circuit(random_gates(np.random.default_rng(7), n, 20), n)
            prev = None
            for w in range(n):
                config = ExecConfig(n_qubits=n, window=w, imm_bits=7)
                program = compile_circuit(circuit, config)
                compute = program_latency(program, config).compute_cycles
                if prev is not None:
                    assert compute == 2 * prev
                prev = compute


def test_criterion_8_compiler_round_trips():
    with _Budget("criterion 8: compiler round trips", 5.0):
        rng = np.random.default_rng(8)
        remaining = 100_000
        while remaining > 0:
            n = int(rng.integers(1, 17))
            q = int(rng.integers(1, 9))
            config = ExecConfig(n_qubits=n, imm_bits=q)
            fmax = 1 << config.qubit_field_bits
            batch = min(remaining, 2000)
            opcodes = rng.integers(0, 12, size=batch)
            targets = rng.integers(0, fmax, size=batch)
            controls = rng.integers(0, fmax, size=batch)
            imms = rng.integers(0, 1 << q, size=batch)
            fields = (opcodes, targets, controls, imms)
            decoded = decode_words(encode_words(Columns.of(Instruction, INSTRUCTION_FIELDS, fields), config), config)
            assert all(np.array_equal(getattr(decoded, name), col) for name, col in zip(INSTRUCTION_FIELDS, fields))
            remaining -= batch

        # dedup: table length equals the number of distinct quantized pairs
        rng2 = np.random.default_rng(9)
        for bits in (8, 12, 20):
            fmt = FixedPointFormat(bits, Rounding.NEAREST)
            angles = [float(a) for a in rng2.uniform(-math.pi, math.pi, size=30)]
            angles += angles[:10]  # exact repeats
            angles += [angles[0] + 1e-12]  # quantizes onto an existing pair
            from qbemu.gates import GateApplication

            gates = [GateApplication(GateKind.U1, 0, angle=a) for a in angles]
            config = ExecConfig(n_qubits=1, imm_bits=6, data_bits=bits)
            program = compile_circuit(gates_as_circuit(gates, 1), config)
            expected = {
                (from_real(math.sin(a), fmt), from_real(math.cos(a), fmt))
                for a in angles
            }
            assert len(program.table) == len(expected)


def test_criterion_9_protocol():
    with _Budget("criterion 9: protocol", 5.0):
        rng = np.random.default_rng(10)
        messages = [random_message(rng) for _ in range(10_000)]
        stream = b"".join(encode_message(m) for m in messages)
        assert decode_stream(stream) == messages
        # chunking invariance over random partitions
        for _ in range(5):
            decoder = StreamDecoder()
            got = []
            pos = 0
            while pos < len(stream):
                step = int(rng.integers(1, 97))
                got.extend(decoder.feed(stream[pos : pos + step]))
                pos += step
            assert got == messages and not decoder.pending

        for name in ("bell.qasm", "qft4.qasm"):
            circuit = _fixture_circuit(name)
            config = ExecConfig(n_qubits=circuit.qubit_count, data_bits=20, rounding="nearest")
            program = compile_circuit(circuit, config)
            direct = run(program, config)
            looped = loopback_session(program, config)
            assert np.array_equal(looped.re, direct.re), name
            assert np.array_equal(looped.im, direct.im), name


def test_criterion_10_metrics_unit_truths():
    with _Budget("criterion 10: metrics unit truths", 1.0):
        rng = np.random.default_rng(11)
        dist = rng.uniform(0, 1, size=16)
        dist /= dist.sum()
        assert hellinger_fidelity(dist, dist) == pytest.approx(1.0, abs=1e-15)
        assert kld(dist, dist) == pytest.approx(0.0, abs=1e-15)
        assert hellinger_fidelity([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert kld([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)
        for _ in range(100):
            size = 1 << int(rng.integers(1, 6))
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            b = rng.normal(size=size) + 1j * rng.normal(size=size)
            mcd, acd = complex_distances(a, b)
            assert acd <= mcd + 1e-15
