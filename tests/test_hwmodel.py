"""Resource formulas and the windowed latency scaling law."""

from __future__ import annotations

from qbemu.compiler import compile_circuit
from qbemu.config import ExecConfig
from qbemu.gates import ONE_MULTIPLIER, ROTATIONAL, SIGN_EXCHANGE, GateApplication, GateKind
from qbemu.hwmodel import (
    BASE_CYCLES,
    INIT_CYCLES_PER_ANGLE_PAIR,
    READOUT_CYCLES_PER_AMPLITUDE,
    estimate_resources,
    program_latency,
)

from _helpers import gates_as_circuit

BELL = [
    GateApplication(GateKind.H, 2),
    GateApplication(GateKind.X, 1, control=2),
    GateApplication(GateKind.X, 0, control=2),
]


def bell_program(config):
    return compile_circuit(gates_as_circuit(BELL, 3), config)


class TestResources:
    def test_direct_formula_evaluation(self):
        res = estimate_resources(ExecConfig(n_qubits=5, window=0, data_bits=20, imm_bits=4))
        assert res.datapaths == 16
        assert res.state_regfile_bits == 1280
        assert res.angle_regfile_bits == 640
        assert res.instruction_width_bits == 14

    def test_full_serial_single_datapath(self):
        assert estimate_resources(ExecConfig(n_qubits=5, window=4)).datapaths == 1

    def test_two_qubit_full_parallel(self):
        assert estimate_resources(ExecConfig(n_qubits=2, window=0)).datapaths == 2

    def test_window_halves_datapaths(self):
        for n in range(2, 11):
            base = estimate_resources(ExecConfig(n_qubits=n, window=0)).datapaths
            for w in range(n):
                got = estimate_resources(ExecConfig(n_qubits=n, window=w)).datapaths
                assert base // got == 1 << w

    def test_pure_function_of_config(self):
        config = ExecConfig(n_qubits=6, window=2, data_bits=16, imm_bits=5)
        assert estimate_resources(config) == estimate_resources(config)


class TestLatency:
    def test_each_window_order_doubles_compute(self):
        for kind in GateKind:
            gates = [
                GateApplication(
                    kind, 0, angle=0.5 if kind in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U1) else None
                )
            ]
            prev = None
            for w in range(5):
                config = ExecConfig(n_qubits=5, window=w)
                program = compile_circuit(gates_as_circuit(gates, 1), config)
                compute = program_latency(program, config).compute_cycles
                if prev is not None:
                    assert compute == 2 * prev
                prev = compute

    def test_empty_program_is_overhead_only(self):
        config = ExecConfig(n_qubits=4)
        program = compile_circuit(gates_as_circuit([], 1), config)
        lat = program_latency(program, config)
        assert lat.compute_cycles == 0
        assert lat.total_cycles == lat.init_cycles + lat.readout_cycles
        assert lat.readout_cycles == (1 << 4) * 2

    def test_bell_window_ratio_is_exactly_four(self):
        c0 = ExecConfig(n_qubits=3, window=0)
        c2 = ExecConfig(n_qubits=3, window=2)
        lat0 = program_latency(bell_program(c0), c0)
        lat2 = program_latency(bell_program(c2), c2)
        assert lat2.compute_cycles == 4 * lat0.compute_cycles

    def test_controlled_cost_equals_uncontrolled(self):
        config = ExecConfig(n_qubits=3)
        plain = compile_circuit(gates_as_circuit([GateApplication(GateKind.X, 0)], 3), config)
        controlled = compile_circuit(
            gates_as_circuit([GateApplication(GateKind.X, 0, control=2)], 3), config
        )
        assert (
            program_latency(plain, config).compute_cycles
            == program_latency(controlled, config).compute_cycles
        )

    def test_linear_in_gate_count(self):
        config = ExecConfig(n_qubits=3)
        one = compile_circuit(gates_as_circuit([GateApplication(GateKind.H, 0)], 3), config)
        five = compile_circuit(
            gates_as_circuit([GateApplication(GateKind.H, 0)] * 5, 3), config
        )
        assert program_latency(five, config).compute_cycles == 5 * program_latency(one, config).compute_cycles

    def test_init_scales_with_table(self):
        config = ExecConfig(n_qubits=2)
        gates = [
            GateApplication(GateKind.RZ, 0, angle=0.1),
            GateApplication(GateKind.RZ, 0, angle=0.2),
        ]
        program = compile_circuit(gates_as_circuit(gates, 1), config)
        assert program_latency(program, config).init_cycles == 2 * INIT_CYCLES_PER_ANGLE_PAIR

    def test_readout_scales_with_state(self):
        config = ExecConfig(n_qubits=4)
        program = compile_circuit(gates_as_circuit([GateApplication(GateKind.H, 0)], 1), config)
        assert program_latency(program, config).readout_cycles == 16 * READOUT_CYCLES_PER_AMPLITUDE

    def test_cycle_ordering(self):
        # every opcode has a positive cost, ordered rotational >= one-multiplier >= sign/exchange
        assert set(BASE_CYCLES) == set(GateKind) and min(BASE_CYCLES.values()) > 0
        assert min(BASE_CYCLES[k] for k in ROTATIONAL) >= max(BASE_CYCLES[k] for k in ONE_MULTIPLIER)
        assert min(BASE_CYCLES[k] for k in ONE_MULTIPLIER) >= max(BASE_CYCLES[k] for k in SIGN_EXCHANGE)

    def test_compute_cycles_sum_per_opcode_costs(self):
        config = ExecConfig(n_qubits=2)
        gates = [GateApplication(GateKind.RX, 0, angle=0.3), GateApplication(GateKind.H, 1), GateApplication(GateKind.X, 0, 1)]
        program = compile_circuit(gates_as_circuit(gates, 2), config)
        expected = BASE_CYCLES[GateKind.RX] + BASE_CYCLES[GateKind.H] + BASE_CYCLES[GateKind.X]
        assert program_latency(program, config).compute_cycles == expected


class TestReport:
    def test_sweep_monotonicity(self):
        config0 = ExecConfig(n_qubits=3, window=0)
        program = bell_program(config0)
        configs = [ExecConfig(n_qubits=3, window=w) for w in range(3)]
        datapaths = [estimate_resources(c).datapaths for c in configs]
        cycles = [program_latency(program, c).total_cycles for c in configs]
        assert datapaths == sorted(datapaths, reverse=True)
        assert cycles == sorted(cycles)
