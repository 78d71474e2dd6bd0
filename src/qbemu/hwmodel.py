"""Structural resource and cycle-cost model of the windowed SIMD architecture.

The full-parallel machine instantiates one datapath per interacting couple;
windowing order ``W`` time-multiplexes them, cutting datapaths to
``2**(N-W-1)`` while multiplying per-gate latency by ``2**W``.  ``W = 0`` is
the full-parallel machine and ``W = N-1`` the single-datapath serial one.
Per-opcode base cycle counts are ordered by the datapath operation classes
(rotational >= one-multiplier >= sign/exchange); they are placeholders for
relative timing, not measured microcode depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiler import CompiledProgram
from .config import ExecConfig
from .gates import ONE_MULTIPLIER, ROTATIONAL, SIGN_EXCHANGE, GateKind

BASE_CYCLES = {
    **{kind: 2 for kind in SIGN_EXCHANGE},
    **{kind: 4 for kind in ONE_MULTIPLIER},
    **{kind: 8 for kind in ROTATIONAL},
}
INIT_CYCLES_PER_ANGLE_PAIR = 2
READOUT_CYCLES_PER_AMPLITUDE = 2


@dataclass(frozen=True)
class ResourceEstimate:
    datapaths: int
    state_regfile_bits: int
    angle_regfile_bits: int
    instruction_width_bits: int


@dataclass(frozen=True)
class LatencyBreakdown:
    init_cycles: int
    compute_cycles: int
    readout_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.init_cycles + self.compute_cycles + self.readout_cycles


def estimate_resources(config: ExecConfig) -> ResourceEstimate:
    """Structural sizes implied by the configuration alone."""
    return ResourceEstimate(
        datapaths=1 << (config.n_qubits - config.window - 1),
        state_regfile_bits=(1 << config.n_qubits) * config.data_bits * 2,
        angle_regfile_bits=(1 << config.imm_bits) * config.data_bits * 2,
        instruction_width_bits=config.instruction_bits,
    )


def program_latency(program: CompiledProgram, config: ExecConfig) -> LatencyBreakdown:
    """Whole-program cycles: per-gate base cost times the window count.

    Controlled gates cost the same as uncontrolled ones: the window schedule
    walks all 2^(N-1) couple slots and skipped couples idle.  Overheads are
    the angle-table load at startup and the 2^N amplitude readout.
    """
    per_opcode = np.bincount(program.instructions.opcode, minlength=len(GateKind))
    compute = int(per_opcode @ [BASE_CYCLES[kind] for kind in GateKind]) << config.window
    init = len(program.table) * INIT_CYCLES_PER_ANGLE_PAIR
    readout = (1 << config.n_qubits) * READOUT_CYCLES_PER_AMPLITUDE
    return LatencyBreakdown(init, compute, readout)
