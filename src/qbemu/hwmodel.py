"""Structural resource and cycle-cost model of the windowed SIMD architecture.

The full-parallel machine instantiates one datapath per interacting couple;
windowing order ``W`` time-multiplexes them, cutting datapaths to
``2**(N-W-1)`` while multiplying per-gate latency by ``2**W``.  ``W = 0`` is
the full-parallel machine and ``W = N-1`` the single-datapath serial one.
Per-opcode base cycle counts are configuration data ordered by the datapath
operation classes; the defaults are placeholders for relative timing, not
measured microcode depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compiler import CompiledProgram
from .config import ExecConfig
from .gates import ONE_MULTIPLIER, ROTATIONAL, SIGN_EXCHANGE, GateKind

DEFAULT_BASE_CYCLES = {
    **{kind: 2 for kind in SIGN_EXCHANGE},
    **{kind: 4 for kind in ONE_MULTIPLIER},
    **{kind: 8 for kind in ROTATIONAL},
}


@dataclass(frozen=True)
class ResourceEstimate:
    datapaths: int
    state_regfile_bits: int
    angle_regfile_bits: int
    instruction_width_bits: int


@dataclass(frozen=True)
class LatencyModel:
    """Per-opcode base cycles plus fixed init/readout overheads.

    Base cycles must respect the operation-class ordering: rotational gates
    are at least as slow as one-multiplier gates, which are at least as slow
    as sign/exchange gates.
    """

    base_cycles: dict[GateKind, int] = field(default_factory=lambda: dict(DEFAULT_BASE_CYCLES))
    init_cycles_per_angle_pair: int = 2
    readout_cycles_per_amplitude: int = 2

    def __post_init__(self) -> None:
        missing = [k.name for k in GateKind if k not in self.base_cycles]
        if missing:
            raise ValueError(f"base_cycles missing opcodes: {missing}")
        if any(c <= 0 for c in self.base_cycles.values()):
            raise ValueError("base cycle counts must be positive")
        slow_rot = min(self.base_cycles[k] for k in ROTATIONAL)
        mid = min(self.base_cycles[k] for k in ONE_MULTIPLIER)
        if slow_rot < max(self.base_cycles[k] for k in ONE_MULTIPLIER) or mid < max(
            self.base_cycles[k] for k in SIGN_EXCHANGE
        ):
            raise ValueError("base cycles must be ordered rotational >= one-multiplier >= sign/exchange")


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


def program_latency(
    program: CompiledProgram, config: ExecConfig, model: LatencyModel | None = None
) -> LatencyBreakdown:
    """Whole-program cycles: per-gate base cost times the window count.

    Controlled gates cost the same as uncontrolled ones: the window schedule
    walks all 2^(N-1) couple slots and skipped couples idle.  Overheads are
    the angle-table load at startup and the 2^N amplitude readout.
    """
    model = model or LatencyModel()
    windows = 1 << config.window
    per_opcode = np.bincount(program.instructions.opcode, minlength=len(GateKind))
    compute = int(per_opcode @ [model.base_cycles[kind] for kind in GateKind]) * windows
    init = len(program.table) * model.init_cycles_per_angle_pair
    readout = (1 << config.n_qubits) * model.readout_cycles_per_amplitude
    return LatencyBreakdown(init, compute, readout)

