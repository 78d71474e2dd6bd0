"""Toolchain for a butterfly-based SIMD quantum-circuit emulator.

Compiles OpenQASM 2.0 into a RISC-like instruction stream, executes it on
bit-accurate fixed-point or double-precision backends, models the windowed
hardware's resource and cycle costs, quantifies emulation quality against
the float reference, and speaks the ASCII host protocol of the physical
board.
"""

from importlib import resources as _resources

from .columns import Columns
from .compiler import (
    AngleTable,
    CompiledProgram,
    CompileError,
    DecodeError,
    Instruction,
    compile_circuit,
    load_program_files,
    write_program_files,
)
from .config import FLOAT_REFERENCE, ConfigError, ExecConfig, load_config, parse_config
from .engine import (
    EngineError,
    FixedState,
    FloatState,
    apply_gate,
    dump_state,
    initial_state,
    run,
    run_formats,
    sample_counts,
)
from .fixedpoint import FixedPointFormat, Rounding, from_real, round_shift
from .gates import GateApplication, GateKind, gate_matrix
from .hostlink import (
    FramingError,
    HostMessage,
    MessageKind,
    ProtocolError,
    StreamDecoder,
    VirtualBoard,
    decode_readback,
    decode_stream,
    encode_message,
    encode_readback,
    encode_session,
    loopback_session,
)
from .hwmodel import (
    LatencyBreakdown,
    ResourceEstimate,
    estimate_resources,
    program_latency,
)
from .metrics import QualityReport, complex_distances, hellinger_fidelity, kld, report
from .qasm import QasmError, SourceCircuit, parse, parse_file

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path of a bundled benchmark circuit, e.g. ``fixture_path("bell.qasm")``."""
    return _resources.files(__name__) / "fixtures" / name


def fixture_names() -> list[str]:
    root = _resources.files(__name__) / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".qasm"))
