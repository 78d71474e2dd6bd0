"""Architecture configuration shared by compiler, engine, and hardware model.

A configuration is a flat ``key = value`` text file with the keys
``N`` (qubit capacity, at most :data:`MAX_QUBITS`), ``W`` (windowing order),
``Q`` (immediate field width, bounded so an instruction word fits in 63
bits), ``data_bits`` (number representation width) and ``rounding``
(``truncation``, ``nearest``, ``nearest_even`` or ``float_reference``).
Any other key is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .fixedpoint import FixedPointFormat, Rounding

FLOAT_REFERENCE = "float_reference"

ROUNDING_CHOICES = ("truncation", "nearest", "nearest_even", FLOAT_REFERENCE)

# Widest data word: a fixed state's int32 planes hold such words exactly, and
# the engine's int64 arithmetic holds products of two of them (at most 2**62)
# with room for rounding.
MAX_DATA_BITS = 32

# Largest state either backend allocates: 2**N amplitudes of 16 bytes each, a
# float state's complex128.  A fixed state's amplitude is one int32 in each of
# its two planes, 8 bytes, but a run's float reference at the same N takes 16.
MAX_STATE_BYTES = 1 << 32
MAX_QUBITS = MAX_STATE_BYTES.bit_length() - 5


class ConfigError(ValueError):
    """Invalid configuration; ``key`` names the key at fault, if one is."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def quote(text: str) -> str:
    """``text`` as ``repr`` writes it, cut to its first 40 characters and
    ``...`` if longer: how error messages quote offending input."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


@dataclass(frozen=True)
class ExecConfig:
    n_qubits: int = 5
    window: int = 0
    imm_bits: int = 4
    data_bits: int = 20
    rounding: str = "nearest"

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigError(f"N must be in [1, {MAX_QUBITS}] (the state limit), got N={self.n_qubits}", "N")
        if not 0 <= self.window <= self.n_qubits - 1:
            raise ConfigError(f"W must be in [0, N-1], got W={self.window} with N={self.n_qubits}", "W")
        if self.imm_bits < 1:
            raise ConfigError("Q must be at least 1", "Q")
        if self.instruction_bits > 63:  # every instruction word fits in an int64
            words = f"{self.instruction_bits}-bit instruction words"
            raise ConfigError(f"Q={self.imm_bits} with N={self.n_qubits} makes {words}, over 63 bits", "Q")
        if not 8 <= self.data_bits <= MAX_DATA_BITS:
            raise ConfigError(f"data_bits must be in [8, {MAX_DATA_BITS}]", "data_bits")
        if self.rounding not in ROUNDING_CHOICES:
            raise ConfigError(f"rounding must be one of {ROUNDING_CHOICES}, got {quote(self.rounding)}", "rounding")

    @property
    def qubit_field_bits(self) -> int:
        """Width of the target/control instruction fields: ceil(log2 N)."""
        return (self.n_qubits - 1).bit_length()

    @property
    def instruction_bits(self) -> int:
        return 4 + 2 * self.qubit_field_bits + self.imm_bits

    @property
    def is_float_reference(self) -> bool:
        return self.rounding == FLOAT_REFERENCE

    @property
    def fixed_format(self) -> FixedPointFormat:
        if self.is_float_reference:
            raise ConfigError("float_reference mode has no fixed-point format")
        return FixedPointFormat(self.data_bits, Rounding(self.rounding))


_KEY_TO_FIELD = {
    "N": "n_qubits",
    "W": "window",
    "Q": "imm_bits",
    "data_bits": "data_bits",
    "rounding": "rounding",
}
_INT_FIELDS = {"n_qubits", "window", "imm_bits", "data_bits"}


def parse_config(text: str, base: ExecConfig | None = None) -> ExecConfig:
    """Parse ``key = value`` configuration text on top of ``base`` (or defaults)."""
    values: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {quote(raw)}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {quote(key)}")
        field_name = _KEY_TO_FIELD[key]
        key_lines[key] = lineno
        if field_name in _INT_FIELDS:
            if not re.fullmatch("-?[0-9]{1,19}", value):  # as in the file grammars
                raise ConfigError(f"line {lineno}: {key} expects an integer, got {quote(value)}")
            values[field_name] = int(value)
        else:
            values[field_name] = value
    try:
        return replace(base or ExecConfig(), **values)
    except ConfigError as exc:
        where = f"line {key_lines[exc.key]}: " if exc.key in key_lines else ""
        raise ConfigError(f"{where}{exc}", exc.key) from None


def load_config(path, base: ExecConfig | None = None) -> ExecConfig:
    """Parse a UTF-8 configuration file; a byte that is not UTF-8 is an error naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start] + b"?").decode("utf-8").splitlines())
        raise ConfigError(f"{path}: line {lineno}: byte {data[exc.start]:#04x} is not UTF-8") from None
    return parse_config(text, base=base)
