"""Analog-to-ternary write-pattern encoder.

Two implementations of the same mapping live here. The behavioral path is
the exact bin table: an input in [0, 3] V selects one of ten rows, each row
carrying the 3-trit code whose per-port write voltages are 0 / 2.5 / 4 V.
The structural path simulates the code-selector ladder that produces those
voltages in hardware: per port and per owning range, a pair of comparators
detects the range, an AND gate combines them into the block's enable, the
enabled block emits its assigned write level, and a summing stage merges
the (at most one) active block per port. With ideal settings the two paths
agree everywhere except possibly within a guard band of the bin edges, and
check_equivalence reports any point where they do not.

Bins own half-open intervals [a1_row, a1_next); the printed upper bounds of
the table are display values on a 0.01 V grid, and the final row closes at
the domain end.
"""

import bisect
import math
from dataclasses import dataclass, field, fields

# Ideal write amplitudes per logic value.
WRITE_LEVELS = (0.0, 2.5, 4.0)

# Midpoints between the ideal levels, used to quantize analog port voltages
# back to logic values.
QUANTIZE_LOW = (WRITE_LEVELS[0] + WRITE_LEVELS[1]) / 2.0
QUANTIZE_HIGH = (WRITE_LEVELS[1] + WRITE_LEVELS[2]) / 2.0

# sum_r2/sum_r1 ratio at which the summing stage passes levels through at
# unity gain.
_UNITY_SUM_RATIO = 2.0


class OutOfRange(Exception):
    """Input voltage outside the encoder domain."""


@dataclass(frozen=True)
class TernaryCode:
    """Three trits, ordered (port1, port2, port3)."""

    trits: tuple

    def __post_init__(self):
        if len(self.trits) != 3 or any(t not in (0, 1, 2) for t in self.trits):
            raise ValueError(f"code must be 3 trits in {{0,1,2}}, got {self.trits}")

    @classmethod
    def from_string(cls, text):
        if len(text) != 3 or any(c not in "012" for c in text):
            raise ValueError(f"cannot parse ternary code from {text!r}")
        return cls(tuple(int(c) for c in text))

    def __str__(self):
        return "".join(str(t) for t in self.trits)


@dataclass(frozen=True)
class WritePattern:
    """Per-port programming voltages; analog on the structural path."""

    port_voltages: tuple


@dataclass(frozen=True)
class BinRow:
    a1: float
    a2: float
    code: TernaryCode


@dataclass(frozen=True)
class BinTable:
    """Ordered input ranges and their write codes, ascending target level."""

    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise ValueError("bin table needs at least one row")
        previous = None
        seen = set()
        for row in self.rows:
            if row.a2 < row.a1:
                raise ValueError(f"row [{row.a1}, {row.a2}] is reversed")
            if previous is not None and row.a1 <= previous.a1:
                raise ValueError("rows must be ordered by ascending lower bound")
            if row.code.trits in seen:
                raise ValueError(f"duplicate code {row.code}")
            seen.add(row.code.trits)
            previous = row

    @property
    def v_min(self):
        return self.rows[0].a1

    @property
    def v_max(self):
        return self.rows[-1].a2

    def lower_bounds(self):
        return [row.a1 for row in self.rows]

    def interior_edges(self):
        return [row.a1 for row in self.rows[1:]]

    def row_index(self, v_in):
        """Index of the half-open bin owning v_in; domain-checked."""
        if not self.v_min <= v_in <= self.v_max:
            raise OutOfRange(f"input {v_in} V outside [{self.v_min}, {self.v_max}] V")
        idx = bisect.bisect_right(self.lower_bounds(), v_in) - 1
        return max(idx, 0)


def _default_rows():
    data = [
        (0.00, 0.30, "222"),
        (0.31, 0.60, "122"),
        (0.61, 0.90, "112"),
        (0.91, 1.20, "022"),
        (1.21, 1.50, "012"),
        (1.51, 1.80, "111"),
        (1.81, 2.10, "002"),
        (2.11, 2.40, "011"),
        (2.41, 2.70, "001"),
        (2.71, 3.00, "000"),
    ]
    return tuple(BinRow(a1, a2, TernaryCode.from_string(c)) for a1, a2, c in data)


DEFAULT_BIN_TABLE = BinTable(_default_rows())


@dataclass(frozen=True)
class EncoderConfig:
    """Electrical constants of the structural ladder.

    sum_r1/sum_r2 set the summing gain (the default ratio passes the ideal
    levels through unchanged); comparator_offset is an input-referred offset
    for nonideality studies.
    """

    sum_r1: float = 10_000.0
    sum_r2: float = 20_000.0
    comparator_offset: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.sum_r1 <= 0 or self.sum_r2 <= 0:
            raise ValueError("summing resistors must be positive")

    @property
    def sum_gain(self):
        return (self.sum_r2 / self.sum_r1) / _UNITY_SUM_RATIO


def encode_behavioral(v_in, table: BinTable = DEFAULT_BIN_TABLE) -> TernaryCode:
    """Exact table lookup; raises OutOfRange outside the table domain."""
    return table.rows[table.row_index(v_in)].code


def code_to_write_voltages(code: TernaryCode) -> WritePattern:
    """Ideal per-port amplitudes: trit 0 -> 0 V, 1 -> 2.5 V, 2 -> 4 V."""
    return WritePattern(tuple(WRITE_LEVELS[t] for t in code.trits))


def _selector_blocks(table, port):
    """(low, high, target volts) per range that owns a nonzero trit on port."""
    blocks = []
    lowers = table.lower_bounds()
    for i, row in enumerate(table.rows):
        trit = row.code.trits[port]
        if trit == 0:
            continue
        high = lowers[i + 1] if i + 1 < len(table.rows) else None
        blocks.append((row.a1, high, WRITE_LEVELS[trit]))
    return blocks


def _fired_levels(v_in, table, cfg):
    """Per port, the write levels of the selector blocks whose comparator
    pair and AND gate fire, low <= v_in + offset < high; domain-checked."""
    if not table.v_min <= v_in <= table.v_max:
        raise OutOfRange(f"input {v_in} V outside [{table.v_min}, {table.v_max}] V")
    x = v_in + cfg.comparator_offset
    return [[target for low, high, target in _selector_blocks(table, port)
             if x >= low and (high is None or x < high)] for port in range(3)]


def encode_structural(v_in, table: BinTable = DEFAULT_BIN_TABLE,
                      cfg: EncoderConfig = EncoderConfig()) -> WritePattern:
    """Simulated code-selector ladder output; analog, possibly nonideal."""
    return WritePattern(tuple(cfg.sum_gain * sum(levels)
                              for levels in _fired_levels(v_in, table, cfg)))


def structural_activations(v_in, table: BinTable = DEFAULT_BIN_TABLE,
                           cfg: EncoderConfig = EncoderConfig()):
    """How many selector blocks fire per port; at most one in a sane config."""
    return tuple(len(levels) for levels in _fired_levels(v_in, table, cfg))


def quantize_write_voltage(v):
    """Map an analog port voltage back to its logic value."""
    if v >= QUANTIZE_HIGH:
        return 2
    if v >= QUANTIZE_LOW:
        return 1
    return 0


def quantize_pattern(pattern: WritePattern) -> TernaryCode:
    return TernaryCode(tuple(quantize_write_voltage(v) for v in pattern.port_voltages))


@dataclass(frozen=True)
class EquivalenceMismatch:
    v_in: float
    behavioral: TernaryCode
    structural: TernaryCode


@dataclass
class EquivalenceReport:
    mismatches: list = field(default_factory=list)
    n_checked: int = 0
    n_skipped: int = 0

    @property
    def ok(self):
        return not self.mismatches


def check_equivalence(table: BinTable = DEFAULT_BIN_TABLE,
                      cfg: EncoderConfig = EncoderConfig(),
                      grid=(), guard_band=0.005) -> EquivalenceReport:
    """Compare quantized structural output against the table on a grid.

    Points within guard_band of a bin edge are skipped (comparator offsets
    legitimately move decisions there); everywhere else the two paths must
    agree and any disagreement is recorded.
    """
    report = EquivalenceReport()
    edges = table.interior_edges()
    for v_in in grid:
        if edges and min(abs(v_in - e) for e in edges) < guard_band:
            report.n_skipped += 1
            continue
        report.n_checked += 1
        behavioral = encode_behavioral(v_in, table)
        structural = quantize_pattern(encode_structural(v_in, table, cfg))
        if structural != behavioral:
            report.mismatches.append(EquivalenceMismatch(v_in, behavioral, structural))
    return report
