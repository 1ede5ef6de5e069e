"""Synthetic standard-cell libraries for the 5/7/12 nm technology nodes.

The paper evaluates on industrial designs in 5–12 nm technologies whose
libraries are confidential.  We define compact synthetic libraries with the
structure that matters to CCD optimization:

* every combinational cell type comes in several **drive strengths** (sizes);
  upsizing lowers intrinsic delay and drive resistance but raises input
  capacitance and power — this is the lever of the data-path optimizer and
  the source of the "sizing headroom" heterogeneity the RL agent exploits;
* delay follows a linear NLDM-style model
  ``d = intrinsic + R_drive · C_load + k_slew · slew_in`` and output slew
  follows ``slew = slew_intrinsic + k_load · C_load`` — first-order but
  preserving the load/slew coupling real tools see;
* sequential cells (DFF) have clock-to-Q delay and setup time, the
  quantities the useful-skew engine trades against each other.

Units: time **ns**, capacitance **fF** (with R_drive in ns/fF), power **mW**,
distance **µm**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CellSize:
    """One drive strength of a cell type."""

    code: str
    intrinsic_delay: float  # ns
    drive_resistance: float  # ns per fF of load
    input_cap: float  # fF per input pin
    slew_intrinsic: float  # ns
    slew_load_factor: float  # ns per fF of load
    slew_sensitivity: float  # added delay per ns of input slew
    internal_power: float  # mW at nominal toggle rate
    leakage_power: float  # mW
    area: float = 0.0  # µm² (0 for ports)

    def delay(self, load_cap: float, input_slew: float) -> float:
        """Propagation delay for the given load and input slew."""
        return (
            self.intrinsic_delay
            + self.drive_resistance * load_cap
            + self.slew_sensitivity * input_slew
        )


@dataclass(frozen=True)
class CellType:
    """A logic function available in several sizes.

    ``num_inputs == 0`` marks primary-input ports; ``is_sequential`` marks
    flip-flops, which additionally carry ``clk_to_q`` and ``setup`` times.
    """

    name: str
    num_inputs: int
    sizes: Tuple[CellSize, ...]
    is_sequential: bool = False
    is_buffer: bool = False
    is_port: bool = False
    clk_to_q: float = 0.0  # ns, sequential only
    setup_time: float = 0.0  # ns, sequential only
    hold_time: float = 0.0  # ns, sequential only

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError(f"cell type {self.name!r} needs at least one size")
        if self.num_inputs < 0:
            raise ValueError(f"cell type {self.name!r} has negative input count")

    @property
    def max_size_index(self) -> int:
        return len(self.sizes) - 1

    def size(self, index: int) -> CellSize:
        """The :class:`CellSize` at ``index`` (bounds-checked)."""
        if not 0 <= index < len(self.sizes):
            raise IndexError(
                f"size index {index} out of range for {self.name!r} "
                f"({len(self.sizes)} sizes)"
            )
        return self.sizes[index]


@dataclass(frozen=True)
class Library:
    """A technology library: cell types plus global wire/clock parameters."""

    name: str
    node_nm: int
    cell_types: Dict[str, CellType]
    wire_cap_per_um: float  # fF/µm
    wire_res_delay_per_um: float  # ns/µm (lumped first-order wire delay)
    default_clock_period: float  # ns
    default_input_slew: float = 0.02  # ns at primary inputs
    default_port_cap: float = 1.0  # fF presented by output ports

    def __post_init__(self) -> None:
        check_positive("wire_cap_per_um", self.wire_cap_per_um)
        check_positive("default_clock_period", self.default_clock_period)

    def cell_type(self, name: str) -> CellType:
        """Look up a cell type, raising ``KeyError`` with suggestions."""
        try:
            return self.cell_types[name]
        except KeyError:
            raise KeyError(
                f"unknown cell type {name!r} in library {self.name!r}; "
                f"available: {sorted(self.cell_types)}"
            ) from None

    @property
    def combinational_names(self) -> Tuple[str, ...]:
        return tuple(
            n
            for n, t in self.cell_types.items()
            if not t.is_sequential and not t.is_port and t.num_inputs > 0
        )


def _sizes(
    base_delay: float,
    base_res: float,
    base_cap: float,
    base_power: float,
    n_sizes: int,
    scale: float,
) -> Tuple[CellSize, ...]:
    """Build a geometric size ladder.

    Each step up multiplies drive (divides resistance) by ~1.8 while input
    capacitance and power grow by ~1.6 — the classic sizing trade-off.
    ``scale`` applies a whole-node speed/cap scaling (5 nm < 7 nm < 12 nm).
    """
    sizes = []
    for i in range(n_sizes):
        drive = 1.8**i
        cap_mult = 1.6**i
        sizes.append(
            CellSize(
                code=f"X{2**i}",
                intrinsic_delay=scale * base_delay / (1.0 + 0.25 * i),
                drive_resistance=scale * base_res / drive,
                input_cap=base_cap * cap_mult * scale,
                slew_intrinsic=scale * 0.3 * base_delay,
                slew_load_factor=scale * 0.4 * base_res / drive,
                slew_sensitivity=0.12,
                internal_power=base_power * cap_mult,
                leakage_power=0.12 * base_power * cap_mult,
                area=0.5 * scale**2 * cap_mult,
            )
        )
    return tuple(sizes)


def _build_library(name: str, node_nm: int, scale: float, clock_period: float) -> Library:
    """Construct one technology library with a shared cell-type roster."""
    port_size = CellSize(
        code="PORT",
        intrinsic_delay=0.0,
        drive_resistance=0.002 * scale,
        input_cap=1.0 * scale,
        slew_intrinsic=0.02 * scale,
        slew_load_factor=0.001 * scale,
        slew_sensitivity=0.0,
        internal_power=0.0,
        leakage_power=0.0,
    )
    types = {
        "INPORT": CellType("INPORT", 0, (port_size,), is_port=True),
        "OUTPORT": CellType("OUTPORT", 1, (port_size,), is_port=True),
        "BUF": CellType(
            "BUF", 1, _sizes(0.012, 0.0045, 0.9, 0.004, 5, scale), is_buffer=True
        ),
        "INV": CellType("INV", 1, _sizes(0.008, 0.0040, 0.8, 0.003, 5, scale)),
        "NAND2": CellType("NAND2", 2, _sizes(0.014, 0.0055, 1.1, 0.005, 4, scale)),
        "NOR2": CellType("NOR2", 2, _sizes(0.016, 0.0060, 1.2, 0.005, 4, scale)),
        "AND3": CellType("AND3", 3, _sizes(0.020, 0.0065, 1.3, 0.007, 4, scale)),
        "OAI21": CellType("OAI21", 3, _sizes(0.022, 0.0070, 1.4, 0.008, 4, scale)),
        "XOR2": CellType("XOR2", 2, _sizes(0.026, 0.0080, 1.6, 0.010, 3, scale)),
        "MUX2": CellType("MUX2", 3, _sizes(0.024, 0.0075, 1.5, 0.009, 3, scale)),
        "DFF": CellType(
            "DFF",
            1,
            _sizes(0.010, 0.0050, 1.4, 0.012, 3, scale),
            is_sequential=True,
            clk_to_q=0.045 * scale,
            setup_time=0.030 * scale,
            hold_time=0.012 * scale,
        ),
    }
    return Library(
        name=name,
        node_nm=node_nm,
        cell_types=types,
        wire_cap_per_um=0.18 * scale,
        wire_res_delay_per_um=0.00035 * scale,
        default_clock_period=clock_period,
    )


# The three technology nodes the paper's 19 designs span.  Smaller nodes are
# faster (smaller delay/cap scale) and run at tighter clock periods.
TECH5 = _build_library("tech5", 5, scale=0.75, clock_period=0.60)
TECH7 = _build_library("tech7", 7, scale=1.00, clock_period=0.80)
TECH12 = _build_library("tech12", 12, scale=1.45, clock_period=1.10)

LIBRARIES: Dict[str, Library] = {lib.name: lib for lib in (TECH5, TECH7, TECH12)}


def get_library(name: str) -> Library:
    """Fetch one of the built-in technology libraries by name."""
    try:
        return LIBRARIES[name]
    except KeyError:
        raise KeyError(
            f"unknown library {name!r}; available: {sorted(LIBRARIES)}"
        ) from None
